import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from debatesum import pipeline
from debatesum.cli import main
from debatesum.errors import ConfigError
from debatesum.evalkit import SilhouetteReport
from debatesum.pipeline import PipelineConfig, load_config, read_json, run_pipeline

from conftest import SAMPLE_DIR, assert_staged_run_matches_pipeline, make_config, src_env
from oracles import compensated_sum


EXPECTED_ARTIFACTS = (
    "annotations.json",
    "salient.json",
    "clusters.json",
    "labels.json",
    "alignment.json",
    "evaluation.json",
    "manifest.json",
)


class TestRunPipeline:
    def test_xmeans_branch_writes_all_artifacts(self, tmp_path):
        config = load_config(make_config(tmp_path))
        manifest = run_pipeline(config)
        out = Path(config.output_dir)
        for name in EXPECTED_ARTIFACTS:
            assert (out / name).is_file(), name
        assert (out / "chart_t1.json").is_file()
        assert (out / "chart_t1.html").is_file()
        assert manifest["config"]["clustering_method"] == "xmeans"
        assert manifest["config"]["seed"] == 42

    def test_term_branch(self, tmp_path):
        config = load_config(
            make_config(tmp_path, clustering_method="term", labeling_method="shared")
        )
        run_pipeline(config)
        clusters = read_json(Path(config.output_dir) / "clusters.json")
        assert clusters["method"] == "term"
        some_clusters = clusters["topics"][0]["sides"]["agree"]["clusters"]
        assert all(c["label"] is not None for c in some_clusters)

    def test_byte_determinism_for_fixed_seed(self, tmp_path):
        config_a = load_config(make_config(tmp_path, output_dir=str(tmp_path / "out_a")))
        config_b = load_config(make_config(tmp_path, output_dir=str(tmp_path / "out_b")))
        manifest_a = run_pipeline(config_a)
        manifest_b = run_pipeline(config_b)
        assert manifest_a["artifacts"] == manifest_b["artifacts"]
        for name in manifest_a["artifacts"]:
            bytes_a = (Path(config_a.output_dir) / name).read_bytes()
            bytes_b = (Path(config_b.output_dir) / name).read_bytes()
            assert bytes_a == bytes_b, name

    def test_evaluation_has_rouge_and_silhouette(self, tmp_path):
        config = load_config(make_config(tmp_path))
        run_pipeline(config)
        evaluation = read_json(Path(config.output_dir) / "evaluation.json")
        assert set(evaluation["rouge"]) == {
            "SP", "SL", "TT", "CJ", "COS_TPS", "COS_CCTS", "COS_TTS", "COS_STT", "CB",
        }
        sp = evaluation["rouge"]["SP"]
        assert set(sp) == {"R1", "R2", "RSU4"}
        assert 0.0 <= sp["R1"]["recall"] <= 1.0
        assert evaluation["silhouette"]["method"] == "xmeans"

    def test_missing_gazetteer_is_config_error(self, tmp_path):
        config_path = make_config(tmp_path)
        (config_path.parent / "gazetteer.txt").unlink()
        with pytest.raises(ConfigError):
            load_config(config_path)

    def test_unknown_config_key_rejected(self, tmp_path):
        config_path = make_config(tmp_path)
        raw = json.loads(config_path.read_text())
        raw["tppo"] = 1
        config_path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            load_config(config_path)

    def test_stage_errors_leave_no_partial_outputs(self, tmp_path):
        config_path = make_config(tmp_path, labeling_method="shared")  # invalid with xmeans
        config = load_config(config_path)
        with pytest.raises(Exception):
            run_pipeline(config)
        out = Path(config.output_dir)
        assert not out.exists() or not any(out.iterdir())


# (text, planted term vector) per sentence: copies and proportional vectors repeat
DUPLICATE_SENTENCES = {
    "agree": [
        ["Methane and permafrost matter.", "Drought is here.", "Wildfire and arctic news.",
         "Methane methane and permafrost permafrost matter."],
        ["Drought is here.", "Methane and permafrost matter.", "Drought and drought again.",
         "Nothing relevant here.", "Wildfire and arctic news.", "Drought is here."],
    ],
    "disagree": [
        ["Albedo is fine.", "Ozone and aerosol talk.", "Albedo is fine.", "Ozone and aerosol talk."],
        ["Albedo albedo.", "Ozone and aerosol talk.", "Hurricane season.", "Hurricane season."],
    ],
}


def duplicate_vector_config(tmp_path: Path) -> Path:
    comments = []
    for side, texts_per_comment in DUPLICATE_SENTENCES.items():
        for texts in texts_per_comment:
            cid = f"t1-c{len(comments) + 1}"
            comments.append({
                "id": cid,
                "side": side,
                "sentences": [
                    {"id": f"{cid}-s{i + 1}", "position": i + 1, "text": text}
                    for i, text in enumerate(texts)
                ],
            })
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"topics": [
        {"id": "t1", "title": "Is the climate changing?", "comments": comments}
    ]}), encoding="utf-8")
    config = {
        "corpus_path": str(corpus),
        "gazetteer_path": str(SAMPLE_DIR / "gazetteer.txt"),
        "synonyms_path": str(SAMPLE_DIR / "synonyms.tsv"),
        "clustering_method": "xmeans",
        "labeling_method": "mi",
        "ratio": 1.0,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestXmeansDuplicateVectors:
    def test_copies_and_proportional_vectors_share_a_cluster(self, tmp_path):
        config = load_config(duplicate_vector_config(tmp_path))
        run_pipeline(config)
        out = Path(config.output_dir)
        clusters = read_json(out / "clusters.json")
        annotations = read_json(out / "annotations.json")
        terms = {
            s["sentence_id"]: Counter(a["canonical"] for a in s["annotations"])
            for t in annotations["topics"] for s in t["sentences"]
        }
        for side, side_doc in clusters["topics"][0]["sides"].items():
            assert all(c["members"] for c in side_doc["clusters"]), side
            cluster_of = {sid: j for j, c in enumerate(side_doc["clusters"]) for sid in c["members"]}
            groups: dict = {}
            for sid in cluster_of:
                counts = terms[sid]
                scale = math.gcd(*counts.values())
                groups.setdefault(frozenset((t, n // scale) for t, n in counts.items()), []).append(sid)
            assert any(len(g) > 1 for g in groups.values()), side
            for group in groups.values():
                assert len({cluster_of[sid] for sid in group}) == 1, group
                assert len({tuple(side_doc["points"][sid]) for sid in group}) == 1, group
        labels = read_json(out / "labels.json")
        assert labels["clusters"]
        assert all(e["label"] != "(unlabeled)" for e in labels["clusters"])


@pytest.mark.parametrize("method", ["term", "xmeans"])
def test_canonical_terms_map_built_once_per_process(tmp_path, monkeypatch, method):
    """``pipeline`` builds the canonical-terms map once for cluster, label and
    eval; each stage command that reads annotations.json builds it once."""
    from debatesum import cli

    built = []
    real = pipeline.canonical_terms_by_sentence

    def counting(annotations_doc):
        built.append(annotations_doc)
        return real(annotations_doc)

    monkeypatch.setattr(pipeline, "canonical_terms_by_sentence", counting)
    monkeypatch.setattr(cli, "canonical_terms_by_sentence", counting)
    config_path = make_config(tmp_path, clustering_method=method)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    assert len(built) == 1
    for command in (["cluster"], ["label"], ["eval", "silhouette"]):
        built.clear()
        assert main([*command, "--config", str(config_path)]) == 0
        assert len(built) == 1, command


class TestStageDocs:
    def test_unlabeled_clusters_reported_as_dropped(self):
        from debatesum.annotate import SynonymTable
        from debatesum.pipeline import canonical_terms_by_sentence, compute_alignment, compute_labels

        clusters_doc = {
            "method": "xmeans",
            "topics": [
                {
                    "topic_id": "t",
                    "sides": {
                        "agree": {
                            "clusters": [
                                {"cluster_id": "t/agree:x0", "label": None, "members": ["s1"]}
                            ],
                            "unclustered": [],
                        },
                        "disagree": {
                            "clusters": [
                                {"cluster_id": "t/disagree:x0", "label": None, "members": ["s2"]}
                            ],
                            "unclustered": [],
                        },
                    },
                }
            ],
        }
        annotations_doc = {
            "topics": [
                {
                    "topic_id": "t",
                    "sentences": [
                        {"sentence_id": "s1", "annotations": []},
                        {
                            "sentence_id": "s2",
                            "annotations": [
                                {"term": "ice", "canonical": "ice", "start": 0, "end": 1}
                            ],
                        },
                    ],
                }
            ],
        }
        labels = compute_labels(clusters_doc, canonical_terms_by_sentence(annotations_doc), "mi")
        by_id = {e["cluster_id"]: e["label"] for e in labels["clusters"]}
        assert by_id["t/agree:x0"] == "(unlabeled)"
        assert by_id["t/disagree:x0"] == "ice"
        aligned = compute_alignment(clusters_doc, labels, SynonymTable(), 0.6)
        topic = aligned["topics"][0]
        assert topic["pairs"] == []
        dropped = {d["cluster_id"]: d["label"] for d in topic["dropped"]}
        assert dropped == {"t/agree:x0": "(unlabeled)", "t/disagree:x0": "ice"}


class TestCli:
    def test_pipeline_subcommand(self, tmp_path, capsys):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "artifacts" in out

    def test_stage_chaining(self, tmp_path):
        config_path = make_config(tmp_path)
        out = tmp_path / "out"
        for argv in (
            ["annotate", "--config", str(config_path)],
            ["select", "--config", str(config_path)],
            ["cluster", "--config", str(config_path), "--method", "xmeans"],
            ["label", "--config", str(config_path), "--method", "mi"],
            ["align", "--config", str(config_path)],
            ["chart", "--config", str(config_path)],
            ["eval", "rouge", "--config", str(config_path)],
            ["eval", "silhouette", "--config", str(config_path)],
        ):
            assert main(argv) == 0, argv
        for name in (
            "annotations.json", "salient.json", "clusters.json", "labels.json",
            "alignment.json", "chart_t1.json", "chart_t1.html",
            "evaluation_rouge.json", "evaluation_silhouette.json",
        ):
            assert (out / name).is_file(), name

    def test_staged_run_matches_pipeline_artifacts(self, tmp_path):
        commands = [
            ["annotate"], ["select"], ["cluster"], ["label"], ["align"], ["chart"],
            ["eval", "silhouette"],
        ]
        assert_staged_run_matches_pipeline(make_config(tmp_path), tmp_path, commands, main)

    def test_staged_run_in_fresh_processes_matches_pipeline_artifacts(self, tmp_path):
        # the benchmark's xmeans-staged commands, each in a new interpreter, so every
        # algorithm module is first imported by the stage that calls it
        def run(argv: list[str]) -> int:
            return subprocess.run(
                [sys.executable, "-m", "debatesum.cli", *argv],
                env=src_env(), capture_output=True, timeout=120,
            ).returncode

        commands = [
            ["annotate"], ["select"], ["cluster", "--method", "xmeans"],
            ["label", "--method", "tfidf"], ["align"], ["chart"], ["eval", "silhouette"],
        ]
        config_path = make_config(tmp_path, labeling_method="tfidf")
        assert_staged_run_matches_pipeline(config_path, tmp_path, commands, run)

    def test_artifact_flags_read_paths_outside_out(self, tmp_path):
        config_path = make_config(tmp_path)
        full_out = tmp_path / "full"
        assert main(["pipeline", "--config", str(config_path), "--out", str(full_out)]) == 0
        clusters = shutil.copy(full_out / "clusters.json", tmp_path / "c.json")
        annotations = shutil.copy(full_out / "annotations.json", tmp_path / "a.json")
        out = tmp_path / "labels_only"
        assert main([
            "label", "--config", str(config_path), "--out", str(out),
            "--clusters", str(clusters), "--annotations", str(annotations),
        ]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["labels.json"]
        assert (out / "labels.json").read_bytes() == (full_out / "labels.json").read_bytes()

    def test_missing_artifact_exit_2(self, tmp_path, capsys):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        (tmp_path / "out" / "annotations.json").unlink()
        capsys.readouterr()
        assert main(["label", "--config", str(config_path)]) == 2
        assert "annotations.json" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", ["drop_sides", "member_type", "not_json"])
    def test_malformed_artifact_exit_3(self, tmp_path, capsys, corrupt):
        where = {
            "drop_sides": "$.topics[0] has no 'sides'",
            "member_type": "$.topics[0].sides.agree.clusters[1].members[0] has the wrong type",
            "not_json": "",
        }[corrupt]
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        if corrupt == "not_json":
            clusters.write_text("{", encoding="utf-8")
        else:
            doc = read_json(clusters)
            if corrupt == "drop_sides":
                del doc["topics"][0]["sides"]
            else:
                doc["topics"][0]["sides"]["agree"]["clusters"][1]["members"][0] = 7
            clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["label", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "clusters.json" in err and where in err

    @pytest.mark.parametrize("point", [None, [math.nan, 0.0], [0.0], [True, 0.0]])
    def test_member_without_usable_point_exit_3(self, tmp_path, capsys, point):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        doc = read_json(clusters)
        side = doc["topics"][0]["sides"]["agree"]
        assert len(side["clusters"]) >= 2  # so that the silhouette reads the points
        member = side["clusters"][-1]["members"][-1]  # checked last
        if point is None:
            del side["points"][member]
        else:
            side["points"][member] = point
        clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "silhouette", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "clusters.json" in err and member in err

    # (1e154, 1e154): each square is finite, and only their sum overflows
    @pytest.mark.parametrize("big", [1e200, 1e308, pytest.param((1e154, 1e154), id="1e154x2")])
    def test_distance_beyond_the_float_range_exit_4(self, tmp_path, capsys, big):
        # before, a finite but huge point made eval silhouette exit 0 and write NaN
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        doc = read_json(clusters)
        side = doc["topics"][0]["sides"]["agree"]
        pair = next(c for c in side["clusters"] if len(c["members"]) == 2)
        coordinates = big if isinstance(big, tuple) else (big,)
        side["points"][pair["members"][0]][: len(coordinates)] = coordinates
        clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "silhouette", "--config", str(config_path)]) == 4
        err = capsys.readouterr().err
        assert "computation error: " in err and "'t1'" in err and "'agree'" in err
        assert not (tmp_path / "out" / "evaluation_silhouette.json").exists()

    @pytest.mark.parametrize("corrupt", ["null_points", "no_members"])
    def test_xmeans_side_without_points_or_members_exit_3(self, tmp_path, capsys, corrupt):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        doc = read_json(clusters)
        side = doc["topics"][0]["sides"]["agree"]
        assert doc["method"] == "xmeans" and len(side["clusters"]) == 2
        if corrupt == "null_points":
            side["points"] = None
            named = "t1/agree"
        else:
            side["clusters"][1]["members"] = []
            named = repr(side["clusters"][1]["cluster_id"])
        clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "silhouette", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "clusters.json" in err and named in err

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf,
        pytest.param(10**400, id="int-too-large-for-a-float"),
        pytest.param("1e400", id="1e400"),  # JSON text: it parses to inf
        pytest.param(True, id="boolean"),  # a boolean is no number
    ])
    def test_non_finite_similarity_exit_3(self, tmp_path, capsys, value):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        alignment = tmp_path / "out" / "alignment.json"
        doc = read_json(alignment)
        doc["topics"][0]["pairs"][0]["similarity"] = "<similarity>"
        text = value if isinstance(value, str) else json.dumps(value)  # NaN, Infinity, -Infinity
        alignment.write_text(json.dumps(doc).replace('"<similarity>"', text), encoding="utf-8")
        capsys.readouterr()
        assert main(["chart", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "alignment.json" in err and "$.topics[0].pairs[0].similarity" in err

    def test_term_vocabulary_built_only_where_read(self, tmp_path, monkeypatch):
        # term clusters and xmeans silhouettes read no term-vector axes, so they
        # canonicalize no gazetteer term; xmeans clusters do
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        calls = []
        canonical_label = pipeline.canonical_label
        monkeypatch.setattr(pipeline, "canonical_label",
                            lambda *args: calls.append(args) or canonical_label(*args))
        counts = {}
        for command in (["eval", "silhouette"], ["cluster", "--method", "term"], ["cluster"]):
            calls.clear()
            assert main([*command, "--config", str(config_path)]) == 0
            counts[" ".join(command)] = len(calls)
        assert counts["eval silhouette"] == counts["cluster --method term"] == 0
        assert counts["cluster"] > 0

    @pytest.mark.parametrize("command, artifact", [("label", "clusters"), ("chart", "alignment")])
    def test_lone_surrogate_in_an_artifact_exit_3(self, tmp_path, capsys, command, artifact):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        path = tmp_path / "out" / f"{artifact}.json"
        doc = read_json(path)
        if artifact == "clusters":
            entry = doc["topics"][0]["sides"]["agree"]["clusters"][0]
            entry["cluster_id"] += "\ud800"
            where = "$.topics[0].sides.agree.clusters[0].cluster_id"
        else:
            entry = doc["topics"][0]["pairs"][0]
            entry["label"] += "\ud800"
            where = "$.topics[0].pairs[0].label"
        path.write_text(json.dumps(doc), encoding="utf-8")  # ASCII escapes, so it parses
        capsys.readouterr()
        assert main([command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert f"{artifact}.json" in err and where in err and "lone surrogate" in err

    @pytest.mark.parametrize("command", [["label"], ["eval", "silhouette"]])
    def test_member_id_without_sentence_exit_3(self, tmp_path, capsys, command):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        doc = read_json(clusters)
        side = doc["topics"][0]["sides"]["agree"]
        member = side["clusters"][0]["members"][0]
        side["clusters"][0]["members"][0] = "ghost"
        side["points"]["ghost"] = side["points"].pop(member)  # the points still agree
        clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "clusters.json" in err and "'ghost'" in err

    def test_salient_id_without_sentence_exit_3(self, tmp_path, capsys):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        salient = tmp_path / "out" / "salient.json"
        doc = read_json(salient)
        doc["topics"][0]["comments"][0]["sentence_ids"][0] = "ghost"
        salient.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["cluster", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "salient.json" in err and "'ghost'" in err

    @pytest.mark.parametrize("command", [["label"], ["align"], ["chart"], ["eval", "silhouette"]])
    def test_member_of_another_topics_cluster_exit_3(self, tmp_path, capsys, command):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        doc = read_json(clusters)
        t1, t2 = doc["topics"]
        moved = t1["sides"]["disagree"]["clusters"][0]["members"][0]
        side = t2["sides"]["agree"]
        cluster = side["clusters"][-1]
        member = cluster["members"][0]
        cluster["members"][0] = moved
        side["points"][moved] = side["points"].pop(member)  # the points still agree
        clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "clusters.json" in err and repr(moved) in err and "t2/agree" in err

    # before, align and chart exited 0 with the member of t1 in a cluster of t2
    @pytest.mark.parametrize("command, artifact", [
        (["label"], "clusters"), (["eval", "silhouette"], "clusters"), (["cluster"], "salient"),
        (["align"], "clusters"), (["chart"], "clusters"),
    ])
    def test_sentence_of_another_topic_exit_3(self, tmp_path, capsys, command, artifact):
        # t1-c1-s2 is annotated in t1 but is in no salient list and no cluster
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        assert "t1-c1-s2" not in (out / "clusters.json").read_text(encoding="utf-8")
        assert "t1-c1-s2" not in (out / "salient.json").read_text(encoding="utf-8")
        doc = read_json(out / f"{artifact}.json")
        t2 = doc["topics"][1]
        assert t2["topic_id"] == "t2"
        if artifact == "clusters":
            side = t2["sides"]["agree"]
            member = side["clusters"][0]["members"][0]
            side["clusters"][0]["members"][0] = "t1-c1-s2"
            side["points"]["t1-c1-s2"] = side["points"].pop(member)
        else:
            t2["comments"][0]["sentence_ids"][0] = "t1-c1-s2"
        (out / f"{artifact}.json").write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert f"{artifact}.json" in err and "'t1-c1-s2'" in err and "topic 't2'" in err

    @pytest.mark.parametrize("command", [["align"], ["chart"]])
    def test_member_of_the_other_sides_cluster_exit_3(self, tmp_path, capsys, command):
        # a disagree sentence moved, with its point, into an agree cluster of its
        # topic: every file still agrees but salient.json; before, both exited 0
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        doc = read_json(clusters)
        agree, disagree = doc["topics"][0]["sides"]["agree"], doc["topics"][0]["sides"]["disagree"]
        # the largest disagree cluster keeps a member when one leaves it
        source = max(disagree["clusters"], key=lambda c: len(c["members"]))
        assert len(source["members"]) > 1
        moved = source["members"].pop()
        agree["clusters"][-1]["members"].append(moved)
        agree["points"][moved] = disagree["points"].pop(moved)
        clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "clusters.json" in err and repr(moved) in err and "side 'agree'" in err

    def test_annotations_without_topic_id_exit_3(self, tmp_path, capsys):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        annotations = tmp_path / "out" / "annotations.json"
        doc = read_json(annotations)
        del doc["topics"][1]["topic_id"]
        annotations.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["label", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "annotations.json" in err and "'topic_id'" in err

    @pytest.mark.parametrize("command", [["eval", "rouge"], ["pipeline"]])
    def test_gold_file_without_annotations_exit_3(self, tmp_path, capsys, command):
        config_path = make_config(tmp_path)
        gold = config_path.parent / "gold.json"
        gold.write_text(json.dumps({"annotations": []}), encoding="utf-8")
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "validation error" in err and str(gold) in err and "no annotations" in err
        assert not (tmp_path / "out" / "evaluation.json").exists()

    @pytest.mark.parametrize("command", ["align", "chart"])
    def test_cluster_without_label_exit_3(self, tmp_path, capsys, command):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        labels = tmp_path / "out" / "labels.json"
        doc = read_json(labels)
        dropped = doc["clusters"].pop(0)["cluster_id"]
        labels.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "labels.json" in err and repr(dropped) in err

    @pytest.mark.parametrize("command", [["label"], ["align"], ["chart"], ["eval", "silhouette"]])
    def test_duplicate_cluster_id_exit_3(self, tmp_path, capsys, command):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        doc = read_json(clusters)
        agree = doc["topics"][0]["sides"]["agree"]["clusters"]
        duplicate = agree[1]["cluster_id"] = agree[0]["cluster_id"]
        clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "clusters.json" in err and repr(duplicate) in err

    @pytest.mark.parametrize("command", ["align", "chart"])
    @pytest.mark.parametrize("cluster_id", ["ghost", None])  # None: a second entry
    def test_label_entry_naming_no_new_cluster_exit_3(self, tmp_path, capsys, command, cluster_id):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        labels = tmp_path / "out" / "labels.json"
        doc = read_json(labels)
        first = doc["clusters"][0]
        cluster_id = cluster_id or first["cluster_id"]
        doc["clusters"].append({**first, "cluster_id": cluster_id, "label": "sea level"})
        labels.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "labels.json" in err and repr(cluster_id) in err

    @pytest.mark.parametrize("cluster_id", ["nope", "t1/disagree:x0", "t2/agree:x0"])
    def test_pair_naming_no_cluster_of_its_side_exit_3(self, tmp_path, capsys, cluster_id):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        alignment = tmp_path / "out" / "alignment.json"
        doc = read_json(alignment)
        pair = doc["topics"][0]["pairs"][0]
        assert doc["topics"][0]["topic_id"] == "t1" and pair["agree_cluster_id"] != cluster_id
        pair["agree_cluster_id"] = cluster_id
        alignment.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["chart", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "alignment.json" in err and repr(cluster_id) in err

    def test_cluster_in_two_pairs_exit_3(self, tmp_path, capsys):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        alignment = tmp_path / "out" / "alignment.json"
        doc = read_json(alignment)
        pairs = doc["topics"][0]["pairs"]
        pairs.append(dict(pairs[0]))
        alignment.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["chart", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "alignment.json" in err and repr(pairs[0]["agree_cluster_id"]) in err

    @pytest.mark.parametrize("method, label, command", [
        ("xmeans", "sea level", ["align"]),  # before, exit 0: align paired it by this label
        ("term", None, ["label", "--method", "shared"]),  # before, exit 4: no shared term
    ])
    def test_cluster_label_of_its_own_against_its_method_exit_3(
        self, tmp_path, capsys, method, label, command
    ):
        config_path = make_config(tmp_path, clustering_method=method)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        doc = read_json(clusters)
        cluster = doc["topics"][0]["sides"]["agree"]["clusters"][0]
        cluster["label"] = label
        clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "clusters.json" in err and repr(cluster["cluster_id"]) in err

    @pytest.mark.parametrize("command", [["label"], ["align"], ["chart"], ["eval", "silhouette"]])
    def test_member_of_two_xmeans_clusters_exit_3(self, tmp_path, capsys, command):
        # before, label exited 0 and labeled the clusters with the member in both
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        doc = read_json(clusters)
        first, second = doc["topics"][0]["sides"]["agree"]["clusters"][:2]
        second["members"].append(first["members"][0])
        clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "clusters.json" in err and repr(first["members"][0]) in err

    # before, chart exited 0 and drew the edited pair
    @pytest.mark.parametrize("key, value", [
        ("label", "ghost"), ("similarity", 0), ("similarity", 0.5), ("similarity", 1.5),
    ])
    def test_pair_other_than_its_labels_and_threshold_exit_3(self, tmp_path, capsys, key, value):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        alignment = tmp_path / "out" / "alignment.json"
        doc = read_json(alignment)
        assert doc["threshold"] == 0.6
        pair = doc["topics"][0]["pairs"][0]
        pair[key] = value
        alignment.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["chart", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "alignment.json" in err and repr(pair["label"]) in err

    @pytest.mark.parametrize("command", [["label"], ["chart"], ["eval", "silhouette"]])
    def test_member_listed_twice_exit_3(self, tmp_path, capsys, command):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        doc = read_json(clusters)
        cluster = doc["topics"][0]["sides"]["disagree"]["clusters"][0]
        cluster["members"].append(cluster["members"][0])
        clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "clusters.json" in err and repr(cluster["cluster_id"]) in err

    @pytest.mark.parametrize("artifact, command", [
        ("clusters", ["label"]), ("clusters", ["align"]), ("clusters", ["chart"]),
        ("alignment", ["chart"]), ("salient", ["cluster"]), ("annotations", ["cluster"]),
        ("annotations", ["eval", "silhouette"]),
    ])
    def test_topic_id_used_twice_exit_3(self, tmp_path, capsys, artifact, command):
        # before, align and chart wrote one topic's pairs and charts over the other's
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        path = tmp_path / "out" / f"{artifact}.json"
        doc = read_json(path)
        assert [t["topic_id"] for t in doc["topics"]] == ["t1", "t2"]
        doc["topics"][1]["topic_id"] = "t1"
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert f"{artifact}.json" in err and "topic id 't1' is used twice" in err

    @pytest.mark.parametrize("staged", [False, True], ids=["pipeline", "staged-chart"])
    def test_topic_ids_with_one_chart_slug_exit_3(self, tmp_path, capsys, staged):
        # before, both topics wrote chart_t_1.json/.html and the first topic's chart was lost
        config_path = make_config(tmp_path)
        corpus_path = config_path.parent / "corpus.json"
        corpus = json.loads(corpus_path.read_text(encoding="utf-8"))
        corpus["topics"][0]["id"], corpus["topics"][1]["id"] = "t 1", "t_1"
        corpus_path.write_text(json.dumps(corpus), encoding="utf-8")
        command = ["pipeline"]
        if staged:
            for stage in (["annotate"], ["select"], ["cluster"], ["label"], ["align"]):
                assert main([*stage, "--config", str(config_path)]) == 0, stage
            command = ["chart"]
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "'t 1'" in err and "'t_1'" in err and "chart_t_1.json" in err
        out = tmp_path / "out"
        assert not list(out.glob("chart_*")) and not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", [["cluster"], ["label"], ["eval", "silhouette"]])
    def test_sentence_annotated_twice_exit_3(self, tmp_path, capsys, command):
        # before, the later entry's terms won; t1-c1-s2 is in no salient list and no cluster
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        annotations = tmp_path / "out" / "annotations.json"
        doc = read_json(annotations)
        sentences = doc["topics"][0]["sentences"]
        assert [s["sentence_id"] for s in sentences[:2]] == ["t1-c1-s1", "t1-c1-s2"]
        sentences[1]["sentence_id"] = "t1-c1-s1"
        annotations.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "annotations.json" in err and "'t1-c1-s1' is annotated twice" in err

    @pytest.mark.parametrize("command", [["label"], ["eval", "silhouette"]])
    @pytest.mark.parametrize("edit", ["empty", "other term"])
    def test_term_cluster_member_without_its_term_exit_3(self, tmp_path, capsys, command, edit):
        # before, eval silhouette exited 4: the member's term vector was zero
        config_path = make_config(tmp_path, clustering_method="term")
        assert main(["pipeline", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        cluster = read_json(out / "clusters.json")["topics"][0]["sides"]["agree"]["clusters"][0]
        member = cluster["members"][0]
        doc = read_json(out / "annotations.json")
        sentence = next(s for s in doc["topics"][0]["sentences"] if s["sentence_id"] == member)
        if edit == "empty":
            sentence["annotations"] = []
        else:
            for a in sentence["annotations"]:
                a["canonical"] = "ozone" if a["canonical"] == cluster["label"] else a["canonical"]
        (out / "annotations.json").write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "annotations.json" in err and repr(member) in err and repr(cluster["label"]) in err

    def test_term_outside_the_config_vocabulary_exit_3(self, tmp_path, capsys):
        # before, eval silhouette exited 4: the members whose only term is the renamed
        # one had a zero term vector
        config_path = make_config(tmp_path, clustering_method="term")
        assert main(["pipeline", "--config", str(config_path)]) == 0
        for name in ("annotations.json", "clusters.json"):
            path = tmp_path / "out" / name
            text = path.read_text(encoding="utf-8")
            assert "carbon dioxide" in text
            path.write_text(text.replace("carbon dioxide", "zorblax"), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "silhouette", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "of topic 't" in err and "has no term in the config's vocabulary" in err

    def test_annotations_canonicalized_under_other_synonyms_exit_3_at_cluster(self, tmp_path, capsys):
        # before, cluster exited 0 with clusters the synonym merge had renamed to
        # 'carbon dioxide', and label exited 3 one command later
        config_path = make_config(tmp_path, clustering_method="term")
        for command in (["annotate"], ["select"]):
            assert main([*command, "--config", str(config_path)]) == 0
        path = tmp_path / "out" / "annotations.json"
        doc = read_json(path)
        rewritten = 0
        for topic in doc["topics"]:
            for sentence in topic["sentences"]:
                for a in sentence["annotations"]:
                    if a["canonical"] == "carbon dioxide":
                        a["canonical"], rewritten = "co2", rewritten + 1
        assert rewritten
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["cluster", "--method", "term", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "term 'co2' of topic 't" in err and "is not canonical" in err
        assert not (tmp_path / "out" / "clusters.json").exists()

    def test_term_cluster_label_compared_as_written_exit_3(self, tmp_path, capsys):
        # a term is the string the artifacts hold: before, two spaces read as one,
        # and label exited 0 and wrote the normalized label
        config_path = make_config(tmp_path, clustering_method="term", labeling_method="shared")
        assert main(["pipeline", "--config", str(config_path)]) == 0
        path = tmp_path / "out" / "clusters.json"
        doc = read_json(path)
        sides = [side for topic in doc["topics"] for side in topic["sides"].values()]
        cluster = next(c for side in sides for c in side["clusters"] if c["label"] == "carbon dioxide")
        cluster["label"] = "carbon  dioxide"
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["label", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "lacks the term 'carbon  dioxide'" in err and "clusters.json" in err

    @pytest.mark.parametrize("case", [
        "pipeline --out is a file", "annotations.json is a directory",
        "eval stats --out is under a file", "manifest.json is a directory",
    ])
    def test_output_that_cannot_be_written_exit_2(self, tmp_path, capsys, case):
        # before, each ended in a traceback (exit 1)
        config = str(make_config(tmp_path))
        out, blocker = tmp_path / "out", tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        ratings = tmp_path / "ratings.json"
        ratings.write_text(json.dumps({"samples": {"a": [1, 2], "b": [3, 4]}}), encoding="utf-8")
        argv, named = {
            "pipeline --out is a file": (["pipeline", "--config", config, "--out", str(blocker)], blocker),
            "annotations.json is a directory": (["annotate", "--config", config], out / "annotations.json"),
            "eval stats --out is under a file": (
                ["eval", "stats", "--ratings", str(ratings), "--out", str(blocker / "x.json")], blocker),
            "manifest.json is a directory": (["pipeline", "--config", config], out / "manifest.json"),
        }[case]
        if named != blocker:
            named.mkdir(parents=True)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and str(named) in err
        if case == "manifest.json is a directory":  # the rollback removes every artifact
            assert list(out.iterdir()) == [named]

    @pytest.mark.parametrize("command", ["chart", "pipeline"])
    def test_a_failed_write_leaves_none_of_the_commands_files(self, tmp_path, capsys, command):
        # before, chart left chart_t1.json, chart_t1.html and chart_t2.json and
        # printed their "wrote" lines, and pipeline left evaluation.json of the earlier run
        config = str(make_config(tmp_path, clustering_method="term", labeling_method="shared"))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", config]) == 0
        last = out / "chart_t2.html"  # the command's last chart file
        last.unlink()
        last.mkdir()
        capsys.readouterr()
        assert main([command, "--config", config]) == 2
        assert "wrote" not in capsys.readouterr().out
        left = {p.name for p in out.iterdir()}
        if command == "chart":  # the earlier run's other artifacts stay
            assert left == {"chart_t2.html", "alignment.json", "annotations.json", "clusters.json",
                            "evaluation.json", "labels.json", "manifest.json", "salient.json"}
        else:
            assert left == {"chart_t2.html"}

    def test_stages_that_need_no_corpus_do_not_parse_it(self, tmp_path):
        config_path = make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = (out / "clusters.json").read_bytes()
        (config_path.parent / "corpus.json").write_text("{", encoding="utf-8")
        for argv in (["cluster"], ["align"], ["eval", "silhouette"]):
            assert main([*argv, "--config", str(config_path)]) == 0, argv
        assert (out / "clusters.json").read_bytes() == clusters
        for argv in (["annotate"], ["select"], ["eval", "rouge"], ["pipeline"]):
            assert main([*argv, "--config", str(config_path)]) == 3, argv

    def test_missing_corpus_exit_2_on_every_command(self, tmp_path):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        (config_path.parent / "corpus.json").unlink()
        for argv in (
            ["annotate"], ["select"], ["cluster"], ["label"], ["align"], ["chart"],
            ["eval", "rouge"], ["eval", "silhouette"], ["pipeline"],
        ):
            assert main([*argv, "--config", str(config_path)]) == 2, argv

    def test_relative_out_resolves_against_working_directory(self, tmp_path, monkeypatch):
        config_path = make_config(tmp_path, output_dir="config_out")
        monkeypatch.chdir(tmp_path)
        assert main(["annotate", "--config", str(config_path), "--out", "rel_out"]) == 0
        assert (tmp_path / "rel_out" / "annotations.json").is_file()
        assert not (config_path.parent / "rel_out").exists()
        # an output_dir inside the config file stays relative to the config
        assert main(["annotate", "--config", str(config_path)]) == 0
        assert (config_path.parent / "config_out" / "annotations.json").is_file()

    def test_cluster_counts_reported_per_side_and_pooled(self, tmp_path):
        config = load_config(make_config(tmp_path))
        run_pipeline(config)
        clusters = read_json(Path(config.output_dir) / "clusters.json")
        for topic in clusters["topics"]:
            counts = topic["cluster_counts"]
            assert counts["pooled"] == counts["agree"] + counts["disagree"]
            assert counts["agree"] == len(topic["sides"]["agree"]["clusters"])

    def test_config_of_required_paths_takes_every_default(self, tmp_path):
        config_path = make_config(tmp_path, output_dir="out")
        raw = json.loads(config_path.read_text())
        required = ("corpus_path", "gazetteer_path", "synonyms_path", "output_dir")
        config_path.write_text(json.dumps({key: raw[key] for key in required}))
        base = config_path.parent
        config = load_config(config_path)
        assert config == PipelineConfig(
            base / "corpus.json", base / "gazetteer.txt", base / "synonyms.tsv", base / "out"
        )
        assert config.echo() == {
            "corpus_path": str(base / "corpus.json"),
            "gazetteer_path": str(base / "gazetteer.txt"),
            "synonyms_path": str(base / "synonyms.tsv"),
            "output_dir": str(base / "out"),
            "gold_path": None,
            "embeddings_path": None,
            "feature": "SP",
            "ratio": 0.2,
            "signature_threshold": 10.83,
            "clustering_method": "xmeans",
            "labeling_method": "mi",
            "alignment_threshold": 0.6,
            "variance_target": 0.95,
            "k_min": 2,
            "k_max": 25,
            "seed": 0,
        }

    @pytest.mark.parametrize("name, stage, code", [
        ("corpus.json", ["annotate"], 3),
        ("gold.json", ["eval", "rouge"], 3),
        ("gazetteer.txt", ["annotate"], 3),
        ("synonyms.tsv", ["annotate"], 3),
        ("embeddings.txt", ["eval", "rouge"], 3),
        ("config.json", ["annotate"], 2),
    ])
    def test_input_that_is_not_utf8_names_file_and_offset(self, tmp_path, capsys, name, stage, code):
        config_path = make_config(tmp_path)
        path = config_path.parent / name
        data = bytearray(path.read_bytes())
        data[20] = 0xFF
        path.write_bytes(bytes(data))
        for argv in (["pipeline"], stage):
            capsys.readouterr()
            assert main([*argv, "--config", str(config_path)]) == code, argv
            assert f"not valid UTF-8 at byte 20 [{path}]" in capsys.readouterr().err, argv

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_term_files_with_cr_newlines_give_the_same_annotations(self, tmp_path, newline):
        outputs = []
        for variant in ("lf", "cr"):
            (tmp_path / variant).mkdir()
            config_path = make_config(tmp_path / variant)
            if variant == "cr":
                for name in ("gazetteer.txt", "synonyms.tsv"):
                    path = config_path.parent / name
                    path.write_bytes(path.read_bytes().replace(b"\n", newline))
            assert main(["annotate", "--config", str(config_path)]) == 0
            outputs.append((tmp_path / variant / "out" / "annotations.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        assert main(["pipeline", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("ratio", "abc"),
        ("k_min", None),
        ("k_max", [3]),
        ("feature", "XYZ"),
        ("seed", -1),
        ("k_max", 2.7),
        ("ratio", True),
        ("k_min", "3"),
        ("output_dir", ["x"]),
        ("output_dir", True),
        ("output_dir", 7),
        pytest.param("ratio", 10**400, id="ratio-int-too-large"),
        pytest.param("variance_target", 10**400, id="variance_target-int-too-large"),
        ("signature_threshold", 0),
        ("signature_threshold", -1),
    ])
    def test_malformed_config_value_exit_2(self, tmp_path, capsys, key, value):
        config_path = make_config(tmp_path)
        raw = json.loads(config_path.read_text())
        raw[key] = value
        config_path.write_text(json.dumps(raw))
        assert main(["pipeline", "--config", str(config_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["annotate", "select"])
    def test_signature_threshold_not_positive_exit_2(self, tmp_path, capsys, command):
        # a config error for every command, although only COS_TPS and CB read it
        config_path = make_config(tmp_path, signature_threshold=0, feature="SP")
        assert main([command, "--config", str(config_path)]) == 2
        assert "signature_threshold" in capsys.readouterr().err

    def test_validation_error_exit_3(self, tmp_path, capsys):
        config_path = make_config(tmp_path)
        corpus_path = config_path.parent / "corpus.json"
        raw = json.loads(corpus_path.read_text())
        raw["topics"][0]["comments"][0]["side"] = "undecided"
        corpus_path.write_text(json.dumps(raw))
        assert main(["pipeline", "--config", str(config_path)]) == 3

    @pytest.mark.parametrize("command", ["pipeline", "select"])
    @pytest.mark.parametrize("sentence_id, code", [("bad\ud800id", 3), ("naïve-é", 0)])
    def test_id_that_is_not_utf8_exit_3(self, tmp_path, capsys, command, sentence_id, code):
        # every artifact names sentences by id, and artifacts are UTF-8
        config_path = make_config(tmp_path, gold_path=None)
        corpus_path = config_path.parent / "corpus.json"
        raw = json.loads(corpus_path.read_text())
        raw["topics"][0]["comments"][0]["sentences"][0]["id"] = sentence_id
        corpus_path.write_text(json.dumps(raw))  # ASCII escapes, so a lone surrogate parses
        assert main([command, "--config", str(config_path)]) == code
        if code:
            err = capsys.readouterr().err
            where = "$.topics[0].comments[0].sentences[0].id"
            assert "corpus.json" in err and "'bad\\ud800id'" in err and where in err

    @pytest.mark.parametrize("command", ["pipeline", "select"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_embedding_exit_3(self, tmp_path, capsys, command, value):
        config_path = make_config(tmp_path)
        embeddings_path = config_path.parent / "embeddings.txt"
        lines = embeddings_path.read_text().splitlines()
        assert lines[1].startswith("a ")
        lines[1] = f"a {value} " + lines[1].split(" ", 2)[2]
        embeddings_path.write_text("\n".join(lines) + "\n")
        assert main([command, "--config", str(config_path)]) == 3
        assert "embeddings.txt:2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "select"])
    @pytest.mark.parametrize("text", ["", "\n  \n\t\n", "3 8\n"], ids=["empty", "blank", "header"])
    def test_embeddings_without_vectors_exit_3(self, tmp_path, capsys, command, text):
        # read as no embeddings, COS_STT would score 0 and still count in CB's mean
        config_path = make_config(tmp_path, feature="CB")
        (config_path.parent / "embeddings.txt").write_text(text, encoding="utf-8")
        assert main([command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "embeddings file holds no vectors" in err and "embeddings.txt" in err

    def test_computation_error_exit_4(self, tmp_path):
        config_path = make_config(tmp_path, clustering_method="xmeans", labeling_method="shared")
        assert main(["pipeline", "--config", str(config_path)]) == 4

    def test_seed_flag_overrides_config(self, tmp_path):
        config_path = make_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["pipeline", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main([
            "pipeline", "--config", str(config_path), "--seed", "43", "--out", str(out_b),
        ]) == 0
        manifest_a = read_json(out_a / "manifest.json")
        manifest_b = read_json(out_b / "manifest.json")
        assert manifest_a["config"]["seed"] == 42
        assert manifest_b["config"]["seed"] == 43

    def test_eval_stats(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.json"
        ratings.write_text(
            json.dumps(
                {
                    "samples": {"a": [4, 5, 5, 4, 5], "b": [2, 3, 2, 3, 2]},
                    "ratings": [[1, 2, 3], [1, 2, 3]],
                    "metric": "nominal",
                }
            ),
            encoding="utf-8",
        )
        assert main(["eval", "stats", "--ratings", str(ratings)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mann_whitney"]["u_a"] == 25.0
        assert report["krippendorff_alpha"]["alpha"] == pytest.approx(1.0)

    def test_eval_stats_to_file(self, tmp_path):
        ratings = tmp_path / "ratings.json"
        ratings.write_text(json.dumps({"samples": {"a": [1, 2], "b": [3, 4]}}), encoding="utf-8")
        target = tmp_path / "report.json"
        assert main(["eval", "stats", "--ratings", str(ratings), "--out", str(target)]) == 0
        assert json.loads(target.read_text())["mann_whitney"]["u_a"] == 0.0

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_eval_stats_alpha_beyond_the_float_range_exit_4(self, tmp_path, capsys, big):
        # before, 1e200 ended in an OverflowError traceback and 1e308 wrote "alpha": NaN
        ratings = tmp_path / "ratings.json"
        doc = {"ratings": [[big, -big, big], [big, -big, -big]], "metric": "interval"}
        ratings.write_text(json.dumps(doc), encoding="utf-8")
        target = tmp_path / "report.json"
        assert main(["eval", "stats", "--ratings", str(ratings), "--out", str(target)]) == 4
        assert "computation error: " in capsys.readouterr().err
        assert not target.exists()

    def test_eval_stats_bad_file_exit_3(self, tmp_path):
        ratings = tmp_path / "ratings.json"
        ratings.write_text(json.dumps({"something_else": 1}), encoding="utf-8")
        assert main(["eval", "stats", "--ratings", str(ratings)]) == 3

    @pytest.mark.parametrize("doc", [
        {"samples": {"a": "x", "b": [1]}},
        {"samples": {"a": [1, "2"], "b": [1]}},
        {"ratings": [[1, 2], [1, "z"]]},
        {"ratings": 5},
        {"ratings": [[1, 2], [1, 2]], "metric": "bogus"},
        5,
        {"ratings": [[math.nan, 1], [math.nan, 1]]},  # json.dumps writes NaN
        {"samples": {"a": [math.inf, 1], "b": [-math.inf, 2]}},
        pytest.param('{"ratings": [[1e400, 1], [1e400, 1]]}', id="1e400"),  # JSON text
        pytest.param({"ratings": [[10**400, 1], [1, 1]]}, id="ratings-int-too-large"),
        pytest.param({"samples": {"a": [10**400, 1], "b": [1, 2]}}, id="samples-int-too-large"),
        pytest.param({"ratings": [[True, 1], [1, 1]]}, id="ratings-boolean"),  # a boolean is no number
        pytest.param({"samples": {"a": [False, 1], "b": [1, 2]}}, id="samples-boolean"),
    ])
    def test_eval_stats_malformed_ratings_exit_3(self, tmp_path, capsys, doc):
        ratings = tmp_path / "ratings.json"
        ratings.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        assert main(["eval", "stats", "--ratings", str(ratings)]) == 3
        err = capsys.readouterr().err.replace(str(ratings), "<path>")
        assert "<path>" in err
        # a ratings file is an input: a shape error calls it one, never an artifact
        assert "artifact" not in err
        assert "malformed" not in err or "malformed ratings file <path>: $" in err


@pytest.mark.parametrize("method", ["term", "xmeans"])
def test_consistency_without_labels_judges_pairs_by_their_clusters_own_labels(tmp_path, method):
    """``check_consistency`` given clusters and alignment but no labels: a term
    run's pairs carry their clusters' own labels and pass, and an x-means
    run's pairs name clusters with no label of their own (once a NameError)."""
    from debatesum.artifacts import check_consistency
    from debatesum.errors import ValidationError

    assert main(["pipeline", "--config", str(make_config(tmp_path, clustering_method=method))]) == 0
    paths = {name: tmp_path / "out" / f"{name}.json" for name in ("clusters", "alignment")}
    docs = {name: read_json(path) for name, path in paths.items()}
    assert any(topic["pairs"] for topic in docs["alignment"]["topics"])
    if method == "term":
        check_consistency(docs, paths)
    else:
        with pytest.raises(ValidationError, match="no labeled agree cluster"):
            check_consistency(docs, paths)


def test_overall_silhouette_mean_is_an_fsum(monkeypatch):
    # correctly rounded, 1 + 2**-53 + 2**-106 is 1 + 2**-52; adding left to right,
    # or with builtin sum(), which compensates from Python 3.12 on, gives 1.0
    means = iter([1.0, 2.0**-53, 2.0**-106] + [0.0] * 7)
    monkeypatch.setattr(pipeline, "silhouette", lambda *args, **kwargs: SilhouetteReport((), next(means)))
    monkeypatch.setattr(pipeline, "sum", compensated_sum, raising=False)
    side = {"clusters": [{"members": ["a"]}, {"members": ["b"]}], "points": {"a": [0.0], "b": [1.0]}}
    topics = [{"topic_id": f"t{i}", "sides": {"agree": side, "disagree": side}} for i in range(5)]
    report = pipeline.compute_silhouette_report({"method": "xmeans", "topics": topics}, {}, None, None)
    assert len(report["per_clustering"]) == 10
    assert report["mean"] == (1.0 + 2.0**-52) / 10 != 1.0 / 10
