import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from debatesum.cli import main
from debatesum.errors import ConfigError
from debatesum.pipeline import PipelineConfig, load_config, read_json, run_pipeline

from conftest import SAMPLE_DIR, make_config, src_env


def assert_staged_run_matches_pipeline(config_path: Path, tmp_path: Path, commands, run) -> None:
    """Run each stage command with ``run(argv) -> exit code`` into ``tmp_path/out``,
    then check that ``pipeline`` writes the same bytes."""
    for command in commands:
        assert run([*command, "--config", str(config_path)]) == 0, command
    staged_out = tmp_path / "out"
    full_out = tmp_path / "full"
    assert main(["pipeline", "--config", str(config_path), "--out", str(full_out)]) == 0
    charts = sorted(p.name for p in full_out.glob("chart_*"))
    assert charts
    assert sorted(p.name for p in staged_out.glob("chart_*")) == charts
    for name in (
        "annotations.json", "salient.json", "clusters.json", "labels.json",
        "alignment.json", *charts,
    ):
        assert (full_out / name).read_bytes() == (staged_out / name).read_bytes(), name
    staged_silhouette = read_json(staged_out / "evaluation_silhouette.json")["silhouette"]
    assert staged_silhouette == read_json(full_out / "evaluation.json")["silhouette"]


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


class TestStageDocs:
    def test_unlabeled_clusters_reported_as_dropped(self):
        from debatesum.annotate import SynonymTable
        from debatesum.pipeline import compute_alignment, compute_labels

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
        labels = compute_labels(clusters_doc, annotations_doc, "mi")
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

    @pytest.mark.parametrize("corrupt", ["drop_sides", "not_json"])
    def test_malformed_artifact_exit_3(self, tmp_path, capsys, corrupt):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        clusters = tmp_path / "out" / "clusters.json"
        if corrupt == "drop_sides":
            doc = read_json(clusters)
            del doc["topics"][0]["sides"]
            clusters.write_text(json.dumps(doc), encoding="utf-8")
        else:
            clusters.write_text("{", encoding="utf-8")
        capsys.readouterr()
        assert main(["label", "--config", str(config_path)]) == 3
        assert "clusters.json" in capsys.readouterr().err

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_similarity_exit_3(self, tmp_path, capsys, value):
        config_path = make_config(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        alignment = tmp_path / "out" / "alignment.json"
        doc = read_json(alignment)
        doc["topics"][0]["pairs"][0]["similarity"] = value
        alignment.write_text(json.dumps(doc), encoding="utf-8")  # NaN, Infinity, -Infinity
        capsys.readouterr()
        assert main(["chart", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "alignment.json" in err and "$.topics[0].pairs[0].similarity" in err

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
        assert "t1-c4-s1" in t1["sides"]["disagree"]["clusters"][0]["members"]
        side = t2["sides"]["agree"]
        cluster = side["clusters"][1]
        assert cluster["cluster_id"] == "t2/agree:x1"
        member = cluster["members"][0]
        cluster["members"][0] = "t1-c4-s1"
        side["points"]["t1-c4-s1"] = side["points"].pop(member)  # the points still agree
        clusters.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([*command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "clusters.json" in err and "'t1-c4-s1'" in err and "t2/agree" in err

    @pytest.mark.parametrize("command, artifact", [
        (["label"], "clusters"), (["eval", "silhouette"], "clusters"), (["cluster"], "salient"),
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
    ])
    def test_malformed_config_value_exit_2(self, tmp_path, capsys, key, value):
        config_path = make_config(tmp_path)
        raw = json.loads(config_path.read_text())
        raw[key] = value
        config_path.write_text(json.dumps(raw))
        assert main(["pipeline", "--config", str(config_path)]) == 2
        assert key in capsys.readouterr().err

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
    ])
    def test_eval_stats_malformed_ratings_exit_3(self, tmp_path, capsys, doc):
        ratings = tmp_path / "ratings.json"
        ratings.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eval", "stats", "--ratings", str(ratings)]) == 3
        assert str(ratings) in capsys.readouterr().err
