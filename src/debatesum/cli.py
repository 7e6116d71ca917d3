"""Command-line entry points, one subcommand per pipeline stage.

Every subcommand takes ``--config`` plus optional overrides (``--seed``,
``--out``); flags win over config values, and a relative ``--out`` resolves
against the working directory. The stage subcommands come from the stage
table (``debatesum.pipeline.STAGES``): each reads the artifacts its row
needs from the output directory, or from the path given by the flag named
after the artifact (``--clusters``, ``--labels``, ...), and writes its own,
so the pipeline can be driven step by step or in one go with ``pipeline``.

Exit codes: 0 success, 2 config error (also an input file that cannot be
read, or an output that cannot be written), 3 data validation error (also a
file that is not UTF-8, and a malformed or inconsistent artifact), 4
computation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ComputationError, ConfigError, DebatesumError, ParseError, ValidationError
from .pipeline import (
    CLUSTER_METHODS,
    LABEL_METHODS,
    STAGE,
    STAGES,
    Feature,
    PipelineConfig,
    Stage,
    artifact_files,
    canonical_terms_by_sentence,
    compute_rouge_table,
    compute_silhouette_report,
    load_config,
    load_inputs,
    make_dir,
    read_json,
    run_pipeline,
    to_json_bytes,
    write_bytes,
    write_files,
    write_json,
)

# Not called here: the stage rows call them through debatesum.pipeline. They
# stay importable from this module because bench/tracing.py wraps them by
# name on it as well.
from .pipeline import (  # noqa: F401
    compute_alignment, compute_annotations, compute_charts, compute_clusters, compute_labels,
    compute_salient, render_chart,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_COMPUTATION = 4

# The evaluation row runs as the ``eval rouge`` and ``eval silhouette``
# subcommands, which write their own files.
STAGE_COMMANDS = {s.command: s for s in STAGES if s.artifact != "evaluation"}

# stage subcommand -> config key its --method flag overrides, and the choices
METHOD_FLAGS = {
    "cluster": ("clustering_method", CLUSTER_METHODS),
    "label": ("labeling_method", LABEL_METHODS),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")


def _add_artifact_flags(parser: argparse.ArgumentParser, needs: tuple[str, ...]) -> None:
    for name in needs:
        parser.add_argument(
            f"--{name}", default=None,
            help=f"{name}.json path (default: the one in the output directory)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debatesum",
        description="Summarize two-sided debates into Chart Summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGE_COMMANDS.values():
        p = sub.add_parser(stage.command, help=stage.help)
        _add_common(p)
        if stage.command in METHOD_FLAGS:
            p.add_argument("--method", choices=METHOD_FLAGS[stage.command][1], default=None)
        _add_artifact_flags(p, stage.needs)

    p = sub.add_parser("eval", help=STAGE["evaluation"].help)
    eval_sub = p.add_subparsers(dest="metric", required=True)
    _add_common(eval_sub.add_parser("rouge", help="per-feature ROUGE table against gold"))
    pe = eval_sub.add_parser("silhouette", help="silhouette of a clustering artifact")
    _add_common(pe)
    _add_artifact_flags(pe, STAGE["evaluation"].needs)
    ps = eval_sub.add_parser("stats", help="Mann-Whitney U and Krippendorff's alpha")
    ps.add_argument("--ratings", required=True, help="ratings JSON file")
    ps.add_argument("--out", default=None, help="write the report here instead of stdout")

    _add_common(sub.add_parser("pipeline", help="run every stage and write a manifest"))
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = str(Path(args.out).absolute())
    if getattr(args, "method", None) is not None:
        overrides[METHOD_FLAGS[args.command][0]] = args.method
    return load_config(args.config, overrides)


def _read_needs(args: argparse.Namespace, config: PipelineConfig, needs: tuple[str, ...]) -> dict:
    """Artifact stem -> document, from its flag's path or the output directory.

    A missing file is a ConfigError, bad JSON a ParseError, and a wrong
    structure or documents that disagree (``debatesum.artifacts``) a
    ValidationError, each naming the file.
    """
    if not needs:  # annotate and select: no artifact, so no checks to import
        return {}
    from .artifacts import check_artifact, check_consistency
    docs, paths = {}, {}
    for name in needs:
        path = paths[name] = getattr(args, name) or Path(config.output_dir) / f"{name}.json"
        docs[name] = read_json(path)
        check_artifact(docs[name], name, path)
    check_consistency(docs, paths)
    return docs


def _run_stage(args: argparse.Namespace, stage: Stage, config: PipelineConfig, out: Path) -> int:
    docs = _read_needs(args, config, stage.needs)
    inputs = load_inputs(config) if stage.uses_inputs else None
    doc = stage.compute(config, inputs, docs)
    del docs, inputs  # free what was read, with the terms map, before serializing
    files = artifact_files(stage.artifact, doc)
    write_files(out, files)
    for name in files:
        print(f"wrote {out / name}")
    return EXIT_OK


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "eval" and args.metric == "stats":
        return _cmd_eval_stats(args)

    config = _config_from_args(args)
    out = make_dir(config.output_dir)

    if args.command == "pipeline":
        manifest = run_pipeline(config)
        print(f"wrote {len(manifest['artifacts']) + 1} artifacts to {out}")
        return EXIT_OK

    if args.command == "eval" and args.metric == "rouge":
        inputs = load_inputs(config, tuple(Feature))
        if not inputs.gold:
            raise ConfigError("eval rouge needs gold_path in the config")
        table = compute_rouge_table(inputs.corpus, inputs.gold, inputs.selections)
        write_json(out / "evaluation_rouge.json", {"rouge": table, "seed": config.seed})
        print(f"wrote {out / 'evaluation_rouge.json'}")
        return EXIT_OK

    if args.command == "eval":  # silhouette
        docs = _read_needs(args, config, STAGE["evaluation"].needs)
        inputs = load_inputs(config)
        terms = canonical_terms_by_sentence(docs["annotations"])
        report = compute_silhouette_report(docs["clusters"], terms, inputs.gazetteer, inputs.synonyms)
        write_json(out / "evaluation_silhouette.json", {"silhouette": report, "seed": config.seed})
        print(f"wrote {out / 'evaluation_silhouette.json'}")
        return EXIT_OK

    return _run_stage(args, STAGE_COMMANDS[args.command], config, out)


def _cmd_eval_stats(args: argparse.Namespace) -> int:
    """Statistics over a ratings file.

    Input JSON may carry ``samples: {"a": [...], "b": [...]}`` for the
    Mann-Whitney U test and/or ``ratings`` (coder-by-item matrix, null for
    missing) with an optional ``metric`` for Krippendorff's alpha.
    """
    from .artifacts import check_ratings
    from .evalkit import krippendorff_alpha, mann_whitney_u
    path = Path(args.ratings)
    doc = read_json(path)
    check_ratings(doc, path)
    report: dict = {"mann_whitney": None, "krippendorff_alpha": None}
    if "samples" in doc:
        report["mann_whitney"] = mann_whitney_u(doc["samples"]["a"], doc["samples"]["b"])._asdict()
    if "ratings" in doc:
        metric = doc.get("metric", "nominal")
        report["krippendorff_alpha"] = {
            "metric": metric,
            "alpha": krippendorff_alpha(doc["ratings"], metric=metric),
        }
    if args.out:
        make_dir(Path(args.out).parent)
        write_bytes(args.out, to_json_bytes(report))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(to_json_bytes(report).decode("utf-8"))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, ValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ComputationError, DebatesumError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
