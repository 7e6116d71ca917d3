"""Benchmark of the debatesum CLI on seeded synthetic debate corpora.

    python3 bench/run.py --workload xmeans-dup --seed 1 --seconds 30 --trace 0

Writes the workload's corpus for ``--seed`` under ``.bench_work/``, then
repeats one operation (every CLI command of the workload, each in a fresh
``python3 -m debatesum.cli`` process, one process at a time) until
``--seconds`` have passed since the first one started. Every operation's
artifacts are checked against computations made apart from the program
(checks.py), outside the timed region. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median wall time of
an operation), ``peak_rss_mb`` (median over operations of the highest peak
RSS of any program process in it) and ``setup_s`` (median wall time of a
fresh process that imports ``debatesum.cli`` and loads the config).
Both times are calibrated against the host's speed while each program
process runs (hostspeed.py), so they read as seconds on a quiet host. The
benchmark, its sampler and the program share one CPU.
``--trace 1`` alternates untraced operations with traced ones (tracing.py)
and reports the per-layer metrics, medians over the traced operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_ROUNDS = 3
NONDETERMINISTIC = "artifacts differ from the first operation's"
SETUP_PROBE = "import sys, debatesum.cli as cli; cli.load_config(sys.argv[1])"


class Spawner:
    """Client of spawner.py, which starts every program process."""

    def __init__(self, log: Path):
        self.log = log
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list) -> dict:
        """Runs one program process; adds its ``window`` in this process's clock."""
        start = time.perf_counter()
        request = {"argv": argv, "env": self.env, "cwd": str(ROOT), "log": str(self.log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        return {**json.loads(reply), "window": (start, time.perf_counter())}

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class Bench:
    def __init__(self, workload, seed: int, work: Path, spawner: Spawner, speed):
        import synth

        self.workload = workload
        self.speed = speed
        self.work = work
        self.spawner = spawner
        self.out = work / "out"
        self.corpus = synth.generate(workload.shape, seed)
        self.sentences = synth.sentence_count(self.corpus)
        self.config = synth.write(self.corpus, work / "input", workload.config(self.out))
        self.reference = None     # artifact hashes of the first operation
        self.reference_failures: list = []
        self.truth = None

    def calibrated(self, result: dict) -> float:
        return self.speed.calibrate(result["wall_s"], *result["window"])

    def setup_times(self, repeats: int) -> list:
        """Calibrated wall times of the set-up probe."""
        probe = [sys.executable, "-c", SETUP_PROBE, str(self.config)]
        times = []
        for i in range(repeats + 1):  # the first one compiles bytecode: not timed
            result = self.spawner.run(probe)
            if result["returncode"] != 0:
                raise RuntimeError(f"set-up probe exited with {result['returncode']}")
            if i:
                times.append(self.calibrated(result))
        return times

    def operation(self, traced: bool) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        op = {"wall_s": 0.0, "run_s": 0.0, "cpu_s": 0.0, "peak_kb": 0, "spans": [], "exit": 0}
        for i, command in enumerate(self.workload.commands):
            tail = [*command, "--config", str(self.config)]
            if traced:
                spans = self.work / f"spans{i}.json"
                argv = [sys.executable, str(BENCH / "tracing.py"), str(spans), *tail]
                op["spans"].append(spans)
            else:
                argv = [sys.executable, "-m", "debatesum.cli", *tail]
            result = self.spawner.run(argv)
            op["wall_s"] += result["wall_s"]
            op["run_s"] += self.calibrated(result)
            op["cpu_s"] += result["cpu_s"]
            op["peak_kb"] = max(op["peak_kb"], result["maxrss_kb"])
            if result["returncode"] != 0:
                op["exit"] = result["returncode"]
                op["failures"] = [f"{' '.join(command)} exited with {result['returncode']}"]
                return op
        op["failures"] = self.verify()
        return op

    def verify(self) -> list:
        """Check the artifacts; repeated bytes inherit the first verdict."""
        import checks

        hashes = checks.artifact_hashes(self.out)
        if self.reference is None:
            self.truth = checks.Truth(self.corpus)
            self.reference = hashes
            self.reference_failures = checks.check_all(self.out, self.truth, self.workload)
            return self.reference_failures
        if hashes != self.reference:
            return [NONDETERMINISTIC]
        return self.reference_failures

    def layer_metrics(self, op: dict) -> dict:
        import checks
        import tracing

        docs = [json.loads(p.read_text(encoding="utf-8")) for p in op["spans"]]
        split = 0
        if self.workload.clustering == "xmeans":
            split = checks.split_duplicate_groups(checks.read(self.out, "clusters.json"), self.truth)
        artifact_bytes = sum(p.stat().st_size for p in self.out.iterdir())
        return tracing.layer_metrics(docs, op["wall_s"], op["cpu_s"], artifact_bytes, split)

    def printed_hashes(self) -> dict:
        """Artifact hashes to print for reference: all but the manifest,
        whose config echo holds this run's absolute paths."""
        return {k: v for k, v in self.reference.items() if k != "manifest.json"}

    def artifact_digest(self) -> str:
        digest = hashlib.sha256(json.dumps(self.printed_hashes(), sort_keys=True).encode())
        return digest.hexdigest()


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def measure(bench: Bench, seconds: float, traced: bool) -> dict:
    setup = bench.setup_times(0 if traced else SETUP_REPEATS)
    # one round: an untraced operation, plus a traced one when tracing
    round_modes = (False, True) if traced else (False,)
    ops: list = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < MIN_ROUNDS * len(round_modes):
        for mode in round_modes:
            op = bench.operation(mode)
            op["traced"] = mode
            if mode and not op["exit"]:
                op["layers"] = bench.layer_metrics(op)
            ops.append(op)
            print(f"op {len(ops)} traced={int(mode)} {op['wall_s']:.3f}s "
                  f"calibrated {op['run_s']:.3f}s "
                  f"peak {op['peak_kb'] / 1024:.1f}MiB failures={op['failures']}", flush=True)

    # Timings cover every operation that ran to its end, also one whose
    # artifacts failed a check; an operation that exited early is left out.
    done = [op for op in ops if not op["exit"]]
    if traced:
        layers = [op["layers"] for op in done if op["traced"]]
        import tracing

        metrics = {}
        for name, unit in tracing.LAYER_UNITS.items():
            values = [m[name] for m in layers if name in m]
            metrics[name] = {"value": median(values), "unit": unit}
        # trace.run_s stays the raw wall time the spans add up to; the
        # overhead compares calibrated times, as raw ones swing with the host.
        untraced = median([op["run_s"] for op in done if not op["traced"]])
        metrics["trace.untraced_run_s"]["value"] = untraced
        metrics["trace.overhead_s"]["value"] = (
            median([op["run_s"] for op in done if op["traced"]]) - untraced
        )
        if bench.reference:
            for name, digest in bench.printed_hashes().items():
                print(f"artifact {name} sha256:{digest}")
    else:
        metrics = {
            "run_s": {"value": median([op["run_s"] for op in done]), "unit": "s"},
            "peak_rss_mb": {"value": median([op["peak_kb"] / 1024 for op in done]), "unit": "MiB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
    print(f"workload {bench.workload.name}: {bench.sentences} sentences, "
          f"artifacts sha256:{bench.artifact_digest() if bench.reference else '-'}")
    return {
        "correct": not any(op["failures"] == [NONDETERMINISTIC] for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failures"]),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "debatesum" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'debatesum'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import hostspeed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # One CPU for the benchmark, the program and the speed sampler: the
    # sampler then times the CPU the program runs on, and the program's BLAS
    # pool, sized from the affinity mask, has one thread.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spawner = Spawner(work / "program.log")
    speed = hostspeed.HostSpeed()
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work, spawner, speed)
        result = measure(bench, args.seconds, bool(args.trace))
    except Exception:
        log = work / "program.log"
        if log.is_file():
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
        raise
    finally:
        speed.close()
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
