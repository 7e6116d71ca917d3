"""Launches program processes on request and reports their wall time and rusage.

Linux carries a parent's peak RSS into a child started by fork or vfork and
exec, so a child started from the benchmark process (which holds corpora,
numpy and scipy) would report the benchmark's peak as its own. This helper
is started before the benchmark loads anything and stays small, so the
``ru_maxrss`` that ``os.wait4`` returns is the program's own peak.

Protocol: one JSON request per line on stdin, ``{"argv", "env", "cwd",
"log"}``; one JSON reply per line on stdout, ``{"wall_s", "maxrss_kb",
"cpu_s", "returncode"}``. The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["log"], "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "returncode": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
