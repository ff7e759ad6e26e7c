"""Runs the benchmark's commands from a small process and times them.

The max-RSS that ``os.wait4`` reports for a child includes the pages it
shared with the process that forked it, up to its ``exec``.  ``run.py``
holds numpy and parsed outputs, so it would inflate every child's figure;
this stdlib-only process spawns the commands instead.

Protocol: one JSON request per line on stdin, ``[[argv, stdout_path], ...]``,
run in order; one JSON reply per line on stdout,
``{"wall": seconds from the first spawn to the last exit,
"calls": [[exit code, max RSS in MiB], ...]}``.  Each command's stderr goes
to ``stdout_path`` with the suffix ``.err``.  The process ends at end of
input, and on SIGTERM after killing the command it is waiting for.
"""
import json
import os
import signal
import subprocess
import sys
import time


def _run(argv: list[str], stdout_path: str) -> list:
    err_path = os.path.splitext(stdout_path)[0] + ".err"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [proc.returncode, usage.ru_maxrss / 1024.0]


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        t0 = time.perf_counter()
        calls = [_run(argv, out) for argv, out in json.loads(line)]
        wall = time.perf_counter() - t0
        print(json.dumps({"wall": wall, "calls": calls}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
