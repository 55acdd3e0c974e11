"""Runs the benchmark's child processes and reports their cost.

The benchmark starts this process before it imports anything heavy and
sends it one JSON request per line:

    {"argv": [...], "stdout": path, "stderr": path, "env": {...}, "cwd": path}

For each, it starts the child with stdin closed and stdout/stderr sent to
the files, waits for it with `os.wait4` (killing it after the number of
seconds given as this script's argument), and answers with one JSON line:

    {"rc": 0, "wall_s": ..., "cpu_s": ..., "maxrss_kb": ...}

Why a separate process: on Linux a child's `ru_maxrss` starts from the
high-water mark of the process that spawned it, so spawning from the
benchmark itself, once it holds reference data and parsed outputs, would
inflate every child's peak resident set. This process stays small.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve(requests, replies, timeout: float) -> None:
    for line in requests:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=req["env"], cwd=req["cwd"],
            )
            killer = threading.Timer(timeout, child.kill)
            killer.start()
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
            killer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({
            "rc": child.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout, float(sys.argv[1]))
