"""Seeded benchmark for the `apa` model checker.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Every timed operation is a fresh `apa`
process built from the checkout's `src/` (the package keeps process-wide
caches, so a warm process would measure the caches, not the work). Passes
over the workload's operations repeat, one child at a time, for
`--seconds` (a pass starts only if it should end in time); each output is
checked against the references in refs.py. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones. wall_s and cpu_s
are one pass: the sum over its timed parts of each part's fastest repeat in
the run (the work is deterministic, so a slower repeat only adds
interference from elsewhere on the machine). A part is one child process,
or for the sweep child, which times its own queries, one query or the rest
of the process. setup_s is the median of the set-up probes, one at the
start of every pass (topped up to SETUP_PROBES at the end); a probe is the
fastest of a burst of SETUP_BURST set-ups. The three times are given at
the reference speed of the machine: each pass also runs CALIBRATION_CODE,
and the times are scaled by CALIBRATION_REF_S over its fastest repeat,
because the machine's speed moves by up to 1.6x over minutes (README.md,
"Noise"); the log lines before the JSON give the unscaled figures.
peak_rss_mb is the largest over the operations of each one's median peak
resident set. With `--trace 1`, untraced and traced passes alternate and
the metrics are the per-layer ones of tracer.py, medians over the traced
passes, unscaled, plus trace.overhead_s; the spans of the last traced pass
are written to .perfbench_out/trace-<workload>-s<seed>.json. The exit code
is 1 when an output was wrong or an operation failed.
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

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("explore", "extensions", "temporal", "sweep")
SETUP_PROBES = 9  # set-up measurements per run: one per pass, at least this many
SETUP_BURST = 3  # interpreters started back to back for one measurement
CHILD_TIMEOUT_S = 120

# What every CLI user pays before any work: a fresh interpreter imports the
# package and parses the pass's framework and query files.
SETUP_CODE = """\
import sys
from apa import cli, ctl, fileformat
args = sys.argv[1:]
cut = args.index("--")
for path in args[:cut]:
    with open(path, encoding="utf-8") as handle:
        fileformat.parse_framework(handle.read())
for path in args[cut + 1:]:
    with open(path, encoding="utf-8") as handle:
        ctl.parse_query(handle.read())
"""

# The yardstick for the machine's speed: fixed pure-Python work in a fresh
# interpreter, without apa, of the kind apa does (frozensets and dict
# lookups) and about as long as one timed part.
CALIBRATION_CODE = """\
from itertools import combinations
items = [f"a{i}" for i in range(16)]
seen = {}
for r in range(len(items) + 1):
    for combo in combinations(items, r):
        candidate = frozenset(combo)
        seen[candidate] = len(candidate & {"a1", "a3", "a5"}) % 2
"""
CALIBRATION_REF_S = 0.165  # its fastest wall time on the reference machine
CALIBRATE_EVERY = 4  # a calibration before every fourth operation of a pass


class Launcher:
    """The small process that starts and reaps every child (launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list, stdout: Path, stderr: Path, env: dict) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "env": env, "cwd": str(ROOT)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        self.proc.stdout.close()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same set iteration order in every run
    return env


def timed_parts(op, reply: dict, err: Path) -> tuple:
    """The wall and CPU times of one child as lists over its timed parts:
    the whole process, or for sweep_child.py, which writes its per-query
    times as the last line of its standard error, the rest of the process
    followed by each query."""
    if not op.sweep or reply["rc"] != 0:
        return [reply["wall_s"]], [reply["cpu_s"]]
    parts = json.loads(err.read_text().splitlines()[-1])
    walls, cpus = parts["query_s"], parts["query_cpu_s"]
    return ([reply["wall_s"] - sum(walls)] + walls,
            [reply["cpu_s"] - sum(cpus)] + cpus)


def fastest(repeats: list) -> float:
    """Sum over the timed parts of each part's fastest repeat."""
    return sum(map(min, zip(*repeats)))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 launcher: Launcher, log) -> dict:
    workdir = OUT / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(name, seed, seconds, trace, launcher, log, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(name: str, seed: int, seconds: float, trace: bool,
            launcher: Launcher, log, workdir: Path) -> dict:
    import workloads  # imports apa, so only once the checkout's src/ is on the path

    t0 = time.perf_counter()
    wl = workloads.build(name, seed, str(workdir))
    wrong = [error] if (error := workloads.selfcheck(name, seed)) else []
    for note in wl.notes:
        print(f"[{name}] {note}", file=log)
    print(f"[{name}] inputs and references ready in "
          f"{time.perf_counter() - t0:.2f} s", file=log)
    env = child_env()
    out, err = workdir / "stdout", workdir / "stderr"
    setup_argv = ([sys.executable, "-c", SETUP_CODE] + wl.framework_files
                  + ["--"] + wl.query_files)

    calibration_argv = [sys.executable, "-c", CALIBRATION_CODE]

    def probe(argv: list) -> float:
        reply = launcher.run(argv, out, err, env)
        if reply["rc"] != 0:
            raise RuntimeError("probe failed: " + err.read_text()[-2000:])
        return reply["wall_s"]

    def setup_probe() -> float:
        return min(probe(setup_argv) for _ in range(SETUP_BURST))

    probe(setup_argv)  # warm-up: writes the bytecode cache, fills the file cache
    setups, calibrations, traced = [], [], []
    plain = [([], [], []) for _ in wl.ops]  # per operation and repeat: wall, CPU, RSS
    traced_walls = [[] for _ in wl.ops]
    attempted = failed = 0
    failures = []
    verified = {}  # (op index, output digest, rc) -> check result
    start = time.perf_counter()
    durations = []  # of whole passes; a pass starts only if it should end in time
    n = 0
    while n < (2 if trace else 1) or (
            time.perf_counter() - start + max(durations[-2:]) <= seconds):
        pass_start = time.perf_counter()
        tracing = trace and n % 2 == 1
        walls, dumps = [], []
        setups.append(setup_probe())
        for i, op in enumerate(wl.ops):
            if i % CALIBRATE_EVERY == 0:
                calibrations.append(probe(calibration_argv))
            spans = workdir / f"spans-{i}.json" if tracing else None
            reply = launcher.run(op.argv(spans and str(spans)), out, err, env)
            walls.append(reply["wall_s"])
            wall, cpu = timed_parts(op, reply, err)
            if tracing:
                traced_walls[i].append(wall)
            else:
                for acc, value in zip(plain[i], (wall, cpu, reply["maxrss_kb"])):
                    acc.append(value)
            output = out.read_bytes()
            key = (i, hashlib.sha256(output).digest(), reply["rc"])
            if key not in verified:
                try:
                    verified[key] = op.check(output, reply["rc"])
                except (ValueError, KeyError, TypeError) as exc:  # unreadable output
                    verified[key] = (op.count, 0, f"unreadable output: {exc!r}")
            ops, bad, error = verified[key]
            attempted += ops
            failed += bad
            if bad:
                failures.append(f"{op.name}: exit {reply['rc']}: "
                                + err.read_text()[-2000:])
            if error:
                wrong.append(f"{op.name}: {error}")
            if tracing and reply["rc"] in (0, 2):
                dumps.append(json.loads(spans.read_text()))
        if tracing:
            traced.append((tracer.summarize(dumps, walls), dumps))
        durations.append(time.perf_counter() - pass_start)
        n += 1
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe())
    for error in (wrong + failures)[:10]:
        print(f"[{name}] ERROR {error}", file=log)

    median = statistics.median
    untraced_wall = sum(fastest(walls) for walls, _, _ in plain)
    if trace:
        layers = [t[0] for t in traced]
        metrics = {key: median(d[key] for d in layers) for key in layers[0]}
        metrics["trace.overhead_s"] = sum(map(fastest, traced_walls)) - untraced_wall
        dumps = traced[-1][1]
        trace_file = OUT / f"trace-{name}-s{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": name, "seed": seed,
            "children": [{"op": op.name, "spans": d["spans"]}
                         for op, d in zip(wl.ops, dumps)],
        }))
        print(f"[{name}] spans of the last traced pass in {trace_file}", file=log)
        units = {key: tracer.unit_of(key) for key in metrics}
    else:
        raw = {
            "wall_s": untraced_wall,
            "cpu_s": sum(fastest(cpus) for _, cpus, _ in plain),
            "setup_s": median(setups),
        }
        speed = CALIBRATION_REF_S / min(calibrations)
        print(f"[{name}] unscaled: " + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items())
              + f"; calibration {min(calibrations):.4f} s, scale {speed:.4f}", file=log)
        metrics = {k: v * speed for k, v in raw.items()}
        metrics["peak_rss_mb"] = max(median(rss) for _, _, rss in plain) / 1024
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    print(f"[{name}] {len(plain[0][0])} untraced and {len(traced)} traced passes of "
          f"{len(wl.ops)} processes, {len(setups)} set-up probes", file=log)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def report(name: str, result: dict, log) -> None:
    """Human-readable lines; for a traced run, self time per layer."""
    print(f"[{name}] attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}", file=log)
    metrics = result["metrics"]
    for key, m in metrics.items():
        print(f"[{name}]   {key:34s} {m['value']:14.6f} {m['unit']}", file=log)
    if "self_s.outside" in metrics:
        selfs = {k: m["value"] for k, m in metrics.items() if k.startswith("self_s.")}
        total = sum(selfs.values()) or 1.0
        shares = ", ".join(f"{k[7:]} {v / total:.0%}" for k, v in
                           sorted(selfs.items(), key=lambda kv: -kv[1]))
        print(f"[{name}] self time by layer: {shares}", file=log)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "apa" / "__init__.py").is_file():
        print(f"error: no apa package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    launcher = Launcher()  # before this process grows (see launcher.py)
    try:
        sys.path.insert(0, str(ROOT / "src"))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        ok = True
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  launcher, sys.stdout)
            report(name, result, sys.stdout)
            sys.stdout.flush()
            ok = ok and result["correct"] and not result["failed"]
            if args.workload == "all":
                print(json.dumps({"workload": name, **result}))
        if args.workload != "all":
            print(json.dumps(result))
    finally:
        launcher.close()
    return 0 if ok else 1  # wrong outputs or failed operations


if __name__ == "__main__":
    sys.exit(main())
