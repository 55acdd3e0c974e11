"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steady.py

Runs `run.py --trace 0` for seeds 1-10 on every workload of BENCHMARK.json,
with its run length, and prints for each end-to-end metric the median, the
first and third quartiles (`statistics.quantiles(values, n=4)`), and the
spread (q3 - q1) / median beside the metric's bound. A spread under a third
of the bound is steady enough; the bounds in BENCHMARK.json were set from
this output. It also prints the share of failed operations per run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in (w["name"] for w in config["workloads"]):
        values = {name: [] for name in bounds}
        shares = set()
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode not in (0, 1):  # 1: a result with wrong outputs
                raise SystemExit(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: outputs are not correct")
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4f}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"{workload:10s} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:6.1%}  bound {bounds[name]:.0%} {flag}")
        print(f"{workload:10s} failed share per run: {sorted(shares)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
