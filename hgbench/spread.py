#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 hgbench/spread.py --workload query --seeds 0-9

Runs ``bench.py`` once per seed with ``run_seconds`` from BENCHMARK.json
and prints, per metric, the median over the runs and the distance between
the first and third quartiles as a share of the median, next to the
metric's bound.  A benchmark is steady when every spread except that of
``setup_s`` stays under a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lo, hi = (int(x) for x in args.seeds.split("-"))
    runs = []
    for seed in range(lo, hi + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(last)
        print(f"seed {seed}: exit {proc.returncode}, correct {last['correct']}, "
              f"failed {last['failed']}/{last['attempted']}, "
              + ", ".join(f"{k} {v['value']:.6g}" for k, v in last["metrics"].items()),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        spread = quartile_spread(values) if len(values) > 1 and statistics.median(values) else 0.0
        bound = bounds[name]
        flag = "" if spread < bound / 3 else "  <-- not under a third of the bound"
        print(f"{name}: median {statistics.median(values):.6g}, spread {spread:.4f}, "
              f"bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
