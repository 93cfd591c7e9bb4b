"""Run the benchmark on several seeds and report, per metric, the median
and the spread (distance between the first and third quartile as a share
of the median) — the steadiness test a benchmark change must pass.

    python3 cdcbench/spread.py --workload state_epochs --seeds 1 2 3 4 5 \\
        [--trace 0] [--jsonl results.jsonl]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--jsonl", help="append each run's result here")
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "cdcbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--trace", str(args.trace)],
            capture_output=True, text=True)
        wall = time.perf_counter() - t
        if proc.returncode != 0:
            print(proc.stderr[-3000:], file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.jsonl:
            with open(args.jsonl, "a") as f:
                log = [ln for ln in proc.stderr.splitlines()
                       if ln.startswith("cdcbench")]
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "wall_s": wall, "log": log, **res})
                        + "\n")
        print(f"seed {seed}: wall {wall:.1f} s correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}", flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{k:<32} median {med:12.6g}  spread {spread:7.3f}  "
              f"min {min(vs):.6g} max {max(vs):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
