"""Run the benchmark over several seeds and summarise each metric.

Run from the root of a checkout::

    python3 perfbench/spread.py --workloads mc-r2 seqfile-r3 --seeds 1 2 3 4 5 \
        --trace 0 --out spread.json

For every workload and metric it reports the sample count, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, next to the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="benchmark spread over seeds")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units = {}
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            cmd[0] = sys.executable
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        stats = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / q2 if q2 else None
            stats[name] = {"unit": units[name], "n": len(vals), "median": q2, "q1": q1, "q3": q3,
                           "spread": spread, "bound": bounds.get(name)}
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"{workload:14s} {name:34s} median {q2:.6g} {units[name]:6s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {shown} bound {bounds.get(name)}", flush=True)
        report[workload] = {"metrics": stats, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"trace": args.trace, "seconds": args.seconds, "seeds": args.seeds,
                       "workloads": report}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
