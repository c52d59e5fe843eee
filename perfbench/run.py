"""conecf benchmark: one workload, end-to-end (``--trace 0``) or per layer (``--trace 1``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc-r2 --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout; there is nothing to
build.  Every child process runs with one BLAS thread.  With ``--trace 0``
the benchmark first times ``import conecf`` in several fresh interpreters
(``setup_s``, their median), then runs the workload in its own process
(``workloads.py``).  Human-readable lines come first; the last line of
standard output is the JSON result.  Exit code 2 means the checkout holds
no conecf source tree, 1 that the workload process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")
SETUP_REPEATS = 5
# Times ``import conecf`` in a fresh interpreter, host-normalised like the
# workload batches (see probe.py); argv[1] is the benchmark directory.
IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import probe
with probe.SpeedProbe() as clock:
    import conecf
print(repr(clock.normalized_s))
"""
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def setup_seconds(env: dict) -> list[float]:
    """Host-normalised seconds a fresh interpreter takes to ``import conecf``, per repeat."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="conecf benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "conecf", "__init__.py")):
        print("perfbench: no conecf source tree at src/conecf in this checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = child_env()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        setups = [] if args.trace else setup_seconds(env)
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_LIMIT_S - (time.perf_counter() - started),
        )
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["samples"]["setup_s"] = setups

    attempted, failed = result["attempted"], result["failed"]
    print("env: " + json.dumps(result["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"samples {json.dumps(result['samples'])}")
    print(f"  failed_share = {failed / attempted!r} ratio ({failed} of {attempted} units)")
    print(f"  adjoint_order_bound violations (known-false clause, not a failure): "
          f"{result['adjoint_order_violations']}")
    for note in result["notes"]:
        print(f"  gate: {note}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
