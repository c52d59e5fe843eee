"""One benchmark workload, run in its own process through ``conecf.cli.cli_main``.

Usage (normally started by ``run.py``, which sets the environment)::

    python3 perfbench/workloads.py --workload mc-r2 --seed 1 --seconds 20 \
        --trace 0 --workdir .perfbench_work/x

A workload is a sequence of batches.  Batch ``i`` of a run with seed ``s``
is fully determined by ``(s, i)``: its inputs are generated outside the
timed region, its CLI invocations are timed, and its outputs are gated
afterwards.  The last line of standard output is one JSON object.

With ``--trace 0`` batches run until ``--seconds`` have passed and the
end-to-end metrics are reported.  With ``--trace 1`` a fixed number of
batches each run untraced and then traced, so the per-layer counts repeat
exactly for a seed; the two runs must leave byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from probe import REF_NOMINAL_S, SpeedProbe
from tracer import EVALUATORS, Tracer

MC_DEPTH = 100
MC_FLAGS = ["--b", "3", "--a", "3", "--a2", "4", "--depth", str(MC_DEPTH), "--eps", "1e-6"]
# Criterion 8 requires at least this share of trials to reach the Cauchy
# verdict; the benchmark applies it to all trials of a run.
MIN_FRACTION_CONVERGED = 0.99
SUMMARY_SCHEMA = "cone-cf/1"
SEQ_HEADER = "k,delta_norm,wk_norm,in_cone_margin"
IDENTITY_LINE = re.compile(
    r"^\s+(PASS|FAIL)\s+(\w+): max residual \S+ \(tol \S+, violations (\d+)\)$"
)
# The cone-order form of the adjoint bound is false at rank >= 2 (ROADMAP,
# criterion 4).  Its violations are counted and reported, never gated.
KNOWN_FALSE = "adjoint_order_bound"

UNITS = {
    "units_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "jordan.eig_calls": "count",
    "jordan.eig_self_s": "s",
    "jordan.cert_calls": "count",
    "jordan.cert_rejects": "count",
    "jordan.self_s": "s",
    "division.congruence_calls": "count",
    "division.chol_calls": "count",
    "division.self_s": "s",
    "contfrac.trace_calls": "count",
    "contfrac.trace_self_s": "s",
    "contfrac.trace_s_p50": "s",
    "contfrac.trace_s_p90": "s",
    "contfrac.eval_calls": "count",
    "contfrac.eval_self_s": "s",
    "contfrac.self_s": "s",
    "contfrac.w_certified_share": "ratio",
    "randmat.draws": "count",
    "randmat.redraws": "count",
    "randmat.self_s": "s",
    "harness.self_s": "s",
    "harness.adjoint_order_violations": "count",
    "cli.self_s": "s",
    "cli.bytes_in": "B",
    "cli.bytes_out": "B",
    "trace.overhead_share": "ratio",
}


def batch_seed(seed: int, i: int) -> int:
    """Seed of batch ``i`` in a run with ``seed``; distinct for i < 100000."""
    return seed * 100_000 + i


@dataclass
class BatchResult:
    units: int
    digest: str
    failures: list[str] = field(default_factory=list)
    bytes_in: int = 0
    bytes_out: int = 0
    rows: int = 0
    certified_rows: int = 0
    converged: int = 0
    adjoint_order_violations: int = 0


def invoke(main, argv: list[str]) -> tuple[int, str]:
    """Run one CLI invocation, capturing what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def sha256(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


class Mc:
    """``mc`` at criterion 8's configuration; the unit is a trial."""

    def __init__(self, rank: int, trials: int, trace_batches: int) -> None:
        self.rank = rank
        self.units = trials
        self.trace_batches = trace_batches

    def prepare(self, seed: int, i: int, workdir: str) -> dict:
        csv = os.path.join(workdir, "trace.csv")
        summary = os.path.join(workdir, "summary.json")
        argv = ["mc", "--rank", str(self.rank), *MC_FLAGS, "--trials", str(self.units),
                "--seed", str(batch_seed(seed, i)), "--out", csv, "--summary-out", summary]
        return {"argv": argv, "csv": csv, "summary": summary}

    def execute(self, job: dict, main) -> list[tuple[int, str]]:
        return [invoke(main, job["argv"])]

    def check(self, job: dict, outputs: list[tuple[int, str]]) -> BatchResult:
        (rc, out), = outputs
        if rc != 0:
            return BatchResult(self.units, sha256(out.encode()), [f"mc exit code {rc}"])
        with open(job["csv"], "rb") as fh:
            csv = fh.read()
        with open(job["summary"], "rb") as fh:
            summary_bytes = fh.read()
        summary = json.loads(summary_bytes)
        lines = csv.decode().splitlines()
        rows = lines[1:]
        res = BatchResult(
            self.units,
            sha256(csv, summary_bytes, out.encode()),
            bytes_out=len(csv) + len(summary_bytes) + len(out.encode()),
            rows=len(rows),
            certified_rows=sum(float(row.split(",")[3]) > 0.0 for row in rows),
            converged=summary.get("trials_converged", 0),
        )
        if lines[0] != "trial,k,delta_norm,wk_min_eig,converged_so_far":
            res.failures.append("unexpected CSV header")
        if len(rows) != self.units * (MC_DEPTH - 1):
            res.failures.append(f"{len(rows)} CSV rows, want {self.units * (MC_DEPTH - 1)}")
        if summary.get("schema") != SUMMARY_SCHEMA:
            res.failures.append(f"schema {summary.get('schema')!r}")
        if summary.get("monotonicity_violations") != 0:
            res.failures.append(f"{summary.get('monotonicity_violations')} monotonicity violations")
        return res


class Identities:
    """``identities --rank 2``; the unit is a case."""

    def __init__(self, rank: int, cases: int, trace_batches: int) -> None:
        self.rank = rank
        self.units = cases
        self.trace_batches = trace_batches

    def prepare(self, seed: int, i: int, workdir: str) -> dict:
        return {"argv": ["identities", "--rank", str(self.rank), "--cases", str(self.units),
                         "--seed", str(batch_seed(seed, i))]}

    def execute(self, job: dict, main) -> list[tuple[int, str]]:
        return [invoke(main, job["argv"])]

    def check(self, job: dict, outputs: list[tuple[int, str]]) -> BatchResult:
        (rc, out), = outputs
        res = BatchResult(self.units, sha256(out.encode()), bytes_out=len(out.encode()))
        verdicts = {}
        for line in out.splitlines():
            m = IDENTITY_LINE.match(line)
            if m:
                verdicts[m.group(2)] = (m.group(1) == "PASS", int(m.group(3)))
        overall = out.rstrip().endswith("overall: PASS")
        if KNOWN_FALSE not in verdicts:
            res.failures.append(f"{KNOWN_FALSE} missing from the report")
        else:
            res.adjoint_order_violations = verdicts[KNOWN_FALSE][1]
        broken = sorted(name for name, (ok, _) in verdicts.items() if not ok and name != KNOWN_FALSE)
        if broken:
            res.failures.append(f"identities failed: {broken}")
        if rc != (0 if overall else 1):
            res.failures.append(f"exit code {rc} disagrees with the overall verdict")
        return res


class Seqfile:
    """A generated rank-3 sequence file, then ``eval --format csv`` and ``equiv``.

    The unit is one file pass: one ``eval`` plus one ``equiv``.  ``equiv``
    runs at criterion 2's depth range (n <= 12): from depth 29 on, the
    transform to ordinary form exceeds the relative cone margin on some
    seeds.
    """

    def __init__(self, rank: int, depth: int, equiv_depth: int, trace_batches: int) -> None:
        self.rank = rank
        self.depth = depth
        self.equiv_depth = equiv_depth
        self.units = 1
        self.trace_batches = trace_batches

    def _wishart(self, rng: np.random.Generator) -> dict:
        # Wishart with 2 * 3 degrees of freedom and scale 1/2: mean 3 e, the
        # law of conecf's sample_wishart(3.0, r).
        a = rng.normal(0.0, np.sqrt(0.5), size=(self.rank, 2 * 3))
        x = a @ a.T
        x = (x + x.T) / 2.0
        return {"r": self.rank, "data": x.tolist()}

    def prepare(self, seed: int, i: int, workdir: str) -> dict:
        rng = np.random.default_rng(batch_seed(seed, i))
        doc = {
            "head": self._wishart(rng),
            "xs": [self._wishart(rng) for _ in range(self.depth)],
            "ys": [self._wishart(rng) for _ in range(self.depth)],
        }
        path = os.path.join(workdir, "sequence.json")
        text = json.dumps(doc) + "\n"
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        return {"path": path, "size": len(text.encode())}

    def execute(self, job: dict, main) -> list[tuple[int, str]]:
        return [
            invoke(main, ["eval", job["path"], "--format", "csv"]),
            invoke(main, ["equiv", job["path"], "--depth", str(self.equiv_depth)]),
        ]

    def check(self, job: dict, outputs: list[tuple[int, str]]) -> BatchResult:
        (rc_eval, csv), (rc_equiv, equiv) = outputs
        res = BatchResult(
            1,
            sha256(csv.encode(), equiv.encode()),
            bytes_in=2 * job["size"],
            bytes_out=len(csv.encode()) + len(equiv.encode()),
        )
        lines = csv.splitlines()
        ks = [line.split(",", 1)[0] for line in lines[1:]]
        if rc_eval != 0 or lines[:1] != [SEQ_HEADER] or ks != [str(k) for k in range(1, self.depth + 1)]:
            res.failures.append(f"eval exit code {rc_eval}, {len(ks)} convergents, want {self.depth}")
        if rc_equiv != 0 or not equiv.startswith(f"max relative deviation over depths 1..{self.equiv_depth}:"):
            res.failures.append(f"equiv exit code {rc_equiv}: {equiv.strip()}")
        return res


# A batch is one invocation (two for seqfile) of the workload's
# configuration, at most a couple of seconds at the seed commit, so a
# 20-second run times ten or more of them.  The traced batch counts fix the
# traced work per workload at roughly ten seconds each way.
WORKLOADS = {
    "mc-r3": Mc(rank=3, trials=1, trace_batches=3),
    "mc-r2": Mc(rank=2, trials=1, trace_batches=40),
    "identities-r2": Identities(rank=2, cases=200, trace_batches=6),
    "seqfile-r3": Seqfile(rank=3, depth=64, equiv_depth=12, trace_batches=4),
}


def run_batch(wl, seed: int, i: int, workdir: str, main) -> tuple[float, BatchResult]:
    job = wl.prepare(seed, i, workdir)
    t0 = time.perf_counter()
    outputs = wl.execute(job, main)
    elapsed = time.perf_counter() - t0
    return elapsed, wl.check(job, outputs)


def count_failed(wl, results: list[BatchResult]) -> tuple[int, list[str]]:
    """Failed units: every unit of a batch that failed a gate, plus, for ``mc``,
    the unconverged trials when the run misses criterion 8's converged share."""
    failed = sum(r.units for r in results if r.failures)
    notes = [f"batch {i}: {msg}" for i, r in enumerate(results) for msg in r.failures]
    if isinstance(wl, Mc):
        ok = [r for r in results if not r.failures]
        trials = sum(r.units for r in ok)
        converged = sum(r.converged for r in ok)
        if trials and converged / trials < MIN_FRACTION_CONVERGED:
            failed += trials - converged
            notes.append(f"fraction converged {converged}/{trials} below {MIN_FRACTION_CONVERGED}")
    return failed, notes


def end_to_end(wl, seed: int, seconds: float, workdir: str, main) -> dict:
    """Run batches for ``seconds``; throughput is per host-normalised second."""
    probes, results = [], []
    deadline = time.perf_counter() + seconds
    while not probes or time.perf_counter() < deadline:
        job = wl.prepare(seed, len(probes), workdir)
        with SpeedProbe() as probe:
            outputs = wl.execute(job, main)
        probes.append(probe)
        results.append(wl.check(job, outputs))
    failed, notes = count_failed(wl, results)
    norm = [p.normalized_s for p in probes]
    q1, q2, q3 = statistics.quantiles(norm, n=4) if len(norm) > 1 else norm * 3
    return {
        "attempted": sum(r.units for r in results),
        "failed": failed,
        "notes": notes,
        "metrics": {
            "units_per_s": wl.units / q2,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "samples": {
            "batches": len(probes),
            "units_per_batch": wl.units,
            "batch_norm_s_p25": q1,
            "batch_norm_s_p50": q2,
            "batch_norm_s_p75": q3,
            "wall_units_per_s": wl.units / statistics.median(p.work_s for p in probes),
            "host_slowdown_p50": statistics.median(p.ref_s / p.ref_n / REF_NOMINAL_S for p in probes),
        },
        "adjoint_order_violations": sum(r.adjoint_order_violations for r in results),
    }


def quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.quantile(values, q))


def traced(wl, seed: int, workdir: str, cli) -> dict:
    """Run each fixed batch untraced and then traced, and derive the layer metrics.

    The two runs of a batch are adjacent, so a slow phase of the host
    falls on both and ``trace.overhead_share`` stays comparable.
    """
    tracer = Tracer()
    root = tracer.span("cli.cli_main", "cli", cli.cli_main)
    plain, spans = [], []
    for i in range(wl.trace_batches):
        plain.append(run_batch(wl, seed, i, workdir, cli.cli_main))
        tracer.install()
        try:
            spans.append(run_batch(wl, seed, i, workdir, root))
        finally:
            tracer.uninstall()
    plain_s = sum(dt for dt, _ in plain)
    traced_s = sum(dt for dt, _ in spans)
    results = [res for _, res in spans]
    for (_, a), b in zip(plain, results):
        if a.digest != b.digest:
            b.failures.append("traced artifacts differ from the untraced run")
    both = [a for _, a in plain] + results
    failed, notes = count_failed(wl, both)

    calls, self_s, nones = tracer.calls, tracer.self_s, tracer.nones
    layer = tracer.layer_self_s()

    def keys(*names: str) -> list[str]:
        return [k for k in tracer.layer_of if k.split(".", 1)[1] in names]

    def total(table: dict, ks: list[str]) -> float:
        return sum(table.get(k, 0) for k in ks)

    eig, cert = keys("_jacobi"), keys("in_cone")
    trace_keys, eval_keys = keys("trace_cf"), keys(*EVALUATORS)
    draws = total(calls, ["harness.sample_beta2", "harness.sample_wishart"])
    trace_durations = [d for k in trace_keys for d in tracer.durations.get(k, [])]
    rows = sum(r.rows for r in results)
    metrics = {
        "jordan.eig_calls": total(calls, eig),
        "jordan.eig_self_s": total(self_s, eig),
        "jordan.cert_calls": total(calls, cert),
        "jordan.cert_rejects": total(nones, cert),
        "jordan.self_s": layer["jordan"],
        "division.congruence_calls": total(calls, keys("_pi_raw")),
        "division.chol_calls": total(calls, keys("_chol_raw")),
        "division.self_s": layer["division"],
        "contfrac.trace_calls": total(calls, trace_keys),
        "contfrac.trace_self_s": total(self_s, trace_keys),
        "contfrac.trace_s_p50": quantile(trace_durations, 0.5),
        "contfrac.trace_s_p90": quantile(trace_durations, 0.9),
        "contfrac.eval_calls": total(calls, eval_keys),
        "contfrac.eval_self_s": total(self_s, eval_keys),
        "contfrac.self_s": layer["contfrac"],
        "contfrac.w_certified_share": sum(r.certified_rows for r in results) / rows if rows else 0.0,
        "randmat.draws": draws,
        "randmat.redraws": calls.get("randmat.in_cone", 0) - draws,
        "randmat.self_s": layer["randmat"],
        "harness.self_s": layer["harness"],
        "harness.adjoint_order_violations": sum(r.adjoint_order_violations for r in results),
        "cli.self_s": layer["cli"],
        "cli.bytes_in": sum(r.bytes_in for r in results),
        "cli.bytes_out": sum(r.bytes_out for r in results),
        "trace.overhead_share": traced_s / plain_s - 1.0,
    }
    return {
        "attempted": sum(r.units for r in both),
        "failed": failed,
        "notes": notes,
        "metrics": metrics,
        "samples": {"batches": wl.trace_batches, "units_per_batch": wl.units,
                    "traced_s": traced_s, "untraced_s": plain_s,
                    "root_span_s": tracer.root_s, "absent_bindings": tracer.absent},
        "adjoint_order_violations": metrics["harness.adjoint_order_violations"],
    }


def environment(root: str) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cli = importlib.import_module("conecf.cli")
    expected = os.path.join(root, "src", "conecf")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        print(f"conecf imported from {cli.__file__}, not from {expected}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    wl = WORKLOADS[args.workload]
    if args.trace:
        result = traced(wl, args.seed, args.workdir, cli)
    else:
        result = end_to_end(wl, args.seed, args.seconds, args.workdir, cli.cli_main)
    result["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()}
    result["env"] = environment(root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
