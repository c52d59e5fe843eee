"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so that the repository's own test run
does not collect it.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

cli = importlib.import_module("conecf.cli")


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=[("mc-r2", 3), ("mc-r3", 1)])
def mc_traced(request, tmp_path_factory):
    name, trials = request.param
    wl = workloads.Mc(rank=workloads.WORKLOADS[name].rank, trials=trials, trace_batches=1)
    return wl, workloads.traced(wl, 5, str(tmp_path_factory.mktemp(name)), cli)


def test_traced_and_untraced_artifacts_are_byte_identical(tmp_path):
    for name, wl in workloads.WORKLOADS.items():
        if name == "mc-r3":
            wl = workloads.Mc(rank=3, trials=1, trace_batches=1)
        workdir = str(tmp_path / name)
        os.makedirs(workdir)
        _, plain = workloads.run_batch(wl, 11, 0, workdir, cli.cli_main)
        tracer = Tracer()
        tracer.install()
        try:
            _, traced = workloads.run_batch(wl, 11, 0, workdir, cli.cli_main)
        finally:
            tracer.uninstall()
        assert tracer.calls, name
        assert not plain.failures and not traced.failures, name
        assert plain.digest == traced.digest, name


def test_same_seed_gives_byte_identical_artifacts(tmp_path):
    wl = workloads.WORKLOADS["seqfile-r3"]
    digests = [workloads.run_batch(wl, seed, 0, str(tmp_path), cli.cli_main)[1].digest
               for seed in (4, 4, 5)]
    assert digests[0] == digests[1] != digests[2]
    wl = workloads.Mc(rank=2, trials=2, trace_batches=1)
    digests = [workloads.run_batch(wl, 4, 0, str(tmp_path), cli.cli_main)[1].digest
               for _ in range(2)]
    assert digests[0] == digests[1]


def test_mc_count_invariants(mc_traced):
    wl, result = mc_traced
    assert result["failed"] == 0, result["notes"]
    m = result["metrics"]
    assert m["contfrac.trace_calls"] == wl.units
    assert m["randmat.draws"] == wl.units * workloads.MC_DEPTH
    assert m["randmat.redraws"] >= 0
    assert 0.0 < m["contfrac.w_certified_share"] < 1.0


def test_layer_self_times_sum_to_traced_wall(mc_traced):
    _, result = mc_traced
    m, samples = result["metrics"], result["samples"]
    selfs = [m[f"{layer}.self_s"] for layer in LAYERS]
    remainder = samples["traced_s"] - samples["root_span_s"]
    assert all(s >= 0.0 for s in selfs)
    assert 0.0 <= remainder < 0.05 * samples["traced_s"]
    assert sum(selfs) + remainder == pytest.approx(samples["traced_s"], rel=1e-9)


def test_nested_spans_are_not_counted_twice():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.span("a.inner", "jordan", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    traced_outer = tracer.span("b.outer", "jordan", outer)
    t0 = time.perf_counter()
    traced_outer()
    wall = time.perf_counter() - t0
    assert tracer.calls == {"a.inner": 2, "b.outer": 1}
    assert tracer.self_s["a.inner"] >= 0.04
    assert 0.01 <= tracer.self_s["b.outer"] < 0.02
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s, rel=1e-12)
    assert tracer.root_s <= wall
    assert tracer.layer_self_s()["jordan"] == pytest.approx(tracer.root_s, rel=1e-12)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = benchmark_spec()
    proc = run_bench(ROOT, "identities-r2", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "mc-r2", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
