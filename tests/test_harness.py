import json

import numpy as np
import pytest

from conecf import (
    CFSequence,
    ConeElement,
    ConeMembershipError,
    ExperimentConfig,
    RngStream,
    SymMatrix,
    cf_general,
    cf_ordinary,
    cone,
    in_cone,
    inverse,
    pi_apply,
    quad_rep_apply,
    rel_residual,
    run_convergence_experiment,
    run_identity_suite,
    sample_wishart,
    split_stream,
    to_ordinary,
    u_vec,
    w_seq,
)
from conecf import harness
from conecf.harness import CSV_HEADER, format_identity_report, summary_json
from conecf.jordan import closed_cone_test


def small_cfg(**overrides):
    base = dict(
        rank=1,
        b=2.0,
        a=2.0,
        a_prime=2.0,
        trials=8,
        depth=30,
        seed=11,
        cauchy_eps=1e-6,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validates_depth_and_trials(self):
        with pytest.raises(ValueError, match="depth"):
            small_cfg(depth=2)
        with pytest.raises(ValueError, match="trial"):
            small_cfg(trials=0)

    def test_validates_shapes_for_rank(self):
        with pytest.raises(ValueError, match="shapes"):
            small_cfg(rank=3, b=0.9)

    def test_validates_law_and_period(self):
        with pytest.raises(ValueError, match="law"):
            small_cfg(law="cauchy")
        with pytest.raises(ValueError, match="period"):
            small_cfg(period=3)

    def test_period_one_pairs(self):
        assert small_cfg(period=1).shape_pairs() == [(2.0, 2.0)]
        assert small_cfg().shape_pairs() == [(2.0, 2.0), (2.0, 2.0)]


class TestGoldenCase:
    def test_identity_law_converges_geometrically(self, tmp_path):
        out = tmp_path / "golden.csv"
        cfg = small_cfg(rank=2, trials=3, depth=40, law="identity", out_path=str(out))
        summary = run_convergence_experiment(cfg)
        assert summary["fraction_converged"] == 1.0
        assert summary["monotonicity_violations"] == 0
        med = summary["median_delta_by_k"]
        # non-increasing after k = 3
        assert all(med[i + 1] <= med[i] * (1 + 1e-12) for i in range(2, len(med) - 1))
        # golden-ratio contraction of consecutive deltas while far from the floor
        phi_sq = ((np.sqrt(5.0) - 1.0) / 2.0) ** 2
        for i in range(4, 12):
            assert med[i + 1] / med[i] == pytest.approx(phi_sq, rel=0.05)

    def test_identity_law_all_trials_identical(self, tmp_path):
        out = tmp_path / "golden.csv"
        cfg = small_cfg(rank=1, trials=2, depth=20, law="identity", out_path=str(out))
        run_convergence_experiment(cfg)
        rows = out.read_text().strip().split("\n")[1:]
        first = [r.split(",", 1)[1] for r in rows[:19]]
        second = [r.split(",", 1)[1] for r in rows[19:]]
        assert first == second


class TestExperiment:
    def test_summary_schema_and_rows(self, tmp_path):
        out = tmp_path / "mc.csv"
        cfg = small_cfg(out_path=str(out))
        summary = run_convergence_experiment(cfg)
        assert summary["schema"] == "cone-cf/1"
        for key in (
            "fraction_converged",
            "median_first_cauchy_k",
            "max_monotonicity_violation",
            "monotonicity_violations",
            "median_delta_by_k",
        ):
            assert key in summary
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) - 1 == cfg.trials * (cfg.depth - 1)
        assert summary["fraction_converged"] == 1.0

    def test_deterministic_artifacts(self, tmp_path):
        outs = []
        sums = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            summary = run_convergence_experiment(small_cfg(out_path=str(out)))
            outs.append(out.read_bytes())
            sums.append(summary_json(summary).encode())
        assert outs[0] == outs[1]
        assert sums[0] == sums[1]

    def test_different_seeds_differ(self, tmp_path):
        a = run_convergence_experiment(small_cfg(seed=1))
        b = run_convergence_experiment(small_cfg(seed=2))
        assert a["median_delta_by_k"] != b["median_delta_by_k"]

    def test_summary_json_round_trips(self):
        summary = run_convergence_experiment(small_cfg(trials=2, depth=10))
        doc = json.loads(summary_json(summary))
        assert doc == summary


class TestIdentitySuite:
    def test_rank_one_all_pass(self):
        report = run_identity_suite(1, 120, seed=1)
        assert report["pass"]
        for entry in report["identities"].values():
            assert entry["pass"]

    def test_rank_two_core_identities_pass(self):
        report = run_identity_suite(2, 60, seed=3)
        checks = report["identities"]
        for name in (
            "quad_is_mult_times_adjoint",
            "inverse_swap",
            "inverse_antitone",
            "ordinary_equivalence",
            "sign_alternation",
            "w_decreasing",
            "tail_correction_in_cone",
            "closed_form_difference",
            "jump_identity",
            "adjoint_norm_bound",
            "adjoint_eigenvalue_bound",
        ):
            assert checks[name]["pass"], name

    def test_report_formatting(self):
        report = run_identity_suite(1, 30, seed=2)
        text = format_identity_report(report)
        assert "identity suite" in text and "overall: PASS" in text

    def test_loewner_adjoint_bound_is_reported_not_gated(self):
        # at rank 3 the cone-order form of the adjoint bound fails on 2 of
        # these cases; the eigenvalue-wise form that criterion 4 asserts holds
        report = run_identity_suite(3, 400, seed=1)
        checks = report["identities"]
        assert checks["adjoint_order_bound"]["violations"] == 2
        assert not checks["adjoint_order_bound"]["pass"]
        assert checks["adjoint_eigenvalue_bound"]["violations"] == 0
        assert report["pass"]
        text = format_identity_report(report)
        assert "  FAIL  adjoint_order_bound: max residual" in text
        assert text.endswith("overall: PASS")

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            run_identity_suite(5, 10, seed=0)


def per_case_report(rank: int, cases: int, seed: int) -> dict:
    """The identity suite evaluated one case at a time through the public API: the reference.

    Every case draws from ``harness.sample_wishart`` as the suite does, so
    a test that replaces that sampler changes both alike.
    """
    def draw(stream):
        return harness.sample_wishart(3.0, rank, stream)

    master = RngStream(seed)
    skipped = 0
    checks = {}

    def record(name, residual, tol, violations=0):
        checks[name] = {"max_residual": residual, "tolerance": tol, "violations": violations,
                        "pass": residual <= tol and violations == 0}

    stream, worst = split_stream(master, 1), 0.0
    for _ in range(cases):
        y, x = draw(stream), draw(stream)
        lhs = pi_apply(y, pi_apply(y, x.m, "star"), "plain")
        worst = max(worst, rel_residual(lhs, quad_rep_apply(y.m, x.m)))
    record("quad_is_mult_times_adjoint", worst, 1e-10)

    stream, worst = split_stream(master, 2), 0.0
    for _ in range(cases):
        u, v = draw(stream), draw(stream)
        lhs = pi_apply(u, inverse(v).m, "inv")
        worst = max(worst, rel_residual(lhs, inverse(cone(pi_apply(u, v.m, "star"))).m))
    record("inverse_swap", worst, 1e-10)

    stream, violations = split_stream(master, 3), 0
    for _ in range(cases):
        x, bump = draw(stream), draw(stream)
        y = in_cone(SymMatrix(x.mat + bump.mat))
        if y is None:
            skipped += 1
            continue
        violations += closed_cone_test(inverse(x).mat - inverse(y).mat)[1]
    record("inverse_antitone", 0.0, 1.0, violations)

    stream, worst = split_stream(master, 4), 0.0
    for c in range(cases):
        n = 1 + c % 12
        try:
            seq = CFSequence(tuple(draw(stream) for _ in range(n)),
                             tuple(draw(stream) for _ in range(n)), draw(stream))
            a = to_ordinary(seq)
            worst = max(worst, rel_residual(cf_general(seq, n), cf_ordinary(a[0], a[1:], n)))
        except ConeMembershipError:
            skipped += 1
    record("ordinary_equivalence", worst, 1e-9)

    stream = split_stream(master, 5)
    sign = decrease = tail = 0
    for _ in range(max(1, cases // 10)):
        xs = tuple(draw(stream) for _ in range(11))
        try:
            ws = w_seq(xs, 11)
        except ConeMembershipError:
            sign += 1
            continue
        decrease += sum(closed_cone_test(wa.mat - wb.mat)[1] for wa, wb in zip(ws, ws[1:]))
        for k in range(3, 10):
            try:
                u_vec(xs, k)
            except ConeMembershipError:
                tail += 1
    record("sign_alternation", 0.0, 1.0, sign)
    record("w_decreasing", 0.0, 1.0, decrease)
    record("tail_correction_in_cone", 0.0, 1.0, tail)
    return {"skipped": skipped, "identities": checks}


def spiked_sampler(spikes: dict, rank: int):
    """``sample_wishart`` with the draws ``spikes[stream_index]`` names replaced by diag(1, .., 1, 1e-11).

    A replaced draw reads the stream as the real one does.  The spike is
    positive definite but misses the open-cone margin (which every real
    draw clears), so the cases holding one fail certification somewhere;
    as a single draw it carries a hand-made certificate.
    """
    ids = {split_stream(RngStream(0), i).stream_id: hit for i, hit in spikes.items()}
    counts: dict = {}
    spike = np.diag([1.0] * (rank - 1) + [1e-11])

    def sample(s, r, rng, n=None):
        drawn = sample_wishart(s, r, rng, n=1)
        index = counts[rng.stream_id] = counts.get(rng.stream_id, -1) + 1
        if rng.stream_id in ids and ids[rng.stream_id](index):
            drawn = spike[None]
        if n is not None:
            return drawn
        return ConeElement(SymMatrix(drawn[0]), float(np.linalg.eigvalsh(drawn[0])[0]))

    return sample


class TestStackedSuite:
    """The stacked identity suite reports, bit for bit, what per-case evaluation reports."""

    FIRST_FIVE = ("quad_is_mult_times_adjoint", "inverse_swap", "inverse_antitone",
                  "ordinary_equivalence", "sign_alternation", "w_decreasing",
                  "tail_correction_in_cone")

    def stacked(self, rank, cases):
        report = run_identity_suite(rank, cases, seed=0)
        return {"skipped": report["skipped"],
                "identities": {name: report["identities"][name] for name in self.FIRST_FIVE}}

    @pytest.mark.parametrize("rank, cases", [(1, 50), (2, 130), (3, 70)])
    def test_matches_per_case_evaluation(self, rank, cases):
        assert self.stacked(rank, cases) == per_case_report(rank, cases, seed=0)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_failing_cases_are_skipped_alone(self, rank, monkeypatch):
        # section 3: both draws of every fifth case; section 4: every 17th draw;
        # section 5: every 29th draw
        spikes = {3: lambda i: i // 2 % 5 == 2, 4: lambda i: i % 17 == 5, 5: lambda i: i % 29 == 7}
        monkeypatch.setattr(harness, "sample_wishart", spiked_sampler(spikes, rank))
        want = per_case_report(rank, 120, seed=0)
        monkeypatch.setattr(harness, "sample_wishart", spiked_sampler(spikes, rank))
        got = self.stacked(rank, 120)
        assert got == want
        assert got["skipped"] > 24  # 24 from the antitonicity cases, the rest from the equivalence
        assert got["identities"]["sign_alternation"]["violations"] > 0
