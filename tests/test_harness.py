import json

import numpy as np
import pytest

from conecf import ExperimentConfig, run_convergence_experiment, run_identity_suite
from conecf.harness import CSV_HEADER, format_identity_report, summary_json


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
