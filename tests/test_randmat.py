import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, gammainc
from scipy.stats import gaussian_kde, kstest

from conecf import (
    Beta2Params,
    ConeMembershipError,
    RngStream,
    SymMatrix,
    beta2_log_density,
    beta_omega,
    cone,
    gamma_omega,
    in_cone,
    inverse,
    sample_beta2,
    sample_wishart,
    split_stream,
)
from conecf import randmat
from conecf.jordan import open_cone_test
from conecf.randmat import _MAX_REDRAWS, _beta2_arrays, _wishart_arrays, sample_wishart_seq


def scal(v):
    return cone(SymMatrix(np.array([[float(v)]])))


class TestGammaOmega:
    def test_rank_one_at_one(self):
        assert gamma_omega(1.0, 1) == pytest.approx(0.0, abs=1e-14)

    def test_rank_one_factorials(self):
        for n in (2, 3, 5, 8):
            assert gamma_omega(float(n), 1) == pytest.approx(math.lgamma(n), rel=1e-14)

    def test_rank_two_half_integer(self):
        # 0.5 log(2 pi) + log Gamma(3/2) + log Gamma(1), by the product formula
        expected = 0.5 * math.log(2 * math.pi) + math.lgamma(1.5) + math.lgamma(1.0)
        assert gamma_omega(1.5, 2) == pytest.approx(expected, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_omega(0.5, 2)


class TestBetaOmega:
    def test_scalar_unit(self):
        assert beta_omega(1.0, 1.0, 1) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_two_three(self):
        assert beta_omega(2.0, 3.0, 1) == pytest.approx(math.log(1.0 / 12.0), rel=1e-14)

    def test_symmetry(self):
        for r in (1, 2, 3):
            assert beta_omega(2.5, 4.0, r) == pytest.approx(beta_omega(4.0, 2.5, r), rel=1e-14)


class TestBeta2Density:
    def test_scalar_unit_shapes(self):
        got = beta2_log_density(scal(1.0), Beta2Params(1.0, 1.0, 1))
        assert got == pytest.approx(math.log(0.25), rel=1e-14)

    def test_scalar_two_three(self):
        got = beta2_log_density(scal(1.0), Beta2Params(2.0, 3.0, 1))
        assert got == pytest.approx(math.log(12.0 / 32.0), rel=1e-14)

    def test_scalar_quadrature_normalizes(self):
        params = Beta2Params(2.0, 3.0, 1)
        total, err = quad(
            lambda t: math.exp(beta2_log_density(scal(t), params)), 0.0, 200.0, limit=200
        )
        assert abs(total - 1.0) < 1e-4 and err < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            beta2_log_density(scal(1.0), Beta2Params(2.0, 3.0, 2))


class TestBeta2Params:
    def test_domain_edges(self):
        Beta2Params(1.01, 1.01, 3)
        with pytest.raises(ValueError):
            Beta2Params(1.0, 2.0, 3)
        with pytest.raises(ValueError):
            Beta2Params(2.0, 2.0, 0)


class TestWishart:
    def test_scalar_reduction_is_gamma(self):
        rng = RngStream(101)
        xs = np.array([sample_wishart(3.0, 1, rng).mat[0, 0] for _ in range(4000)])
        stat = kstest(xs, lambda t: gammainc(3.0, t)).statistic
        assert stat < 0.03
        se = xs.std() / np.sqrt(xs.size)
        assert abs(xs.mean() - 3.0) < 4 * se

    def test_every_sample_certified(self):
        rng = RngStream(7)
        for _ in range(200):
            x = sample_wishart(2.0, 3, rng)
            assert x.min_eig > 0.0 and in_cone(x.m) is not None

    def test_trace_mean(self):
        gen = RngStream(11).generator
        draws = _wishart_arrays(3.0, 2, gen, 30_000)
        tr = draws[:, 0, 0] + draws[:, 1, 1]
        se = tr.std() / np.sqrt(tr.size)
        assert abs(tr.mean() - 6.0) < 4 * se

    def test_mean_is_shape_times_identity(self):
        gen = RngStream(13).generator
        draws = _wishart_arrays(2.5, 2, gen, 50_000)
        mean = draws.mean(axis=0)
        assert np.allclose(mean, 2.5 * np.eye(2), atol=0.06)

    def test_shape_domain(self):
        with pytest.raises(ValueError):
            sample_wishart(0.5, 2, RngStream(0))

    @pytest.mark.parametrize("s, r, error", [
        (3.0, 0, "rank must be at least 1, got 0"),
        (3.0, -1, "rank must be at least 1, got -1"),
        (math.inf, 2, "shapes must be finite, got s=inf"),
    ])
    @pytest.mark.parametrize("n", [None, 3])
    def test_rank_and_finite_shape_are_checked_first(self, s, r, error, n):
        with pytest.raises(ValueError, match=f"^{error}$"):
            sample_wishart(s, r, RngStream(0), n=n)
        with pytest.raises(ValueError, match=f"^{error}$"):
            sample_wishart_seq(s, r, RngStream(0), 3)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_bartlett_draws_read_the_stream_in_order(self, r):
        # diagonal gammas row by row, then the strict lower triangle in row-major order;
        # L L^T comes out exactly symmetric, as jordan.certified requires of a single draw
        for n in (1, 5):
            got = _wishart_arrays(3.0, r, RngStream(17).generator, n)
            gen = RngStream(17).generator
            L = np.zeros((n, r, r))
            for i in range(r):
                L[:, i, i] = np.sqrt(gen.gamma(shape=3.0 - 0.5 * i, scale=1.0, size=n))
            il, jl = np.tril_indices(r, -1)
            L[:, il, jl] = gen.normal(0.0, np.sqrt(0.5), size=(n, il.size))
            assert np.array_equal(got, L @ L.transpose(0, 2, 1))
            assert np.array_equal(got, got.transpose(0, 2, 1))
        one = sample_wishart(3.0, r, RngStream(19)).mat
        assert np.array_equal(one, sample_wishart(3.0, r, RngStream(19), n=1)[0])


class TestBeta2Sampler:
    def test_scalar_reduction_is_beta_prime(self):
        rng = RngStream(202)
        xs = np.array([sample_beta2(Beta2Params(2.0, 3.0, 1), rng).mat[0, 0] for _ in range(10_000)])
        stat = kstest(xs, lambda t: betainc(2.0, 3.0, t / (1.0 + t))).statistic
        assert stat < 0.02
        se = xs.std() / np.sqrt(xs.size)
        assert abs(xs.mean() - 1.0) < 4 * se

    def test_draw_and_inverse_certified_with_finite_density(self):
        rng = RngStream(5)
        params = Beta2Params(3.0, 3.0, 2)
        for _ in range(100):
            x = sample_beta2(params, rng)
            assert in_cone(x.m) is not None
            assert in_cone(inverse(x).m) is not None
            assert np.isfinite(beta2_log_density(x, params))

    def test_rank_two_box_probabilities(self):
        # bias-free law check: empirical box mass vs quadrature of the density
        gen = RngStream(5).generator
        n = 200_000
        draws = _beta2_arrays(3.0, 3.0, 2, gen, n)
        co = np.stack(
            [draws[:, 0, 0], draws[:, 1, 1], np.sqrt(2.0) * draws[:, 0, 1]], axis=1
        )
        logB = beta_omega(3.0, 3.0, 2)

        def box_mass(lo, hi, m=48):
            a, d, c = (np.linspace(lo[i], hi[i], m) for i in range(3))
            A, D, C = np.meshgrid(a, d, c, indexing="ij")
            x12 = C / np.sqrt(2.0)
            det = A * D - x12**2
            det1 = (1 + A) * (1 + D) - x12**2
            vals = np.zeros_like(A)
            mask = (det > 1e-12) & (A > 0) & (D > 0)
            vals[mask] = np.exp(-logB + 1.5 * np.log(det[mask]) - 6.0 * np.log(det1[mask]))
            for axis in (2, 1, 0):
                vals = np.trapezoid(vals, dx=(hi[axis] - lo[axis]) / (m - 1), axis=axis)
            return vals

        boxes = [
            ((0.2, 0.2, -0.3), (1.2, 1.2, 0.3)),
            ((0.5, 0.5, -1.0), (2.5, 2.5, 1.0)),
            ((1.0, 0.3, 0.2), (3.0, 1.5, 1.2)),
        ]
        for lo, hi in boxes:
            inside = ((co >= lo) & (co <= hi)).all(axis=1).mean()
            expected = box_mass(np.array(lo), np.array(hi))
            se = np.sqrt(expected * (1 - expected) / n)
            assert abs(inside - expected) < 5 * se + 1e-3

    def test_rank_two_kde_cross_check(self):
        gen = RngStream(2024).generator
        draws = _beta2_arrays(3.0, 3.0, 2, gen, 200_000)
        co = np.stack(
            [draws[:, 0, 0], draws[:, 1, 1], np.sqrt(2.0) * draws[:, 0, 1]], axis=0
        )
        # robust pre-whitening keeps the kernel narrow despite the heavy tails
        iqr = np.subtract(*np.percentile(co, [75, 25], axis=1))
        scale = iqr / 1.349
        kde = gaussian_kde(co / scale[:, None], bw_method=0.08)
        params = Beta2Params(3.0, 3.0, 2)
        points = [
            [[0.8, 0.1], [0.1, 0.7]],
            [[1.2, -0.2], [-0.2, 0.9]],
            [[0.9, 0.3], [0.3, 1.4]],
            [[1.6, 0.0], [0.0, 0.8]],
            [[1.1, 0.25], [0.25, 1.1]],
        ]
        for pt in points:
            m = np.array(pt, dtype=float)
            c = np.array([m[0, 0], m[1, 1], np.sqrt(2.0) * m[0, 1]]) / scale
            est = kde(c)[0] / scale.prod()
            true = np.exp(beta2_log_density(cone(SymMatrix(m)), params))
            assert 0.7 <= est / true <= 1.4


class TestBatchedSampler:
    def test_every_slot_is_certified(self):
        rng = RngStream(31)
        for batch in (sample_beta2(Beta2Params(1.5, 1.5, 3), rng, n=2000),
                      sample_wishart(1.5, 3, rng, n=2000)):
            assert batch.shape == (2000, 3, 3) and not batch.flags.writeable
            assert all(in_cone(SymMatrix(x)) is not None for x in batch)

    def test_degenerate_draws_are_redrawn(self):
        # a gamma draw of shape 0.01 underflows to zero about once in 1200,
        # so some denominators W are singular; those slots are redrawn,
        # without warnings, instead of aborting the batch
        params = Beta2Params(2.0, 0.01, 1)
        first = _beta2_arrays(2.0, 0.01, 1, RngStream(31).generator, 20_000)
        assert (first == 0.0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = sample_beta2(params, RngStream(31), n=20_000)
        assert np.isfinite(batch).all() and (batch > 0.0).all()

    def test_single_draw_consumes_the_stream_of_one_slot(self):
        # the single draw is the n = 1 case, and it reads exactly one
        # _beta2_arrays(..., 1) draw from the stream, as it always has
        params = Beta2Params(2.0, 3.0, 2)
        rng, ref, batched = RngStream(12), RngStream(12), RngStream(12)
        x = sample_beta2(params, rng)
        want = _beta2_arrays(2.0, 3.0, 2, ref.generator, 1)[0]
        assert np.array_equal(x.mat, want)
        assert np.array_equal(sample_beta2(params, batched, n=1)[0], want)
        state = ref.generator.bit_generator.state
        assert rng.generator.bit_generator.state == state
        assert batched.generator.bit_generator.state == state

    def test_only_failing_slots_are_redrawn(self, monkeypatch):
        # the certifier rejects slots 1 and 3 of the first round; they alone
        # are redrawn, in slot order, from the same stream
        calls = []

        def certifier(stack):
            mn, ok = open_cone_test(stack)
            if not calls:
                ok[[1, 3]] = False
            calls.append(len(stack))
            return mn, ok

        monkeypatch.setattr("conecf.randmat.open_cone_test", certifier)
        params = Beta2Params(3.0, 4.0, 2)
        got = sample_beta2(params, RngStream(8), n=6)
        gen = RngStream(8).generator
        first = _beta2_arrays(3.0, 4.0, 2, gen, 6)
        second = _beta2_arrays(3.0, 4.0, 2, gen, 2)
        assert calls == [6, 2]
        assert np.array_equal(got[[0, 2, 4, 5]], first[[0, 2, 4, 5]])
        assert np.array_equal(got[[1, 3]], second)

    @pytest.mark.parametrize("n", [None, 1, 5])
    def test_exhausted_redraws_name_the_sampler(self, monkeypatch, n):
        calls = []

        def certifier(stack):
            calls.append(len(stack))
            mn, ok = open_cone_test(stack)
            return mn, np.zeros_like(ok)

        monkeypatch.setattr("conecf.randmat.open_cone_test", certifier)
        with pytest.raises(ConeMembershipError, match="sample_beta2: 5 consecutive draws of slot 0"):
            sample_beta2(Beta2Params(3.0, 3.0, 2), RngStream(1), n=n)
        assert len(calls) == _MAX_REDRAWS
        with pytest.raises(ConeMembershipError, match="sample_wishart"):
            sample_wishart(3.0, 2, RngStream(1), n=n)

    def test_batch_size_below_one_is_refused(self):
        with pytest.raises(ValueError, match="n >= 1"):
            sample_beta2(Beta2Params(3.0, 3.0, 2), RngStream(1), n=0)
        with pytest.raises(ValueError, match="n >= 1"):
            sample_wishart(3.0, 2, RngStream(1), n=-1)

    def test_rank_one_batch_is_beta_prime(self):
        # criterion 7's gates, on one batch of 10 000 draws
        xs = sample_beta2(Beta2Params(2.0, 3.0, 1), split_stream(RngStream(70), 0), n=10_000)[:, 0, 0]
        assert kstest(xs, lambda t: betainc(2.0, 3.0, t / (1.0 + t))).statistic < 0.02
        assert abs(xs.mean() - 1.0) < 4.0 * xs.std() / math.sqrt(xs.size)


def per_draw_loop(s: float, r: int, rng: RngStream, count: int) -> np.ndarray:
    """The reference: ``count`` draws, one one-slot ``sample_wishart`` call each, concatenated.

    This is how the identity suite built its stacks before ``sample_wishart_seq``.
    """
    return np.concatenate([sample_wishart(s, r, rng, n=1) for _ in range(count)])


def counting(certify, sizes: list):
    """``certify`` that also records the size of every stack it is given."""
    def certifier(stack):
        sizes.append(len(stack))
        return certify(stack)
    return certifier


def rejecting_above(bound: float):
    """Certification that also rejects every matrix whose [0, 0] entry exceeds ``bound``.

    The verdict depends on the matrix alone, so the per-draw loop and the
    stacked run reject the same draws.
    """
    def certify(stack):
        mn, ok = open_cone_test(stack)
        return mn, ok & ~(stack[..., 0, 0] > bound)
    return certify


def outcome(draw, rng: RngStream):
    """What ``draw(rng)`` gives, its error text if it raises, and the stream position after it."""
    try:
        got = draw(rng)
    except ConeMembershipError as exc:
        got = str(exc)
    return got, rng.generator.bit_generator.state


class TestSuccessiveDraws:
    """``sample_wishart_seq`` is successive single draws, bit for bit, at the cost of one certification."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_ten_thousand_draws_match_the_per_draw_loop(self, r, monkeypatch):
        ref, seq, one = RngStream(40 + r), RngStream(40 + r), RngStream(40 + r)
        want = per_draw_loop(3.0, r, ref, 10_000)
        sizes = []
        monkeypatch.setattr(randmat, "open_cone_test", counting(open_cone_test, sizes))
        got = sample_wishart_seq(3.0, r, seq, 10_000)
        assert sizes == [10_000]  # one certification of the whole run
        monkeypatch.undo()
        assert got.shape == (10_000, r, r) and not got.flags.writeable
        assert got.tobytes() == want.tobytes()
        singles = [sample_wishart(3.0, r, one) for _ in range(10_000)]
        assert np.array([x.mat for x in singles]).tobytes() == want.tobytes()
        # the parent's single draw carried the verdict of its one-slot certification
        assert [x.min_eig for x in singles] == [float(open_cone_test(x[None])[0][0]) for x in want]
        state = ref.generator.bit_generator.state
        assert seq.generator.bit_generator.state == state and one.generator.bit_generator.state == state

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_runs_in_pieces_continue_the_stream(self, r):
        rng, ref = RngStream(7), RngStream(7)
        got = np.concatenate([sample_wishart_seq(3.0, r, rng, count) for count in (1, 5, 64, 2, 300)])
        assert got.tobytes() == per_draw_loop(3.0, r, ref, 372).tobytes()
        assert rng.generator.bit_generator.state == ref.generator.bit_generator.state

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_planted_failures_are_redrawn_as_single_draws_redraw_them(self, r, monkeypatch):
        # about one draw in 30 is rejected, and one in 800 four times running
        bound = float(np.quantile(per_draw_loop(3.0, r, RngStream(9), 2000)[:, 0, 0], 0.97))
        monkeypatch.setattr(randmat, "open_cone_test", rejecting_above(bound))
        want, want_state = outcome(lambda rng: per_draw_loop(3.0, r, rng, 1000), RngStream(5))
        singles, singles_state = outcome(
            lambda rng: np.array([sample_wishart(3.0, r, rng).mat for _ in range(1000)]), RngStream(5))
        sizes = []
        monkeypatch.setattr(randmat, "open_cone_test", counting(rejecting_above(bound), sizes))
        got, got_state = outcome(lambda rng: sample_wishart_seq(3.0, r, rng, 1000), RngStream(5))
        assert isinstance(want, np.ndarray) and (want[:, 0, 0] <= bound).all()
        assert sizes[0] == 1000 and sizes.count(1) >= 20  # the run, then the redrawn slots one by one
        assert got.tobytes() == want.tobytes() and singles.tobytes() == want.tobytes()
        assert got_state == want_state and singles_state == want_state

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_exhausted_redraws_raise_where_single_draws_do(self, r, monkeypatch):
        # half the draws are rejected, so some slot fails five rounds running
        bound = float(np.median(per_draw_loop(3.0, r, RngStream(9), 2000)[:, 0, 0]))
        monkeypatch.setattr(randmat, "open_cone_test", rejecting_above(bound))
        want, want_state = outcome(lambda rng: per_draw_loop(3.0, r, rng, 400), RngStream(5))
        singles, singles_state = outcome(lambda rng: [sample_wishart(3.0, r, rng) for _ in range(400)],
                                         RngStream(5))
        got, got_state = outcome(lambda rng: sample_wishart_seq(3.0, r, rng, 400), RngStream(5))
        assert want == (f"sample_wishart: {_MAX_REDRAWS} consecutive draws of slot 0 failed cone "
                        "certification; the shape parameters are too close to the domain edge")
        assert got == want and singles == want
        assert got_state == want_state and singles_state == want_state

    def test_draws_near_the_domain_edge_fail_and_are_redrawn_alike(self, monkeypatch):
        # L_22^2 ~ Gamma(0.1) falls below the cone margin in about one draw of ten
        want, want_state = outcome(lambda rng: per_draw_loop(0.6, 2, rng, 3000), RngStream(3))
        sizes = []
        monkeypatch.setattr(randmat, "open_cone_test", counting(open_cone_test, sizes))
        got, got_state = outcome(lambda rng: sample_wishart_seq(0.6, 2, rng, 3000), RngStream(3))
        assert isinstance(want, np.ndarray)
        assert got.tobytes() == want.tobytes() and got_state == want_state
        # each failure wastes the rest of its run, so runs shrink to the spacing
        # of failures: a few times the draws are made, not one run per failure
        assert sizes.count(1) > 500 and sum(sizes) < 4 * 3000

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_single_beta2_draws_match_the_one_slot_batch(self, r):
        # the single draw skips SymMatrix's re-validation; _beta2_arrays
        # symmetrizes exactly, so SymMatrix would have kept every bit
        params = Beta2Params(2.0, 3.0, r)
        rng, ref = RngStream(60 + r), RngStream(60 + r)
        singles = [sample_beta2(params, rng) for _ in range(3000)]
        want = np.array([SymMatrix(sample_beta2(params, ref, n=1)[0]).mat for _ in range(3000)])
        assert np.array([x.mat for x in singles]).tobytes() == want.tobytes()
        assert [x.min_eig for x in singles] == [float(open_cone_test(x[None])[0][0]) for x in want]
        assert rng.generator.bit_generator.state == ref.generator.bit_generator.state

    def test_count_below_one_is_refused(self):
        with pytest.raises(ValueError, match="count >= 1"):
            sample_wishart_seq(3.0, 2, RngStream(1), 0)


class TestStreams:
    def test_children_differ(self):
        root = RngStream(42)
        a = split_stream(root, 0)
        b = split_stream(root, 1)
        assert a.stream_id != b.stream_id
        va = a.generator.random(64)
        vb = b.generator.random(64)
        assert not np.array_equal(va, vb)

    def test_reproducible_across_instances(self):
        a = split_stream(RngStream(9), 3)
        b = split_stream(RngStream(9), 3)
        assert np.array_equal(a.generator.random(100), b.generator.random(100))

    def test_sampler_pure_in_stream_value(self):
        x = sample_beta2(Beta2Params(2.0, 3.0, 1), split_stream(RngStream(1), 4))
        y = sample_beta2(Beta2Params(2.0, 3.0, 1), split_stream(RngStream(1), 4))
        assert np.array_equal(x.mat, y.mat)

    def test_cross_correlation_small(self):
        root = RngStream(1234)
        xa = split_stream(root, 0).generator.standard_normal(10_000)
        xb = split_stream(root, 1).generator.standard_normal(10_000)
        corr = np.corrcoef(xa, xb)[0, 1]
        assert abs(corr) < 0.05
