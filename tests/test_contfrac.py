import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecf import (
    CFSequence,
    ConeMembershipError,
    ConvergentTrace,
    SymMatrix,
    TraceRecord,
    bracket,
    cf_general,
    cf_ordinary,
    cone,
    f_closed,
    f_direct,
    frob_norm,
    identity,
    inner,
    inverse,
    jump_direct,
    pi_apply,
    q_apply,
    rel_residual,
    to_ordinary,
    trace_cf,
    u_vec,
    w_seq,
    zero,
)
from conecf.contfrac import DEPTH_CAP, _chol_extended, _u_raw
from conecf.division import _chol_raw
from conecf.jordan import ASSERT_TOL, _jacobi, inv_cone_raw, inv_sym_raw

from helpers import make_spd

few = settings(max_examples=25, deadline=None, derandomize=True)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def scal(v: float):
    return cone(SymMatrix(np.array([[float(v)]])))


def scalars(*vals):
    return tuple(scal(v) for v in vals)


def ones(n: int):
    return scalars(*([1.0] * n))


class TestCfGeneral:
    def test_single_level_scalar(self):
        seq = CFSequence(scalars(4.0), scalars(2.0))
        assert cf_general(seq, 1).mat[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_two_level_scalar(self):
        # 4 / (2 + 4/2) = 1
        seq = CFSequence(scalars(4.0, 4.0), scalars(2.0, 2.0))
        assert cf_general(seq, 2).mat[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_unit_case(self):
        seq = CFSequence((identity(2),), (identity(2),))
        assert np.allclose(cf_general(seq, 1).mat, np.eye(2), atol=1e-14)

    def test_head_added(self):
        seq = CFSequence(scalars(4.0), scalars(2.0), head=scal(10.0))
        assert cf_general(seq, 1).mat[0, 0] == pytest.approx(12.0, abs=1e-14)

    def test_depth_out_of_range(self):
        seq = CFSequence(scalars(1.0))
        with pytest.raises(ValueError):
            cf_general(seq, 2)


class TestCfOrdinary:
    def test_single_term(self):
        got = cf_ordinary(scal(3.0), [identity(1)], 1)
        assert got.mat[0, 0] == pytest.approx(4.0, abs=1e-15)

    def test_fibonacci_convergents(self):
        a = ones(5)
        expected = [1.0, 0.5, 2.0 / 3.0, 0.6, 0.625]
        for n, val in enumerate(expected, start=1):
            assert cf_ordinary(None, a, n).mat[0, 0] == pytest.approx(val, abs=1e-15)
        assert cf_ordinary(None, a, 5).mat[0, 0] == pytest.approx(5.0 / 8.0, abs=1e-15)

    def test_matches_general_two_levels(self):
        # ordinary terms of the (4,4)/(2,2) fraction
        got = cf_ordinary(None, scalars(0.5, 2.0, 0.5, 2.0), 2)
        assert got.mat[0, 0] == pytest.approx(1.0, abs=1e-15)


class TestToOrdinary:
    def test_first_term(self):
        seq = CFSequence(scalars(4.0), scalars(2.0))
        a = to_ordinary(seq)
        assert a[0].mat[0, 0] == 0.0
        assert a[1].mat[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_second_term(self):
        seq = CFSequence(scalars(4.0, 4.0), scalars(1.0, 2.0))
        a = to_ordinary(seq)
        assert a[2].mat[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_all_identity_fixed_point(self):
        seq = CFSequence((identity(2),) * 5, (identity(2),) * 5)
        for a in to_ordinary(seq)[1:]:
            assert np.allclose(a.mat, np.eye(2), atol=1e-12)

    @few
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 12))
    def test_equivalence_with_general(self, seed, r, n):
        g = np.random.default_rng(seed)
        seq = CFSequence(
            tuple(make_spd(r, g) for _ in range(n)),
            tuple(make_spd(r, g) for _ in range(n)),
            make_spd(r, g),
        )
        a = to_ordinary(seq)
        for m in range(1, n + 1):
            assert rel_residual(cf_general(seq, m), cf_ordinary(a[0], a[1:], m)) < 1e-9


class TestBracket:
    def test_single_entry(self):
        x = scal(7.0)
        assert bracket((x,), 1) is x

    def test_two_entries_scalar(self):
        # 2 / (1 + 3)
        assert bracket(scalars(2.0, 3.0), 2).mat[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_three_ones(self):
        assert bracket(ones(3), 3).mat[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_golden_limit(self):
        xs = ones(60)
        assert bracket(xs, 60).mat[0, 0] == pytest.approx(GOLDEN, abs=1e-12)

    def test_depth_cap(self):
        xs = ones(DEPTH_CAP + 1)
        with pytest.raises(ValueError, match="cap"):
            bracket(xs, DEPTH_CAP + 1)

    def test_shift_identity(self, rng):
        # prepending the unit inverts into e plus the original chain
        for r in (1, 2, 3):
            xs = tuple(make_spd(r, rng) for _ in range(6))
            shifted = bracket((identity(r),) + xs, 7)
            expected = np.eye(r) + bracket(xs, 6).mat
            assert rel_residual(inverse(shifted).m, SymMatrix(expected)) < 1e-10


class TestWSeq:
    def test_all_ones_prefix(self):
        ws = w_seq(ones(6), 5)
        expected = [0.5, 1.0 / 6.0, 1.0 / 15.0, 1.0 / 40.0]
        for w, val in zip(ws, expected):
            assert w.mat[0, 0] == pytest.approx(val, abs=1e-15)

    def test_all_ones_decreasing(self):
        ws = w_seq(ones(5), 4)
        vals = [w.mat[0, 0] for w in ws]
        assert vals == sorted(vals, reverse=True)

    def test_first_difference_scalar(self):
        # [2] - [2, 2] = 2 - 2/3
        ws = w_seq(scalars(2.0, 2.0), 2)
        assert ws[0].mat[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            w_seq(ones(3), 1)

    @few
    @given(st.integers(0, 10**6), st.integers(1, 3))
    def test_alternation_and_decrease(self, seed, r):
        g = np.random.default_rng(seed)
        xs = tuple(make_spd(r, g) for _ in range(11))
        ws = w_seq(xs, 11)  # certification inside asserts the sign alternation
        for wa, wb in zip(ws, ws[1:]):
            d = wa.mat - wb.mat
            w_, _ = _jacobi(d)
            assert w_.min() > -ASSERT_TOL * (1 + np.sqrt((d * d).sum()))


class TestFDifference:
    def test_spot_values_direct(self):
        assert f_direct(ones(3), 1).mat[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert f_direct(scalars(2, 2, 2), 1).mat[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert f_direct(ones(4), 2).mat[0, 0] == pytest.approx(-4.0, abs=1e-12)

    def test_spot_values_closed(self):
        assert f_closed(scalars(2, 2, 2), 1).mat[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert f_closed(ones(4), 2).mat[0, 0] == pytest.approx(-4.0, abs=1e-12)
        assert f_closed(ones(5), 3).mat[0, 0] == pytest.approx(9.0, abs=1e-12)

    @few
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 8))
    def test_closed_matches_direct(self, seed, r, k):
        g = np.random.default_rng(seed)
        xs = tuple(make_spd(r, g) for _ in range(k + 2))
        assert rel_residual(f_closed(xs, k), f_direct(xs, k)) < 1e-8

    def test_index_validation(self):
        with pytest.raises(ValueError):
            f_direct(ones(3), 2)
        with pytest.raises(ValueError):
            f_closed(ones(4), 0)


class TestTailCorrection:
    def test_scalar_example(self):
        # H = 1/(1+x_3) and u = 1 + x_4 H at the all-ones input
        xs = ones(4)
        arrs = [x.mat for x in xs]
        ls = [_chol_raw(a) for a in arrs]
        H, u = _u_raw(arrs, ls, 3)
        assert H[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert u[0, 0] == pytest.approx(1.5, abs=1e-15)
        assert u_vec(xs, 3).mat[0, 0] == pytest.approx(1.5, abs=1e-15)

    @few
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(3, 8))
    def test_inner_factor_in_cone(self, seed, r, k):
        g = np.random.default_rng(seed)
        xs = tuple(make_spd(r, g) for _ in range(k + 1))
        assert u_vec(xs, k).min_eig > 0.0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            u_vec(ones(4), 2)


# A rank-2 counterexample to the cone-order adjoint jump bound at k = 6:
# upper-triangle entries (a, b, c) of [[a, b], [b, c]] for x_1..x_8 and y.
PINNED_ORDER_XS = (
    (10.15439538964682, -0.4369542024257527, 0.024764811230518404),
    (4.134289243080865, 0.6426897352495018, 2.2810451307172706),
    (6.394217421981705, -2.074901892383256, 4.248433605830525),
    (1.7212398543888858, 0.2915273707698964, 1.9098859300387607),
    (3.241302491139508, -1.7302123413137844, 2.4446395836040677),
    (2.617987223936269, -0.16904491477281913, 3.679713820161063),
    (2.1017412899442687, -0.5519440799830267, 1.7991465739135788),
    (1.0084503853555948, 0.15390249352770732, 2.0670080827273494),
)
PINNED_ORDER_Y = (1.913389443282202, -1.7674836653279822, 3.6759507059750858)


def sym2(a, b, c):
    return cone(SymMatrix(np.array([[a, b], [b, c]])))


class TestJumpOperator:
    def test_scalar_all_ones(self):
        # w-inverses are 2, 6, 15, 40; the k=2 jump is 15 - 6 = 9
        xs = ones(4)
        got = q_apply(xs, 2, inverse(xs[3]))
        assert got.mat[0, 0] == pytest.approx(9.0, abs=1e-12)

    @few
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(2, 8))
    def test_jump_identity(self, seed, r, k):
        g = np.random.default_rng(seed)
        xs = tuple(make_spd(r, g) for _ in range(k + 2))
        jump = q_apply(xs, k, inverse(xs[k + 1]))
        assert rel_residual(jump, jump_direct(xs, k)) < 1e-8

    @few
    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(2, 8))
    def test_adjoint_norm_bound(self, seed, r, k):
        g = np.random.default_rng(seed)
        xs = tuple(make_spd(r, g) for _ in range(k + 2))
        y = make_spd(r, g)
        adj = q_apply(xs, k, y, adjoint=True)
        floor = pi_apply(xs[0], y.m, "inv")
        assert frob_norm(adj) > frob_norm(floor)

    def test_adjoint_order_bound(self, rng):
        """Pins the erratum in the adjoint jump bound.

        Each eigenvalue of Q_k^*(y) is at least the matching eigenvalue of
        the division of y by x_1, at every rank; the cone-order form of the
        bound, Q_k^*(y) - (division) positive semidefinite, fails at rank 2
        on the pinned case below (rank 2, k = 6, from the acceptance suite's
        criterion-4 stream), by a scaled margin far beyond rounding.
        """
        for trial in range(120):
            r = 2 + trial % 2
            k = 2 + trial % 4
            xs = tuple(make_spd(r, rng) for _ in range(k + 2))
            y = make_spd(r, rng)
            adj = np.sort(np.linalg.eigvalsh(q_apply(xs, k, y, adjoint=True).mat))
            floor = np.sort(np.linalg.eigvalsh(pi_apply(xs[0], y.m, "inv").mat))
            assert (adj >= floor * (1 - ASSERT_TOL)).all()

        xs = tuple(sym2(*entries) for entries in PINNED_ORDER_XS)
        y = sym2(*PINNED_ORDER_Y)
        d = q_apply(xs, 6, y, adjoint=True).mat - pi_apply(xs[0], y.m, "inv").mat
        w_, _ = _jacobi(d)
        assert w_.min() / (1 + np.sqrt((d * d).sum())) < -1e-3

    def test_adjoint_pairing(self, rng):
        # <Q_k(a), y> = <a, Q_k^*(y)>: the adjoint chain reverses the factors
        # and adjoins each one
        for r in (1, 2, 3):
            for k in range(2, 7):
                xs = tuple(make_spd(r, rng) for _ in range(k + 2))
                a, y = make_spd(r, rng), make_spd(r, rng)
                lhs = inner(q_apply(xs, k, a), y.m)
                rhs = inner(a.m, q_apply(xs, k, y, adjoint=True))
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs)), (r, k)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            q_apply(ones(4), 1, scal(1.0))
        with pytest.raises(ValueError):
            jump_direct(ones(3), 2)


class TestExtendedPrecisionHelpers:
    def test_extended_cholesky_matches_double(self, rng):
        for r in (1, 2, 3, 4):
            a = make_spd(r, rng).mat
            l64 = np.linalg.cholesky(a)
            lext = _chol_extended(a.astype(np.longdouble))
            assert np.allclose(np.asarray(lext, dtype=float), l64, rtol=1e-13)

    def test_oracles_invert_in_extended_precision(self, rng, monkeypatch):
        # every inverse the oracles take, the closed-form 2x2 ones and the
        # refined LAPACK ones at rank 3, is a longdouble array
        seen = []

        def recording(invert):
            def wrapped(a, what):
                out = invert(a, what)
                seen.append(out.dtype)
                return out

            return wrapped

        monkeypatch.setattr("conecf.contfrac.inv_cone_raw", recording(inv_cone_raw))
        monkeypatch.setattr("conecf.contfrac.inv_sym_raw", recording(inv_sym_raw))
        for r in (2, 3):
            xs = tuple(make_spd(r, rng) for _ in range(6))
            f_direct(xs, 3)
            jump_direct(xs, 3)
        assert len(seen) > 20 and set(seen) == {np.dtype(np.longdouble)}

    def test_oracles_refuse_a_double_width_longdouble(self, monkeypatch):
        # where longdouble is double, the oracles would lose their margin
        # silently; they must say so instead
        real_finfo = np.finfo

        def finfo(t):
            return real_finfo(np.float64 if np.dtype(t) == np.dtype(np.longdouble) else t)

        monkeypatch.setattr(np, "finfo", finfo)
        with pytest.raises(ArithmeticError, match="longdouble"):
            f_direct(ones(3), 1)
        with pytest.raises(ArithmeticError, match="longdouble"):
            jump_direct(ones(3), 1)

    def test_extended_cholesky_rejects_indefinite(self):
        with pytest.raises(ConeMembershipError):
            _chol_extended(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.longdouble))


class TestTrace:
    def test_unit_trace_matches_brackets(self):
        xs = ones(10)
        trace = trace_cf(CFSequence(xs), 10)
        for rec in trace.records:
            assert rec.convergent.mat[0, 0] == pytest.approx(
                bracket(xs, rec.k).mat[0, 0], abs=1e-13
            )

    def test_w_margins_positive_for_unit_case(self, rng):
        xs = tuple(make_spd(2, rng) for _ in range(8))
        trace = trace_cf(CFSequence(xs), 8)
        for rec in trace.records[:-1]:
            assert rec.w_min_eig > 0.0
        assert trace.records[-1].w is None

    def test_csv_schema(self):
        trace = trace_cf(CFSequence(ones(4)), 4)
        lines = trace.csv_text().strip().split("\n")
        assert lines[0] == "k,delta_norm,wk_norm,in_cone_margin"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 0.5

    def test_general_case_head(self):
        seq = CFSequence(scalars(4.0, 4.0), scalars(2.0, 2.0), head=scal(1.0))
        trace = trace_cf(seq, 2)
        assert trace.records[0].convergent.mat[0, 0] == pytest.approx(3.0, abs=1e-14)
        assert trace.records[1].convergent.mat[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_longer_than_cap_allowed(self):
        xs = ones(70)
        trace = trace_cf(CFSequence(xs), 70)
        assert trace.records[-1].k == 70

    def test_fibonacci_differences_past_the_rounding_floor(self):
        # w_k = 1 / (F_{k+1} F_{k+2}) for the all-ones chain; at k = 60 that is
        # 1e-25 while the convergents agree to every digit
        fib = [1, 1]
        while len(fib) < 80:
            fib.append(fib[-1] + fib[-2])
        trace = trace_cf(CFSequence(ones(70)), 70)
        for rec in trace.records[:-1]:
            exact = 1.0 / (fib[rec.k] * fib[rec.k + 1])
            assert rec.w.mat[0, 0] == pytest.approx(exact, rel=1e-13)
            assert rec.w_min_eig > 0.0

    def test_overflowing_quotient_names_its_level(self):
        big = cone(SymMatrix(1e300 * np.eye(3)))
        tiny = cone(SymMatrix(1e-300 * np.eye(3)))
        with pytest.raises(ArithmeticError, match="level 1 overflows"):
            trace_cf(CFSequence((tiny, tiny), (big, big)), 2)
        seq = CFSequence((identity(3), tiny), (identity(3), big))
        with pytest.raises(ArithmeticError, match="level 2 overflows"):
            cf_general(seq, 2)
        # the trace never forms that quotient: R_2 = (e + 1e-600 e)^{-1} rounds to e
        assert np.array_equal(trace_cf(seq, 2).records[1].convergent.mat, np.eye(3))


def wishart_array(rng: np.random.Generator, r: int) -> np.ndarray:
    """Wishart with 6 degrees of freedom and scale 1/2, drawn as the benchmark's seqfile-r3 draws it."""
    a = rng.normal(0.0, np.sqrt(0.5), size=(r, 6))
    x = a @ a.T
    return (x + x.T) / 2.0


def mp_differences(xs, ys, depth: int, dps: int = 60) -> list:
    """Reference w_1..w_{depth-1}: tail-first convergents in ``dps`` digits, differenced."""
    with mpmath.workdps(dps):
        ls = [mpmath.cholesky(mpmath.matrix(x.tolist())) for x in xs[:depth]]
        if ys is None:
            ymat = [mpmath.eye(xs[0].shape[0])] * depth
        else:
            ymat = [mpmath.matrix(y.tolist()) for y in ys[:depth]]
        convs = []
        for n in range(1, depth + 1):
            acc = ls[n - 1] * mpmath.inverse(ymat[n - 1]) * ls[n - 1].T
            for j in range(n - 2, -1, -1):
                acc = ls[j] * mpmath.inverse(ymat[j] + acc) * ls[j].T
            convs.append(acc)
        return [(convs[k - 1] - convs[k]) * (1 if k % 2 == 1 else -1) for k in range(1, depth)]


class TestTraceAccuracy:
    @pytest.mark.parametrize("general", [False, True], ids=["unit", "general"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_differences_match_a_60_digit_reference(self, r, general):
        rng = np.random.default_rng(40 + r)
        depth = 60
        xs = [wishart_array(rng, r) for _ in range(depth)]
        ys = [wishart_array(rng, r) for _ in range(depth)] if general else None
        seq = CFSequence(
            tuple(cone(SymMatrix(x)) for x in xs),
            None if ys is None else tuple(cone(SymMatrix(y)) for y in ys),
        )
        refs = mp_differences(xs, ys, depth)
        trace = trace_cf(seq, depth)
        with mpmath.workdps(60):
            for rec, ref in zip(trace.records, refs):
                err = mpmath.mnorm(mpmath.matrix(rec.w.mat.tolist()) - ref, "f") / mpmath.mnorm(ref, "f")
                assert err < 1e-8, (rec.k, float(err))

    def test_seqfile_case_where_the_unnormalised_row_block_is_singular(self):
        # seqfile-r3's file at seed 101, batch 68: head, then 64 xs, then 64 ys
        rng = np.random.default_rng(101 * 100_000 + 68)
        head = wishart_array(rng, 3)
        xs = [wishart_array(rng, 3) for _ in range(64)]
        ys = [wishart_array(rng, 3) for _ in range(64)]

        # the bottom row [C, D] of M_1 ... M_k, rescaled by powers of two only,
        # loses its rank in double precision
        c, d, worst = np.zeros((3, 3)), np.eye(3), 0.0
        for x, y in zip(xs, ys):
            l = np.linalg.cholesky(x)
            lit = np.linalg.inv(l).T
            row = np.hstack([d @ lit, c @ l + d @ lit @ y])
            row = np.ldexp(row, -np.frexp(np.abs(row).max())[1])
            worst = max(worst, np.linalg.cond(row))
            c, d = row[:, :3], row[:, 3:]
        assert worst > 1e15

        seq = CFSequence(
            tuple(cone(SymMatrix(x)) for x in xs),
            tuple(cone(SymMatrix(y)) for y in ys),
            cone(SymMatrix(head)),
        )
        trace = trace_cf(seq, 64)
        for rec in trace.records:
            assert rel_residual(rec.convergent, cf_general(seq, rec.k)) <= 1e-9, rec.k


class TestTypes:
    def test_sequence_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            CFSequence(())
        with pytest.raises(ValueError, match="as many denominators"):
            CFSequence(ones(2), ones(3))
        with pytest.raises(ValueError, match="mixed"):
            CFSequence((scal(1.0), identity(2)))
        with pytest.raises(ValueError, match="head"):
            CFSequence(ones(2), head=identity(2))

    def test_trace_index_validation(self):
        rec = TraceRecord(k=2, convergent=zero(1))
        with pytest.raises(ValueError, match="strictly increasing"):
            ConvergentTrace((rec,))
