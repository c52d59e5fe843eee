import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecf import (
    CFSequence,
    ConeMembershipError,
    RngStream,
    SymMatrix,
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
    sample_wishart,
    split_stream,
    to_ordinary,
    trace_cf,
    u_vec,
    w_seq,
)
from conecf import contfrac
from conecf.contfrac import (
    DEPTH_CAP,
    cf_depths,
    cf_general_raw,
    cf_ordinary_raw,
    differences_raw,
    to_ordinary_raw,
    u_raw,
    w_seq_raw,
)
from conecf.division import _chol_raw, pi_raw
from conecf.jordan import ASSERT_TOL, _jacobi, sym_raw

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
        H, u = u_raw(arrs, ls, 3)
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


class TestTrace:
    def test_unit_trace_matches_brackets(self):
        xs = ones(10)
        trace = trace_cf(CFSequence(xs), 10)
        for k, conv in enumerate(trace.convergents, start=1):
            assert conv[0, 0] == pytest.approx(bracket(xs, k).mat[0, 0], abs=1e-13)

    def test_w_margins_positive_for_unit_case(self, rng):
        xs = tuple(make_spd(2, rng) for _ in range(8))
        trace = trace_cf(CFSequence(xs), 8)
        assert trace.margins.shape == (7,) and (trace.margins > 0.0).all()
        # the last convergent has no forward difference
        assert trace.convergents.shape == (8, 2, 2) and trace.w.shape == (7, 2, 2)

    def test_csv_schema(self):
        trace = trace_cf(CFSequence(ones(4)), 4)
        lines = trace.csv_text().strip().split("\n")
        assert lines[0] == "k,delta_norm,wk_norm,in_cone_margin"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 0.5 and first[2] == first[1]

    def test_general_case_head(self):
        seq = CFSequence(scalars(4.0, 4.0), scalars(2.0, 2.0), head=scal(1.0))
        trace = trace_cf(seq, 2)
        assert trace.convergents[0, 0, 0] == pytest.approx(3.0, abs=1e-14)
        assert trace.convergents[1, 0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_longer_than_cap_allowed(self):
        xs = ones(70)
        trace = trace_cf(CFSequence(xs), 70)
        assert len(trace.convergents) == 70

    def test_fibonacci_differences_past_the_rounding_floor(self):
        # w_k = 1 / (F_{k+1} F_{k+2}) for the all-ones chain; at k = 60 that is
        # 1e-25 while the convergents agree to every digit
        fib = [1, 1]
        while len(fib) < 80:
            fib.append(fib[-1] + fib[-2])
        trace = trace_cf(CFSequence(ones(70)), 70)
        assert len(trace.w) == 69
        for k, (w, margin) in enumerate(zip(trace.w, trace.margins), start=1):
            exact = 1.0 / (fib[k] * fib[k + 1])
            assert w[0, 0] == pytest.approx(exact, rel=1e-13)
            assert margin > 0.0

    def test_overflowing_quotient_names_its_level(self):
        big = cone(SymMatrix(1e300 * np.eye(3)))
        tiny = cone(SymMatrix(1e-300 * np.eye(3)))
        with pytest.raises(ArithmeticError, match="level 1 overflows"):
            trace_cf(CFSequence((tiny, tiny), (big, big)), 2)
        seq = CFSequence((identity(3), tiny), (identity(3), big))
        with pytest.raises(ArithmeticError, match="level 2 overflows"):
            cf_general(seq, 2)
        # the trace never forms that quotient: R_2 = (e + 1e-600 e)^{-1} rounds to e
        assert np.array_equal(trace_cf(seq, 2).convergents[1], np.eye(3))


class TestStackedTrace:
    @pytest.mark.parametrize("general", [False, True], ids=["unit", "general"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_each_trial_is_traced_as_alone(self, r, general):
        # w_k of a trial are bit for bit those of a one-trial stack and of
        # trace_cf, whatever the other trials hold
        rng = np.random.default_rng(60 + r)
        trials, depth = 7, 40
        xs = np.array([[wishart_array(rng, r) for _ in range(depth)] for _ in range(trials)])
        ys = np.array([[wishart_array(rng, r) for _ in range(depth)] for _ in range(trials)]) if general else None
        ws = differences_raw(_chol_raw(xs), ys)
        assert ws.shape == (trials, depth - 1, r, r)
        for t in range(trials):
            alone = differences_raw(_chol_raw(xs[t:t + 1]), None if ys is None else ys[t:t + 1])[0]
            assert np.array_equal(ws[t], alone)
            seq = CFSequence(tuple(cone(SymMatrix(x)) for x in xs[t]),
                             None if ys is None else tuple(cone(SymMatrix(y)) for y in ys[t]))
            assert np.array_equal(trace_cf(seq, depth).w, ws[t])

    def test_transfer_denominator_failure_names_level_and_trial(self):
        xs = np.broadcast_to(np.eye(2), (3, 5, 2, 2))
        ys = np.array(xs)
        ys[1, 0] = np.diag([1.0, 1e-12])  # T_1 = y_1^{-1} must clear the relative cone margin
        with pytest.raises(ConeMembershipError, match=r"transfer denominator at level 1 \(stack index \(1,\)\)"):
            differences_raw(_chol_raw(xs), ys)


def mixed_stack(rng: np.random.Generator, r: int, levels: int, cases: int = 6) -> np.ndarray:
    """A level-major ``(levels, cases, r, r)`` stack of Wishart draws, each case at its own scale."""
    scales = np.geomspace(1e-3, 1e3, cases)
    return np.array([[s * wishart_array(rng, r) for s in scales] for _ in range(levels)])


def to_ordinary_per_term(ls: np.ndarray, ys: np.ndarray) -> list:
    """a_1..a_n of one sequence, each term through its own chain of factors i = m..1."""
    terms = []
    for m in range(1, len(ls) + 1):
        v = ys[m - 1]
        for i in range(m, 0, -1):
            v = pi_raw(ls[i - 1], v, "star_inv" if (i - m) % 2 == 0 else "plain")
        terms.append(v / 2.0 + v.T / 2.0)
    return terms


class TestLevelMajorKernels:
    """Each slot of a level-major stack gets, bit for bit, what its one-slot call gives."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_general_and_ordinary_forms(self, r):
        rng = np.random.default_rng(80 + r)
        n, cases = 7, 6
        xs, ys = mixed_stack(rng, r, n, cases), mixed_stack(rng, r, n, cases)
        head = mixed_stack(rng, r, 1, cases)[0]
        ls = _chol_raw(xs)
        general = cf_general_raw(xs, ls, ys, head)
        terms = to_ordinary_raw(ls, ys)
        ordinary = cf_ordinary_raw(head, terms)
        unit_general, unit_terms = cf_general_raw(xs, ls, None, None), to_ordinary_raw(ls, None)
        for c in range(cases):
            alone = (xs[:, c], ls[:, c], ys[:, c])
            assert np.array_equal(general[c], cf_general_raw(*alone, head[c]))
            assert np.array_equal(unit_general[c], cf_general_raw(*alone[:2], None, None))
            assert np.array_equal(terms[:, c], to_ordinary_raw(ls[:, c], ys[:, c]))
            assert np.array_equal(unit_terms[:, c], to_ordinary_raw(ls[:, c], None))
            assert np.array_equal(terms[:, c], to_ordinary_per_term(ls[:, c], ys[:, c]))
            assert np.array_equal(ordinary[c], cf_ordinary_raw(head[c], terms[:, c]))
            # the public evaluators are the one-slot cases
            seq = CFSequence(tuple(cone(SymMatrix(x)) for x in xs[:, c]),
                             tuple(cone(SymMatrix(y)) for y in ys[:, c]), cone(SymMatrix(head[c])))
            a = to_ordinary(seq)
            assert all(np.array_equal(t.mat, want) for t, want in zip(a[1:], terms[:, c]))
            assert np.array_equal(cf_general(seq, n).mat, general[c])
            assert np.array_equal(cf_ordinary(a[0], a[1:], n).mat, ordinary[c])

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_tail_corrections_and_differences(self, r):
        rng = np.random.default_rng(90 + r)
        n, cases = 10, 6
        xs = mixed_stack(rng, r, n, cases)
        ls = _chol_raw(xs)
        ws, certified = w_seq_raw(xs.swapaxes(0, 1))
        assert ws.shape == (cases, n - 1, r, r) and certified.tolist() == [True] * cases
        for k in range(3, n - 1):
            H, u = u_raw(xs, ls, k)
            for c in range(cases):
                h_alone, u_alone = u_raw(list(xs[:, c]), list(ls[:, c]), k)
                assert np.array_equal(H[c], h_alone) and np.array_equal(u[c], u_alone)
                elems = tuple(cone(SymMatrix(x)) for x in xs[:, c])
                assert np.array_equal(u_vec(elems, k).mat, u_alone)
        for c in range(cases):
            alone = w_seq(tuple(cone(SymMatrix(x)) for x in xs[:, c]), n)
            assert all(np.array_equal(w.mat, want) for w, want in zip(alone, ws[c]))

    def test_uncertified_differences_are_masked_not_raised(self):
        # x_1 = x_2 = diag(1, 1e-6) clear the cone, but w_1 = l_1 x_2 (e + x_2)^{-1} l_1^T,
        # about diag(1/2, 1e-12), misses the relative margin
        xs = np.array(np.broadcast_to(np.eye(2), (3, 4, 2, 2)))
        xs[1, :2] = np.diag([1.0, 1e-6])
        ws, certified = w_seq_raw(xs)
        assert certified.tolist() == [True, False, True]
        with pytest.raises(ConeMembershipError, match="signed difference w_1"):
            w_seq(tuple(cone(SymMatrix(x)) for x in xs[1]), 4)

    def test_overflowing_term_names_its_level_in_a_stack(self):
        ls = np.array(np.broadcast_to(np.eye(2), (3, 4, 2, 2)))
        ys = ls.copy()
        ls[1, 2] = 1e-160 * np.eye(2)  # a_2 of case 2 divides by x_2 = 1e-320 e
        with pytest.raises(ArithmeticError, match=r"^ordinary term a_2 at level 2 overflows$"):
            to_ordinary_raw(ls, ys)


def seqfile_arrays(seed: int, batch: int, r: int = 3, depth: int = 64):
    """The head, xs and ys of the benchmark's seqfile-r3 file at (seed, batch), drawn in its order."""
    rng = np.random.default_rng(seed * 100_000 + batch)
    head = wishart_array(rng, r)
    xs = [wishart_array(rng, r) for _ in range(depth)]
    return head, xs, [wishart_array(rng, r) for _ in range(depth)]


def equiv_per_depth(seq: CFSequence, depth: int) -> tuple[list, list]:
    """The general and ordinary convergent of each depth, evaluated one depth after another."""
    ys = None if seq.ys is None else seq.ys[:depth]
    a = to_ordinary(CFSequence(seq.xs[:depth], ys, seq.head))
    general, ordinary = [], []
    for n in range(1, depth + 1):
        general.append(cf_general(seq, n).mat)
        ordinary.append(cf_ordinary(a[0], a[1:], n).mat)
    return general, ordinary


class TestDepthStack:
    """``cf_depths`` evaluates every depth as one stack, each bit for bit as the per-depth loop does."""

    @pytest.mark.parametrize("head", [False, True], ids=["no-head", "head"])
    @pytest.mark.parametrize("general", [False, True], ids=["unit", "general"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_every_depth_matches_its_own_evaluation(self, r, general, head, monkeypatch):
        rng = np.random.default_rng(110 + r)
        n, depth = 14, 12
        scales = np.geomspace(1e-2, 1e2, n)
        xs = [s * wishart_array(rng, r) for s in scales]
        ys = [wishart_array(rng, r) / s for s in scales] if general else None
        seq = CFSequence(xs, ys, wishart_array(rng, r) if head else None)

        def per_depth(*args):
            raise AssertionError("the stack fell back to the per-depth evaluation")

        with monkeypatch.context() as patch:
            patch.setattr(contfrac, "cf_general", per_depth)
            got_general, got_ordinary = cf_depths(seq, depth)
        want_general, want_ordinary = equiv_per_depth(seq, depth)
        assert got_general.shape == got_ordinary.shape == (depth, r, r)
        for m in range(depth):
            assert np.array_equal(got_general[m], want_general[m]), m
            assert np.array_equal(got_ordinary[m], want_ordinary[m]), m

    def test_ordinary_term_leaving_the_cone_raises_as_the_per_depth_loop_does(self, monkeypatch):
        # a_7 planted indefinite: depth 7's ordinary pass has no Cholesky factor at level 7
        head, xs, ys = seqfile_arrays(310, 345)
        seq = CFSequence(xs, ys, head)
        transform = contfrac.to_ordinary_raw

        def planted(ls, ys):
            terms = transform(ls, ys)
            terms[6:7] = np.diag([1.0, -1.0, 1.0])
            return terms

        monkeypatch.setattr(contfrac, "to_ordinary_raw", planted)
        with pytest.raises(ConeMembershipError) as per_depth:
            equiv_per_depth(seq, 12)
        with pytest.raises(contfrac.OrdinaryBreakdown) as stacked:
            cf_depths(seq, 12)
        assert str(stacked.value) == str(per_depth.value)
        assert str(stacked.value) == "ordinary term at level 7 has no Cholesky factor in double precision"
        assert stacked.value.depth == 7
        # one depth less evaluates, as the loop does
        for got, want in zip(cf_depths(seq, 6), equiv_per_depth(seq, 6)):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def wishart_array(rng: np.random.Generator, r: int) -> np.ndarray:
    """Wishart with 6 degrees of freedom and scale 1/2, drawn as the benchmark's seqfile-r3 draws it."""
    a = rng.normal(0.0, np.sqrt(0.5), size=(r, 6))
    x = a @ a.T
    return (x + x.T) / 2.0


def mp_differences(xs, ys, depth: int, dps: int = 60) -> tuple[list, list]:
    """Reference convergents R_1..R_depth, tail first in ``dps`` digits, and their differences w_k.

    The entries keep ``dps`` digits only inside ``mpmath.workdps(dps)``.
    """
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
        return convs, [(convs[k - 1] - convs[k]) * (1 if k % 2 == 1 else -1) for k in range(1, depth)]


def mp_rel_error(got: np.ndarray, ref) -> float:
    """Frobenius error of ``got`` relative to the mpmath matrix ``ref``, at the working precision."""
    return float(mpmath.mnorm(mpmath.matrix(got.tolist()) - ref, "f") / mpmath.mnorm(ref, "f"))


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
        refs = mp_differences(xs, ys, depth)[1]
        trace = trace_cf(seq, depth)
        assert len(trace.w) == len(refs) == depth - 1
        with mpmath.workdps(60):
            for k, (w, ref) in enumerate(zip(trace.w, refs), start=1):
                err = mp_rel_error(w, ref)
                assert err < 1e-8, (k, err)

    def test_seqfile_case_where_the_unnormalised_row_block_is_singular(self):
        # seqfile-r3's file at seed 101, batch 68
        head, xs, ys = seqfile_arrays(101, 68)

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
        for k, conv in enumerate(trace.convergents, start=1):
            assert rel_residual(conv, cf_general(seq, k)) <= 1e-9, k


class TestOracleAccuracy:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_oracles_match_a_50_digit_reference(self, r):
        # criterion 4's stream at this rank.  The bound fails the naive double
        # oracle (brackets subtracted, then inverted) at every rank: on these
        # cases its F reaches 5.0e-13, 4.3e-11 and 1.6e-10 at ranks 1, 2 and 3,
        # and its jump 5.3e-13, 3.7e-11 and 1.4e-10.
        stream = split_stream(RngStream(40 + r), 0)
        for _ in range(20):
            xs = tuple(sample_wishart(3.0, r, stream) for _ in range(10))
            with mpmath.workdps(50):
                convs, ws = mp_differences([x.mat for x in xs], None, 10, dps=50)
                for k in range(1, 9):
                    ib = [mpmath.inverse(convs[m - 1]) for m in (k, k + 1, k + 2)]
                    ref = mpmath.inverse(ib[0] - ib[1]) + mpmath.inverse(ib[1] - ib[2])
                    err = mp_rel_error(f_direct(xs, k).mat, ref)
                    assert err < 1e-13, ("f_direct", k, err)
                    if k >= 2:
                        ref = mpmath.inverse(ws[k]) - mpmath.inverse(ws[k - 1])
                        err = mp_rel_error(jump_direct(xs, k).mat, ref)
                        assert err < 1e-13, ("jump_direct", k, err)


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
        with pytest.raises(ValueError, match=r"^mixed or non-square: ys level 1 is \(3, 3\), xs level 1 \(2, 2\)$"):
            CFSequence(np.broadcast_to(np.eye(2), (3, 2, 2)), np.broadcast_to(np.eye(3), (3, 3, 3)))

    def test_sequence_is_certified_once_into_read_only_arrays(self):
        seq = CFSequence(ones(3), [np.eye(1)] * 3, SymMatrix(np.array([[2.0]])))
        for a in (seq.xs, seq.ys, seq.head):
            assert isinstance(a, np.ndarray) and not a.flags.writeable
        assert seq.xs.shape == seq.ys.shape == (3, 1, 1) and seq.head.shape == (1, 1)
        thin = np.diag([1.0, 1e-12])  # positive, but inside the relative cone margin
        eye = np.eye(2)
        with pytest.raises(ConeMembershipError, match="^xs level 3 leaves the cone"):
            CFSequence([eye, eye, thin])
        with pytest.raises(ConeMembershipError, match="^ys level 2 leaves the cone"):
            CFSequence([eye] * 3, [eye, thin, eye])
        with pytest.raises(ConeMembershipError, match="^head leaves the cone"):
            CFSequence([eye] * 3, head=thin)
        with pytest.raises(ValueError, match="^xs level 2 is not symmetric"):
            CFSequence([eye, np.array([[1.0, 0.5], [0.0, 1.0]])])
        with pytest.raises(ValueError, match="^ys level 1 entries must be finite"):
            CFSequence([eye], [np.array([[1.0, 0.0], [0.0, np.inf]])])


# one matrix from outside, and jordan's verdict on it: None where it is
# accepted, and then symmetrized, else the error and the text after its name
OUTSIDE = {
    "asymmetric_1e-12": (np.array([[1.0, 1e-12], [0.0, 1.0]]), None),
    "nan": (np.array([[1.0, 0.0], [0.0, np.nan]]), (ValueError, "entries must be finite")),
    "margin": (np.diag([1.0, 1e-12]),
               (ConeMembershipError, "leaves the cone: smallest eigenvalue 1.000e-12, norm 1.000e+00")),
}

# each entry point, the name it gives x_3 of trial 1, and what it makes of the (trials, levels, r, r) stack
ENTRIES = {
    "SymMatrix": ("matrix", lambda xs: cone(SymMatrix(xs[1, 2])).mat),
    "CFSequence": ("xs level 3", lambda xs: CFSequence(xs[1]).xs),
}


class TestOneCertifier:
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("fault", sorted(OUTSIDE))
    def test_every_entry_gives_the_same_verdict(self, fault, entry):
        bad, error = OUTSIDE[fault]
        name, read = ENTRIES[entry]
        eye = np.eye(2)
        xs = np.array([[eye] * 4, [eye, eye, bad, eye]])
        if error is None:
            assert np.array_equal(read(xs), read(sym_raw(xs)))
        else:
            with pytest.raises(error[0], match=f"^{re.escape(f'{name} {error[1]}')}"):
                read(xs)
