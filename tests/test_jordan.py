import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecf import (
    ConeMembershipError,
    SymMatrix,
    cone,
    frob_norm,
    from_json_raw,
    identity,
    in_cone,
    inner,
    inverse,
    jordan_product,
    power,
    quad_rep_apply,
    rel_residual,
    spectral_decomposition,
    to_json_dict,
    zero,
)
from conecf.jordan import (
    EigenConvergenceError,
    _jacobi,
    certified,
    closed_cone_test,
    inv_cone_raw,
    min_eig_raw,
    open_cone_test,
    power_raw,
    sym_raw,
)

from helpers import make_spd, make_sym

few = settings(max_examples=30, deadline=None, derandomize=True)


def sym(rows):
    return SymMatrix(np.array(rows, dtype=float))


class TestJordanProduct:
    def test_scalars_commute(self):
        assert jordan_product(sym([[2.0]]), sym([[3.0]])).mat[0, 0] == 6.0

    def test_identity_is_unit(self, rng):
        y = make_sym(2, rng)
        assert np.array_equal(jordan_product(identity(2).m, y).mat, y.mat)

    def test_off_diagonal_case(self):
        # (xy + yx)/2 for x = diag(1,2), y = antidiag(1,1), by hand
        got = jordan_product(sym([[1, 0], [0, 2]]), sym([[0, 1], [1, 0]]))
        assert np.allclose(got.mat, [[0, 1.5], [1.5, 0]], atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            jordan_product(sym([[1.0]]), identity(2).m)


class TestInner:
    def test_identity_trace(self):
        assert inner(identity(2).m, identity(2).m) == 2.0

    def test_trace_against_identity(self):
        assert inner(sym([[1, 2], [2, 3]]), identity(2).m) == 4.0

    def test_off_diagonal_case(self):
        # trace([[1,2],[2,3]] @ [[0,1],[1,0]]) = trace([[2,1],[3,2]]) = 4, by hand
        assert inner(sym([[1, 2], [2, 3]]), sym([[0, 1], [1, 0]])) == 4.0

    def test_symmetric_and_nonnegative(self, rng):
        for _ in range(20):
            x, y = make_sym(3, rng), make_sym(3, rng)
            assert inner(x, y) == pytest.approx(inner(y, x), rel=1e-14)
            assert inner(x, x) >= 0.0


class TestQuadRep:
    def test_identity_case(self, rng):
        y = make_sym(3, rng)
        assert np.allclose(quad_rep_apply(identity(3).m, y).mat, y.mat, atol=0)

    def test_scalar(self):
        assert quad_rep_apply(sym([[3.0]]), sym([[5.0]])).mat[0, 0] == 45.0

    def test_dense_case(self):
        got = quad_rep_apply(sym([[2, 0], [0, 1]]), sym([[1, 1], [1, 1]]))
        assert np.allclose(got.mat, [[4, 2], [2, 1]], atol=0)

    @few
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_matches_jordan_expression(self, seed, r):
        # P(x)y = 2 x.(x.y) - (x.x).y
        g = np.random.default_rng(seed)
        x, y = make_sym(r, g), make_sym(r, g)
        via_products = SymMatrix(
            2.0 * jordan_product(x, jordan_product(x, y)).mat
            - jordan_product(jordan_product(x, x), y).mat
        )
        assert rel_residual(quad_rep_apply(x, y), via_products) < 1e-12


class TestJordanAxioms:
    @few
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_commutative(self, seed, r):
        g = np.random.default_rng(seed)
        x, y = make_sym(r, g), make_sym(r, g)
        assert np.array_equal(jordan_product(x, y).mat, jordan_product(y, x).mat)

    @few
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_inner_associates(self, seed, r):
        g = np.random.default_rng(seed)
        x, y, z = (make_sym(r, g) for _ in range(3))
        lhs = inner(x, jordan_product(y, z))
        rhs = inner(jordan_product(x, y), z)
        scale = 1 + frob_norm(x) * frob_norm(y) * frob_norm(z)
        assert abs(lhs - rhs) < 1e-11 * scale

    @few
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_jordan_identity(self, seed, r):
        g = np.random.default_rng(seed)
        x, y = make_sym(r, g), make_sym(r, g)
        xsq = jordan_product(x, x)
        lhs = jordan_product(x, jordan_product(xsq, y))
        rhs = jordan_product(xsq, jordan_product(x, y))
        assert rel_residual(lhs, rhs) < 1e-11


class TestSpectral:
    def test_identity(self):
        spec = spectral_decomposition(identity(3).m)
        assert spec.eigenvalues == (1.0, 1.0, 1.0)

    def test_already_diagonal(self):
        spec = spectral_decomposition(sym([[5, 0], [0, 2]]))
        assert spec.eigenvalues == (5.0, 2.0)
        assert np.allclose(np.abs(spec.basis), np.eye(2), atol=1e-14)

    def test_two_by_two_by_char_poly(self):
        # roots of t^2 - 4t + 3 for [[2,1],[1,2]]
        spec = spectral_decomposition(sym([[2, 1], [1, 2]]))
        assert np.allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-12)

    @few
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_round_trip_and_orthogonality(self, seed, r):
        g = np.random.default_rng(seed)
        x = make_sym(r, g, scale=3.0)
        spec = spectral_decomposition(x)
        scale = 1 + np.abs(x.mat).max()
        assert np.abs(spec.basis.T @ spec.basis - np.eye(r)).max() <= 1e-12 * scale
        assert np.abs(spec.reconstruct() - x.mat).max() <= 1e-11 * scale
        assert list(spec.eigenvalues) == sorted(spec.eigenvalues, reverse=True)

    def test_jacobi_against_lapack(self, rng):
        for r in (2, 3, 4, 6):
            for _ in range(25):
                a = make_sym(r, rng, scale=2.0).mat
                tol = 1e-10 * (1 + np.abs(a).max())
                w, _ = _jacobi(a)
                assert np.allclose(np.sort(w), np.linalg.eigvalsh(a), atol=tol)

    def test_non_finite_input_raises(self):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(EigenConvergenceError):
            _jacobi(a)


class TestStacks:
    """Every stacked primitive gives, slot by slot, bit for bit what it gives one matrix."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_stack_matches_each_matrix(self, r, rng):
        a = np.array([[make_sym(r, rng, scale=2.0).mat for _ in range(5)] for _ in range(3)])
        a[0, 0] = np.diag(np.arange(1.0, r + 1))  # a zero off-diagonal entry
        spd = np.array([make_spd(r, rng).mat for _ in range(6)])
        w, v = _jacobi(a)
        mins, norms = min_eig_raw(a), frob_norm(a)
        (cmn, breach), (omn, ok) = closed_cone_test(a), open_cone_test(a)
        assert w.shape == a.shape[:-1] and v.shape == a.shape
        for i, j in np.ndindex(a.shape[:2]):
            wi, vi = _jacobi(a[i, j])
            assert np.array_equal(w[i, j], wi) and np.array_equal(v[i, j], vi)
            assert mins[i, j] == min_eig_raw(a[i, j]) and norms[i, j] == frob_norm(a[i, j])
            assert (cmn[i, j], breach[i, j]) == closed_cone_test(a[i, j])
            assert (omn[i, j], ok[i, j]) == open_cone_test(a[i, j])
        inv = inv_cone_raw(spd, "stack")
        for i in range(len(spd)):
            assert np.array_equal(inv[i], inv_cone_raw(spd[i], "one"))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_stacked_powers_and_residuals_match_each_matrix(self, r, rng):
        spd = np.array([make_spd(r, rng, scale=s).mat for s in (1e-3, 1.0, 1e3, 2.0)])
        other = np.array([make_spd(r, rng).mat for _ in range(4)])
        res = rel_residual(spd, other)
        skewed = spd + 1e-13 * rng.normal(size=spd.shape)  # inside SymMatrix's asymmetry tolerance
        for alpha in (-1.0, 0.5):
            powered = power_raw(spd, alpha)
            for i in range(len(spd)):
                assert np.array_equal(powered[i], power(cone(SymMatrix(spd[i])), alpha).mat)
        for i in range(len(spd)):
            assert res[i] == rel_residual(SymMatrix(spd[i]), SymMatrix(other[i]))
            assert np.array_equal(sym_raw(skewed)[i], SymMatrix(skewed[i]).mat)
        assert type(rel_residual(spd[0], other[0])) is float

    def test_single_matrix_results_are_python_scalars(self, rng):
        a = make_spd(3, rng).mat
        for value in (min_eig_raw(a), frob_norm(a), *closed_cone_test(a), *open_cone_test(a)):
            assert type(value) in (float, bool)

    def test_failing_slot_is_named(self):
        a = np.array([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)])
        with pytest.raises(ConeMembershipError, match=r"^stacked \(stack index \(1,\)\) leaves the cone"):
            inv_cone_raw(a, "stacked")
        assert open_cone_test(a)[1].tolist() == [True, False, True]


class TestPower:
    def test_identity_inverse(self):
        assert np.allclose(power(identity(3), -1.0).mat, np.eye(3), atol=0)

    def test_scalar_reciprocal(self):
        assert power(cone(sym([[4.0]])), -1.0).mat[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_two_by_two_adjugate(self):
        # inverse of [[2,1],[1,2]] is adjugate over det = 3
        got = power(cone(sym([[2, 1], [1, 2]])), -1.0)
        assert np.allclose(got.mat, np.array([[2, -1], [-1, 2]]) / 3.0, atol=1e-14)

    @few
    @given(st.integers(0, 10**6), st.integers(1, 4), st.sampled_from([-1.0, 0.5, -0.5, 2.0]))
    def test_power_round_trip(self, seed, r, alpha):
        g = np.random.default_rng(seed)
        x = make_spd(r, g)
        back = power(power(x, alpha), 1.0 / alpha)
        assert rel_residual(back.m, x.m) < 1e-10


class TestCone:
    def test_identity_certified(self):
        c = in_cone(identity(2).m)
        assert c is not None and c.min_eig == pytest.approx(1.0, abs=1e-14)

    def test_indefinite_rejected(self):
        assert in_cone(sym([[1, 0], [0, -1]])) is None

    def test_derived_eigenvalues(self):
        c = in_cone(sym([[2, 1], [1, 2]]))
        assert c is not None and c.min_eig == pytest.approx(1.0, abs=1e-12)

    def test_near_singular_large_scale_rejected(self):
        # smallest eigenvalue 1e-8 is far below the relative margin at this scale
        assert in_cone(sym([[1e8, 0], [0, 1e-8]])) is None

    def test_cone_raises(self):
        with pytest.raises(ConeMembershipError):
            cone(sym([[0.0]]))

    @few
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_squares_are_certified(self, seed, r):
        g = np.random.default_rng(seed)
        x = make_sym(r, g)
        if abs(np.linalg.det(x.mat)) < 1e-3:
            return
        assert in_cone(jordan_product(x, x)) is not None

    @few
    @given(st.integers(0, 10**6), st.integers(1, 3))
    def test_inverse_antitone(self, seed, r):
        g = np.random.default_rng(seed)
        x = make_spd(r, g)
        y = cone(SymMatrix(x.mat + make_spd(r, g).mat))
        assert in_cone(SymMatrix(y.mat - x.mat)) is not None
        assert in_cone(SymMatrix(inverse(x).mat - inverse(y).mat)) is not None


class TestFrobNorm:
    def test_zero(self):
        assert frob_norm(zero(3)) == 0.0

    def test_raw_array_matches_sum_of_squares_bit_for_bit(self, rng):
        a = make_sym(4, rng).mat
        assert frob_norm(a) == float(np.sqrt((a * a).sum()))

    def test_identity(self):
        assert frob_norm(identity(4).m) == 2.0

    def test_derived(self):
        assert frob_norm(sym([[1, 2], [2, 1]])) == pytest.approx(np.sqrt(10.0), rel=1e-15)


class TestSymMatrixConstruction:
    def test_symmetrizes_round_off(self):
        a = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        m = SymMatrix(a)
        assert m.mat[0, 1] == m.mat[1, 0]

    def test_rejects_genuine_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix(np.array([[1.0, 2.0], [2.5, 3.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entries_near_the_top_of_the_range_stay_finite(self):
        m = SymMatrix(1.5e308 * np.eye(2))
        assert np.isfinite(m.mat).all()
        assert m.mat[0, 0] == 1.5e308

    def test_stored_array_read_only(self):
        m = identity(2).m
        with pytest.raises(ValueError):
            m.mat[0, 0] = 5.0


class TestCertified:
    def test_keeps_an_exactly_symmetric_array_and_its_certificate(self, rng):
        x = make_spd(3, rng)
        a = x.mat.copy()
        mn = open_cone_test(a)[0]
        got = certified(a, mn)
        assert got.mat is a and not a.flags.writeable
        assert np.array_equal(got.mat, cone(SymMatrix(a)).mat) and got.min_eig == mn

    @pytest.mark.parametrize("a", [np.array([[1.0, 2.0 + 1e-15], [2.0, 5.0]]), np.eye(3)[:2], np.ones(2)])
    def test_refuses_anything_not_square_and_exactly_symmetric(self, a):
        with pytest.raises(ValueError, match="exactly symmetric"):
            certified(a, 1.0)

    def test_refuses_a_certificate_that_is_not_positive(self):
        with pytest.raises(ConeMembershipError):
            certified(np.eye(2), 0.0)


class TestJson:
    def test_round_trip(self, rng):
        x = make_sym(3, rng)
        d = to_json_dict(x)
        assert d["r"] == 3 and len(d["data"]) == 3
        assert np.allclose(SymMatrix(from_json_raw(d)).mat, x.mat, atol=0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_json_raw({"r": 2, "data": [[1.0]]})

    @pytest.mark.parametrize(
        "d",
        [{"r": True, "data": [[1.0]]}, {"r": 1, "data": [[True]]}],
        ids=["bool-size", "bool-entry"],
    )
    def test_json_booleans_rejected(self, d):
        with pytest.raises(ValueError):
            from_json_raw(d)


SCALES = [1e-12, 1e-6, 1.0, 1e6, 1e100, 1e200]


def scale_cases(r: int) -> list:
    """(matrix, certified?) pairs whose verdicts sit far from the cone margin."""
    g = np.random.default_rng(r)
    q, _ = np.linalg.qr(g.normal(size=(r, r)))

    def spread(*lams):
        m = (q * np.array(lams + (1.0,) * (r - len(lams)))) @ q.T
        return (m + m.T) / 2.0

    return [
        (make_spd(r, g).mat, True),
        (spread(2.0, 1e-8), True),
        (spread(2.0, 1e-12), False),
        (spread(2.0, 0.0), False),
        (spread(2.0, -1.0), False),
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestScale:
    """Certification, inverses and norms behave the same at every scale."""

    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize("r", [2, 3])
    def test_cone_verdict_is_scale_free(self, s, r):
        for a, certified in scale_cases(r):
            x = SymMatrix(s * a)
            assert (in_cone(x) is not None) == certified
            if not certified:
                with pytest.raises(ConeMembershipError, match="leaves the cone: smallest .*, norm"):
                    cone(x, "scaled case")

    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize("r", [2, 3])
    def test_inverses_scale_inversely(self, s, r, rng):
        a = make_spd(r, rng).mat + np.eye(r)
        want = inv_cone_raw(a, "unscaled")
        got = s * inv_cone_raw(s * a, "scaled")
        assert frob_norm(got - want) <= 1e-12 * frob_norm(want)

    @pytest.mark.parametrize("s", [1e200, 1e308, 1.5e308])
    def test_diagonal_spread_past_the_double_range(self, s):
        # aqq - app overflows, but a diagonal matrix is its own spectrum
        d = np.diag([-s, s])
        w, v = _jacobi(d)
        assert w.tolist() == [-s, s] and np.array_equal(v, np.eye(2))
        w, v = _jacobi(np.stack([np.eye(2), d]))
        assert w.tolist() == [[1.0, 1.0], [-s, s]] and np.array_equal(v, np.stack([np.eye(2)] * 2))
        assert min_eig_raw(d) == -s
        if s < 1.2e308:  # ||d|| = s * sqrt(2) stays finite
            assert closed_cone_test(d) == (-s, True)
        assert open_cone_test(d) == (-s, False)

    @pytest.mark.parametrize("s", [1e-200, *SCALES, 1e300])
    def test_norms_are_finite_and_scale_covariant(self, s, rng):
        a, b = make_sym(3, rng).mat, make_sym(3, rng).mat
        n = frob_norm(s * a)
        assert np.isfinite(n) and n == pytest.approx(s * frob_norm(a), rel=1e-15)
        d, top = frob_norm(a - b), max(frob_norm(a), frob_norm(b))
        assert rel_residual(s * a, s * b) == pytest.approx(s * d / (1.0 + s * top), rel=1e-14)
