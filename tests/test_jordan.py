import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecf import (
    ConeMembershipError,
    SymMatrix,
    cone,
    cone_less,
    frob_norm,
    from_json_dict,
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
from conecf.jordan import EigenConvergenceError, _jacobi, inv_cone_raw, inv_sym_raw

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

    def test_refined_longdouble_inverse(self, rng):
        # the oracles' longdouble inverses come from double eigenpairs
        # refined in longdouble; they must reach the longdouble floor,
        # 10 eps(longdouble) cond relative, against a 40-digit reference,
        # which neither the unrefined double inverse nor a refinement
        # against the double-rounded matrix can
        eps = float(np.finfo(np.longdouble).eps)

        def exact(m):
            # each longdouble entry as the exact binary fraction it holds
            return mpmath.matrix([[mpmath.mpf(n) / d for n, d in (t.as_integer_ratio() for t in row)]
                                  for row in m])

        def spread(r, signs):
            # a random orthogonal basis with eigenvalues spanning 1e-7..1
            q, _ = np.linalg.qr(rng.normal(size=(r, r)))
            m = (q * (signs * np.logspace(-7, 0, r))) @ q.T
            return (m + m.T) / 2.0

        for r in (3, 4, 6):
            signs = np.where(np.arange(r) % 2 == 0, 1.0, -1.0)
            cases = [(make_spd(r, rng).mat, inv_cone_raw) for _ in range(8)]
            cases += [(make_sym(r, rng, scale=2.0).mat, inv_sym_raw) for _ in range(8)]
            cases += [(spread(r, np.ones(r)), inv_cone_raw), (spread(r, signs), inv_sym_raw)]
            for a64, invert in cases:
                # dividing by 3 in longdouble leaves entries double cannot hold
                a = a64.astype(np.longdouble) / np.longdouble(3)
                got = invert(a, "test matrix")
                assert got.dtype == np.longdouble
                with mpmath.workdps(40):
                    ref = mpmath.inverse(exact(a))
                    rel = float(mpmath.mnorm(exact(got) - ref, "f") / mpmath.mnorm(ref, "f"))
                lam = np.abs(np.linalg.eigvalsh(np.asarray(a, dtype=np.float64)))
                assert rel <= 10.0 * eps * (lam.max() / lam.min())

    def test_non_finite_input_raises(self):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(EigenConvergenceError):
            _jacobi(a)


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
        assert cone_less(x.m, y.m)
        assert cone_less(inverse(y).m, inverse(x).m)


class TestConeLess:
    def test_identity_doubling(self):
        assert cone_less(identity(2).m, SymMatrix(2 * np.eye(2)))
        assert not cone_less(SymMatrix(2 * np.eye(2)), identity(2).m)

    def test_derived_difference(self):
        assert cone_less(identity(2).m, sym([[3, 1], [1, 3]]))


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


class TestJson:
    def test_round_trip(self, rng):
        x = make_sym(3, rng)
        d = to_json_dict(x)
        assert d["r"] == 3 and len(d["data"]) == 3
        assert np.allclose(from_json_dict(d).mat, x.mat, atol=0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_json_dict({"r": 2, "data": [[1.0]]})

    @pytest.mark.parametrize(
        "d",
        [{"r": True, "data": [[1.0]]}, {"r": 1, "data": [[True]]}],
        ids=["bool-size", "bool-entry"],
    )
    def test_json_booleans_rejected(self, d):
        with pytest.raises(ValueError):
            from_json_dict(d)


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
        b = a - 2.0 * np.trace(a) / r * np.outer(np.eye(r)[0], np.eye(r)[0])
        for inv, m in ((inv_cone_raw, a), (inv_sym_raw, b)):
            want = inv(m, "unscaled")
            got = s * inv(s * m, "scaled")
            assert frob_norm(got - want) <= 1e-12 * frob_norm(want)

    @pytest.mark.parametrize("s", [1e-200, *SCALES, 1e300])
    def test_norms_are_finite_and_scale_covariant(self, s, rng):
        a, b = make_sym(3, rng).mat, make_sym(3, rng).mat
        n = frob_norm(s * a)
        assert np.isfinite(n) and n == pytest.approx(s * frob_norm(a), rel=1e-15)
        d, top = frob_norm(a - b), max(frob_norm(a), frob_norm(b))
        assert rel_residual(s * a, s * b) == pytest.approx(s * d / (1.0 + s * top), rel=1e-14)
