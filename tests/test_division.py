import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecf import (
    ConeElement,
    ConeMembershipError,
    SymMatrix,
    cone,
    identity,
    in_cone,
    inner,
    inverse,
    pi_apply,
    quad_rep_apply,
    rel_residual,
)
from conecf.division import chol_inv_raw, chol_raw, pi_raw
from conecf.jordan import ASSERT_TOL

from helpers import make_spd, make_sym

few = settings(max_examples=30, deadline=None, derandomize=True)


def sym(rows):
    return SymMatrix(np.array(rows, dtype=float))


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(chol_raw(np.eye(3)), np.eye(3))

    def test_scalar_sqrt(self):
        assert chol_raw(np.array([[9.0]]))[0, 0] == 3.0

    def test_two_by_two_by_hand(self):
        # l = [[2,0],[1,2]] reproduces [[4,2],[2,5]]
        l = chol_raw(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(l, [[2, 0], [1, 2]], atol=1e-14)

    def test_factor_reproduces_element(self, rng):
        for r in (1, 2, 3, 4):
            y = make_spd(r, rng)
            l = chol_raw(y.mat)
            assert rel_residual(SymMatrix(l @ l.T), y.m) < 1e-10

    def test_miscertified_input_raises(self):
        fake = ConeElement(sym([[1, 0], [0, -1]]), min_eig=0.5)
        with pytest.raises(ConeMembershipError, match="pivot"):
            pi_apply(fake, identity(2).m, "inv")


class TestPiApply:
    def test_identity_factor_all_modes(self, rng):
        x = make_sym(3, rng)
        for mode in ("plain", "star", "inv", "star_inv"):
            assert np.allclose(pi_apply(identity(3), x, mode).mat, x.mat, atol=0)

    def test_scalar_modes(self):
        y = cone(sym([[4.0]]))
        x = sym([[3.0]])
        assert pi_apply(y, x, "plain").mat[0, 0] == pytest.approx(12.0, abs=1e-15)
        assert pi_apply(y, x, "star_inv").mat[0, 0] == pytest.approx(0.75, abs=1e-15)

    def test_plain_on_identity_reproduces_element(self):
        y = cone(sym([[4, 2], [2, 5]]))
        assert rel_residual(pi_apply(y, identity(2).m, "plain"), y.m) < 1e-14

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            pi_apply(identity(2), identity(2).m, "sideways")

    @few
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_inv_round_trip(self, seed, r):
        g = np.random.default_rng(seed)
        y, x = make_spd(r, g), make_sym(r, g)
        back = pi_apply(y, pi_apply(y, x, "plain"), "inv")
        assert rel_residual(back, x) < 1e-10
        back = pi_apply(y, pi_apply(y, x, "star_inv"), "star")
        assert rel_residual(back, x) < 1e-10

    @few
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_adjoint_pairing(self, seed, r):
        g = np.random.default_rng(seed)
        y, x, z = make_spd(r, g), make_sym(r, g), make_sym(r, g)
        lhs = inner(pi_apply(y, x, "plain"), z)
        rhs = inner(x, pi_apply(y, z, "star"))
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))

    @few
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_cone_preserved(self, seed, r):
        g = np.random.default_rng(seed)
        y, x = make_spd(r, g), make_spd(r, g)
        for mode in ("plain", "star", "inv", "star_inv"):
            assert in_cone(pi_apply(y, x.m, mode)) is not None

    def test_normalizations(self, rng):
        for r in (1, 2, 3):
            y = make_spd(r, rng)
            assert rel_residual(pi_apply(y, y.m, "inv"), identity(r).m) < 1e-10
            assert rel_residual(pi_apply(y, inverse(y).m, "star"), identity(r).m) < 1e-10


class TestFactorizationIdentities:
    @few
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_quad_equals_mult_times_adjoint(self, seed, r):
        g = np.random.default_rng(seed)
        y, x = make_spd(r, g), make_sym(r, g)
        lhs = pi_apply(y, pi_apply(y, x, "star"), "plain")
        assert rel_residual(lhs, quad_rep_apply(y.m, x)) < 1e-10

    @few
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_inverse_swap(self, seed, r):
        g = np.random.default_rng(seed)
        u, v = make_spd(r, g), make_spd(r, g)
        lhs = pi_apply(u, inverse(v).m, "inv")
        rhs = inverse(cone(pi_apply(u, v.m, "star")))
        assert rel_residual(lhs, rhs.m) < 1e-10

    @few
    @given(st.integers(0, 10**6), st.integers(1, 3))
    def test_shifted_maps_expand_eigenvalues(self, seed, r):
        # congruence by a factor of e+z (z in the cone) has singular values
        # above one, so every eigenvalue strictly increases
        g = np.random.default_rng(seed)
        z, v = make_spd(r, g), make_spd(r, g)
        shifted = cone(SymMatrix(np.eye(r) + z.mat))
        base = np.sort(np.linalg.eigvalsh(v.mat))
        for mode in ("plain", "star"):
            lifted = np.sort(np.linalg.eigvalsh(pi_apply(shifted, v.m, mode).mat))
            assert (lifted >= base * (1 - ASSERT_TOL)).all()
        lifted = np.sort(np.linalg.eigvalsh(quad_rep_apply(shifted.m, v.m).mat))
        assert (lifted >= base * (1 - ASSERT_TOL)).all()

    def test_shifted_maps_expand_in_cone_order(self):
        """The cone-order form of the expansion above is false at rank 2.

        With e + z = [[4, 2], [2, 5]] (Cholesky factor [[2, 0], [1, 2]]) and
        v = diag(1, 1/100), both eigenvalues of each image rise, yet
        image - v is indefinite: the maps rotate eigenvectors.  "star" shows
        the same with v's diagonal swapped.
        """
        shifted = cone(SymMatrix(np.eye(2) + np.array([[3.0, 2.0], [2.0, 4.0]])))
        v = SymMatrix(np.diag([1.0, 0.01]))
        v_swapped = SymMatrix(np.diag([0.01, 1.0]))
        plain = pi_apply(shifted, v, "plain")
        star = pi_apply(shifted, v_swapped, "star")
        quad = quad_rep_apply(shifted.m, v)
        cases = [
            # base, image, image by hand, its eigenvalues, min eigenvalue of image - base
            (v, plain, [[4, 2], [2, 1.04]], (0.0319, 5.0081), -0.2144),
            (v_swapped, star, [[1.04, 2], [2, 4]], (0.0319, 5.0081), -0.2144),
            (v, quad, [[16.04, 8.1], [8.1, 4.25]], (0.1270, 20.1630), -0.0950),
        ]
        for base, image, by_hand, lifted, lowest in cases:
            assert np.allclose(image.mat, by_hand, rtol=0, atol=1e-12)
            eigs = np.linalg.eigvalsh(image.mat)
            assert eigs == pytest.approx(lifted, abs=1e-4)
            assert (eigs > np.sort(np.diag(base.mat))).all()
            lowest_got = np.linalg.eigvalsh(image.mat - base.mat).min()
            assert lowest_got == pytest.approx(lowest, abs=1e-4)


def stack_of(r, n, rng):
    """n factors of random cone elements and n random symmetric matrices, as (n, r, r) stacks."""
    ls = np.stack([chol_raw(make_spd(r, rng).mat) for _ in range(n)])
    xs = np.stack([make_sym(r, rng).mat for _ in range(n)])
    return ls, xs


def mp_congruence(l, x, mode):
    """The congruence by l in 50-digit arithmetic, from the exact values of the double inputs."""
    with mpmath.workdps(50):
        L, X = mpmath.matrix(l.tolist()), mpmath.matrix(x.tolist())
        Linv = mpmath.inverse(L)
        return Linv * X * Linv.T if mode == "inv" else Linv.T * X * Linv


class TestSubstitution:
    """The inverse modes: forward/back substitution over the rows, on single matrices and stacks."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_stack_equals_per_matrix_calls(self, r, rng):
        ls, xs = stack_of(r, 7, rng)
        for mode in ("plain", "star", "inv", "star_inv"):
            stacked = pi_raw(ls, xs, mode)
            assert stacked.shape == (7, r, r)
            for t in range(7):
                assert np.array_equal(stacked[t], pi_raw(ls[t], xs[t], mode))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_round_trips(self, r, rng):
        ls, xs = stack_of(r, 20, rng)
        for inverse_mode, mode in (("inv", "plain"), ("star_inv", "star")):
            back = pi_raw(ls, pi_raw(ls, xs, inverse_mode), mode)
            for t in range(20):
                assert rel_residual(SymMatrix(back[t]), SymMatrix(xs[t])) < 1e-12

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_extended_reference(self, r, rng):
        for _ in range(10):
            l = chol_raw(make_spd(r, rng).mat)
            x = make_sym(r, rng).mat
            for mode in ("inv", "star_inv"):
                got = pi_raw(l, x, mode)
                ref = mp_congruence(l, x, mode)
                with mpmath.workdps(50):
                    err = mpmath.mnorm(mpmath.matrix(got.tolist()) - ref, "f") / mpmath.mnorm(ref, "f")
                assert err < 1e-13, (mode, float(err))

    def test_overflowing_quotient_is_non_finite_without_warnings(self):
        # a zero below the diagonal meets an infinite row: no inf * 0 warning either
        l = np.diag([1e-200, 1.0])
        x = np.array([[1e200, 1.0], [1.0, 1.0]])
        with np.errstate(all="raise"):
            for mode in ("inv", "star_inv"):
                assert not np.isfinite(pi_raw(l, x, mode)).all()


class TestCholeskyInverse:
    """``chol_inv_raw``: the inverse through the Cholesky factor, certified by the factor."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_stack_equals_per_matrix_calls_and_inverts(self, r, rng):
        a = np.array([make_spd(r, rng, scale=s).mat for s in np.geomspace(1e-6, 1e6, 7)])
        inv = chol_inv_raw(a, "matrix")
        for t in range(7):
            assert np.array_equal(inv[t], chol_inv_raw(a[t], "matrix"))
            assert rel_residual(inv[t] @ a[t], np.eye(r)) < 1e-12

    def test_badly_scaled_matrix_the_margin_refuses_is_inverted_accurately(self):
        # d c d with c well conditioned: the relative eigenvalue margin refuses it,
        # but Cholesky's accuracy depends on c alone (van der Sluis; Demmel 1989)
        c = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        d = np.diag([1.0, 1e-6, 1e-12])
        a = d @ c @ d
        assert in_cone(SymMatrix(a)) is None
        got = chol_inv_raw(a, "matrix")
        with mpmath.workdps(50):
            ref, dm = mpmath.inverse(mpmath.matrix(a.tolist())), mpmath.matrix(d.tolist())
            # the error in d a^{-1} d, whose entries are of order one
            err = mpmath.mnorm(dm * (mpmath.matrix(got.tolist()) - ref) * dm, "f") / mpmath.mnorm(dm * ref * dm, "f")
        assert err < 1e-14

    def test_the_first_slot_without_a_factor_is_named(self):
        a = np.array(np.broadcast_to(np.eye(2), (4, 2, 2)))
        a[2] = np.diag([1.0, -1.0])
        a[3] = np.diag([np.inf, 1.0])
        with pytest.raises(ConeMembershipError, match=r"^term \(stack index \(2,\)\) has no Cholesky factor"):
            chol_inv_raw(a, "term")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for bad in (a[2], a[3], np.diag([1e-320, 1.0]), np.diag([1.0, np.nan])):
                with pytest.raises(ConeMembershipError, match=r"^term has no Cholesky factor in double precision$"):
                    chol_inv_raw(bad, "term")
