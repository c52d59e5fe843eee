"""Euclidean Jordan algebra structure on dense real symmetric matrices.

The algebra is Sym(r) with product x.y = (xy + yx)/2 and the trace inner
product; its cone of squares is the set of positive definite matrices,
ordered by the Loewner order.  Everything is small and dense (workflows
stay at rank <= 16), and every operation is a pure function over
immutable values.

All eigen work goes through ``_jacobi``: closed forms at rank <= 2 and
LAPACK at rank >= 3.  The extended-precision oracles need ``np.longdouble``
only for their inverses, so ``inv_cone_raw``/``inv_sym_raw`` refine the
double-precision inverse of a longdouble array with two Newton steps in
longdouble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "CONE_TOL",
    "ASSERT_TOL",
    "ConeMembershipError",
    "EigenConvergenceError",
    "SymMatrix",
    "ConeElement",
    "Spectrum",
    "identity",
    "zero",
    "jordan_product",
    "inner",
    "quad_rep_apply",
    "spectral_decomposition",
    "power",
    "inverse",
    "in_cone",
    "cone",
    "cone_less",
    "min_eig_raw",
    "inv_cone_raw",
    "inv_sym_raw",
    "frob_norm",
    "rel_residual",
    "to_json_dict",
    "from_json_dict",
]

CONE_TOL = 1e-10    # relative margin for open-cone membership
ASSERT_TOL = 1e-8   # looser margin for "lies in the closed cone" assertions

# Constructors reject this much asymmetry as user error rather than round-off.
_SYM_REJECT_TOL = 1e-9
# Inverting a symmetric matrix fails below this relative eigenvalue magnitude.
_SINGULAR_TOL = 1e-13
_LONGDOUBLE = np.dtype(np.longdouble)


class ConeMembershipError(ValueError):
    """A value that must be positive definite is not, within the cone margin."""


class EigenConvergenceError(RuntimeError):
    """The eigensolver failed or returned a non-finite eigenvalue."""


def _as_square_float(entries) -> np.ndarray:
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric r x r matrix, symmetrized once at construction.

    Inputs whose asymmetry exceeds 1e-9 relative are rejected: that is a
    caller error, not round-off.  The stored array is read-only.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        a = _as_square_float(self.mat)
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        scale = 1.0 + np.abs(a).max()
        skew = np.abs(a - a.T).max()
        if skew > _SYM_REJECT_TOL * scale:
            raise ValueError(
                f"matrix is not symmetric: max asymmetry {skew:.3e} at scale {scale:.3e}"
            )
        a = (a + a.T) / 2.0
        a.flags.writeable = False
        object.__setattr__(self, "mat", a)

    @property
    def r(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class ConeElement:
    """A SymMatrix certified positive definite, with its smallest eigenvalue cached.

    Build these through ``in_cone``/``cone``; a hand-made certificate that
    does not match the matrix will surface as a non-positive Cholesky pivot
    downstream.
    """

    m: SymMatrix
    min_eig: float

    def __post_init__(self) -> None:
        if not self.min_eig > 0.0:
            raise ConeMembershipError(
                f"certified smallest eigenvalue must be positive, got {self.min_eig}"
            )

    @property
    def r(self) -> int:
        return self.m.r

    @property
    def mat(self) -> np.ndarray:
        return self.m.mat


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (descending) and orthonormal eigenvector columns."""

    eigenvalues: tuple[float, ...]
    basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        lam = np.asarray(self.eigenvalues)
        return (self.basis * lam) @ self.basis.T


def identity(r: int) -> ConeElement:
    """The unit element e, certified with all eigenvalues one."""
    return ConeElement(SymMatrix(np.eye(r)), 1.0)


def zero(r: int) -> SymMatrix:
    return SymMatrix(np.zeros((r, r)))


def _check_same_rank(x: SymMatrix, y: SymMatrix) -> None:
    if x.r != y.r:
        raise ValueError(f"dimension mismatch: {x.r} vs {y.r}")


def _mat_of(x) -> np.ndarray:
    return x.mat if isinstance(x, (SymMatrix, ConeElement)) else np.asarray(x, dtype=float)


def jordan_product(x: SymMatrix, y: SymMatrix) -> SymMatrix:
    """x.y = (xy + yx)/2 with ordinary matrix products."""
    _check_same_rank(x, y)
    m = x.mat @ y.mat
    return SymMatrix((m + m.T) / 2.0)


def inner(x: SymMatrix, y: SymMatrix) -> float:
    """Trace inner product <x, y> = trace(xy)."""
    _check_same_rank(x, y)
    return float(np.einsum("ij,ij->", x.mat, y.mat))


def quad_rep_apply(x: SymMatrix, y: SymMatrix) -> SymMatrix:
    """Quadratic representation P(x)y, realized as x y x."""
    _check_same_rank(x, y)
    return SymMatrix(x.mat @ y.mat @ x.mat)


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix; the package's one eigen entry point.

    Rank 1 and 2 use closed forms (one rotation diagonalizes a 2x2 exactly)
    in the input's dtype (double for anything but longdouble).  Rank >= 3
    goes to LAPACK (``np.linalg.eigh``) on the double-precision cast, so
    ``np.longdouble`` input gets double eigenpairs there; the inverse
    helpers refine those back to longdouble.  Returns the raw eigenvalue
    vector (in no promised order) and the orthogonal column basis.  Raises
    EigenConvergenceError when the solver fails or an eigenvalue is not
    finite.
    """
    n = a.shape[0]
    dtype = a.dtype if a.dtype in (np.dtype(np.float64), np.dtype(np.longdouble)) else np.dtype(np.float64)
    if n == 1:
        return np.array([a[0, 0]], dtype=dtype), np.ones((1, 1), dtype=dtype)
    if n == 2:
        # one rotation diagonalizes a 2x2 exactly
        app, apq, aqq = dtype.type(a[0, 0]), dtype.type(a[0, 1]), dtype.type(a[1, 1])
        if apq == 0.0:
            return np.array([app, aqq], dtype=dtype), np.eye(2, dtype=dtype)
        theta = (aqq - app) / (2.0 * apq)
        t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
        if theta < 0.0:
            t = -t
        c = 1.0 / np.sqrt(t * t + 1.0)
        s = t * c
        vals = np.array([app - t * apq, aqq + t * apq], dtype=dtype)
        vecs = np.array([[c, s], [-s, c]], dtype=dtype)
        return vals, vecs
    try:
        w, v = np.linalg.eigh(a.astype(np.float64, copy=False))
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"LAPACK eigensolver failed: {exc}") from exc
    # eigh passes NaN through silently, and a NaN smallest eigenvalue
    # would pass a closed-cone test of the form ``mn < -margin``
    if not np.isfinite(w).all():
        raise EigenConvergenceError("eigensolver returned a non-finite eigenvalue")
    return w, v


def spectral_decomposition(x: SymMatrix) -> Spectrum:
    """Spectral decomposition with eigenvalues sorted descending."""
    w, v = _jacobi(x.mat)
    order = np.argsort(-w, kind="stable")
    return Spectrum(tuple(float(t) for t in w[order]), v[:, order])


def power(x: ConeElement, alpha: float) -> ConeElement:
    """Spectral power x^alpha; covers inverse (-1), sqrt (1/2), inverse sqrt (-1/2)."""
    w, v = _jacobi(x.mat)
    if w.min() <= 0.0:
        raise ConeMembershipError(
            f"cone element has non-positive eigenvalue {w.min():.3e}; certificate is stale"
        )
    pw = w**alpha
    rec = (v * pw) @ v.T
    return ConeElement(SymMatrix(rec), float(pw.min()))


def inverse(x: ConeElement) -> ConeElement:
    return power(x, -1.0)


def min_eig_raw(a: np.ndarray) -> float:
    """Smallest eigenvalue of a raw symmetric array."""
    w, _ = _jacobi(a)
    return float(w.min())


def inv_cone_raw(a: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a raw array that must clear the ``in_cone`` margin; ``what`` names it."""
    w, v = _jacobi(a)
    mn = w.min()
    if not mn > CONE_TOL * (1.0 + float(np.sqrt((a * a).sum()))):
        raise ConeMembershipError(
            f"{what}: smallest eigenvalue {mn:.3e} leaves the cone "
            "(numerically singular input)"
        )
    return _inverse_from(a, w, v)


def inv_sym_raw(a: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a raw symmetric, possibly indefinite, array via its spectrum."""
    w, v = _jacobi(a)
    if np.abs(w).min() <= _SINGULAR_TOL * (1.0 + np.abs(w).max()):
        raise ArithmeticError(f"{what} is singular within tolerance; degenerate numerics")
    return _inverse_from(a, w, v)


def _inverse_from(a: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inverse of ``a`` from its eigenpairs, refined when they are less precise than ``a``.

    LAPACK eigenpairs of a longdouble array are double precision; two
    Newton-Schulz steps X <- X + sym(X (I - A X)) in longdouble, with
    sym(Y) = (Y + Y^T)/2, bring the inverse to the longdouble rounding
    floor for every condition number below about 3e14.  Both callers
    stay far below that: the cone margin caps it near 1e10 and
    ``_SINGULAR_TOL`` at 1e13.
    """
    inv = (v / w) @ v.T
    inv = (inv + inv.T) / 2.0
    if a.dtype == _LONGDOUBLE and w.dtype != _LONGDOUBLE:
        inv = inv.astype(a.dtype)
        eye = np.eye(a.shape[0], dtype=a.dtype)
        for _ in range(2):
            step = inv @ (eye - a @ inv)
            inv = inv + (step + step.T) / 2.0
    return inv


def frob_norm(x: SymMatrix) -> float:
    """sqrt(trace(x^2)), the norm induced by the trace inner product."""
    a = x.mat
    return float(np.sqrt(np.einsum("ij,ij->", a, a)))


def in_cone(x: SymMatrix) -> Optional[ConeElement]:
    """Certify x as positive definite, or return None.

    Membership needs the smallest eigenvalue to clear CONE_TOL * (1 + ||x||),
    a strict margin that keeps downstream Cholesky factorizations
    well-conditioned.
    """
    try:
        return cone(x)
    except ConeMembershipError:
        return None


def cone(x: SymMatrix) -> ConeElement:
    """Like in_cone but raising ConeMembershipError on the negative answer."""
    mn = min_eig_raw(x.mat)
    if not mn > CONE_TOL * (1.0 + frob_norm(x)):
        raise ConeMembershipError(
            f"matrix is not positive definite within the cone margin "
            f"(smallest eigenvalue {mn:.3e})"
        )
    return ConeElement(x, mn)


def cone_less(x: SymMatrix, y: SymMatrix) -> bool:
    """Loewner order: x < y iff y - x is positive definite."""
    _check_same_rank(x, y)
    return in_cone(SymMatrix(y.mat - x.mat)) is not None


def rel_residual(a, b) -> float:
    """Frobenius distance scaled by 1 + the larger operand norm."""
    am = _mat_of(a)
    bm = _mat_of(b)
    diff = float(np.sqrt(((am - bm) ** 2).sum()))
    na = float(np.sqrt((am * am).sum()))
    nb = float(np.sqrt((bm * bm).sum()))
    return diff / (1.0 + max(na, nb))


def to_json_dict(x) -> dict:
    """JSON matrix encoding: {"r": size, "data": row-major entries}."""
    a = _mat_of(x)
    return {"r": int(a.shape[0]), "data": [[float(t) for t in row] for row in a]}


def from_json_dict(d: dict) -> SymMatrix:
    """Parse the JSON matrix encoding; any other document shape raises ValueError."""
    if not (isinstance(d, dict) and isinstance(d.get("r"), int) and isinstance(d.get("data"), list)):
        raise ValueError('expected a matrix {"r": size, "data": [rows]}')
    r, data = d["r"], d["data"]
    if len(data) != r or any(not isinstance(row, list) or len(row) != r for row in data):
        raise ValueError(f"matrix data does not match declared size r={r}")
    if not all(isinstance(t, (int, float)) for row in data for t in row):
        raise ValueError("matrix entries must be numbers")
    return SymMatrix(np.array(data, dtype=float))
