"""Euclidean Jordan algebra structure on dense real symmetric matrices.

The algebra is Sym(r) with product x.y = (xy + yx)/2 and the trace inner
product; its cone of squares is the set of positive definite matrices,
ordered by the Loewner order.  Everything is small and dense (workflows
stay at rank <= 16), and every operation is a pure function over
immutable values.

All eigen work goes through ``_jacobi``, in double precision: closed
forms at rank <= 2 and LAPACK at rank >= 3.

The raw-array primitives (``_jacobi``, ``sym_raw``, ``sym_checked_raw``,
``cone_checked_raw``, ``power_raw``, ``inv_cone_raw``, ``min_eig_raw``,
``frob_norm``, ``rel_residual``, ``open_cone_test``, ``closed_cone_test``)
take one matrix or a ``(..., r, r)`` stack, and treat each matrix of a
stack exactly as they treat it alone, so whole experiments certify in one
call.

The certification policy lives here alone: ``cone_checked_raw`` certifies
matrices from outside the package, ``cone`` and ``inv_cone_raw`` computed
values, all in one error format, and ``open_cone_test`` gives bare verdicts.
"""

from __future__ import annotations

import itertools
import math
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
    "power_raw",
    "inverse",
    "in_cone",
    "cone",
    "closed_cone_test",
    "eigenvalues_dominate",
    "min_eig_raw",
    "sym_raw",
    "sym_checked_raw",
    "open_cone_test",
    "cone_checked_raw",
    "inv_cone_raw",
    "frob_norm",
    "rel_residual",
    "to_json_dict",
    "from_json_raw",
    "from_json_stack",
]

CONE_TOL = 1e-10    # relative open-cone margin: smallest eigenvalue > CONE_TOL * ||x||
ASSERT_TOL = 1e-8   # closed-cone margin, -ASSERT_TOL * (1 + ||d||); see closed_cone_test

# Constructors reject this much asymmetry as user error rather than round-off.
_SYM_REJECT_TOL = 1e-9


class ConeMembershipError(ValueError):
    """A value that must be positive definite is not, within the cone margin."""


class EigenConvergenceError(ArithmeticError):
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
        a = sym_checked_raw(_as_square_float(self.mat), lambda i: "matrix")
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


def sym_raw(a: np.ndarray) -> np.ndarray:
    """a/2 + a^T/2 of a raw array, or of each in a stack: the symmetrization SymMatrix applies.

    Halved before adding, so finite entries near the top of the range stay finite.
    """
    return a / 2.0 + a.swapaxes(-1, -2) / 2.0


def sym_checked_raw(a: np.ndarray, name) -> np.ndarray:
    """``sym_raw(a)`` of a raw array or stack, after SymMatrix's checks, each run once over the stack.

    The first matrix not finite, or asymmetric beyond 1e-9 relative, raises ValueError named ``name(i)``.
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(f"{name(int(np.argmin(finite)))} entries must be finite")
    scale, skew = 1.0 + np.abs(a).max(axis=(-2, -1)), np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
    rejected = skew > _SYM_REJECT_TOL * scale
    if rejected.any():
        i = int(np.argmax(rejected))
        raise ValueError(f"{name(i)} is not symmetric: "
                         f"max asymmetry {skew.flat[i]:.3e} at scale {scale.flat[i]:.3e}")
    return sym_raw(a)


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
    """Eigenpairs of a symmetric matrix, or of each in a ``(..., r, r)`` stack.

    The package's one eigen entry point, in double precision.  Rank 1 and 2
    use closed forms (one rotation diagonalizes a 2x2 exactly), evaluated
    elementwise over the stack; rank >= 3 goes to LAPACK
    (``np.linalg.eigh``).  Returns the raw eigenvalues along the last axis
    (in no promised order) and the orthogonal column bases.  Raises
    EigenConvergenceError when the solver fails or an eigenvalue is not
    finite.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    if n == 1:
        return a[..., 0].copy(), np.ones_like(a)
    if n == 2:
        # one matrix (also a one-slot stack) is read as numpy scalars, whose
        # arithmetic costs a fraction of that on one-element arrays
        m = a.reshape(2, 2) if a.size == 4 else a
        app, apq, aqq = m[..., 0, 0][()], m[..., 0, 1][()], m[..., 1, 1][()]
        # a zero off-diagonal entry is already diagonal: its diagonal is
        # zeroed before the subtraction (which could overflow) and its divisor
        # made one, so theta = 0, t = 0 and the basis is exactly e
        nz, zero = apq != 0.0, apq == 0.0
        theta = (aqq * nz - app * nz) / (2.0 * apq + zero)
        t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
        # t takes the sign of theta (t - 2t = -t exactly); -0.0 counts as positive
        t = (t - 2.0 * t * (theta < 0.0)) * nz
        c = 1.0 / np.sqrt(t * t + 1.0)
        s = t * c
        vals = np.empty(a.shape[:-1])
        vals[..., 0] = app - t * apq
        vals[..., 1] = aqq + t * apq
        vecs = np.empty_like(a)
        vecs[..., 0, 0] = vecs[..., 1, 1] = c
        vecs[..., 0, 1] = s
        vecs[..., 1, 0] = 0.0 - s
        return vals, vecs
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"LAPACK eigensolver failed: {exc}") from exc
    # eigh passes NaN through silently, and a NaN smallest eigenvalue
    # would pass a closed-cone test of the form ``mn < -margin``
    if not np.isfinite(w).all():
        raise EigenConvergenceError("eigensolver returned a non-finite eigenvalue")
    return w, v


def _scalar(x):
    """A 0-d result as a Python float (numpy 2 reprs its scalars as ``np.float64(...)``)."""
    return float(x) if x.ndim == 0 else x


def spectral_decomposition(x: SymMatrix) -> Spectrum:
    """Spectral decomposition with eigenvalues sorted descending."""
    w, v = _jacobi(x.mat)
    order = np.argsort(-w, kind="stable")
    return Spectrum(tuple(float(t) for t in w[order]), v[:, order])


def _power_parts(a: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """a^alpha, symmetrized as SymMatrix symmetrizes, and the powered eigenvalues."""
    w, v = _jacobi(a)
    if w.min() <= 0.0:
        raise ConeMembershipError(
            f"cone element has non-positive eigenvalue {w.min():.3e}; certificate is stale"
        )
    pw = w**alpha
    return sym_raw((v * pw[..., None, :]) @ v.swapaxes(-1, -2)), pw


def power_raw(a: np.ndarray, alpha: float) -> np.ndarray:
    """Spectral power of a raw positive definite array, or of each in a stack, as ``power`` has it."""
    return _power_parts(a, alpha)[0]


def power(x: ConeElement, alpha: float) -> ConeElement:
    """Spectral power x^alpha; covers inverse (-1), sqrt (1/2), inverse sqrt (-1/2)."""
    rec, pw = _power_parts(x.mat, alpha)
    return ConeElement(SymMatrix(rec), float(pw.min()))


def inverse(x: ConeElement) -> ConeElement:
    return power(x, -1.0)


def min_eig_raw(a: np.ndarray):
    """Smallest eigenvalue of a raw symmetric array, or of each in a ``(..., r, r)`` stack."""
    return _scalar(np.minimum.reduce(_jacobi(a)[0], axis=-1))


def _open_cone(w: np.ndarray) -> list:
    """(smallest eigenvalue, ||x|| = hypot(w), clears CONE_TOL * ||x||) of every matrix, flat.

    The policy arithmetic runs per matrix on Python floats: on the small
    stacks certified here that costs less than two numpy reductions, and
    ``math.hypot`` cannot overflow.
    """
    out = []
    for lam in w.reshape(-1, w.shape[-1]).tolist():
        mn, norm = min(lam), math.hypot(*lam)
        out.append((mn, norm, mn > CONE_TOL * norm))
    return out


def _open_cone_min(w: np.ndarray, name) -> float:
    """The smallest eigenvalue of the first matrix, if every matrix of eigenvalues ``w`` clears the margin.

    The first that does not raises ConeMembershipError named ``name(i)``,
    ``i`` its flat index in the stack: jordan's one text for a matrix outside
    the open cone.
    """
    verdicts = _open_cone(w)
    for i, (mn, norm, ok) in enumerate(verdicts):
        if not ok:
            raise ConeMembershipError(
                f"{name(i)} leaves the cone: smallest eigenvalue {mn:.3e}, norm {norm:.3e}"
            )
    return float(verdicts[0][0])


def open_cone_test(a: np.ndarray):
    """Smallest eigenvalue of a raw array, and whether it clears the open-cone margin.

    The margin is ``in_cone``'s, CONE_TOL * ||x||.  A ``(..., r, r)`` stack
    gives an array of each.
    """
    w = _jacobi(a)[0]
    mn, _, ok = zip(*_open_cone(w))
    if w.ndim == 1:
        return float(mn[0]), ok[0]
    return np.array(mn).reshape(w.shape[:-1]), np.array(ok).reshape(w.shape[:-1])


def cone_checked_raw(a: np.ndarray, name) -> np.ndarray:
    """``sym_checked_raw(a, name)`` of a raw array or stack whose every matrix clears the open-cone margin.

    The one certification of matrices from outside the package: SymMatrix's
    checks, its symmetrization and ``cone``'s margin, each run once over
    the stack.  The first matrix that fails raises, named ``name(i)``.
    """
    a = sym_checked_raw(a, name)
    _open_cone_min(_jacobi(a)[0], name)
    return a


def inv_cone_raw(a: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a raw array (or of each in a stack) that must clear the open-cone margin.

    ``what`` names the array in the error; for a stack the error also gives
    the index of the first slot that fails.
    """
    w, v = _jacobi(a)
    stack = w.shape[:-1]
    _open_cone_min(w, lambda i: f"{what} (stack index {tuple(map(int, np.unravel_index(i, stack)))})"
                   if stack else what)
    inv = (v / w[..., None, :]) @ v.swapaxes(-1, -2)
    return (inv + inv.swapaxes(-1, -2)) / 2.0


def frob_norm(x):
    """sqrt(trace(x^2)) of a SymMatrix, ConeElement or raw array, at any scale.

    A ``(..., r, r)`` stack gives an array of norms.  Each matrix is scaled
    by the power of two that brings its largest entry into [1/2, 1), which
    is exact, so no RuntimeWarning is raised and, wherever squaring the
    entries could neither overflow nor underflow, the result is bit for bit
    sqrt((a*a).sum()).
    """
    a = _mat_of(x)
    e = np.frexp(np.maximum.reduce(np.abs(a), axis=(-2, -1)))[1]
    b = np.ldexp(a, -e[..., None, None])
    return _scalar(np.ldexp(np.sqrt(np.add.reduce(b * b, axis=(-2, -1))), e))


def in_cone(x: SymMatrix) -> Optional[ConeElement]:
    """Certify x as positive definite, or return None.

    Membership needs the smallest eigenvalue to clear CONE_TOL * ||x||, a
    strict relative margin: it keeps downstream Cholesky factorizations
    well-conditioned and gives s * x the verdict of x at every scale s > 0.
    """
    try:
        return cone(x)
    except ConeMembershipError:
        return None


def cone(x: SymMatrix, what: str = "matrix") -> ConeElement:
    """Like in_cone but raising ConeMembershipError, naming ``what``, on the negative answer."""
    return ConeElement(x, _open_cone_min(_jacobi(x.mat)[0], lambda i: what))


def closed_cone_test(d: np.ndarray):
    """Smallest eigenvalue of d, and whether it is below -ASSERT_TOL * (1 + ||d||).

    Takes one matrix or a ``(..., r, r)`` stack, which gives arrays.  The
    margin is absolute below norm one on purpose: consecutive w_k of a
    converged tail differ by rounding noise near zero, which a relative
    margin would count as breaches of the closed cone.
    """
    mn = min_eig_raw(d)
    return mn, mn < -ASSERT_TOL * (1.0 + frob_norm(d))


def eigenvalues_dominate(a: SymMatrix, b: SymMatrix) -> bool:
    """Whether the ascending eigenvalues of a reach those of b (in the cone), within ASSERT_TOL."""
    lo = np.sort(_jacobi(b.mat)[0]) * (1.0 - ASSERT_TOL)
    return bool((np.sort(_jacobi(a.mat)[0]) >= lo).all())


def rel_residual(a, b):
    """Frobenius distance scaled by 1 + the larger operand norm; matching stacks give an array."""
    am, bm = _mat_of(a), _mat_of(b)
    return _scalar(np.asarray(frob_norm(am - bm) / (1.0 + np.maximum(frob_norm(am), frob_norm(bm)))))


def to_json_dict(x) -> dict:
    """JSON matrix encoding: {"r": size, "data": row-major entries}."""
    a = _mat_of(x)
    return {"r": int(a.shape[0]), "data": [[float(t) for t in row] for row in a]}


def _json_checked(items: list) -> int:
    """The size r of JSON matrix encodings that are all ``{"r": r, "data": r rows of r numbers}``.

    Otherwise ValueError, for one item ``from_json_raw``'s.  Booleans are not numbers here.
    """
    if not all(isinstance(d, dict) and type(d.get("r")) is int and isinstance(d.get("data"), list) for d in items):
        raise ValueError('expected a matrix {"r": size, "data": [rows]}')
    r = items[0]["r"]
    rows = [row for d in items for row in d["data"]]
    if (any(d["r"] != r or len(d["data"]) != r for d in items)
            or not all(isinstance(row, list) and len(row) == r for row in rows)):
        raise ValueError(f"matrix data does not match declared size r={r}")
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        raise ValueError("matrix entries must be numbers")
    return r


def from_json_raw(d: dict) -> np.ndarray:
    """The JSON matrix encoding as a square array; any other shape (true/false too) raises ValueError."""
    _json_checked([d])
    return _as_square_float(d["data"])


def from_json_stack(items: list):
    """JSON matrix encodings as one ``(len(items), r, r)`` array, checked in one pass over them all.

    Otherwise the items are read one by one with ``from_json_raw``: the
    first malformed item raises its error, and well-formed items of
    different sizes come back as a list of arrays.
    """
    try:
        if items and _json_checked(items) > 0:
            return np.array([d["data"] for d in items], dtype=float)
    except (ValueError, OverflowError):
        pass  # a malformed item, mixed sizes or an integer beyond the double range: named below
    return [from_json_raw(d) for d in items]
