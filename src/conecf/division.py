"""Cholesky division algorithm on the positive definite cone.

Every y in the open cone factors uniquely as y = l l^T with l lower
triangular and positive diagonal; l is the triangular-group element
carrying the identity to y.  The four congruence maps supported here are

    plain      x -> l x l^T          (multiplication by y)
    star       x -> l^T x l          (its adjoint under the trace inner product)
    inv        x -> l^{-1} x l^{-T}  (division by y)
    star_inv   x -> l^{-T} x l^{-1}

The inverse modes run forward/back substitution against the factor;
forming an explicit inverse matrix is deliberately not done anywhere in
this module, which keeps the plain/inv round trip exact to working
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .jordan import (
    ConeElement,
    ConeMembershipError,
    SymMatrix,
    in_cone,
    power,
    quad_rep_apply,
)

__all__ = [
    "MODES",
    "TriangularFactor",
    "cholesky",
    "chol_raw",
    "pi_raw",
    "pi_apply",
    "pi_signed_apply",
    "quad_div",
]

MODES = ("plain", "star", "inv", "star_inv")


@dataclass(frozen=True, eq=False)
class TriangularFactor:
    """Lower triangular matrix with strictly positive diagonal."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.mat, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if np.abs(np.triu(a, 1)).max(initial=0.0) != 0.0:
            raise ValueError("factor has entries above the diagonal")
        if not (np.diagonal(a) > 0.0).all():
            raise ValueError("factor diagonal must be strictly positive")
        a.flags.writeable = False
        object.__setattr__(self, "mat", a)

    @property
    def r(self) -> int:
        return self.mat.shape[0]

    def apply_to_identity(self) -> SymMatrix:
        """l l^T, the cone element this factor represents."""
        return SymMatrix(self.mat @ self.mat.T)


def _chol_raw(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ConeMembershipError(
            "Cholesky hit a non-positive pivot; the input is mis-certified, "
            "re-check it with in_cone"
        ) from exc


def cholesky(y: ConeElement) -> TriangularFactor:
    """Lower triangular l with l l^T = y and positive diagonal."""
    return TriangularFactor(_chol_raw(y.mat))


def _pi_raw(l: np.ndarray, x: np.ndarray, mode: str) -> np.ndarray:
    """Apply one congruence mode for the factor l to a raw array."""
    if mode == "plain":
        return l @ x @ l.T
    if mode == "star":
        return l.T @ x @ l
    if mode == "inv":
        w = solve_triangular(l, x, lower=True, check_finite=False)
        return solve_triangular(l, w.T, lower=True, check_finite=False).T
    if mode == "star_inv":
        w = solve_triangular(l, x, lower=True, trans=1, check_finite=False)
        return solve_triangular(l, w.T, lower=True, trans=1, check_finite=False).T
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


# Public names of the array-level kernels, for the evaluators' raw-array loops.
chol_raw, pi_raw = _chol_raw, _pi_raw


def pi_apply(y, x: SymMatrix, mode: str) -> SymMatrix:
    """Triangular multiplication/division of x by y.

    ``y`` may be a certified ConeElement (factored here per call) or a
    TriangularFactor when the caller has already factored it; continued
    fraction evaluators use the prefactored path.
    """
    if isinstance(y, TriangularFactor):
        l = y.mat
    elif isinstance(y, ConeElement):
        l = _chol_raw(y.mat)
    else:
        raise TypeError(f"expected ConeElement or TriangularFactor, got {type(y).__name__}")
    if l.shape[0] != x.r:
        raise ValueError(f"dimension mismatch: {l.shape[0]} vs {x.r}")
    return SymMatrix(_pi_raw(l, x.mat, mode))


def pi_signed_apply(y_signed: SymMatrix, x: SymMatrix, mode: str) -> SymMatrix:
    """Extension of the congruence maps to arguments with +/- y positive definite."""
    c = in_cone(y_signed)
    if c is not None:
        return pi_apply(c, x, mode)
    c = in_cone(SymMatrix(-y_signed.mat))
    if c is not None:
        return SymMatrix(-pi_apply(c, x, mode).mat)
    raise ConeMembershipError(
        "neither the argument nor its negation is positive definite"
    )


def quad_div(y: ConeElement, x: SymMatrix) -> SymMatrix:
    """The quadratic-representation quotient of x by y: P(y^{-1/2}) x."""
    if y.r != x.r:
        raise ValueError(f"dimension mismatch: {y.r} vs {x.r}")
    return quad_rep_apply(power(y, -0.5).m, x)
