"""Cholesky division algorithm on the positive definite cone.

Every y in the open cone factors uniquely as y = l l^T with l lower
triangular and positive diagonal; l is the triangular-group element
carrying the identity to y.  The four congruence maps supported here are

    plain      x -> l x l^T          (multiplication by y)
    star       x -> l^T x l          (its adjoint under the trace inner product)
    inv        x -> l^{-1} x l^{-T}  (division by y)
    star_inv   x -> l^{-T} x l^{-1}

The inverse modes run forward/back substitution against the factor;
no congruence forms an explicit inverse matrix, which keeps the plain/inv
round trip exact to working precision.  Every map takes one matrix or a
``(..., r, r)`` stack.  ``chol_inv_raw`` inverts a matrix through its own
factor, for the ordinary continued fraction, whose terms the factor
certifies.
"""

from __future__ import annotations

import numpy as np

from .jordan import ConeElement, ConeMembershipError, SymMatrix

__all__ = ["MODES", "chol_raw", "chol_inv_raw", "pi_raw", "pi_apply"]

MODES = ("plain", "star", "inv", "star_inv")


def _chol_raw(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ConeMembershipError(
            "Cholesky hit a non-positive pivot; the input is mis-certified, "
            "re-check it with in_cone"
        ) from exc


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _substitute(l: np.ndarray, b: np.ndarray, transposed: bool) -> np.ndarray:
    """l^{-1} b by forward substitution, or l^{-T} b by back substitution.

    One row of the solution per step, each row a vector across the stack,
    so ``l`` and ``b`` may be matching ``(..., r, r)`` stacks.
    """
    r = l.shape[-1]
    t = _t(l) if transposed else l
    out = np.array(b, dtype=np.result_type(l, b), order="C")
    for step, i in enumerate(range(r - 1, -1, -1) if transposed else range(r)):
        solved = slice(i + 1, r) if transposed else slice(0, i)
        row = out[..., i : i + 1, :]
        if step:
            row -= t[..., i : i + 1, solved] @ out[..., solved, :]
        row /= t[..., i : i + 1, i : i + 1]
    return out


def _pi_raw(l: np.ndarray, x: np.ndarray, mode: str) -> np.ndarray:
    """Apply one congruence mode for the factor l to a raw array or stack.

    An inverse-mode quotient that overflows comes back non-finite, without
    a floating-point warning: the evaluators test it and name its level.
    """
    if mode == "plain":
        return l @ x @ _t(l)
    if mode == "star":
        return _t(l) @ x @ l
    if mode in ("inv", "star_inv"):
        transposed = mode == "star_inv"
        with np.errstate(over="ignore", invalid="ignore"):
            return _t(_substitute(l, _t(_substitute(l, x, transposed)), transposed))
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


# Public names of the array-level kernels, for the evaluators' raw-array loops.
chol_raw, pi_raw = _chol_raw, _pi_raw


def chol_inv_raw(a: np.ndarray, what: str) -> np.ndarray:
    """a^{-1} = l^{-T} l^{-1} of a raw array, or of each in a stack, certified by its Cholesky factor l.

    The certificate is that l exists and that l and the inverse are finite:
    Cholesky is accurate to the condition of a scaled to a unit diagonal
    (van der Sluis 1969; Demmel 1989), which ``in_cone``'s relative margin
    does not measure.  Only the lower triangle of a is read.  ``what``
    names the array in the error, with the first failing slot of a stack.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            l = _chol_raw(a)
            m = _substitute(l, np.broadcast_to(np.eye(a.shape[-1]), a.shape), False)
            inv = _t(m) @ m
            if np.isfinite(l).all() and np.isfinite(inv).all():
                return inv
        except ConeMembershipError:
            pass
    where = ""
    for index in np.ndindex(a.shape[:-2]) if a.ndim > 2 else ():
        try:
            chol_inv_raw(a[index], what)
        except ConeMembershipError:
            where = f" (stack index {index})"
            break
    raise ConeMembershipError(f"{what}{where} has no Cholesky factor in double precision")


def pi_apply(y: ConeElement, x: SymMatrix, mode: str) -> SymMatrix:
    """Triangular multiplication/division of x by the certified element y."""
    if not isinstance(y, ConeElement):
        raise TypeError(f"expected ConeElement, got {type(y).__name__}")
    if y.r != x.r:
        raise ValueError(f"dimension mismatch: {y.r} vs {x.r}")
    return SymMatrix(_pi_raw(_chol_raw(y.mat), x.mat, mode))
