"""Continued fractions over the positive definite cone.

Two convergent evaluators are provided: the general form K(x_n / y_n)
built on the Cholesky division maps, and the ordinary form K(e / a_n)
built from additions and inversions alone, together with the transform
taking the first to the second.  For unit partial denominators the chain
[x_1, ..., x_k] gets its own evaluator plus the machinery that controls
its convergence: the alternating differences w_k, the two-step inverse
difference F_k in both its literal and operator-product forms, the tail
correction vectors u_k and H, and the cone automorphism Q_k whose image
of x_{k+2}^{-1} equals the jump w_{k+1}^{-1} - w_k^{-1}.

Evaluation conventions, applied throughout:

* Single convergents are evaluated tail first - the innermost level is
  computed and the recursion unwinds outward.  One kernel, ``_suffixes``,
  holds that backward recursion: in one pass it returns every suffix value
  K_{i=j+1..n}(x_i / y_i), in the working precision of its arrays.  The
  general evaluator, the unit chain and its oracles, and the operator
  chains of F_k, u_k and Q_k all read their brackets from it.
  ``cf_ordinary`` alone keeps its own loop: it is built from additions and
  inversions only, as the independent oracle that ``cf_general`` is
  checked against.
* Traces run forward, once over the levels (``_differences``).  The level
  map g_n(X) = l_n (y_n + X)^{-1} l_n^T is the linear-fractional map of
  M_n = [[0, l_n], [l_n^{-T}, l_n^{-T} y_n]], and the convergents of a
  prefix P_k = M_1 ... M_k = [[A, B], [C, D]] need only its bottom block
  row.  Normalised as D^{-1} [C, D] = [T_k, e], that row obeys the
  cone-valued recurrence T_k = (y_k + l_k^T T_{k-1} l_k)^{-1}, T_0 = 0,
  and with G_k = D^{-1} = T_k l_k^T G_{k-1} the differences are
  w_k = V^T T_{k+1} V, V = l_{k+1}^T G_k.  Nothing is subtracted, so w_k
  keeps its relative precision long after consecutive convergents agree
  to every digit; convergents are the partial sums
  R_{k+1} = R_k + (-1)^k w_k.
* Operator products are ordered lists of primitive maps applied right to
  left.  The adjoint of a product is the reversed list with each
  primitive replaced by its adjoint (plain <-> star, inv <-> star_inv,
  quadratic maps are self-adjoint).  Dense operator matrices are never
  formed.
* Every matrix that gets inverted is first checked against the open-cone
  margin (or, for signed differences, against exact invertibility), so a
  numerically singular input fails loudly instead of propagating junk.

Single-shot evaluators enforce a hard depth cap of 64: at that depth the
all-ones scalar chain is already converged to machine precision and the
w_k underflow, so deeper identity evaluation is meaningless.  Long traces
for convergence experiments go through ``trace_cf``, which has no cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .division import chol_raw as _chol_raw
from .division import pi_raw as _pi_raw
from .jordan import (
    ConeElement,
    ConeMembershipError,
    SymMatrix,
    cone,
    frob_norm,
    inv_cone_raw,
    inv_sym_raw,
    min_eig_raw,
    rel_residual,
)

__all__ = [
    "DEPTH_CAP",
    "CFSequence",
    "TraceRecord",
    "ConvergentTrace",
    "cf_general",
    "cf_ordinary",
    "to_ordinary",
    "bracket",
    "w_seq",
    "f_direct",
    "jump_direct",
    "f_closed",
    "u_vec",
    "q_apply",
    "trace_cf",
]

DEPTH_CAP = 64

# Adjoints of the primitive map kinds; quadratic maps are self-adjoint.
_ADJOINT = {"plain": "star", "star": "plain", "inv": "star_inv", "star_inv": "inv", "quad": "quad"}


@dataclass(frozen=True, eq=False)
class CFSequence:
    """Partial numerators x_n, optional partial denominators y_n, optional head y_0.

    ``ys is None`` means every partial denominator is the identity (the
    unit-quotient case).
    """

    xs: tuple[ConeElement, ...]
    ys: Optional[tuple[ConeElement, ...]] = None
    head: Optional[ConeElement] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", tuple(self.xs))
        if len(self.xs) == 0:
            raise ValueError("a continued fraction needs at least one partial numerator")
        r = self.xs[0].r
        if any(x.r != r for x in self.xs):
            raise ValueError("partial numerators have mixed sizes")
        if self.ys is not None:
            object.__setattr__(self, "ys", tuple(self.ys))
            if len(self.ys) != len(self.xs):
                raise ValueError(
                    f"need as many denominators as numerators, got {len(self.ys)} vs {len(self.xs)}"
                )
            if any(y.r != r for y in self.ys):
                raise ValueError("partial denominators have mixed sizes")
        if self.head is not None and self.head.r != r:
            raise ValueError("head size does not match the sequence")

    @property
    def r(self) -> int:
        return self.xs[0].r

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True, eq=False)
class TraceRecord:
    """One convergent R_k with its forward difference data, where defined."""

    k: int
    convergent: SymMatrix
    w: Optional[SymMatrix] = None
    delta_norm: Optional[float] = None
    w_min_eig: Optional[float] = None


@dataclass(frozen=True, eq=False)
class ConvergentTrace:
    """Indexed record of convergents for analysis and CSV export."""

    records: tuple[TraceRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        ks = [rec.k for rec in self.records]
        if ks and (ks[0] != 1 or any(b <= a for a, b in zip(ks, ks[1:]))):
            raise ValueError("trace indices must be strictly increasing from 1")

    def csv_text(self) -> str:
        """Rows ``k,delta_norm,wk_norm,in_cone_margin``; blank cells where undefined."""
        lines = ["k,delta_norm,wk_norm,in_cone_margin"]
        for rec in self.records:
            delta = "" if rec.delta_norm is None else repr(rec.delta_norm)
            if rec.w is None:
                wnorm = margin = ""
            else:
                wnorm = repr(frob_norm(rec.w))
                margin = "" if rec.w_min_eig is None else repr(rec.w_min_eig)
            lines.append(f"{rec.k},{delta},{wnorm},{margin}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# raw helpers
# ---------------------------------------------------------------------------


def _apply_chain(chain, x: np.ndarray) -> np.ndarray:
    """Apply an ordered product of primitives to x, rightmost primitive first."""
    for kind, arg in reversed(chain):
        if kind == "quad":
            x = arg @ x @ arg
        else:
            x = _pi_raw(arg, x, kind)
    return x


def _adjoint_chain(chain):
    return [(_ADJOINT[kind], arg) for kind, arg in reversed(chain)]


def _check_index(k: int, have: int, least: int = 1) -> None:
    if not least <= k <= have:
        raise ValueError(f"index {k} out of range [{least}, {have}]")
    if k > DEPTH_CAP:
        raise ValueError(f"depth {k} exceeds the hard cap {DEPTH_CAP}")


def _innermost(arrs, ls, ys, n: int) -> np.ndarray:
    """g_n(0), the value of level n alone: x_n, or the inverse of star_inv(l_n, y_n).

    The quotient is checked finite before it is certified, so an overflow
    names its level instead of surfacing as an eigensolver failure.
    """
    if ys is None:
        return arrs[n - 1]
    quotient = _pi_raw(ls[n - 1], ys[n - 1], "star_inv")
    if not np.isfinite(quotient).all():
        raise ArithmeticError(f"innermost quotient at level {n} overflows")
    return inv_cone_raw(quotient, f"innermost quotient (level {n})")


def _suffixes(
    arrs: Sequence[np.ndarray],
    ls: Sequence[np.ndarray],
    ys: Optional[Sequence[np.ndarray]],
    n: int,
) -> list:
    """Every suffix value S[j] = K_{i=j+1..n}(x_i / y_i), j = 0..n-1, in one backward pass.

    ``ls`` are the Cholesky factors of ``arrs``; ``ys is None`` means every
    denominator is the identity.  The innermost level is ``_innermost``'s.
    Only the first n entries are read, and the dtype of the arrays is
    kept, so the extended-precision oracles run through the same recursion.
    """
    acc = _innermost(arrs, ls, ys, n)
    if ys is None:
        ys = [np.eye(acc.shape[0], dtype=acc.dtype)] * n
    S: list = [None] * n
    S[n - 1] = acc
    for j in range(n - 2, -1, -1):
        acc = _pi_raw(ls[j], inv_cone_raw(ys[j] + acc, f"denominator at level {j + 1}"), "plain")
        S[j] = acc
    return S


def _level_arrays(seq: CFSequence, n: int):
    """Raw numerators, their Cholesky factors and raw denominators (or None) of levels 1..n."""
    xs = [x.mat for x in seq.xs[:n]]
    ys = [y.mat for y in seq.ys[:n]] if seq.ys is not None else None
    return xs, [_chol_raw(x) for x in xs], ys


def _chol_extended(a: np.ndarray) -> np.ndarray:
    """Unpivoted Cholesky in extended precision, for oracle-grade evaluation."""
    n = a.shape[0]
    l = np.zeros((n, n), dtype=np.longdouble)
    for i in range(n):
        for j in range(i + 1):
            acc = a[i, j] - (l[i, :j] * l[j, :j]).sum()
            if j == i:
                if acc <= 0.0:
                    raise ConeMembershipError(
                        f"non-positive pivot {float(acc):.3e} in extended-precision Cholesky"
                    )
                l[i, j] = np.sqrt(acc)
            else:
                l[i, j] = acc / l[j, j]
    return l


# ---------------------------------------------------------------------------
# convergent evaluators
# ---------------------------------------------------------------------------


def cf_general(seq: CFSequence, n: int) -> SymMatrix:
    """The n-th convergent of K(x_n / y_n), evaluated tail first.

    Every matrix inverted along the way is verified inside the open cone;
    a breach raises ConeMembershipError.
    """
    _check_index(n, len(seq.xs))
    acc = _suffixes(*_level_arrays(seq, n), n)[0]
    if seq.head is not None:
        acc = seq.head.mat + acc
    return SymMatrix(acc)


def cf_ordinary(y0, a: Sequence, n: int) -> SymMatrix:
    """The n-th convergent of an ordinary continued fraction.

    Built backward from additions and inversions only; no division maps
    are applied.  ``y0`` may be None (treated as zero), and the terms may
    be ConeElement or SymMatrix values.
    """
    _check_index(n, len(a))
    arrs = [v.mat for v in a[:n]]
    acc = np.zeros_like(arrs[0])
    for j in range(n - 1, -1, -1):
        acc = inv_cone_raw(arrs[j] + acc, f"ordinary term at level {j + 1}")
    if y0 is not None:
        acc = y0.mat + acc
    return SymMatrix(acc)


def to_ordinary(seq: CFSequence) -> list[SymMatrix]:
    """Terms (a_0, a_1, ..., a_n) of the equivalent ordinary continued fraction.

    a_m applies an alternating composition of the division maps of
    x_1, ..., x_m to y_m: position i carries star_inv when i and m have
    equal parity and plain otherwise, so the innermost factor is always
    the star_inv of x_m.  The binding contract is the convergent-by-
    convergent agreement with ``cf_general``.
    """
    n = len(seq.xs)
    _check_index(n, n)
    r = seq.r
    _, ls, ys = _level_arrays(seq, n)
    if ys is None:
        ys = [np.eye(r)] * n
    out = [seq.head.m if seq.head is not None else SymMatrix(np.zeros((r, r)))]
    for m in range(1, n + 1):
        v = ys[m - 1]
        for i in range(m, 0, -1):
            mode = "star_inv" if (i - m) % 2 == 0 else "plain"
            v = _pi_raw(ls[i - 1], v, mode)
        out.append(SymMatrix(v))
    return out


def bracket(xs: Sequence[ConeElement], k: int) -> ConeElement:
    """The unit chain [x_1, ..., x_k], certified in the cone.

    [x_1] = x_1 and [x_1, ..., x_k] = (mult by x_1)(e + [x_2, ..., x_k])^{-1},
    evaluated backward.
    """
    _check_index(k, len(xs))
    if k == 1:
        return xs[0]
    return cone(cf_general(CFSequence(tuple(xs[:k])), k))


def w_seq(xs: Sequence[ConeElement], n: int) -> list[ConeElement]:
    """Alternating differences w_k = (-1)^{k+1}([x_1..x_k] - [x_1..x_{k+1}]), k < n.

    Each difference is certified in the cone (the sign alternation makes
    it positive definite); a certification failure means the alternation
    was breached numerically and raises with diagnostics.  The telescoping
    partial-sum identity [x_1..x_n] = x_1 + sum_k (-1)^k w_k is asserted
    to 1e-10 against the tail-first ``cf_general`` before returning.
    """
    if n < 2:
        raise ValueError("need n >= 2 to form a difference")
    _check_index(n, len(xs))
    seq = CFSequence(tuple(xs[:n]))
    records = trace_cf(seq, n, with_cone_margins=False).records
    ws = [cone(rec.w, f"signed difference w_{rec.k}") for rec in records[:-1]]
    resid = rel_residual(records[-1].convergent, cf_general(seq, n))
    if resid > 1e-10:
        raise ArithmeticError(
            f"partial-sum identity residual {resid:.3e} exceeds 1e-10 at n={n}"
        )
    return ws


# ---------------------------------------------------------------------------
# two-step inverse differences and the operator identities
# ---------------------------------------------------------------------------


def f_direct(xs: Sequence[ConeElement], k: int) -> SymMatrix:
    """Literal two-step inverse difference

        ( [x_1..x_k]^{-1} - [x_1..x_{k+1}]^{-1} )^{-1}
      + ( [x_1..x_{k+1}]^{-1} - [x_1..x_{k+2}]^{-1} )^{-1}

    computed straight from brackets and matrix inverses.  This is the
    ground-truth oracle for ``f_closed``, so it runs internally in
    extended precision: consecutive brackets agree to many digits once
    the chain starts converging, and the subtractive cancellation in
    double precision would otherwise eat the comparison tolerance.
    """
    B = _extended_brackets(xs, k)
    iB = [inv_cone_raw(b, f"bracket at depth {m}") for b, m in zip(B, (k, k + 1, k + 2))]
    first = inv_sym_raw(iB[0] - iB[1], "first inverse difference")
    second = inv_sym_raw(iB[1] - iB[2], "second inverse difference")
    return SymMatrix(np.asarray(first + second, dtype=np.float64))


def jump_direct(xs: Sequence[ConeElement], k: int) -> SymMatrix:
    """Literal jump w_{k+1}^{-1} - w_k^{-1}, computed from brackets in extended precision.

    The ground-truth oracle for ``q_apply`` at v = x_{k+2}^{-1}, kept in
    extended precision for the same cancellation reason as ``f_direct``.
    """
    B = _extended_brackets(xs, k)
    sign_k = 1.0 if k % 2 == 1 else -1.0
    w_k = sign_k * (B[0] - B[1])
    w_k1 = -sign_k * (B[1] - B[2])
    jump = inv_cone_raw(w_k1, "w_{k+1}") - inv_cone_raw(w_k, "w_k")
    return SymMatrix(np.asarray(jump, dtype=np.float64))


def _extended_brackets(xs: Sequence[ConeElement], k: int) -> list:
    """[x_1..x_m] for m = k, k+1, k+2, in extended precision."""
    if np.finfo(np.longdouble).eps > 1e-18:
        # where longdouble is double, the oracles would silently lose their margin
        raise ArithmeticError(
            "np.longdouble is no wider than double on this platform; "
            "the extended-precision oracles need at least 64 mantissa bits"
        )
    if k < 1:
        raise ValueError("need k >= 1")
    _check_index(k + 2, len(xs))
    arrs = [x.mat.astype(np.longdouble) for x in xs[: k + 2]]
    ls = [_chol_extended(a) for a in arrs]
    return [_suffixes(arrs, ls, None, m)[0] for m in (k, k + 1, k + 2)]


def _u_raw(
    zarrs: Sequence[np.ndarray], zls: Sequence[np.ndarray], m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tail correction pair (H, u) at index m over the m+1 leading entries.

    H = e + sum_{i=0}^{m-3} (-1)^{i+1} ( prod_{j=0}^{i} star(z_{m-j}) o
        quad((e + [z_{m-j}..z_m])^{-1}) ) (e + [z_{m-i}..z_m])

    with the largest-j factor acting first, and u = e + star(z_{m+1}) H.
    The sum is evaluated literally, term by term.
    """
    r = zarrs[0].shape[0]
    e = np.eye(r)
    T = _suffixes(zarrs, zls, None, m)  # T[j] = [z_{j+1} .. z_m]
    inv_cache: dict[int, np.ndarray] = {}
    H = e.copy()
    for i in range(0, m - 2):
        v = e + T[m - i - 1]
        for j in range(i, -1, -1):
            start = m - j  # 1-based start of [z_{m-j} .. z_m]
            q = inv_cache.get(start)
            if q is None:
                q = inv_cone_raw(e + T[start - 1], "unit tail denominator")
                inv_cache[start] = q
            v = q @ v @ q
            v = _pi_raw(zls[start - 1], v, "star")
        H = H + ((-1.0) ** (i + 1)) * v
    u = e + _pi_raw(zls[m], H, "star")
    return (H + H.T) / 2.0, (u + u.T) / 2.0


def u_vec(xs: Sequence[ConeElement], k: int) -> ConeElement:
    """Tail correction vector u_k(x_1, ..., x_{k+1}), certified in the cone.

    The inner factor H must itself be positive definite; if the literal
    alternating sum breaches that, evaluation aborts with diagnostics
    instead of returning a junk certificate.
    """
    if k < 3:
        raise ValueError("need k >= 3 (the inner sum starts at i = 0 <= k - 3)")
    _check_index(k + 1, len(xs))
    zarrs = [x.mat for x in xs[: k + 1]]
    zls = [_chol_raw(a) for a in zarrs]
    H, u = _u_raw(zarrs, zls, k)
    cone(SymMatrix(H), f"tail correction H at k={k}")
    return cone(SymMatrix(u), f"u_{k}")


def _f_closed_chain(arrs, ls, k: int):
    """Operator chain and sign for the closed two-step inverse difference."""
    r = arrs[0].shape[0]
    e = np.eye(r)
    if k == 1:
        return [("plain", ls[0]), ("star_inv", ls[1]), ("star_inv", ls[2])], 1.0
    S = _suffixes(arrs, ls, None, k)
    chain = [("plain", ls[0])]
    for i in range(2, k):
        chain.append(("star_inv", ls[i - 1]))
        chain.append(("quad", e + S[i]))
    _, u = _u_raw(arrs[: k + 1], ls[: k + 1], k)
    chain += [("star_inv", ls[k - 1]), ("star_inv", ls[k]), ("quad", u), ("star_inv", ls[k + 1])]
    return chain, (-1.0) ** (k + 1)


def f_closed(xs: Sequence[ConeElement], k: int) -> SymMatrix:
    """Closed operator-product form of the two-step inverse difference.

    Equals ``f_direct`` on the same arguments; the acceptance suite holds
    them together to 1e-8 relative.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    _check_index(k + 2, len(xs))
    arrs = [x.mat for x in xs[: k + 2]]
    ls = [_chol_raw(a) for a in arrs]
    chain, sign = _f_closed_chain(arrs, ls, k)
    e = np.eye(arrs[0].shape[0])
    return SymMatrix(sign * _apply_chain(chain, e))


def _q_chain(xs: Sequence[ConeElement], k: int):
    """Operator chain for the jump automorphism Q_k."""
    arrs = [x.mat for x in xs[: k + 2]]
    ls = [_chol_raw(a) for a in arrs]
    r = arrs[0].shape[0]
    e = np.eye(r)
    zarrs = [e] + arrs[: k + 1]
    zls = [np.eye(r)] + ls[: k + 1]
    H, u = _u_raw(zarrs, zls, k + 1)
    cone(SymMatrix(H), f"unit-led tail correction H at k={k}")
    S = _suffixes(arrs, ls, None, k)
    chain = []
    for i in range(1, k):
        chain.append(("star_inv", ls[i - 1]))
        chain.append(("quad", e + S[i]))
    chain += [("star_inv", ls[k - 1]), ("star_inv", ls[k]), ("quad", u)]
    return chain


def q_apply(xs: Sequence[ConeElement], k: int, v: ConeElement, adjoint: bool = False) -> SymMatrix:
    """Apply the jump automorphism Q_k (or its adjoint) to v.

    With ``adjoint=False`` and v = x_{k+2}^{-1} the result equals
    w_{k+1}^{-1} - w_k^{-1}.  For v in the cone, each eigenvalue of the
    adjoint image, in ascending order, is at least the matching eigenvalue
    of the division of v by x_1 (``pi_apply(x_1, v, "inv")``), so its
    smallest eigenvalue stays above that division's, which is what pins the
    jumps away from zero.  The cone-order form of that bound holds at rank
    1 only: at rank >= 2 the factors rotate eigenvectors and the difference
    can be indefinite.
    """
    if k < 2:
        raise ValueError("need k >= 2 (the unit-led tail correction needs it)")
    _check_index(k + 2, len(xs))
    if v.r != xs[0].r:
        raise ValueError(f"dimension mismatch: {v.r} vs {xs[0].r}")
    chain = _q_chain(xs, k)
    if adjoint:
        chain = _adjoint_chain(chain)
    return SymMatrix(_apply_chain(chain, v.mat))


# ---------------------------------------------------------------------------
# trace building
# ---------------------------------------------------------------------------


def _differences(ls: Sequence[np.ndarray], ys: Optional[Sequence[np.ndarray]], depth: int) -> list:
    """w_1 .. w_{depth-1} in one forward pass over the normalised transfer row [T_k, e].

    T_k = (y_k + l_k^T T_{k-1} l_k)^{-1} is certified before each
    inversion; G_k = T_k l_k^T G_{k-1} is kept as 2^-E times its value, with
    its largest entry in [1/2, 1), so neither it nor w_k = 2^{2E} V^T T_{k+1} V,
    V = l_{k+1}^T G_k, leaves the double range before w_k itself does.
    """
    r = ls[0].shape[0]
    if ys is None:
        ys = [np.eye(r)] * depth
    t, g, exp2 = np.zeros((r, r)), np.eye(r), 0
    ws = []
    for k in range(1, depth + 1):
        l = ls[k - 1]
        t = inv_cone_raw(ys[k - 1] + l.T @ t @ l, f"transfer denominator at level {k}")
        v = l.T @ g
        g = t @ v
        if k > 1:
            ws.append(np.ldexp(v.T @ g, 2 * exp2))
        e = math.frexp(float(np.abs(g).max()))[1]
        g, exp2 = np.ldexp(g, -e), exp2 + e
    return ws


def trace_cf(seq: CFSequence, depth: int, with_cone_margins: bool = True) -> ConvergentTrace:
    """Convergents R_1..R_depth with forward differences, for analysis/export.

    Uncapped in depth, and linear in it: one forward pass gives every
    difference w_k = (-1)^{k+1}(R_k - R_{k+1}) without subtracting, and the
    convergents are its partial sums from R_1, which is evaluated as
    ``cf_general`` evaluates it.  For unit partial denominators w_k is a
    cone element and ``w_min_eig`` reports its margin.
    """
    if not 1 <= depth <= len(seq.xs):
        raise ValueError(f"depth {depth} out of range [1, {len(seq.xs)}]")
    xs, ls, ys = _level_arrays(seq, depth)
    conv = _innermost(xs, ls, ys, 1)
    if seq.head is not None:
        conv = seq.head.mat + conv
    ws = _differences(ls, ys, depth)

    records = []
    for k in range(1, depth + 1):
        w = delta = margin = None
        if k < depth:
            w = SymMatrix(ws[k - 1])
            delta = frob_norm(w)
            margin = min_eig_raw(w.mat) if with_cone_margins else None
        records.append(
            TraceRecord(k=k, convergent=SymMatrix(conv), w=w, delta_norm=delta, w_min_eig=margin)
        )
        if w is not None:
            conv = conv + (-1.0 if k % 2 == 1 else 1.0) * w.mat
    return ConvergentTrace(tuple(records))
