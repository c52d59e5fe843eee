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
  K_{i=j+1..n}(x_i / y_i).  The general evaluator, the unit chain and its
  oracles, and the operator chains of F_k, u_k and Q_k all read their
  brackets from it.
  ``cf_ordinary`` alone keeps its own loop: it is built from additions and
  inversions only, as the independent oracle that ``cf_general`` is
  checked against.  ``cf_depths`` runs both for every depth at once.
* The tail-first kernels take level-major stacks: indexed by level, each
  entry is one matrix or a ``(cases, r, r)`` stack, so a whole
  ``(levels, cases, r, r)`` array of independent sequences advances one
  level per call.  ``cf_general_raw``, ``to_ordinary_raw``,
  ``cf_ordinary_raw``, ``u_raw`` and ``w_seq_raw`` (case-major, like the
  trace) are those kernels; ``cf_general``, ``to_ordinary``,
  ``cf_ordinary``, ``u_vec`` and ``w_seq`` are their one-sequence cases.
  Each case of a stack gets bit for bit what it gets alone, which is
  what lets the identity suite evaluate its cases as stacks.
* Traces run forward, once over the levels, for a whole stack of
  sequences at once (``_differences``; ``trace_cf`` is its one-sequence
  case, and ``trace_differences`` certifies a raw stack of unit-quotient
  numerators and traces it, for the Monte Carlo harness).  The level
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
* The oracles ``f_direct`` and ``jump_direct`` work in double precision
  too.  They run their own forward pass over the same T_k and form
  w_k^{-1} = G_k^{-1} (x_{k+1}^{-1} + T_k) G_k^{-T} directly, so no
  difference of brackets is ever inverted.
* Operator products are ordered lists of primitive maps applied right to
  left.  The adjoint of a product is the reversed list with each
  primitive replaced by its adjoint (plain <-> star, inv <-> star_inv,
  quadratic maps are self-adjoint).  Dense operator matrices are never
  formed.
* Every matrix that gets inverted is certified first, so a numerically
  singular input fails loudly instead of propagating junk: against the
  open-cone margin, except in the ordinary pass, whose terms are badly
  scaled by construction and which inverts through a Cholesky factor
  whose existence is the certificate (``_ordinary_level``).

Single-shot evaluators enforce a hard depth cap of 64: at that depth the
all-ones scalar chain is already converged to machine precision and the
w_k underflow, so deeper identity evaluation is meaningless.  Long traces
for convergence experiments go through ``trace_cf``, which has no cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .division import chol_inv_raw as _chol_inv_raw
from .division import chol_raw as _chol_raw
from .division import pi_raw as _pi_raw
from .jordan import (
    ConeElement,
    ConeMembershipError,
    SymMatrix,
    cone,
    cone_checked_raw,
    frob_norm,
    inv_cone_raw,
    min_eig_raw,
    open_cone_test,
    rel_residual,
    sym_raw,
)

__all__ = [
    "DEPTH_CAP",
    "CFSequence",
    "OrdinaryBreakdown",
    "ConvergentTrace",
    "cf_depths",
    "cf_general",
    "cf_general_raw",
    "cf_ordinary",
    "cf_ordinary_raw",
    "to_ordinary",
    "to_ordinary_raw",
    "bracket",
    "w_seq",
    "w_seq_raw",
    "f_direct",
    "jump_direct",
    "f_closed",
    "u_vec",
    "u_raw",
    "q_apply",
    "trace_cf",
    "trace_differences",
]

DEPTH_CAP = 64

# Adjoints of the primitive map kinds; quadratic maps are self-adjoint.
_ADJOINT = {"plain": "star", "star": "plain", "inv": "star_inv", "star_inv": "inv", "quad": "quad"}


class OrdinaryBreakdown(ConeMembershipError):
    """``cf_depths``' ordinary form has no Cholesky factor first at ``depth``; shallower depths evaluated."""

    def __init__(self, message: str, depth: int) -> None:
        super().__init__(message)
        self.depth = depth


@dataclass(frozen=True, eq=False)
class CFSequence:
    """Partial numerators x_n, optional denominators y_n (None: unit) and head y_0 (None: zero).

    Given as ``(n, r, r)`` arrays or as lists of matrices (raw arrays,
    SymMatrix or ConeElement values), held as read-only arrays, ``(n, r, r)``
    or ``(r, r)``.  Certified once, here, unless all are ConeElement values,
    which carry their certificate: ``cone_checked_raw`` runs once over the
    whole sequence, and the first matrix that fails is named (``xs level 3``).
    """

    xs: np.ndarray
    ys: Optional[np.ndarray] = None
    head: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        given = {"xs": self.xs, "ys": self.ys, "head": None if self.head is None else [self.head]}
        given = {name: mats for name, mats in given.items() if mats is not None}
        n = len(given["xs"])
        if n == 0:
            raise ValueError("a continued fraction needs at least one partial numerator")
        if len(given.get("ys", given["xs"])) != n:
            raise ValueError(f"need as many denominators as numerators, got {len(given['ys'])} vs {n}")
        names = [name if name == "head" else f"{name} level {i}"
                 for name, mats in given.items() for i in range(1, len(mats) + 1)]
        # an (n, r, r) array stays whole; other lists are read matrix by matrix
        blocks = [ms if isinstance(ms, np.ndarray) and ms.ndim == 3
                  else [np.asarray(getattr(m, "mat", m), dtype=float) for m in ms] for ms in given.values()]
        first, start = blocks[0][0].shape, 0
        for block in blocks:  # before numpy could meet a ragged list
            for i, m in enumerate(block[:1] if isinstance(block, np.ndarray) else block):
                if m.shape != first or m.shape != m.shape[:1] * 2:
                    raise ValueError(f"mixed or non-square: {names[start + i]} is {m.shape}, xs level 1 {first}")
            start += len(block)
        stack = np.concatenate(blocks, dtype=float)
        if not all(isinstance(m, ConeElement) for ms in given.values() for m in ms):
            stack = cone_checked_raw(stack, names.__getitem__)
        stack.flags.writeable = False
        for i, name in enumerate(given):
            object.__setattr__(self, name, stack[-1] if name == "head" else stack[i * n : (i + 1) * n])

    @property
    def r(self) -> int:
        return self.xs.shape[-1]

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True, eq=False)
class ConvergentTrace:
    """R_1..R_depth and, for k < depth, w_k, its norm and its smallest eigenvalue, at index k - 1."""

    convergents: np.ndarray
    w: np.ndarray
    delta_norm: np.ndarray
    margins: np.ndarray

    def csv_text(self) -> str:
        """CSV rows ``k,delta_norm,wk_norm,in_cone_margin``, blank where w_k is not.

        ``delta_norm`` = ||R_{k+1} - R_k|| and ``wk_norm`` = ||w_k|| are the same number, written twice.
        """
        cells = zip(self.delta_norm.tolist(), self.margins.tolist())
        rows = [f"{k},{d!r},{d!r},{m!r}" for k, (d, m) in enumerate(cells, start=1)]
        rows.append(f"{len(self.convergents)},,,")
        return "\n".join(["k,delta_norm,wk_norm,in_cone_margin", *rows]) + "\n"


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


def _check_index(k: int, have: int) -> None:
    if not 1 <= k <= have:
        raise ValueError(f"index {k} out of range [1, {have}]")
    if k > DEPTH_CAP:
        raise ValueError(f"depth {k} exceeds the hard cap {DEPTH_CAP}")


def _innermost(x, l, y, level) -> np.ndarray:
    """g_n(0), level n's value alone, x_n or star_inv(l_n, y_n)^{-1}, of one level or a stack of them.

    The quotient is checked finite before it is certified, so an overflow
    names its ``level`` instead of surfacing as an eigensolver failure.
    """
    if y is None:
        return x
    quotient = _pi_raw(l, y, "star_inv")
    if not np.isfinite(quotient).all():
        raise ArithmeticError(f"innermost quotient at level {level} overflows")
    return inv_cone_raw(quotient, f"innermost quotient (level {level})")


def _suffixes(
    arrs: Sequence[np.ndarray],
    ls: Sequence[np.ndarray],
    ys: Optional[Sequence[np.ndarray]],
    n: int,
) -> list:
    """Every suffix value S[j] = K_{i=j+1..n}(x_i / y_i), j = 0..n-1, in one backward pass.

    Indexed by level - 1, each entry is one matrix or a ``(cases, r, r)``
    stack, so ``arrs`` may be a level-major ``(levels, cases, r, r)`` array
    and every case advances together.  ``ls`` are the Cholesky factors of
    ``arrs``; ``ys is None`` means every denominator is the identity.  The
    innermost level is ``_innermost``'s.  Only the first n entries are read.
    """
    acc = _innermost(arrs[n - 1], ls[n - 1], None if ys is None else ys[n - 1], n)
    if ys is None:
        ys = [np.eye(acc.shape[-1])] * n
    S: list = [None] * n
    S[n - 1] = acc
    for j in range(n - 2, -1, -1):
        acc = _pi_raw(ls[j], inv_cone_raw(ys[j] + acc, f"denominator at level {j + 1}"), "plain")
        S[j] = acc
    return S


# ---------------------------------------------------------------------------
# convergent evaluators
# ---------------------------------------------------------------------------


def cf_general_raw(
    xs: np.ndarray, ls: np.ndarray, ys: Optional[np.ndarray], head: Optional[np.ndarray]
) -> np.ndarray:
    """The last convergent of K(x_n / y_n) over every level given, for one sequence or a stack.

    ``xs``, their Cholesky factors ``ls`` and the denominators ``ys`` (None
    for unit denominators) are level-major ``(n, r, r)`` or
    ``(n, cases, r, r)`` arrays; ``head`` is y_0 (None for zero), one
    matrix or a ``(cases, r, r)`` stack.  Returns the n-th convergent of
    each case, symmetrized as SymMatrix symmetrizes, bit for bit what the
    case gives alone.  The first inversion outside the open cone raises,
    naming the level (and the case's stack index).
    """
    acc = _suffixes(xs, ls, ys, len(xs))[0]
    if head is not None:
        acc = head + acc
    return sym_raw(acc)


def cf_general(seq: CFSequence, n: int) -> SymMatrix:
    """The n-th convergent of K(x_n / y_n), evaluated tail first.

    Every matrix inverted along the way is verified inside the open cone;
    a breach raises ConeMembershipError.  The one-sequence case of
    ``cf_general_raw``.
    """
    _check_index(n, len(seq.xs))
    xs = seq.xs[:n]
    return SymMatrix(cf_general_raw(xs, _chol_raw(xs), None if seq.ys is None else seq.ys[:n], seq.head))


def _ordinary_level(term: np.ndarray, acc: np.ndarray, level: int) -> np.ndarray:
    """(a_j + acc)^{-1}, one level of the ordinary backward pass, certified by its Cholesky factor."""
    return _chol_inv_raw(term + acc, f"ordinary term at level {level}")


def cf_ordinary_raw(y0: Optional[np.ndarray], a: np.ndarray) -> np.ndarray:
    """The n-th convergent of an ordinary continued fraction y0 + K(e / a_n), n = len(a).

    Built backward from additions and inversions only; no division maps
    are applied.  ``a`` is a level-major ``(n, r, r)`` or
    ``(n, cases, r, r)`` array of terms and ``y0`` one matrix, a
    ``(cases, r, r)`` stack or None (zero).  Each case's result,
    symmetrized as SymMatrix symmetrizes, is bit for bit what it gives
    alone; a level whose matrix has no Cholesky factor raises, naming the
    level (``_ordinary_level``).
    """
    acc = np.zeros_like(a[0])
    for j in range(len(a) - 1, -1, -1):
        acc = _ordinary_level(a[j], acc, j + 1)
    if y0 is not None:
        acc = y0 + acc
    return sym_raw(acc)


def cf_ordinary(y0, a: Sequence, n: int) -> SymMatrix:
    """The n-th convergent of an ordinary continued fraction.

    ``y0`` may be None (treated as zero), and the terms may be ConeElement
    or SymMatrix values.  The one-sequence case of ``cf_ordinary_raw``.
    """
    _check_index(n, len(a))
    head = y0.mat if y0 is not None else None
    return SymMatrix(cf_ordinary_raw(head, np.stack([v.mat for v in a[:n]])))


def to_ordinary_raw(ls: np.ndarray, ys: Optional[np.ndarray]) -> np.ndarray:
    """Terms a_1, ..., a_n of the equivalent ordinary continued fraction, of one sequence or a stack.

    ``ls`` holds the Cholesky factors of the numerators and ``ys`` the
    denominators (None for unit denominators), level-major ``(n, r, r)``
    or ``(n, cases, r, r)`` arrays; the terms come back in the same shape.
    a_m applies an alternating composition of the division maps of
    x_1, ..., x_m to y_m: position i carries star_inv when i and m have
    equal parity and plain otherwise, so the innermost factor is always
    the star_inv of x_m.  Level i's factor acts on every term a_m, m >= i,
    at once (one star_inv and one plain call per level), from level n
    down, so each term sees its factors in the order above.  Each term is
    symmetrized as SymMatrix symmetrizes and is bit for bit what its case
    gives alone.  A term that leaves the double range raises
    ArithmeticError naming the term and the level.
    """
    n = len(ls)
    v = np.array(np.broadcast_to(np.eye(ls.shape[-1]), ls.shape) if ys is None else ys)
    # a term that overflows is reported below, after the later levels ran on it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n, 0, -1):
            v[i - 1 :: 2] = _pi_raw(ls[i - 1], v[i - 1 :: 2], "star_inv")
            if i < n:
                v[i::2] = _pi_raw(ls[i - 1], v[i::2], "plain")
    finite = np.isfinite(v).reshape(n, -1).all(axis=1)
    if not finite.all():
        m = int(np.argmin(finite)) + 1
        raise ArithmeticError(f"ordinary term a_{m} at level {m} overflows")
    return sym_raw(v)


def to_ordinary(seq: CFSequence) -> list[SymMatrix]:
    """Terms (a_0, a_1, ..., a_n) of the equivalent ordinary continued fraction.

    a_0 is the head (zero without one) and a_1..a_n are
    ``to_ordinary_raw``'s.  The binding contract is the convergent-by-
    convergent agreement with ``cf_general``.
    """
    n = len(seq.xs)
    _check_index(n, n)
    head = SymMatrix(np.zeros((seq.r, seq.r)) if seq.head is None else seq.head)
    return [head] + [SymMatrix(a) for a in to_ordinary_raw(_chol_raw(seq.xs), seq.ys)]


def cf_depths(seq: CFSequence, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """``cf_general(seq, n)`` and ``cf_ordinary`` of the ``to_ordinary`` terms, bit for bit, n <= depth.

    Depth n is case n - 1 of one stack and joins the backward pass at level
    n: ``depth`` stacked calls per form, not depth(depth + 1)/2.  If the stack
    raises or meets a condition numpy warns of, the depths run again one by
    one (general, then ordinary, at depth 1, 2, ...) to raise or warn as that does.
    The ordinary form's error there is an OrdinaryBreakdown naming its depth.
    """
    _check_index(depth, len(seq.xs))
    xs, ys = seq.xs[:depth], None if seq.ys is None else seq.ys[:depth]
    ls = _chol_raw(xs)
    terms = to_ordinary_raw(ls, ys)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            general = np.array(_innermost(xs, ls, ys, f"1..{depth}"))
            for j in range(depth - 2, -1, -1):
                y = np.eye(seq.r) if ys is None else ys[j]
                inv = inv_cone_raw(y + general[j + 1 :], f"denominator at level {j + 1}")
                general[j + 1 :] = _pi_raw(ls[j], inv, "plain")
            ordinary = np.zeros_like(terms)
            for j in range(depth - 1, -1, -1):
                ordinary[j:] = _ordinary_level(terms[j], ordinary[j:], j + 1)
    except (ArithmeticError, ValueError):
        pairs = []
        for n in range(1, depth + 1):
            general = cf_general(seq, n).mat
            try:
                pairs.append((general, cf_ordinary_raw(seq.head, terms[:n])))
            except ConeMembershipError as exc:
                raise OrdinaryBreakdown(str(exc), n) from None
        return tuple(np.array(form) for form in zip(*pairs))
    if seq.head is not None:
        general, ordinary = seq.head + general, seq.head + ordinary
    return sym_raw(general), sym_raw(ordinary)


def bracket(xs: Sequence[ConeElement], k: int) -> ConeElement:
    """The unit chain [x_1, ..., x_k], certified in the cone.

    [x_1] = x_1 and [x_1, ..., x_k] = (mult by x_1)(e + [x_2, ..., x_k])^{-1},
    evaluated backward.
    """
    _check_index(k, len(xs))
    if k == 1:
        return xs[0]
    return cone(cf_general(CFSequence(tuple(xs[:k])), k))


def w_seq_raw(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alternating differences of a stack of unit chains, and which chains have all of them in the cone.

    ``xs`` is a case-major ``(cases, n, r, r)`` array of certified
    numerators, n >= 2.  Returns the ``(cases, n - 1, r, r)`` differences
    w_k = (-1)^{k+1}([x_1..x_k] - [x_1..x_{k+1}]) from one forward trace
    (``_differences``), bit for bit those of each chain alone, and a
    ``(cases,)`` mask of the chains whose every w_k clears the open-cone
    margin (the sign alternation makes them positive definite).  For each
    chain in the mask the telescoping partial-sum identity
    [x_1..x_n] = x_1 + sum_k (-1)^k w_k is asserted to 1e-10 against the
    tail-first ``cf_general_raw``.
    """
    n = xs.shape[1]
    ls = _chol_raw(xs)
    ws = _differences(ls, None)
    certified = open_cone_test(ws)[1].all(axis=1)
    conv = xs[:, 0]
    for k in range(1, n):
        conv = conv + (-1.0 if k % 2 == 1 else 1.0) * ws[:, k - 1]
    bracket_n = cf_general_raw(xs.swapaxes(0, 1), ls.swapaxes(0, 1), None, None)
    resid = rel_residual(sym_raw(conv), bracket_n)
    breached = certified & (resid > 1e-10)
    if breached.any():
        raise ArithmeticError(
            f"partial-sum identity residual {resid[breached][0]:.3e} exceeds 1e-10 at n={n}"
        )
    return ws, certified


def w_seq(xs: Sequence[ConeElement], n: int) -> list[ConeElement]:
    """Alternating differences w_k = (-1)^{k+1}([x_1..x_k] - [x_1..x_{k+1}]), k < n.

    Each difference is certified in the cone (the sign alternation makes
    it positive definite); a certification failure means the alternation
    was breached numerically and raises with diagnostics.  The telescoping
    partial-sum identity is asserted as ``w_seq_raw`` asserts it, of which
    this is the one-chain case.
    """
    if n < 2:
        raise ValueError("need n >= 2 to form a difference")
    _check_index(n, len(xs))
    ws = w_seq_raw(np.stack([x.mat for x in xs[:n]])[None])[0][0]
    return [cone(SymMatrix(w), f"signed difference w_{k}") for k, w in enumerate(ws, start=1)]


# ---------------------------------------------------------------------------
# two-step inverse differences and the operator identities
# ---------------------------------------------------------------------------


def _inverse_differences(xs: Sequence[ConeElement], k: int):
    """w_k^{-1} and w_{k+1}^{-1} as one ``(2, r, r)`` stack, with no subtraction, for the oracles.

    A forward pass over levels 1..k+1 gives T_0 = 0 and
    T_i^{-1} = e + l_i^T T_{i-1} l_i (``l_i`` the Cholesky factor of x_i),
    each certified before it is inverted.  Then
    w_j^{-1} = C_j(x_{j+1}^{-1} + T_j), where C_j is the congruence by
    l_1^{-T} T_1^{-1} ... l_j^{-T} T_j^{-1}, applied innermost factor first
    as v -> star_inv(l_i, T_i^{-1} v T_i^{-1}).  The two inverses share C_k,
    so it runs once over both.  Returns the stack, the numerators and their
    factors.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    _check_index(k + 2, len(xs))
    arrs = np.stack([x.mat for x in xs[: k + 2]])
    ls = _chol_raw(arrs)
    e = np.eye(arrs.shape[-1])
    ts, t_invs = [np.zeros_like(e)], []
    for i in range(k + 1):
        t_invs.append(e + ls[i].T @ ts[i] @ ls[i])
        ts.append(inv_cone_raw(t_invs[i], f"oracle transfer denominator at level {i + 1}"))
    inv = _pi_raw(ls[k : k + 2], np.broadcast_to(e, (2,) + e.shape), "star_inv") + np.stack(ts[k:])
    # factor k+1 acts on w_{k+1}^{-1} alone; C_k then acts on both
    inv[1] = _pi_raw(ls[k], t_invs[k] @ inv[1] @ t_invs[k], "star_inv")
    for i in range(k - 1, -1, -1):
        inv = _pi_raw(ls[i], t_invs[i] @ inv @ t_invs[i], "star_inv")
    return inv, arrs, ls


def f_direct(xs: Sequence[ConeElement], k: int) -> SymMatrix:
    """Literal two-step inverse difference

        ( [x_1..x_k]^{-1} - [x_1..x_{k+1}]^{-1} )^{-1}
      + ( [x_1..x_{k+1}]^{-1} - [x_1..x_{k+2}]^{-1} )^{-1}

    the ground-truth oracle for ``f_closed``, in double precision.  With
    B_m = [x_1..x_m], each term is exactly a product of brackets and an
    inverse difference, (B_k^{-1} - B_{k+1}^{-1})^{-1} = (-1)^k B_{k+1} w_k^{-1} B_k,
    so F_k = (-1)^k [B_{k+1} w_k^{-1} B_k - B_{k+2} w_{k+1}^{-1} B_{k+1}].
    The w^{-1} come subtraction-free from the oracle's own forward pass.
    Each odd bracket is its even neighbour plus a w, so the even one of
    B_k, B_{k+1} is evaluated tail first, as ``cf_general`` evaluates it,
    and the odd ones are formed as sums: partial sums from B_1 = x_1 would
    form B_2 = x_1 - w_1, which cancels when B_2 is far below x_1.  Besides
    the final difference, the one subtraction left is
    B_{k+2} = B_{k+1} - w_{k+1} at even k.
    """
    inv, arrs, ls = _inverse_differences(xs, k)
    w = inv_cone_raw(inv, f"oracle differences w_{k}, w_{k + 1}")
    if k % 2:
        b_k1 = _suffixes(arrs, ls, None, k + 1)[0]
        b = np.stack([b_k1 + w[0], b_k1, b_k1 + w[1]])
    else:
        b_k = _suffixes(arrs, ls, None, k)[0]
        b = np.stack([b_k, b_k + w[0], b_k + w[0] - w[1]])
    terms = b[1:] @ inv @ b[:2]
    return SymMatrix((-1.0) ** k * (terms[0] - terms[1]))


def jump_direct(xs: Sequence[ConeElement], k: int) -> SymMatrix:
    """Literal jump w_{k+1}^{-1} - w_k^{-1}, the ground-truth oracle for ``q_apply``.

    Both inverses come subtraction-free from the oracle's forward pass,
    so the one difference is taken between two accurate terms.
    """
    inv = _inverse_differences(xs, k)[0]
    return SymMatrix(inv[1] - inv[0])


def u_raw(
    zarrs: Sequence[np.ndarray], zls: Sequence[np.ndarray], m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tail correction pair (H, u) at index m over the m+1 leading entries.

    H = e + sum_{i=0}^{m-3} (-1)^{i+1} ( prod_{j=0}^{i} star(z_{m-j}) o
        quad((e + [z_{m-j}..z_m])^{-1}) ) (e + [z_{m-i}..z_m])

    with the largest-j factor acting first, and u = e + star(z_{m+1}) H.
    The sum is evaluated literally, term by term.  ``zarrs`` and their
    Cholesky factors ``zls`` are indexed by level - 1, and may be
    level-major ``(levels, cases, r, r)`` arrays: every case then advances
    together, each bit for bit as it would alone, and H and u come back
    as ``(cases, r, r)`` stacks.
    """
    e = np.eye(zarrs[0].shape[-1])
    T = _suffixes(zarrs, zls, None, m)  # T[j] = [z_{j+1} .. z_m]
    # (e + [z_start .. z_m])^{-1} by 1-based start, in the order the sum first reads them
    qs = {start: inv_cone_raw(e + T[start - 1], "unit tail denominator") for start in range(m, 2, -1)}
    H = e.copy()
    for i in range(0, m - 2):
        v = e + T[m - i - 1]
        for j in range(i, -1, -1):
            start = m - j  # 1-based start of [z_{m-j} .. z_m]
            v = qs[start] @ v @ qs[start]
            v = _pi_raw(zls[start - 1], v, "star")
        H = H + ((-1.0) ** (i + 1)) * v
    u = e + _pi_raw(zls[m], H, "star")
    return (H + H.swapaxes(-1, -2)) / 2.0, (u + u.swapaxes(-1, -2)) / 2.0


def u_vec(xs: Sequence[ConeElement], k: int) -> ConeElement:
    """Tail correction vector u_k(x_1, ..., x_{k+1}), certified in the cone.

    The inner factor H must itself be positive definite; if the literal
    alternating sum breaches that, evaluation aborts with diagnostics
    instead of returning a junk certificate.
    """
    if k < 3:
        raise ValueError("need k >= 3 (the inner sum starts at i = 0 <= k - 3)")
    _check_index(k + 1, len(xs))
    zarrs = np.stack([x.mat for x in xs[: k + 1]])
    H, u = u_raw(zarrs, _chol_raw(zarrs), k)
    cone(SymMatrix(H), f"tail correction H at k={k}")
    return cone(SymMatrix(u), f"u_{k}")


def _tail_chain(arrs: np.ndarray, ls: np.ndarray, k: int, first: int, u: np.ndarray) -> list:
    """The body shared by the chains of F_k and Q_k, with S = ``_suffixes`` of the first k levels:

    [star_inv l_{i-1}, quad(e + S[i])] for i = first..k-1, then [star_inv l_{k-1}, star_inv l_k, quad u].
    """
    e = np.eye(arrs.shape[-1])
    S = _suffixes(arrs, ls, None, k)
    chain = []
    for i in range(first, k):
        chain += [("star_inv", ls[i - 1]), ("quad", e + S[i])]
    return chain + [("star_inv", ls[k - 1]), ("star_inv", ls[k]), ("quad", u)]


def f_closed(xs: Sequence[ConeElement], k: int) -> SymMatrix:
    """Closed operator-product form of the two-step inverse difference.

    Equals ``f_direct`` on the same arguments; the acceptance suite holds
    them together to 1e-8 relative.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    _check_index(k + 2, len(xs))
    arrs = np.stack([x.mat for x in xs[: k + 2]])
    ls = _chol_raw(arrs)
    if k == 1:
        chain, sign = [("plain", ls[0]), ("star_inv", ls[1]), ("star_inv", ls[2])], 1.0
    else:
        u = u_raw(arrs[: k + 1], ls[: k + 1], k)[1]
        chain = [("plain", ls[0])] + _tail_chain(arrs, ls, k, 2, u) + [("star_inv", ls[k + 1])]
        sign = (-1.0) ** (k + 1)
    return SymMatrix(sign * _apply_chain(chain, np.eye(arrs.shape[-1])))


def _q_chain(xs: Sequence[ConeElement], k: int):
    """Operator chain for the jump automorphism Q_k."""
    arrs = np.stack([x.mat for x in xs[: k + 2]])
    ls = _chol_raw(arrs)
    e = np.eye(arrs.shape[-1])[None]
    H, u = u_raw(np.concatenate([e, arrs[: k + 1]]), np.concatenate([e, ls[: k + 1]]), k + 1)
    cone(SymMatrix(H), f"unit-led tail correction H at k={k}")
    return _tail_chain(arrs, ls, k, 1, u)


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


def _differences(ls: np.ndarray, ys: Optional[np.ndarray]) -> np.ndarray:
    """w_1 .. w_{depth-1} of every sequence of a stack, in one forward pass over the levels.

    ``ls`` holds the Cholesky factors of the numerators as a
    ``(trials, depth, r, r)`` stack and ``ys`` the denominators in the same
    shape (None for unit denominators).  The normalised transfer row
    [T_k, e] of every trial advances together:
    T_k = (y_k + l_k^T T_{k-1} l_k)^{-1} is certified before each
    inversion, the error naming the level (and the trial's stack index);
    G_k = T_k l_k^T G_{k-1} is kept as 2^-E times its value, with E per
    trial and the largest entry in [1/2, 1), so neither it nor
    w_k = 2^{2E} V^T T_{k+1} V, V = l_{k+1}^T G_k, leaves the double range
    before w_k itself does.  Every operation acts on each trial's slice
    alone, so a trial's w_k do not depend on the rest of the stack.  The
    result is symmetrized as SymMatrix symmetrizes.
    """
    trials, depth, r, _ = ls.shape
    lts = ls.swapaxes(-1, -2)
    eye = np.eye(r)
    t, g = np.zeros((trials, r, r)), np.broadcast_to(eye, (trials, r, r))
    exp2 = np.zeros((trials, 1, 1), dtype=int)
    ws = np.empty((trials, depth - 1, r, r))
    for k in range(1, depth + 1):
        y = eye if ys is None else ys[:, k - 1]
        t = inv_cone_raw(y + lts[:, k - 1] @ t @ ls[:, k - 1], f"transfer denominator at level {k}")
        v = lts[:, k - 1] @ g
        g = t @ v
        if k > 1:
            np.ldexp(v.swapaxes(-1, -2) @ g, 2 * exp2, out=ws[:, k - 2])
        e = np.frexp(np.abs(g).max(axis=(-2, -1), keepdims=True))[1]
        g = np.ldexp(g, -e)
        exp2 += e
    return sym_raw(ws)


def trace_differences(xs: np.ndarray) -> np.ndarray:
    """The differences w_1 .. w_{depth-1} of a whole stack of unit-quotient continued fractions.

    ``xs`` is a ``(trials, depth, r, r)`` array of partial numerators,
    certified by ``cone_checked_raw`` as a sequence file's are: each must be
    finite, symmetric to within SymMatrix's 1e-9 relative, and clear the
    open-cone margin; it is then symmetrized.  The first that fails raises,
    named by its level and trial (``partial numerator x_3 of trial 1``).
    Returns the ``(trials, depth - 1, r, r)`` array of
    w_k = (-1)^{k+1}(R_k - R_{k+1}) from the forward pass ``trace_cf`` makes
    for one sequence, bit for bit the same for every trial whatever the
    rest of the stack holds.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 4 or xs.shape[-1] != xs.shape[-2] or xs.shape[0] < 1 or xs.shape[1] < 2:
        raise ValueError(f"expected a (trials >= 1, depth >= 2, r, r) stack, got shape {xs.shape}")
    depth = xs.shape[1]
    xs = cone_checked_raw(xs, lambda i: f"partial numerator x_{i % depth + 1} of trial {i // depth}")
    return _differences(_chol_raw(xs), None)


def trace_cf(seq: CFSequence, depth: int) -> ConvergentTrace:
    """Convergents R_1..R_depth with forward differences, for analysis/export; uncapped in depth.

    One forward pass (``_differences``) gives every w_k = (-1)^{k+1}(R_k - R_{k+1})
    without subtracting, and the convergents are its partial sums from R_1,
    which is evaluated as ``cf_general`` evaluates it.
    """
    if not 1 <= depth <= len(seq.xs):
        raise ValueError(f"depth {depth} out of range [1, {len(seq.xs)}]")
    xs, ys = seq.xs[:depth], None if seq.ys is None else seq.ys[:depth]
    ls = _chol_raw(xs)
    first = _innermost(xs[0], ls[0], None if ys is None else ys[0], 1)
    if seq.head is not None:
        first = seq.head + first
    ws = _differences(ls[None], None if ys is None else ys[None])[0]
    # R_{k+1} = R_k + (-1)^k w_k, summed in level order
    steps = np.concatenate([first[None], ws])
    steps[1::2] *= -1.0
    return ConvergentTrace(sym_raw(np.cumsum(steps, axis=0)), ws, frob_norm(ws), min_eig_raw(ws))
