"""Random generation on the positive definite cone.

Wishart-type matrices are sampled through the triangular (Bartlett)
construction, and the beta distribution of the second kind is realized as
the quadratic-representation quotient of two independent Wishart draws
(the matrix-F construction), which reduces to the classical beta prime at
rank one.  Densities are evaluated in log space throughout; the
multivariate gamma normalizer overflows fast in both the rank and the
shape.

All randomness flows through ``RngStream`` values: distinct
(master_seed, stream_id) pairs give independent, reproducible streams,
and ``split_stream`` derives child streams deterministically, so parallel
consumers never share a mutable generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .jordan import ConeElement, ConeMembershipError, SymMatrix, open_cone_test, spectral_decomposition

__all__ = [
    "Beta2Params",
    "RngStream",
    "split_stream",
    "gamma_omega",
    "beta_omega",
    "beta2_log_density",
    "sample_wishart",
    "sample_beta2",
]

_MASK64 = (1 << 64) - 1
# A degenerate draw (inside the cone margin) has probability ~0; a handful of
# retries separates that from a broken configuration.
_MAX_REDRAWS = 5


def _mix64(z: int) -> int:
    """SplitMix64 finalizer; used to derive child stream ids."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class Beta2Params:
    """Shape pair (p, q) for the rank-r beta distribution of the second kind.

    Both shapes must exceed (r - 1)/2 so that every gamma factor of the
    normalizer has a positive argument.
    """

    p: float
    q: float
    r: int

    def __post_init__(self) -> None:
        edge = (self.r - 1) / 2.0
        if self.r < 1:
            raise ValueError(f"rank must be at least 1, got {self.r}")
        if not (self.p > edge and self.q > edge):
            raise ValueError(
                f"shapes must exceed (r-1)/2 = {edge}, got p={self.p}, q={self.q}"
            )


@dataclass(eq=False)
class RngStream:
    """A reproducible random stream identified by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        seq = np.random.SeedSequence(
            entropy=self.master_seed & _MASK64, spawn_key=(self.stream_id & _MASK64,)
        )
        self._gen = np.random.default_rng(seq)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def split_stream(rng: RngStream, index: int) -> RngStream:
    """Deterministically derive an independent child stream.

    The same (parent, index) always yields the same child, and distinct
    indices yield statistically independent streams.
    """
    child_id = _mix64((rng.stream_id & _MASK64) ^ _mix64(index & _MASK64))
    return RngStream(rng.master_seed, child_id)


def gamma_omega(p: float, r: int) -> float:
    """log of the rank-r cone gamma function,

        (2 pi)^{r(r-1)/4} * prod_{k=1}^{r} Gamma(p - (k-1)/2).
    """
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    if not p > (r - 1) / 2.0:
        raise ValueError(f"shape must exceed (r-1)/2 = {(r - 1) / 2.0}, got {p}")
    return 0.25 * r * (r - 1) * math.log(2.0 * math.pi) + sum(math.lgamma(p - 0.5 * k) for k in range(r))


def beta_omega(p: float, q: float, r: int) -> float:
    """log of the cone beta function Gamma(p) Gamma(q) / Gamma(p+q); symmetric in (p, q)."""
    return gamma_omega(p, r) + gamma_omega(q, r) - gamma_omega(p + q, r)


def beta2_log_density(x: ConeElement, params: Beta2Params) -> float:
    """Log density of the beta distribution of the second kind at x,

        -log B(p, q) + (p - (r+1)/2) log det(x) - (p+q) log det(e+x),

    with both determinants evaluated from the spectrum of x.
    """
    if x.r != params.r:
        raise ValueError(f"dimension mismatch: {x.r} vs {params.r}")
    lam = np.array(spectral_decomposition(x.m).eigenvalues)
    logdet = float(np.log(lam).sum())
    logdet1p = float(np.log1p(lam).sum())
    r = params.r
    return (
        -beta_omega(params.p, params.q, r)
        + (params.p - (r + 1) / 2.0) * logdet
        - (params.p + params.q) * logdet1p
    )


@functools.cache
def _strict_lower(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict lower triangle of an r x r matrix, in row-major order.

    np.tril_indices(r, -1), at a tenth of the cost, and computed once per rank.
    """
    il, jl = np.nonzero(np.tri(r, k=-1, dtype=bool))
    il.flags.writeable = jl.flags.writeable = False
    return il, jl


def _wishart_arrays(s: float, r: int, gen: np.random.Generator, n: int) -> np.ndarray:
    """n Bartlett-constructed draws with density prop. to det(x)^{s-(r+1)/2} exp(-tr x).

    X = L L^T with L lower triangular, L_ii^2 ~ Gamma(s - (i-1)/2, scale 1)
    and L_ij ~ Normal(0, 1/2) below the diagonal, all independent.
    """
    L = np.zeros((n, r, r))
    for i in range(r):
        L[:, i, i] = np.sqrt(gen.gamma(shape=s - 0.5 * i, scale=1.0, size=n))
    if r > 1:
        il, jl = _strict_lower(r)
        L[:, il, jl] = gen.normal(0.0, np.sqrt(0.5), size=(n, il.size))
    return L @ np.transpose(L, (0, 2, 1))


def _beta2_arrays(p: float, q: float, r: int, gen: np.random.Generator, n: int) -> np.ndarray:
    """n draws of the quadratic-representation quotient of Wishart(p) by Wishart(q).

    The quotient is W^{-1/2} S W^{-1/2} with the symmetric inverse square
    root, the classical matrix-F construction; its law has exactly the
    stated density.  The triangular quotient does not: congruence by a
    Cholesky factor is not orthogonally invariant, and the resulting law
    fails the density cross-checks at rank 2 (unequal diagonal means).
    """
    S = _wishart_arrays(p, r, gen, n)
    W = _wishart_arrays(q, r, gen, n)
    w, v = np.linalg.eigh(W)
    # a W whose gamma draw underflowed (shapes near the domain edge) is
    # singular; such a slot comes out as the zero matrix, which fails
    # certification, so the samplers redraw it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        isq = (v * (w**-0.5)[:, None, :]) @ np.transpose(v, (0, 2, 1))
        X = isq @ S @ isq
    X[~np.isfinite(X).all(axis=(1, 2))] = 0.0
    return (X + np.transpose(X, (0, 2, 1))) / 2.0


def _draws_in_cone(arrays, args: tuple, rng: RngStream, n: Optional[int], what: str):
    """n draws ``arrays(*args, generator, m)``, certified in the open cone as one stack.

    Only the slots that fail are redrawn, in slot order, from the same
    stream, for at most _MAX_REDRAWS rounds.  With ``n is None`` one slot is
    drawn and returned as a ConeElement carrying its certificate; otherwise
    the certified draws come back as a read-only ``(n, r, r)`` array.
    """
    if n is not None and n < 1:
        raise ValueError(f"{what}: need n >= 1 draws, got {n}")
    stack = arrays(*args, rng.generator, 1 if n is None else n)
    mn, ok = open_cone_test(stack)
    rounds = 1
    while not ok.all():
        bad = np.flatnonzero(~ok)
        if rounds == _MAX_REDRAWS:
            raise ConeMembershipError(
                f"{what}: {_MAX_REDRAWS} consecutive draws of slot {int(bad[0])} failed cone "
                "certification; the shape parameters are too close to the domain edge"
            )
        stack[bad] = arrays(*args, rng.generator, bad.size)
        mn[bad], ok[bad] = open_cone_test(stack[bad])
        rounds += 1
    if n is None:
        return ConeElement(SymMatrix(stack[0]), float(mn[0]))
    stack.flags.writeable = False
    return stack


def sample_wishart(s: float, r: int, rng: RngStream, n: Optional[int] = None):
    """A certified Wishart-type draw; the mean of the law is s times the identity.

    Without ``n``, one ConeElement.  With ``n``, a read-only ``(n, r, r)``
    array of n draws, each certified in the open cone; the single draw is
    the first slot of ``n = 1`` and consumes the stream exactly as it does.
    """
    if not s > (r - 1) / 2.0:
        raise ValueError(f"shape must exceed (r-1)/2 = {(r - 1) / 2.0}, got {s}")
    return _draws_in_cone(_wishart_arrays, (s, r), rng, n, "sample_wishart")


def sample_beta2(params: Beta2Params, rng: RngStream, n: Optional[int] = None):
    """A certified draw of the beta distribution of the second kind.

    Construction: S ~ Wishart(p), W ~ Wishart(q) independently, and the
    sample is the quadratic-representation quotient of S by W (divide S
    by W).  At rank one this is exactly the beta prime law with mean
    p/(q-1); that scalar reduction fixes the quotient orientation.
    ``n`` batches the draws as in ``sample_wishart``: all n S draws come
    from the stream before all n W draws.
    """
    return _draws_in_cone(_beta2_arrays, (params.p, params.q, params.r), rng, n, "sample_beta2")
