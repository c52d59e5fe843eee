"""Batch verification and Monte Carlo convergence experiments.

``run_convergence_experiment`` draws random unit-quotient continued
fractions whose partial numerators follow a periodic law pattern (odd
indices one beta-second-kind law, even indices another, by default),
evaluates the convergents to a fixed depth, and reports a Cauchy-style
convergence verdict per trial plus cone margins of the alternating
differences.  Almost-sure convergence has no rate attached, so the
verdict is an explicit epsilon at finite depth, and the summary speaks in
fractions and medians rather than per-trial guarantees.

``run_identity_suite`` re-checks the algebraic identities of the other
modules on randomized inputs at scale and reports the worst residual per
identity.

Determinism: all randomness flows from one master seed.  In the
experiment, trial t draws from ``split_stream(master, t)`` alone, its
odd-indexed numerators as one batch and then its even-indexed ones as
another (one batch at period 1); trials are then traced and certified
as ``(trials, depth, r, r)`` stacks of bounded size whose every step acts
on each trial by itself.  So a trial's rows depend only on (seed,
trial_id), not on how many trials run, and with fixed output formatting
equal configurations produce byte-identical artifacts.  The identity suite
draws each identity's cases from ``split_stream(master, i)``, one
``sample_wishart`` call per matrix in case order, and then evaluates the
map identities, the ordinary equivalence (one stack per length n) and the
alternation (one forward trace, one tail-correction stack per index k) as
stacks of cases, each case bit for bit as it evaluates alone; a case that
fails certification is skipped by itself.  The closed-form and jump
identities are evaluated per case.
"""

from __future__ import annotations

import functools
import json
import statistics
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contfrac import (
    cf_general_raw,
    cf_ordinary_raw,
    f_closed,
    f_direct,
    jump_direct,
    q_apply,
    to_ordinary_raw,
    trace_differences,
    u_raw,
    w_seq_raw,
)
from .division import chol_raw, pi_apply, pi_raw
from .jordan import (
    ConeElement,
    ConeMembershipError,
    closed_cone_test,
    cone_checked_raw,
    eigenvalues_dominate,
    frob_norm,
    inverse,
    min_eig_raw,
    open_cone_test,
    power_raw,
    rel_residual,
    sym_raw,
)
from .randmat import Beta2Params, RngStream, sample_beta2, sample_wishart, split_stream

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "run_convergence_experiment",
    "run_identity_suite",
    "SUMMARY_SCHEMA",
]

SUMMARY_SCHEMA = "cone-cf/1"

CSV_HEADER = "trial,k,delta_norm,wk_min_eig,converged_so_far"


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one convergence experiment.

    The law pattern is periodic: index i (1-based) draws from the
    (b, a) shapes when (i-1) % period == 0 and from (b, a_prime) on the
    other residue.  ``law="identity"`` replaces every draw with the unit
    element, giving the deterministic golden case.
    """

    rank: int
    b: float
    a: float
    a_prime: float
    trials: int
    depth: int
    seed: int
    cauchy_eps: float
    period: int = 2
    out_path: Optional[str] = None
    law: str = "beta2"

    def __post_init__(self) -> None:
        if self.depth < 4:
            raise ValueError(f"depth must be at least 4, got {self.depth}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.period not in (1, 2):
            raise ValueError(
                f"the (b, a, a_prime) shape fields express period 1 or 2, got {self.period}"
            )
        if self.law not in ("beta2", "identity"):
            raise ValueError(f"unknown law {self.law!r}")
        if self.cauchy_eps <= 0.0:
            raise ValueError("cauchy_eps must be positive")
        if self.law == "beta2":
            for pair in self.shape_pairs():
                Beta2Params(pair[0], pair[1], self.rank)  # validates the domain

    def shape_pairs(self) -> list[tuple[float, float]]:
        if self.period == 1:
            return [(self.b, self.a)]
        return [(self.b, self.a), (self.b, self.a_prime)]


@dataclass(frozen=True)
class TrialResult:
    trial_id: int
    converged: bool
    first_cauchy_k: Optional[int]
    final_delta: float
    monotonicity_violations: int


# Trials run in stacks of this many numerator entries (trials * depth * r * r),
# 128 KiB: peak memory stays near that of one trial at a time at any trial
# count, while each numpy call still serves many trials.
_CHUNK_ENTRIES = 1 << 14


def _draw_inputs(cfg: ExperimentConfig, master: RngStream, trial_ids: range) -> np.ndarray:
    """The ``(len(trial_ids), depth, r, r)`` stack of partial numerators of those trials.

    Trial t draws from ``split_stream(master, t)`` alone: one batched draw
    of its odd-indexed numerators (x_1, x_3, ...) from the first shape pair,
    then one of its even-indexed ones from the second (period 2), or one
    block of all of them (period 1).  So a trial's inputs depend only on
    (seed, trial_id), never on which trials share its stack.
    """
    r, depth = cfg.rank, cfg.depth
    if cfg.law == "identity":
        return np.broadcast_to(np.eye(r), (len(trial_ids), depth, r, r))
    params = [Beta2Params(p, q, r) for p, q in cfg.shape_pairs()]
    xs = np.empty((len(trial_ids), depth, r, r))
    for slot, trial_id in enumerate(trial_ids):
        stream = split_stream(master, trial_id)
        for residue, prm in enumerate(params):
            xs[slot, residue::cfg.period] = sample_beta2(
                prm, stream, n=len(range(residue, depth, cfg.period))
            )
    return xs


def _run_trials(cfg: ExperimentConfig, master: RngStream, trial_ids: range, rows: Optional[list]):
    """Trace and certify ``trial_ids`` as one stack.

    Returns their TrialResults, their ``(trials, depth - 1)`` delta norms
    and the smallest eigenvalue of any consecutive difference w_k - w_{k+1};
    appends their CSV rows to ``rows`` unless it is None.  One forward
    trace, one stacked eigen call for the margins and one for the
    monotonicity test each act on every trial's slices alone.
    """
    ws = trace_differences(_draw_inputs(cfg, master, trial_ids))
    deltas = frob_norm(ws)
    margins = min_eig_raw(ws)
    mono_min, breaches = closed_cone_test(ws[:, :-1] - ws[:, 1:])
    # the converged tail: k from which every later delta is below eps
    tail = np.logical_and.accumulate(deltas[:, ::-1] < cfg.cauchy_eps, axis=1)[:, ::-1]

    results = []
    per_trial = zip(trial_ids, deltas.tolist(), margins.tolist(), tail.tolist(),
                    breaches.sum(axis=1).tolist())
    for trial_id, drow, mrow, trow, violations in per_trial:
        first_cauchy = cfg.depth - sum(trow) if trow[-1] else None
        results.append(
            TrialResult(
                trial_id=trial_id,
                converged=first_cauchy is not None,
                first_cauchy_k=first_cauchy,
                final_delta=drow[-1],
                monotonicity_violations=violations,
            )
        )
        if rows is not None:
            for k, (delta, margin, so_far) in enumerate(zip(drow, mrow, trow), start=1):
                rows.append(f"{trial_id},{k},{delta!r},{margin!r},{'true' if so_far else 'false'}")
    return results, deltas, float(mono_min.min())


def run_convergence_experiment(cfg: ExperimentConfig) -> dict:
    """Run the experiment; returns the summary dict and writes the CSV if configured.

    CSV columns: ``trial,k,delta_norm,wk_min_eig,converged_so_far`` with one
    data row per (trial, k), k = 1..depth-1.  ``converged_so_far`` marks
    the converged tail (k at or past the trial's first Cauchy index).

    Trials run as stacks of ``_CHUNK_ENTRIES`` numerator entries (at least
    one trial each).  Every step acts on each trial's slices alone, so a
    trial's rows do not depend on which trials share its stack.
    """
    master = RngStream(cfg.seed)
    chunk = max(1, _CHUNK_ENTRIES // (cfg.depth * cfg.rank * cfg.rank))
    rows: Optional[list[str]] = [] if cfg.out_path is not None else None
    results: list[TrialResult] = []
    deltas = np.empty((cfg.trials, cfg.depth - 1))
    mono_min = np.inf
    for lo in range(0, cfg.trials, chunk):
        trial_ids = range(lo, min(lo + chunk, cfg.trials))
        part, deltas[lo:trial_ids.stop], least = _run_trials(cfg, master, trial_ids, rows)
        results += part
        mono_min = min(mono_min, least)

    converged = [res for res in results if res.converged]
    firsts = sorted(res.first_cauchy_k for res in converged)
    median_first = float(statistics.median(firsts)) if firsts else None

    summary = {
        "schema": SUMMARY_SCHEMA,
        "law": cfg.law,
        "rank": cfg.rank,
        "shapes": {"b": cfg.b, "a": cfg.a, "a_prime": cfg.a_prime},
        "period": cfg.period,
        "trials": cfg.trials,
        "depth": cfg.depth,
        "seed": cfg.seed,
        "cauchy_eps": cfg.cauchy_eps,
        "fraction_converged": len(converged) / cfg.trials,
        "trials_converged": len(converged),
        "median_first_cauchy_k": median_first,
        "monotonicity_violations": sum(res.monotonicity_violations for res in results),
        "max_monotonicity_violation": max(0.0, -mono_min),
        "median_delta_by_k": np.median(deltas, axis=0).tolist(),
    }
    if rows is not None:
        with open(cfg.out_path, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.write("\n".join(rows) + "\n")
    return summary


def summary_json(summary: dict) -> str:
    """Canonical serialization of a summary (fixed key order, trailing newline)."""
    return json.dumps(summary, indent=2) + "\n"


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _wishart_elem(rank: int, stream: RngStream) -> ConeElement:
    return sample_wishart(3.0, rank, stream)


def _wishart_draws(rank: int, stream: RngStream, count: int) -> np.ndarray:
    """``count`` draws as a ``(count, r, r)`` stack, one ``sample_wishart`` call each.

    Each call reads the stream as the single draw does, so the stack holds
    the matrices ``_wishart_elem`` would give, in the same order.
    """
    return np.concatenate([sample_wishart(3.0, rank, stream, n=1) for _ in range(count)])


def _each_case(evaluate, stack: np.ndarray) -> list:
    """``evaluate``'s per-case results over a case-major stack, with failing cases as None.

    ``evaluate`` maps a ``(cases, ...)`` stack to a list with one entry per
    case, acting on each case alone.  When it raises ConeMembershipError for
    the stack, each case is evaluated again as a one-case stack, and a case
    that raises on its own gives None: so one case outside the cone costs
    only itself, exactly as when every case was evaluated by itself.
    """
    if len(stack) == 0:
        return []
    try:
        return evaluate(stack)
    except ConeMembershipError:
        pass
    results = []
    for case in range(len(stack)):
        try:
            results += evaluate(stack[case : case + 1])
        except ConeMembershipError:
            results.append(None)
    return results


def _ordinary_equivalence(stack: np.ndarray) -> list:
    """General against ordinary evaluation of each ``(x_1..x_n, y_1..y_n, y_0)`` row of a stack."""
    n = (stack.shape[1] - 1) // 2
    xs, ys, head = stack[:, :n].swapaxes(0, 1), stack[:, n : 2 * n].swapaxes(0, 1), stack[:, 2 * n]
    ls = chol_raw(xs)
    a = to_ordinary_raw(ls, ys)
    return rel_residual(cf_general_raw(xs, ls, ys, head), cf_ordinary_raw(head, a)).tolist()


def _decrease_breaches(xs: np.ndarray) -> list:
    """Per unit chain: None if some w_k is outside the cone, else how many w_k - w_{k+1} are."""
    ws, certified = w_seq_raw(xs)
    breaches = closed_cone_test(ws[:, :-1] - ws[:, 1:])[1].sum(axis=1)
    return [int(b) if ok else None for b, ok in zip(breaches, certified.tolist())]


def _tail_correction_certified(xs: np.ndarray, k: int) -> list:
    """Per unit chain: whether H and u_k of its first k + 1 numerators both clear the open cone."""
    zarrs = xs[:, : k + 1].swapaxes(0, 1)
    H, u = u_raw(zarrs, chol_raw(zarrs), k)
    return (open_cone_test(H)[1] & open_cone_test(u)[1]).tolist()


def run_identity_suite(rank: int, cases: int, seed: int) -> dict:
    """Randomized verification of the module identities at the stated tolerances.

    Returns a report dict with the worst relative residual (or violation
    count) per identity, a skipped-case count, and a pass flag over all but
    ``adjoint_order_bound``.  Inputs that fail cone certification are
    skipped, not failed.  The sequence-level identities (alternation,
    closed forms, jumps) run cases/10 sequences each, every sequence
    exercising about ten indices.

    Cases are drawn and stacked as the module docstring says; every step
    acts on each case alone and a case that fails certification is
    skipped by itself (``_each_case``), so each residual is bit for bit
    the one per-case evaluation gives.  The jump identity stays per case
    because it draws its ``y`` only after the case evaluated without
    error, so the stream position of every later case depends on the
    outcomes.  The closed form stays per case because ``f_closed`` and
    ``f_direct`` build an operator chain per sequence and index and have
    no stacked form.
    """
    if rank > 4:
        raise ValueError(f"the suite runs at rank <= 4, got {rank}")
    if cases < 1:
        raise ValueError("need at least one case")
    master = RngStream(seed)
    skipped = 0
    report: dict = {"rank": rank, "cases": cases, "seed": seed}
    checks: dict = {}

    def record(name: str, residual: float, tol: float, violations: int = 0) -> None:
        checks[name] = {
            "max_residual": residual,
            "tolerance": tol,
            "violations": violations,
            "pass": residual <= tol and violations == 0,
        }

    def pairs(stream_id: int) -> tuple[np.ndarray, np.ndarray]:
        drawn = _wishart_draws(rank, split_stream(master, stream_id), 2 * cases)
        return drawn[0::2], drawn[1::2]

    # factorization identity: multiply-then-adjoint equals the quadratic map
    y, x = pairs(1)
    ly = chol_raw(y)
    lhs = sym_raw(pi_raw(ly, sym_raw(pi_raw(ly, x, "star")), "plain"))
    record("quad_is_mult_times_adjoint", float(rel_residual(lhs, sym_raw(y @ x @ y)).max()), 1e-10)

    # inverse swap: dividing an inverse equals inverting the adjoint image
    u, v = pairs(2)
    lu = chol_raw(u)
    lhs = sym_raw(pi_raw(lu, power_raw(v, -1.0), "inv"))
    image = cone_checked_raw(pi_raw(lu, v, "star"), lambda i: f"inverse swap image of case {i}")
    rhs = power_raw(image, -1.0)
    record("inverse_swap", float(rel_residual(lhs, rhs).max()), 1e-10)

    # inverse antitonicity on the cone order
    x, bump = pairs(3)
    y = sym_raw(x + bump)
    certified = open_cone_test(y)[1]
    skipped += int((~certified).sum())
    violations = 0
    if certified.any():
        d = power_raw(x[certified], -1.0) - power_raw(y[certified], -1.0)
        violations = int(closed_cone_test(d)[1].sum())
    record("inverse_antitone", 0.0, 1.0, violations)

    # equivalence of the general and ordinary evaluators, one stack per length n
    stream = split_stream(master, 4)
    by_length: dict = {}
    for c in range(cases):
        n = 1 + c % 12
        try:
            drawn = _wishart_draws(rank, stream, 2 * n + 1)
        except ConeMembershipError:
            skipped += 1
            continue
        by_length.setdefault(n, []).append(drawn)
    worst = 0.0
    for group in by_length.values():
        residuals = _each_case(_ordinary_equivalence, np.array(group))
        skipped += residuals.count(None)
        worst = max([worst] + [res for res in residuals if res is not None])
    record("ordinary_equivalence", worst, 1e-9)

    # sign alternation and decrease of the unit-chain differences
    depth = 10
    stream = split_stream(master, 5)
    xs = np.array([_wishart_draws(rank, stream, depth + 1) for _ in range(max(1, cases // 10))])
    breaches = _each_case(_decrease_breaches, xs)
    alternating = xs[[b is not None for b in breaches]]
    h_violations = 0
    for k in range(3, depth):
        certified = _each_case(functools.partial(_tail_correction_certified, k=k), alternating)
        h_violations += sum(ok is not True for ok in certified)
    record("sign_alternation", 0.0, 1.0, breaches.count(None))
    record("w_decreasing", 0.0, 1.0, sum(b for b in breaches if b is not None))
    record("tail_correction_in_cone", 0.0, 1.0, h_violations)

    # closed operator form of the two-step inverse difference
    stream = split_stream(master, 6)
    worst = 0.0
    for c in range(max(1, cases // 10)):
        k = 1 + c % 8
        try:
            xs = tuple(_wishart_elem(rank, stream) for _ in range(k + 2))
            worst = max(worst, rel_residual(f_closed(xs, k), f_direct(xs, k)))
        except ConeMembershipError:
            skipped += 1
    record("closed_form_difference", worst, 1e-8)

    # the jump identity and the adjoint lower bounds
    stream = split_stream(master, 7)
    worst = 0.0
    order_violations = 0
    eig_violations = 0
    norm_violations = 0
    for c in range(max(1, cases // 10)):
        k = 2 + c % 7
        try:
            xs = tuple(_wishart_elem(rank, stream) for _ in range(k + 2))
            jump = q_apply(xs, k, inverse(xs[k + 1]))
            worst = max(worst, rel_residual(jump, jump_direct(xs, k)))
            y = _wishart_elem(rank, stream)
            adj = q_apply(xs, k, y, adjoint=True)
            floor = pi_apply(xs[0], y.m, "inv")
            order_violations += closed_cone_test(adj.mat - floor.mat)[1]
            eig_violations += not eigenvalues_dominate(adj, floor)
            norm_violations += not frob_norm(adj) > frob_norm(floor)
        except ConeMembershipError:
            skipped += 1
    record("jump_identity", worst, 1e-8)
    record("adjoint_norm_bound", 0.0, 1.0, norm_violations)
    record("adjoint_eigenvalue_bound", 0.0, 1.0, eig_violations)
    # reported, not gated: the cone-order form is false at rank >= 2
    record("adjoint_order_bound", 0.0, 1.0, order_violations)

    report["skipped"] = skipped
    report["identities"] = checks
    report["pass"] = all(e["pass"] for name, e in checks.items() if name != "adjoint_order_bound")
    return report


def format_identity_report(report: dict) -> str:
    lines = [
        f"identity suite: rank={report['rank']} cases={report['cases']} "
        f"seed={report['seed']} skipped={report['skipped']}"
    ]
    for name, entry in report["identities"].items():
        status = "PASS" if entry["pass"] else "FAIL"
        lines.append(
            f"  {status}  {name}: max residual {entry['max_residual']:.3e}"
            f" (tol {entry['tolerance']:.1e}, violations {entry['violations']})"
        )
    lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines)
