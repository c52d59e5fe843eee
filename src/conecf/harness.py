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
draws each identity's cases from ``split_stream(master, i)``, one at a
time.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contfrac import (
    CFSequence,
    cf_general,
    cf_ordinary,
    f_closed,
    f_direct,
    jump_direct,
    q_apply,
    to_ordinary,
    trace_differences,
    u_vec,
    w_seq,
)
from .division import pi_apply
from .jordan import (
    ConeElement,
    ConeMembershipError,
    SymMatrix,
    closed_cone_test,
    cone,
    eigenvalues_dominate,
    frob_norm,
    in_cone,
    inverse,
    min_eig_raw,
    quad_rep_apply,
    rel_residual,
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


def run_identity_suite(rank: int, cases: int, seed: int) -> dict:
    """Randomized verification of the module identities at the stated tolerances.

    Returns a report dict with the worst relative residual (or violation
    count) per identity, a skipped-case count, and a pass flag over all but
    ``adjoint_order_bound``.  Inputs that fail cone certification are
    skipped, not failed.  The sequence-level identities (alternation,
    closed forms, jumps) run cases/10 sequences each, every sequence
    exercising about ten indices.
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

    # factorization identity: multiply-then-adjoint equals the quadratic map
    stream = split_stream(master, 1)
    worst = 0.0
    for _ in range(cases):
        y = _wishart_elem(rank, stream)
        x = _wishart_elem(rank, stream)
        lhs = pi_apply(y, pi_apply(y, x.m, "star"), "plain")
        rhs = quad_rep_apply(y.m, x.m)
        worst = max(worst, rel_residual(lhs, rhs))
    record("quad_is_mult_times_adjoint", worst, 1e-10)

    # inverse swap: dividing an inverse equals inverting the adjoint image
    stream = split_stream(master, 2)
    worst = 0.0
    for _ in range(cases):
        u = _wishart_elem(rank, stream)
        v = _wishart_elem(rank, stream)
        lhs = pi_apply(u, inverse(v).m, "inv")
        rhs = inverse(cone(pi_apply(u, v.m, "star")))
        worst = max(worst, rel_residual(lhs, rhs.m))
    record("inverse_swap", worst, 1e-10)

    # inverse antitonicity on the cone order
    stream = split_stream(master, 3)
    violations = 0
    for _ in range(cases):
        x = _wishart_elem(rank, stream)
        bump = _wishart_elem(rank, stream)
        y = in_cone(SymMatrix(x.mat + bump.mat))
        if y is None:
            skipped += 1
            continue
        violations += closed_cone_test(inverse(x).mat - inverse(y).mat)[1]
    record("inverse_antitone", 0.0, 1.0, violations)

    # equivalence of the general and ordinary evaluators
    stream = split_stream(master, 4)
    worst = 0.0
    for c in range(cases):
        n = 1 + c % 12
        try:
            xs = tuple(_wishart_elem(rank, stream) for _ in range(n))
            ys = tuple(_wishart_elem(rank, stream) for _ in range(n))
            head = _wishart_elem(rank, stream)
            seq = CFSequence(xs, ys, head)
            a = to_ordinary(seq)
            lhs = cf_general(seq, n)
            rhs = cf_ordinary(a[0], a[1:], n)
        except ConeMembershipError:
            skipped += 1
            continue
        worst = max(worst, rel_residual(lhs, rhs))
    record("ordinary_equivalence", worst, 1e-9)

    # sign alternation and decrease of the unit-chain differences
    stream = split_stream(master, 5)
    sign_violations = 0
    decrease_violations = 0
    h_violations = 0
    for _ in range(max(1, cases // 10)):
        depth = 10
        xs = tuple(_wishart_elem(rank, stream) for _ in range(depth + 1))
        try:
            ws = w_seq(xs, depth + 1)
        except ConeMembershipError:
            sign_violations += 1
            continue
        for wa, wb in zip(ws, ws[1:]):
            decrease_violations += closed_cone_test(wa.mat - wb.mat)[1]
        for k in range(3, depth):
            try:
                u_vec(xs, k)
            except ConeMembershipError:
                h_violations += 1
    record("sign_alternation", 0.0, 1.0, sign_violations)
    record("w_decreasing", 0.0, 1.0, decrease_violations)
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
