"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
live.  Tolerances and case counts are pinned here and nowhere else.

Criterion 4 bounds the adjoint jump operator below by division by x_1.
The cone-order (Loewner) form of that bound is false at rank >= 2, so the
criterion asserts it at rank 1 only and asserts the eigenvalue-wise form at
every rank; the rank >= 2 Loewner violations are still counted and printed
in the verdict line as a finding.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import betainc
from scipy.stats import kstest

from conecf import (
    Beta2Params,
    CFSequence,
    RngStream,
    SymMatrix,
    beta2_log_density,
    bracket,
    cf_general,
    cf_ordinary,
    cone,
    f_closed,
    f_direct,
    frob_norm,
    inner,
    inverse,
    jump_direct,
    pi_apply,
    q_apply,
    quad_rep_apply,
    rel_residual,
    sample_beta2,
    sample_wishart,
    split_stream,
    to_ordinary,
    u_vec,
    w_seq,
)
from conecf.cli import cli_main
from conecf.jordan import ASSERT_TOL, _jacobi

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def ones(n):
    return tuple(cone(SymMatrix(np.array([[1.0]]))) for _ in range(n))


def wishart_seq(r, n, stream):
    return tuple(sample_wishart(3.0, r, stream) for _ in range(n))


def min_eig(a):
    w, _ = _jacobi(a)
    return float(w.min())


def test_criterion_1_golden_scalar_chain():
    t0 = time.perf_counter()
    xs = ones(60)
    tail = bracket(xs, 60).mat[0, 0]
    ws = [w.mat[0, 0] for w in w_seq(xs, 5)]
    elapsed = time.perf_counter() - t0
    value_err = abs(tail - GOLDEN)
    w_err = max(abs(w - e) for w, e in zip(ws, (0.5, 1 / 6, 1 / 15, 1 / 40)))
    ok = value_err <= 1e-12 and w_err <= 1e-12 and elapsed < 0.1
    verdict(1, ok, f"limit err {value_err:.2e}, w err {w_err:.2e}, {elapsed * 1e3:.0f} ms")
    assert value_err <= 1e-12
    assert w_err <= 1e-12
    assert elapsed < 0.1


def test_criterion_2_ordinary_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (1, 2, 3):
        stream = split_stream(RngStream(20 + r), 0)
        for case in range(500):
            n = 1 + case % 12
            seq = CFSequence(
                wishart_seq(r, n, stream), wishart_seq(r, n, stream), head=None
            )
            a = to_ordinary(seq)
            worst = max(
                worst, rel_residual(cf_general(seq, n), cf_ordinary(a[0], a[1:], n))
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    verdict(2, ok, f"max deviation {worst:.2e} over 1500 sequences, {elapsed:.1f} s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_3_closed_forms():
    t0 = time.perf_counter()
    spot = max(
        abs(f_closed(ones(3), 1).mat[0, 0] - 1.0),
        abs(f_closed(tuple(cone(SymMatrix(np.array([[2.0]]))) for _ in range(3)), 1).mat[0, 0] - 0.5),
        abs(f_closed(ones(4), 2).mat[0, 0] + 4.0),
        abs(f_direct(ones(3), 1).mat[0, 0] - 1.0),
        abs(f_direct(ones(4), 2).mat[0, 0] + 4.0),
    )
    worst = 0.0
    for r in (1, 2, 3):
        stream = split_stream(RngStream(30 + r), 0)
        for k in range(1, 9):
            for _ in range(200):
                xs = wishart_seq(r, k + 2, stream)
                worst = max(worst, rel_residual(f_closed(xs, k), f_direct(xs, k)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and spot <= 1e-12 and elapsed < 30.0
    verdict(3, ok, f"max residual {worst:.2e}, spot err {spot:.2e}, {elapsed:.1f} s")
    assert spot <= 1e-12
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_4_jump_identity_and_operator_bounds():
    """Jump identity, adjoint pairing, and the lower bounds on the adjoint.

    Q_k^*(y) is the division of y by x_1 followed by a congruence whose
    factor has all singular values above one, so by Ostrowski's theorem
    each eigenvalue of Q_k^*(y), sorted ascending, is at least the matching
    eigenvalue of the division; this eigenvalue-wise domination, and with
    it the norm bound, holds at every rank.  The cone-order form (Q_k^*(y)
    minus the division positive semidefinite) holds at rank 1, where
    everything commutes, but fails at rank >= 2 because the congruence
    rotates eigenvectors (counterexamples confirmed in 50-digit
    arithmetic); those violations are counted and reported, not asserted.
    The pairing <Q_k(a), y> = <a, Q_k^*(y)> ties the adjoint to the
    operator, which neither bound does on its own.
    """
    worst_jump = 0.0
    worst_pairing = 0.0
    order_violations = 0
    rank1_order_violations = 0
    norm_violations = 0
    domination_violations = 0
    cases = 0
    worst_margin = 0.0
    worst_ratio = math.inf
    for r in (1, 2, 3):
        stream = split_stream(RngStream(40 + r), 0)
        pairing_stream = split_stream(RngStream(40 + r), 1)
        for case in range(100):
            k = 2 + case % 7
            xs = wishart_seq(r, k + 2, stream)
            y = sample_wishart(3.0, r, stream)
            a = sample_wishart(3.0, r, pairing_stream)
            worst_jump = max(
                worst_jump,
                rel_residual(q_apply(xs, k, inverse(xs[k + 1])), jump_direct(xs, k)),
            )
            adj = q_apply(xs, k, y, adjoint=True)
            lhs = inner(q_apply(xs, k, a), y.m)
            rhs = inner(a.m, adj)
            worst_pairing = max(worst_pairing, abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
            floor = pi_apply(xs[0], y.m, "inv")
            adj_eigs = np.sort(np.linalg.eigvalsh(adj.mat))
            floor_eigs = np.sort(np.linalg.eigvalsh(floor.mat))
            worst_ratio = min(worst_ratio, float((adj_eigs / floor_eigs).min()))
            if not (adj_eigs >= floor_eigs * (1 - ASSERT_TOL)).all():
                domination_violations += 1
            d = adj.mat - floor.mat
            mn = min_eig(d)
            scaled = mn / (1.0 + float(np.sqrt((d * d).sum())))
            worst_margin = min(worst_margin, scaled)
            cases += 1
            if mn < -1e-8 * (1.0 + float(np.sqrt((d * d).sum()))):
                order_violations += 1
                if r == 1:
                    rank1_order_violations += 1
            if not frob_norm(adj) > frob_norm(floor):
                norm_violations += 1
    ok = (
        worst_jump <= 1e-8
        and worst_pairing <= 1e-10
        and domination_violations == 0
        and rank1_order_violations == 0
        and norm_violations == 0
    )
    verdict(
        4,
        ok,
        f"jump residual {worst_jump:.2e} (<=1e-8), "
        f"adjoint pairing {worst_pairing:.2e} (<=1e-10); "
        f"eigenvalue domination violations {domination_violations}/{cases} "
        f"(worst eigenvalue ratio {worst_ratio:.2f}); "
        f"order bound violated in {order_violations}/{cases} cases "
        f"(worst scaled margin {worst_margin:.3f}), {rank1_order_violations} at rank 1 "
        f"(rank >= 2 reported, not asserted); "
        f"norm bound violations {norm_violations}",
    )
    assert worst_jump <= 1e-8
    assert worst_pairing <= 1e-10
    assert domination_violations == 0
    assert rank1_order_violations == 0
    assert norm_violations == 0


def test_criterion_5_cone_identities():
    worst_quad = 0.0
    worst_swap = 0.0
    antitone_violations = 0
    for r in (1, 2, 3, 4):
        stream = split_stream(RngStream(50 + r), 0)
        for _ in range(250):
            u = sample_wishart(3.0, r, stream)
            v = sample_wishart(3.0, r, stream)
            y = sample_wishart(3.0, r, stream)
            lhs = pi_apply(y, pi_apply(y, u.m, "star"), "plain")
            worst_quad = max(worst_quad, rel_residual(lhs, quad_rep_apply(y.m, u.m)))
            lhs = pi_apply(u, inverse(v).m, "inv")
            rhs = inverse(cone(pi_apply(u, v.m, "star")))
            worst_swap = max(worst_swap, rel_residual(lhs, rhs.m))
            bigger = cone(SymMatrix(u.mat + v.mat))
            d = inverse(u).mat - inverse(bigger).mat
            if min_eig(d) < -ASSERT_TOL * (1.0 + float(np.sqrt((d * d).sum()))):
                antitone_violations += 1
    ok = worst_quad <= 1e-10 and worst_swap <= 1e-10 and antitone_violations == 0
    verdict(
        5,
        ok,
        f"factorization residual {worst_quad:.2e}, inverse-swap residual "
        f"{worst_swap:.2e}, antitonicity violations {antitone_violations}",
    )
    assert worst_quad <= 1e-10
    assert worst_swap <= 1e-10
    assert antitone_violations == 0


def test_criterion_6_monotonicity_suites():
    sign_violations = 0
    decrease_violations = 0
    h_failures = 0
    u_evaluations = 0
    for case in range(200):
        r = 1 + case % 3
        stream = split_stream(RngStream(60 + r), case)
        xs = wishart_seq(r, 11, stream)
        try:
            ws = w_seq(xs, 11)
        except Exception:
            sign_violations += 1
            continue
        for wa, wb in zip(ws, ws[1:]):
            d = wa.mat - wb.mat
            if min_eig(d) < -ASSERT_TOL * (1.0 + float(np.sqrt((d * d).sum()))):
                decrease_violations += 1
        for k in range(3, 9):
            u_evaluations += 1
            try:
                u_vec(xs, k)
            except Exception:
                h_failures += 1
    ok = sign_violations == 0 and decrease_violations == 0 and h_failures == 0
    verdict(
        6,
        ok,
        f"sign violations {sign_violations}, decrease violations "
        f"{decrease_violations}, inner-factor failures {h_failures}/{u_evaluations}",
    )
    assert sign_violations == 0
    assert decrease_violations == 0
    assert h_failures == 0


def test_criterion_7_sampler_laws():
    t0 = time.perf_counter()
    params = Beta2Params(2.0, 3.0, 1)
    stream = split_stream(RngStream(70), 0)
    xs = np.array([sample_beta2(params, stream).mat[0, 0] for _ in range(10_000)])
    ks = kstest(xs, lambda t: betainc(2.0, 3.0, t / (1.0 + t))).statistic
    mean_err = abs(xs.mean() - 1.0)
    mean_gate = 4.0 * xs.std() / math.sqrt(xs.size)

    total, _ = quad(
        lambda t: math.exp(beta2_log_density(cone(SymMatrix(np.array([[t]]))), params)),
        0.0,
        200.0,
        limit=200,
    )
    quad_err = abs(total - 1.0)

    stream = split_stream(RngStream(71), 0)
    traces = np.empty(100_000)
    for i in range(traces.size):
        traces[i] = np.trace(sample_wishart(3.0, 2, stream).mat)
    tr_err = abs(traces.mean() - 6.0)
    tr_gate = 4.0 * traces.std() / math.sqrt(traces.size)
    elapsed = time.perf_counter() - t0

    ok = (
        ks < 0.02
        and mean_err < mean_gate
        and quad_err < 1e-4
        and tr_err < tr_gate
        and elapsed < 60.0
    )
    verdict(
        7,
        ok,
        f"KS {ks:.4f}, mean err {mean_err:.4f} (gate {mean_gate:.4f}), "
        f"quadrature err {quad_err:.2e}, trace err {tr_err:.4f} (gate {tr_gate:.4f}), "
        f"{elapsed:.1f} s",
    )
    assert ks < 0.02
    assert mean_err < mean_gate
    assert quad_err < 1e-4
    assert tr_err < tr_gate
    assert elapsed < 60.0


def test_criterion_8_convergence_experiment(tmp_path):
    t0 = time.perf_counter()
    results = {}
    for rank, trials in ((2, 200), (3, 100)):
        out = tmp_path / f"mc_r{rank}.csv"
        sout = tmp_path / f"mc_r{rank}.json"
        rc = cli_main(
            [
                "mc", "--rank", str(rank), "--b", "3", "--a", "3", "--a2", "4",
                "--trials", str(trials), "--depth", "100", "--seed", "7",
                "--eps", "1e-6", "--out", str(out), "--summary-out", str(sout),
            ]
        )
        assert rc == 0
        summary = json.loads(sout.read_text())
        rows = out.read_text().strip().split("\n")
        assert len(rows) - 1 == trials * 99
        results[rank] = summary
    elapsed = time.perf_counter() - t0
    fr2 = results[2]["fraction_converged"]
    fr3 = results[3]["fraction_converged"]
    viol = results[2]["monotonicity_violations"] + results[3]["monotonicity_violations"]
    ok = fr2 >= 0.99 and fr3 >= 0.99 and viol == 0 and elapsed < 300.0
    verdict(
        8,
        ok,
        f"fraction converged rank2 {fr2:.3f}, rank3 {fr3:.3f}, "
        f"monotonicity violations {viol}, {elapsed:.0f} s",
    )
    assert fr2 >= 0.99
    assert fr3 >= 0.99
    assert viol == 0
    assert elapsed < 300.0


def test_criterion_9_determinism(tmp_path):
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.csv"
        sout = tmp_path / f"{tag}.summary.json"
        dump = tmp_path / f"{tag}.samples.json"
        rc = cli_main(
            [
                "mc", "--rank", "2", "--b", "3", "--a", "3", "--a2", "4",
                "--trials", "20", "--depth", "50", "--seed", "123",
                "--eps", "1e-6", "--out", str(out), "--summary-out", str(sout),
            ]
        )
        assert rc == 0
        rc = cli_main(
            ["sample", "--dist", "beta2", "--rank", "2", "--p", "3", "--q", "4",
             "--n", "16", "--seed", "99", "--out", str(dump)]
        )
        assert rc == 0
        blobs.append((out.read_bytes(), sout.read_bytes(), dump.read_bytes()))
    ok = blobs[0] == blobs[1]
    verdict(9, ok, "CSV, summary JSON, and sample dumps byte-identical across reruns")
    assert ok
