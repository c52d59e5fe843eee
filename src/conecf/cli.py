"""Command-line driver.

Subcommands: ``eval`` (convergents of a continued fraction from a JSON
sequence file), ``equiv`` (general vs ordinary evaluator agreement on a
file), ``identities`` (randomized identity suite), ``mc`` (Monte Carlo
convergence experiment), ``sample`` (emit random cone matrices).  Output
is deterministic for a fixed seed.  Exit codes: 0 success, 1 failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .contfrac import DEPTH_CAP, CFSequence, cf_general, cf_ordinary, to_ordinary, trace_cf
from .harness import (
    ExperimentConfig,
    format_identity_report,
    run_convergence_experiment,
    run_identity_suite,
    summary_json,
)
from .jordan import cone, from_json_dict, rel_residual, to_json_dict
from .randmat import Beta2Params, RngStream, sample_beta2, sample_wishart

EQUIV_TOL = 1e-9


class UsageError(ValueError):
    """A flag value the input makes invalid; reported with exit code 2."""


def load_sequence(path: str) -> CFSequence:
    """Read a CFSequence from JSON: {"head": m|null, "xs": [m...], "ys": [m...]?}."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("the sequence file nests too deeply to parse") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("xs"), list):
        raise ValueError('a sequence file holds an object with an "xs" list of matrices')
    xs = tuple(cone(from_json_dict(d)) for d in doc["xs"])
    ys = doc.get("ys")
    if ys is not None and not isinstance(ys, list):
        raise ValueError('"ys" must be a list of matrices or null')
    ys = tuple(cone(from_json_dict(d)) for d in ys) if ys is not None else None
    head = doc.get("head")
    head = cone(from_json_dict(head)) if head is not None else None
    return CFSequence(xs, ys, head)


def _depth(args, seq: CFSequence, cap: Optional[int] = None) -> int:
    """The --depth flag checked against the file (and a cap), defaulting to the top of that range."""
    top = len(seq.xs) if cap is None else min(len(seq.xs), cap)
    if args.depth is None:
        return top
    if not 1 <= args.depth <= top:
        raise UsageError(f"--depth {args.depth} out of range [1, {top}] for this file")
    return args.depth


def _cmd_eval(args) -> int:
    seq = load_sequence(args.file)
    depth = _depth(args, seq)
    trace = trace_cf(seq, depth)
    if args.format == "csv":
        sys.stdout.write(trace.csv_text())
    elif args.format == "json":
        doc = {
            "depth": depth,
            "convergents": [
                {"k": rec.k, "matrix": to_json_dict(rec.convergent)} for rec in trace.records
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        for rec in trace.records:
            print(f"{rec.k}\t{json.dumps(to_json_dict(rec.convergent)['data'])}")
    return 0


def _cmd_equiv(args) -> int:
    seq = load_sequence(args.file)
    depth = _depth(args, seq, DEPTH_CAP)
    ys = seq.ys[:depth] if seq.ys is not None else None
    a = to_ordinary(CFSequence(seq.xs[:depth], ys, seq.head))
    worst = 0.0
    for n in range(1, depth + 1):
        worst = max(worst, rel_residual(cf_general(seq, n), cf_ordinary(a[0], a[1:], n)))
    print(f"max relative deviation over depths 1..{depth}: {worst:.6e}")
    return 0 if worst <= EQUIV_TOL else 1


def _cmd_identities(args) -> int:
    report = run_identity_suite(args.rank, args.cases, args.seed)
    print(format_identity_report(report))
    return 0 if report["pass"] else 1


def _cmd_mc(args) -> int:
    cfg = ExperimentConfig(
        rank=args.rank,
        b=args.b,
        a=args.a,
        a_prime=args.a2,
        trials=args.trials,
        depth=args.depth,
        seed=args.seed,
        cauchy_eps=args.eps,
        period=args.period,
        out_path=args.out,
        law=args.law,
    )
    summary = run_convergence_experiment(cfg)
    text = summary_json(summary)
    sys.stdout.write(text)
    if args.summary_out is not None:
        with open(args.summary_out, "w", newline="\n") as fh:
            fh.write(text)
    return 0


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    rng = RngStream(args.seed)
    if args.dist == "beta2":
        params = Beta2Params(args.p, args.q, args.rank)
        draws = [sample_beta2(params, rng) for _ in range(args.n)]
        header = {"dist": "beta2", "p": args.p, "q": args.q}
    else:
        draws = [sample_wishart(args.s, args.rank, rng) for _ in range(args.n)]
        header = {"dist": "wishart", "p": args.s, "q": None}
    doc = dict(header)
    doc.update({"r": args.rank, "seed": args.seed, "n": args.n})
    doc["samples"] = [to_json_dict(d) for d in draws]
    text = json.dumps(doc, indent=2) + "\n"
    if args.out is not None:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecf",
        description="continued fractions on the cone of positive definite matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print convergents of a sequence file")
    p_eval.add_argument("file")
    p_eval.add_argument("--depth", type=int, default=None)
    p_eval.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_eval.set_defaults(func=_cmd_eval)

    p_equiv = sub.add_parser("equiv", help="check general vs ordinary agreement on a file")
    p_equiv.add_argument("file")
    p_equiv.add_argument("--depth", type=int, default=None)
    p_equiv.set_defaults(func=_cmd_equiv)

    p_ident = sub.add_parser("identities", help="run the randomized identity suite")
    p_ident.add_argument("--rank", type=int, default=2)
    p_ident.add_argument("--cases", type=int, default=200)
    p_ident.add_argument("--seed", type=int, default=0)
    p_ident.set_defaults(func=_cmd_identities)

    p_mc = sub.add_parser("mc", help="run the Monte Carlo convergence experiment")
    p_mc.add_argument("--rank", type=int, default=2)
    p_mc.add_argument("--b", type=float, default=3.0)
    p_mc.add_argument("--a", type=float, default=3.0)
    p_mc.add_argument("--a2", type=float, default=4.0)
    p_mc.add_argument("--trials", type=int, default=100)
    p_mc.add_argument("--depth", type=int, default=80)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--eps", type=float, default=1e-6)
    p_mc.add_argument("--period", type=int, default=2)
    p_mc.add_argument("--law", choices=("beta2", "identity"), default="beta2")
    p_mc.add_argument("--out", default=None, help="CSV trace path")
    p_mc.add_argument("--summary-out", dest="summary_out", default=None)
    p_mc.set_defaults(func=_cmd_mc)

    p_sample = sub.add_parser("sample", help="emit random draws as JSON")
    p_sample.add_argument("--dist", choices=("beta2", "wishart"), default="beta2")
    p_sample.add_argument("--rank", type=int, default=2)
    p_sample.add_argument("--p", type=float, default=3.0)
    p_sample.add_argument("--q", type=float, default=3.0)
    p_sample.add_argument("--s", type=float, default=3.0, help="wishart shape")
    p_sample.add_argument("--n", type=int, default=10)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=_cmd_sample)
    return parser


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
