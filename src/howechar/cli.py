"""Command-line front end with machine-readable JSON output.

Every subcommand prints one JSON document:

    {"meta": {...}, "results": [...], "warnings": [...]}

Evaluator subcommands put {"point": [...], "value": {"re": ..., "im": ...}}
entries in results; structural subcommands put plain JSON payloads there.
Exit codes: 0 success, 1 domain error (error class name on stderr),
2 argument errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from .errors import HowecharError
from .howe import PairKind, dual_pair, support_interval, validate_weight
from .orbits import orbit_integral_oracle, orbit_parameter, rdv_fourier
from .rootsys import build_root_system, rho
from .thetachar import (
    ktype_expansion,
    normalizing_constant,
    theta_character,
    theta_eval,
    theta_numerator_form,
    theta_u1_closed,
    vandermonde_identity_check,
)
from .torus import random_regular
from .weylchar import weyl_character, weyl_dimension

PAIR_ALIASES = {
    "uu": PairKind.UU,
    "oeven": PairKind.OEVEN_SP,
    "oeven-sp": PairKind.OEVEN_SP,
    "oodd": PairKind.OODD_SP,
    "oodd-sp": PairKind.OODD_SP,
    "ostar": PairKind.UH_OSTAR,
    "uh-ostar": PairKind.UH_OSTAR,
}


def _fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected comma-separated rationals, got {text!r}") from None


def _floats(text: str) -> list[float]:
    try:
        return [float(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from None


def _cvalue(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _emit(meta: dict, results: list, warnings: list[str], fmt: str) -> None:
    doc = {"meta": meta, "results": results, "warnings": warnings}
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str))
        return
    for key, val in meta.items():
        print(f"# {key}: {val}")
    for row in results:
        print(row)
    for w in warnings:
        print(f"! {w}")


def _pair_from_args(args):
    kind = PAIR_ALIASES[args.pair]
    if kind is PairKind.UU:
        return dual_pair(kind, args.n, p=args.p, q=args.q)
    return dual_pair(kind, args.n, m=args.m)


def _embedding_choice(args):
    return args.m if PAIR_ALIASES[args.pair] is PairKind.UU else None


def _points_from_args(args, rs):
    if args.theta is not None:
        return [tuple(_floats(args.theta))]
    rng = random.Random(args.seed)
    return [random_regular(rs, rng) for _ in range(args.random_regular)]


def _add_point_options(sp) -> None:
    sp.add_argument("--theta", help="comma-separated angles in radians")
    sp.add_argument("--random-regular", type=int, default=0, metavar="COUNT")
    sp.add_argument("--seed", type=int, default=0)


def _add_pair_options(sp) -> None:
    sp.add_argument("--pair", required=True, choices=sorted(PAIR_ALIASES))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument(
        "--m",
        type=int,
        help="for uu: the embedding index m (default: auto); otherwise the size of the noncompact member",
    )
    sp.add_argument("--nu", required=True, help="comma-separated rationals, e.g. '3/2,-1/2'")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="howechar", description=__doc__)
    parser.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="positive roots of a classical system")
    sp.add_argument("--family", required=True, choices=tuple("ABCD"))
    sp.add_argument("--rank", type=int, required=True)

    sp = sub.add_parser("rho", help="half-sum of positive roots")
    sp.add_argument("--family", required=True, choices=tuple("ABCD"))
    sp.add_argument("--rank", type=int, required=True)

    sp = sub.add_parser("char", help="Weyl character value at torus points")
    sp.add_argument("--family", required=True, choices=tuple("ABCD"))
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--weight", required=True)
    _add_point_options(sp)

    sp = sub.add_parser("dim", help="Weyl dimension of a highest weight")
    sp.add_argument("--family", required=True, choices=tuple("ABCD"))
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--weight", required=True)

    sp = sub.add_parser("theta", help="dual-pair character at torus points")
    _add_pair_options(sp)
    _add_point_options(sp)

    sp = sub.add_parser("theta-closed-u1", help="rank-one closed forms")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--lam1", type=int, required=True)
    sp.add_argument("--m", type=int, required=True, choices=(0, 1))
    _add_point_options(sp)

    sp = sub.add_parser("numerator", help="polynomial numerator form at torus points")
    _add_pair_options(sp)
    _add_point_options(sp)

    sp = sub.add_parser("constant", help="normalizing constant from the minimal K-type")
    _add_pair_options(sp)
    sp.add_argument("--lambda-min", dest="lambda_min", help="comma-separated rationals; default from the expansion")
    sp.add_argument(
        "--truncation",
        type=int,
        default=40,
        help="accepted and echoed in meta, but no longer changes the result: the coefficient at lambda-min + rho_0 "
        "is read exactly from one series cut at its level",
    )

    sp = sub.add_parser("ktypes", help="K-type multiplicities to a chamber depth")
    _add_pair_options(sp)
    sp.add_argument(
        "--truncation", type=int, default=20, help="chamber depth below the top of the series; every K-type down to it is exact"
    )

    sp = sub.add_parser("support", help="support interval and exponent table")
    _add_pair_options(sp)

    sp = sub.add_parser("identity", help="partial-fraction identity check")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--mode", choices=("grid", "random"), default="grid")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("rdv", help="coadjoint-orbit Fourier transform for U(n)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lam", required=True, help="comma-separated rationals")
    sp.add_argument("--x", required=True, help="comma-separated reals")

    sp = sub.add_parser("oracle", help="Monte-Carlo / determinant orbit oracles")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lam", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--samples", type=int, default=10**5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--method", choices=("mc", "hciz"), default="mc")

    sp = sub.add_parser("verify", help="run the invariant suite; nonzero exit on failure")
    sp.add_argument("--quick", action="store_true")

    return parser


@functools.cache
def _plain_grammar() -> dict:
    """build_parser()'s grammar as lookup tables, built once per process.

    Per subcommand: {option string: action}, the Namespace defaults and the
    required dests.  A subcommand with an action other than a one-value
    store or a store_true (its help action aside) gets no table."""
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    top = {a.dest: a.default for a in parser._actions if a.default is not argparse.SUPPRESS}
    grammar = {}
    for name, sp in commands.choices.items():
        actions = [a for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        if all(
            a.option_strings and (type(a) is argparse._StoreTrueAction or (type(a) is argparse._StoreAction and a.nargs is None))
            for a in actions
        ):
            options = {s: a for a in actions for s in a.option_strings}
            defaults = {**top, "command": name, **{a.dest: a.default for a in actions}}
            grammar[name] = options, defaults, {a.dest for a in actions if a.required}
    return grammar


def _read_plain(argv) -> argparse.Namespace | None:
    """The Namespace that build_parser().parse_args(argv) returns, for plain
    argv: a subcommand, then exact option strings of it, each value given as
    `--opt=value` or as the next token when that does not start with '-'.
    None for anything else (help, abbreviations, '--', a negative number as
    its own token, a bad value, a missing option): argparse decides those."""
    grammar = _plain_grammar()
    if not argv or argv[0] not in grammar:
        return None
    options, defaults, required = grammar[argv[0]]
    values = dict(defaults)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        action = options.get(name)
        if action is None:
            return None
        if action.nargs == 0:  # store_true, which takes no value
            if eq:
                return None
            value = action.const
        else:
            if not eq:
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None
            elif value == "--":  # argparse strips a '--' value to an empty list
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        values[action.dest] = value
        seen.add(action.dest)
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def _theta_like(args, evaluator):
    pair = _pair_from_args(args)
    nu = _fractions(args.nu)
    tc = theta_character(pair, nu, m=_embedding_choice(args))
    points = _points_from_args(args, pair.rs_gprime)
    results = [{"point": list(pt), "value": _cvalue(evaluator(tc, pt))} for pt in points]
    meta = {
        "pair": args.pair,
        "n": args.n,
        "p": args.p,
        "q": args.q,
        "m": args.m,
        "nu": [str(v) for v in nu],
        "m_embed": tc.m,
        "interval": [tc.interval.lo, tc.interval.hi],
        "seed": args.seed,
        "normalization": "up to one overall constant per instance",
    }
    return meta, results


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = _read_plain(argv)
    if args is None:
        args = parser.parse_args(argv)
    if getattr(args, "pair", None) is not None:
        sizes = ("p", "q") if PAIR_ALIASES[args.pair] is PairKind.UU else ("m",)
        missing = [f"--{s}" for s in sizes if getattr(args, s) is None]
        if missing:
            parser.error(f"--pair {args.pair} needs {' and '.join(missing)}")
    if args.command == "oracle" and args.samples < 1:
        parser.error(f"--samples must be at least 1, got {args.samples}")
    if getattr(args, "random_regular", 1) <= 0 and args.theta is None:
        parser.error("provide --theta or a positive --random-regular COUNT")
    if args.command == "ktypes" and args.truncation < 0:
        parser.error(f"--truncation must be at least 0, got {args.truncation}")
    warnings: list[str] = []
    try:
        if args.command == "roots":
            rs = build_root_system(args.family, args.rank)
            meta = {"family": args.family, "rank": args.rank, "count": len(rs.positive_roots)}
            results = [{"root": [str(c) for c in alpha]} for alpha in rs.positive_roots]
            _emit(meta, results, warnings, args.format)
        elif args.command == "rho":
            rs = build_root_system(args.family, args.rank)
            _emit(
                {"family": args.family, "rank": args.rank},
                [{"rho": [str(c) for c in rho(rs)]}],
                warnings,
                args.format,
            )
        elif args.command == "char":
            rs = build_root_system(args.family, args.rank)
            lam = tuple(_fractions(args.weight))
            points = _points_from_args(args, rs)
            results = [
                {"point": list(pt), "value": _cvalue(weyl_character(rs, lam, pt))} for pt in points
            ]
            meta = {"family": args.family, "rank": args.rank, "weight": [str(c) for c in lam], "seed": args.seed}
            _emit(meta, results, warnings, args.format)
        elif args.command == "dim":
            rs = build_root_system(args.family, args.rank)
            lam = tuple(_fractions(args.weight))
            meta = {"family": args.family, "rank": args.rank, "weight": [str(c) for c in lam]}
            _emit(meta, [{"dimension": weyl_dimension(rs, lam)}], warnings, args.format)
        elif args.command == "theta":
            meta, results = _theta_like(args, theta_eval)
            _emit(meta, results, warnings, args.format)
        elif args.command == "numerator":
            meta, results = _theta_like(args, theta_numerator_form)
            _emit(meta, results, warnings, args.format)
        elif args.command == "theta-closed-u1":
            rs = build_root_system("A", args.p + args.q)
            points = _points_from_args(args, rs)
            results = [
                {
                    "point": list(pt),
                    "value": _cvalue(theta_u1_closed(args.p, args.q, args.lam1, args.m, pt)),
                }
                for pt in points
            ]
            meta = {"p": args.p, "q": args.q, "lam1": args.lam1, "m": args.m, "seed": args.seed}
            _emit(meta, results, warnings, args.format)
        elif args.command == "constant":
            pair = _pair_from_args(args)
            nu = _fractions(args.nu)
            tc = theta_character(pair, nu, m=_embedding_choice(args))
            if args.lambda_min:
                lam_min = tuple(_fractions(args.lambda_min))
            else:
                lam_min = next(iter(ktype_expansion(tc, depth=4)))
                warnings.append("lambda-min taken from the expansion's top K-type")
            C = normalizing_constant(tc, lam_min)
            meta = {"pair": args.pair, "nu": [str(v) for v in nu], "m_embed": tc.m, "truncation": args.truncation}
            _emit(meta, [{"lambda_min": [str(c) for c in lam_min], "constant": str(C)}], warnings, args.format)
        elif args.command == "ktypes":
            pair = _pair_from_args(args)
            nu = _fractions(args.nu)
            tc = theta_character(pair, nu, m=_embedding_choice(args))
            kt = ktype_expansion(tc, depth=args.truncation)
            meta = {"pair": args.pair, "nu": [str(v) for v in nu], "m_embed": tc.m, "depth": args.truncation}
            results = [{"ktype": [str(c) for c in g], "multiplicity": mult} for g, mult in kt.items()]
            _emit(meta, results, warnings, args.format)
        elif args.command == "support":
            pair = _pair_from_args(args)
            nu = _fractions(args.nu)
            cd = validate_weight(pair, nu)
            iv = support_interval(pair, cd)
            meta = {"pair": args.pair, "nu": [str(v) for v in nu]}
            results = [
                {
                    "lo": iv.lo,
                    "hi": iv.hi,
                    "mu_prime": [str(c) for c in cd.mu_prime],
                    "a": [str(c) for c in iv.a],
                    "b": [str(c) for c in iv.b],
                }
            ]
            _emit(meta, results, warnings, args.format)
        elif args.command == "identity":
            mode = "deterministic-grid" if args.mode == "grid" else "random-rational"
            verdict = vandermonde_identity_check(args.p, args.q, args.k, mode=mode, seed=args.seed)
            meta = {"p": args.p, "q": args.q, "k": args.k, "mode": args.mode, "seed": args.seed}
            _emit(meta, [{"verdict": verdict.status, "detail": verdict.detail}], warnings, args.format)
        elif args.command == "rdv":
            rs = build_root_system("A", args.n)
            lam = _fractions(args.lam)
            op = orbit_parameter(rs, rs, lam)
            value = rdv_fourier(rs, rs, op, _floats(args.x))
            meta = {"n": args.n, "lam": [str(v) for v in lam]}
            _emit(meta, [{"point": _floats(args.x), "value": _cvalue(value)}], warnings, args.format)
        elif args.command == "oracle":
            est = orbit_integral_oracle(
                args.n, _fractions(args.lam), _floats(args.x), n_samples=args.samples, seed=args.seed, method=args.method
            )
            meta = {"n": args.n, "lam": args.lam, "samples": args.samples, "seed": args.seed, "method": est.method}
            _emit(meta, [{"point": _floats(args.x), "value": _cvalue(est.value), "stderr": est.stderr}], warnings, args.format)
        elif args.command == "verify":
            from . import verify  # imported here: no other subcommand needs the check table

            return 0 if verify.run_suite(quick=args.quick) else 1
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except HowecharError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ValueError: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
