"""Command-line front end with machine-readable JSON output.

Every subcommand prints one JSON document:

    {"meta": {...}, "results": [...], "warnings": [...]}

Evaluator subcommands put {"point": [...], "value": {"re": ..., "im": ...}}
entries in results; structural subcommands put plain JSON payloads there.
Exit codes: 0 success, 1 domain error (error class name on stderr),
2 argument errors, 141 (128 + SIGPIPE, as a shell reports a filter that a
closed pipe stopped) when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from .errors import HowecharError
from .howe import DualPairSpec, PairKind, dual_pair, support_interval, validate_weight
from .orbits import orbit_integral_oracle, rdv_fourier
from .rootsys import build_root_system, rho
from .thetachar import (
    ThetaCharacter,
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


def _rational_text(text: str) -> str:
    """text as given, once _fractions reads it: oracle's meta echoes the text."""
    _fractions(text)
    return text


def _floats(text: str) -> list[float]:
    try:
        return [float(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from None


def _cvalue(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _emit(meta: dict, results: list, warnings: list[str]) -> None:
    doc = {"meta": meta, "results": results, "warnings": warnings}
    print(json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str))


def _add_point_options(sp) -> None:
    sp.add_argument("--theta", type=_floats, help="comma-separated angles in radians")
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
    sp.add_argument("--nu", type=_fractions, required=True, help="comma-separated rationals, e.g. '3/2,-1/2'")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="howechar", description=__doc__)
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
    sp.add_argument("--weight", type=_fractions, required=True)
    _add_point_options(sp)

    sp = sub.add_parser("dim", help="Weyl dimension of a highest weight")
    sp.add_argument("--family", required=True, choices=tuple("ABCD"))
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--weight", type=_fractions, required=True)

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
    sp.add_argument(
        "--lambda-min", dest="lambda_min", type=_fractions, help="comma-separated rationals; default from the expansion"
    )
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
    sp.add_argument("--lam", type=_fractions, required=True, help="comma-separated rationals")
    sp.add_argument("--x", type=_floats, required=True, help="comma-separated reals")

    sp = sub.add_parser("oracle", help="Monte-Carlo / determinant orbit oracles")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lam", type=_rational_text, required=True, help="comma-separated rationals")
    sp.add_argument("--x", type=_floats, required=True)
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
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    grammar = {}
    for name, sp in commands.choices.items():
        actions = [a for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        if all(
            a.option_strings and (type(a) is argparse._StoreTrueAction or (type(a) is argparse._StoreAction and a.nargs is None))
            for a in actions
        ):
            options = {s: a for a in actions for s in a.option_strings}
            defaults = {"command": name, **{a.dest: a.default for a in actions}}
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


def _pair(args) -> DualPairSpec:
    kind = PAIR_ALIASES[args.pair]
    if kind is PairKind.UU:
        return dual_pair(kind, args.n, p=args.p, q=args.q)
    return dual_pair(kind, args.n, m=args.m)


def _instance(args) -> ThetaCharacter:
    """The character of --pair at --nu; --m picks the embedding for uu only."""
    pair = _pair(args)
    return theta_character(pair, args.nu, m=args.m if pair.kind is PairKind.UU else None)


def _at_points(args, rs, f) -> list[dict]:
    """f at the --theta point, or at --random-regular points of rs drawn from --seed."""
    if args.theta is not None:
        points = [tuple(args.theta)]
    else:
        rng = random.Random(args.seed)
        points = [random_regular(rs, rng) for _ in range(args.random_regular)]
    return [{"point": list(pt), "value": _cvalue(f(pt))} for pt in points]


def _results(args, warnings: list[str]) -> tuple[dict, list]:
    """The meta and results of one parsed op other than verify."""
    cmd = args.command
    if cmd in ("roots", "rho", "char", "dim"):
        rs = build_root_system(args.family, args.rank)
        meta = {"family": args.family, "rank": args.rank}
        if cmd == "roots":
            return {**meta, "count": len(rs.positive_roots)}, [{"root": _strs(alpha)} for alpha in rs.positive_roots]
        if cmd == "rho":
            return meta, [{"rho": _strs(rho(rs))}]
        lam = tuple(args.weight)
        meta["weight"] = _strs(lam)
        if cmd == "dim":
            return meta, [{"dimension": weyl_dimension(rs, lam)}]
        return {**meta, "seed": args.seed}, _at_points(args, rs, lambda pt: weyl_character(rs, lam, pt))
    if cmd in ("theta", "numerator"):
        tc = _instance(args)
        f = theta_eval if cmd == "theta" else theta_numerator_form
        meta = {
            "pair": args.pair,
            "n": args.n,
            "p": args.p,
            "q": args.q,
            "m": args.m,
            "nu": _strs(args.nu),
            "m_embed": tc.m,
            "interval": [tc.interval.lo, tc.interval.hi],
            "seed": args.seed,
            "normalization": "up to one overall constant per instance",
        }
        return meta, _at_points(args, tc.pair.rs_gprime, lambda pt: f(tc, pt))
    if cmd == "theta-closed-u1":
        meta = {"p": args.p, "q": args.q, "lam1": args.lam1, "m": args.m, "seed": args.seed}
        rs = build_root_system("A", args.p + args.q)
        return meta, _at_points(args, rs, lambda pt: theta_u1_closed(args.p, args.q, args.lam1, args.m, pt))
    if cmd in ("constant", "ktypes"):
        tc = _instance(args)
        meta = {"pair": args.pair, "nu": _strs(args.nu), "m_embed": tc.m}
        if cmd == "ktypes":
            kt = ktype_expansion(tc, depth=args.truncation)
            return {**meta, "depth": args.truncation}, [{"ktype": _strs(g), "multiplicity": mult} for g, mult in kt.items()]
        if args.lambda_min:
            lam_min = tuple(args.lambda_min)
        else:
            lam_min = next(iter(ktype_expansion(tc, depth=4)))
            warnings.append("lambda-min taken from the expansion's top K-type")
        C = normalizing_constant(tc, lam_min)
        return {**meta, "truncation": args.truncation}, [{"lambda_min": _strs(lam_min), "constant": str(C)}]
    if cmd == "support":
        pair = _pair(args)
        cd = validate_weight(pair, args.nu)
        iv = support_interval(pair, cd)
        result = {"lo": iv.lo, "hi": iv.hi, "mu_prime": _strs(cd.mu_prime), "a": _strs(iv.a), "b": _strs(iv.b)}
        return {"pair": args.pair, "nu": _strs(args.nu)}, [result]
    if cmd == "identity":
        mode = "deterministic-grid" if args.mode == "grid" else "random-rational"
        verdict = vandermonde_identity_check(args.p, args.q, args.k, mode=mode, seed=args.seed)
        meta = {"p": args.p, "q": args.q, "k": args.k, "mode": args.mode, "seed": args.seed}
        return meta, [{"verdict": verdict.status, "detail": verdict.detail}]
    if cmd == "rdv":
        if len(args.lam) != args.n:
            raise ValueError("dimension mismatch")
        value = rdv_fourier(args.lam, args.x)
        return {"n": args.n, "lam": _strs(args.lam)}, [{"point": args.x, "value": _cvalue(value)}]
    # oracle
    lam = _fractions(args.lam)
    if len(lam) != args.n:
        raise ValueError("dimension mismatch")
    if args.method == "hciz":
        value, stderr = rdv_fourier(lam, args.x), None
    else:
        est = orbit_integral_oracle(lam, args.x, n_samples=args.samples, seed=args.seed)
        value, stderr = est.value, est.stderr
    meta = {"n": args.n, "lam": args.lam, "samples": args.samples, "seed": args.seed, "method": args.method}
    return meta, [{"point": args.x, "value": _cvalue(value), "stderr": stderr}]


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
    if args.command == "verify":
        from . import verify  # imported here: no other subcommand needs the check table

        return 0 if verify.run_suite(quick=args.quick) else 1
    warnings: list[str] = []
    try:
        meta, results = _results(args, warnings)
    except HowecharError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ValueError: {exc}", file=sys.stderr)
        return 1
    _emit(meta, results, warnings)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point it at devnull so the
        # flush at exit cannot raise again, and stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
