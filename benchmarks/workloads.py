"""The four workloads: each builds a fixed list of CLI ops from a seed, plus
the checks that judge their outputs.

An op is one argv for `howechar.cli.run`.  Ops are grouped by instance and
executed round-robin across the groups, so every stretch of a round mixes
op kinds and machine drift hits them all alike.  Each check names the ops it
reads; the runner hands it their parsed JSON documents in that order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import checks as C

TWO_PI = 2 * math.pi
# regular points drawn by the benchmark keep every root sine at least this
# far from zero, the margin the CLI's own --random-regular sampler uses
POINT_MARGIN = 0.05


@dataclass
class Check:
    name: str
    ops: tuple[int, ...]
    fn: Callable[..., None]


@dataclass
class Plan:
    ops: list[list[str]] = field(default_factory=list)
    groups: list[list[int]] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)

    def group(self) -> None:
        self.groups.append([])

    def op(self, *argv) -> int:
        self.ops.append([str(a) for a in argv])
        self.groups[-1].append(len(self.ops) - 1)
        return len(self.ops) - 1

    def check(self, name: str, ops, fn) -> None:
        self.checks.append(Check(name, tuple(ops), fn))

    def order(self) -> list[int]:
        """Execution order: round-robin over the instance groups."""
        out = []
        for i in range(max(len(g) for g in self.groups)):
            out.extend(g[i] for g in self.groups if i < len(g))
        return out


# ---------------------------------------------------------------------------
# instances and argv helpers


@dataclass(frozen=True)
class Instance:
    kind: str  # 'uu', 'oeven', 'oodd' or 'ostar'
    n: int
    nu: str
    p: int = 0
    q: int = 0
    m: int = 0  # size of the noncompact member for the signed pairs

    def args(self) -> list[str]:
        sizes = ["--p", self.p, "--q", self.q] if self.kind == "uu" else ["--m", self.m]
        return ["--pair", self.kind, "--n", self.n, *sizes, f"--nu={self.nu}"]

    def embed(self, m: int | None) -> list[str]:
        """The --m choice of a uu embedding index; signed pairs have one embedding."""
        return ["--m", m] if self.kind == "uu" and m is not None else []

    @property
    def rank(self) -> int:
        return self.p + self.q if self.kind == "uu" else self.m

    @property
    def nu_fr(self) -> list[Fraction]:
        return [Fraction(v) for v in self.nu.split(",")]

    @property
    def blocks(self) -> list[tuple[int, int]]:
        """Coordinate blocks permuted by W(K')."""
        if self.kind == "uu":
            return [(0, self.p), (self.p, self.p + self.q)]
        return [(0, self.m)]

    def __str__(self) -> str:
        sizes = f"{self.p},{self.q}" if self.kind == "uu" else f"{self.m}"
        return f"{self.kind}({self.n};{sizes}) nu=({self.nu})"


def theta_arg(theta) -> str:
    return "--theta=" + ",".join(repr(float(t)) for t in theta)


def regular_point(rng: random.Random, family: str, rank: int) -> tuple[float, ...]:
    while True:
        theta = tuple(rng.uniform(0.0, TWO_PI) for _ in range(rank))
        if C.min_root_sine(family, theta) >= POINT_MARGIN:
            return theta


def block_permutation(rng: random.Random, inst: Instance) -> tuple[int, ...]:
    """A non-identity element of W(K') as a coordinate permutation."""
    ident = tuple(range(inst.rank))
    while True:
        perm = list(ident)
        for start, stop in inst.blocks:
            chunk = perm[start:stop]
            rng.shuffle(chunk)
            perm[start:stop] = chunk
        if tuple(perm) != ident:
            return tuple(perm)


def distinct_reals(rng: random.Random, n: int, lo: float, hi: float, gap: float) -> list[float]:
    while True:
        x = [rng.uniform(lo, hi) for _ in range(n)]
        if min(abs(a - b) for i, a in enumerate(x) for b in x[i + 1 :]) >= gap:
            return x


def distinct_ints(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return sorted(rng.sample(range(lo, hi + 1), n), reverse=True)


def csv(vals) -> str:
    return ",".join(str(v) for v in vals)


def _only(doc: dict) -> complex:
    return C.value(doc["results"][0])


# ---------------------------------------------------------------------------
# torus_eval: pointwise float evaluation on one large instance per pair kind

TORUS_INSTANCES = (
    Instance("uu", 2, "-1/2,-1/2", p=4, q=3),
    Instance("oeven", 3, "1,0,0", m=5),
    Instance("oodd", 3, "1,1,1", m=3),
    Instance("ostar", 3, "2,1,1", m=4),
    Instance("uu", 3, "1,0,0", p=3, q=3),
)
TORUS_POINTS = 16
NUMERATOR_POINTS = 2
INVARIANCE_MOVES = 2
CHAR_WEIGHTS = (("A", 5, (3, 2, 1, 1, 0)), ("C", 3, (2, 1, 0)))
RDV_RANKS = (2, 3, 4)
CLOSED_U1 = (3, 2, 1)  # p, q, lam1 of the rank-one closed forms, both m


def torus_eval(seed: int) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    for inst in TORUS_INSTANCES:
        plan.group()
        family = C.gprime_family(inst.kind)
        s = rng.randrange(2**31)
        many = plan.op("theta", *inst.args(), "--random-regular", TORUS_POINTS, "--seed", s)
        num = plan.op("numerator", *inst.args(), "--random-regular", NUMERATOR_POINTS, "--seed", s)

        def numerator_ratio(d_theta, d_num, family=family):
            pts = C.points(d_num)
            if C.points(d_theta)[: len(pts)] != pts:
                raise C.CheckFailed("numerator and theta were not evaluated at the same seeded points")
            thetas = C.values(d_theta)[: len(pts)]
            C.check_constant_ratio(C.values(d_num), [C.weyl_denominator(family, t) * v for t, v in zip(pts, thetas)])

        plan.check(f"numerator/(Delta theta) constant, {inst}", (many, num), numerator_ratio)

        base = regular_point(rng, family, inst.rank)
        b = plan.op("theta", *inst.args(), theta_arg(base))
        shifted = []
        for k in range(inst.rank):
            moved = list(base)
            moved[k] += TWO_PI
            shifted.append(plan.op("theta", *inst.args(), theta_arg(moved)))
        plan.check(
            f"periodicity, {inst}", (b, *shifted), lambda d0, *ds: C.check_periodic(_only(d0), [_only(d) for d in ds])
        )
        perms = [block_permutation(rng, inst) for _ in range(INVARIANCE_MOVES)]
        moved_ops = [plan.op("theta", *inst.args(), theta_arg([base[i] for i in perm])) for perm in perms]
        plan.check(
            f"W(K') invariance, {inst}", (b, *moved_ops), lambda d0, *ds: C.check_invariant(_only(d0), [_only(d) for d in ds])
        )

    plan.group()
    for family, rank, lam in CHAR_WEIGHTS:
        o = plan.op("char", "--family", family, "--rank", rank, "--weight", csv(lam), "--random-regular", TORUS_POINTS, "--seed", rng.randrange(2**31))
        oracle = C.bialternant_a if family == "A" else C.bialternant_c

        def char_check(doc, lam=lam, oracle=oracle, family=family):
            for pt, v in zip(C.points(doc), C.values(doc)):
                C.check_close(v, oracle(lam, pt), C.REL_TOL, f"char {family} {lam} vs bialternant")

        plan.check(f"char {family}{rank} == bialternant", (o,), char_check)

    for n in RDV_RANKS:
        lam = distinct_ints(rng, n, -6, 6)
        x = distinct_reals(rng, n, -3.0, 3.0, 0.15)
        o = plan.op("rdv", "--n", n, f"--lam={csv(lam)}", f"--x={csv(map(repr, x))}")
        plan.check(
            f"rdv == HCIZ determinant, n={n}",
            (o,),
            lambda doc, lam=lam, x=x: C.check_close(_only(doc), C.hciz_fourier(lam, x), C.REL_TOL, "rdv vs HCIZ"),
        )

    p, q, lam1 = CLOSED_U1
    inst = Instance("uu", 1, str(Fraction(q - p, 2) + lam1), p=p, q=q)
    for m in (0, 1):
        plan.group()
        s = rng.randrange(2**31)
        closed = plan.op("theta-closed-u1", "--p", p, "--q", q, "--lam1", lam1, "--m", m, "--random-regular", TORUS_POINTS, "--seed", s)
        th = plan.op("theta", *inst.args(), *inst.embed(m), "--random-regular", TORUS_POINTS, "--seed", s)

        def closed_ratio(d_closed, d_theta):
            C.check_same_points(d_closed, d_theta)
            C.check_constant_ratio(C.values(d_closed), C.values(d_theta))

        plan.check(f"theta-closed-u1/theta constant, {inst} m={m}", (closed, th), closed_ratio)
    return plan


# ---------------------------------------------------------------------------
# formal_series: the exact Laurent engine, no float evaluation to speak of


@dataclass(frozen=True)
class SeriesCase:
    inst: Instance
    depth: int  # ktypes --truncation
    level: int  # constant --truncation (an absolute chamber level)
    ms: tuple[int | None, ...] = (None,)


SERIES_CASES = (
    SeriesCase(Instance("uu", 2, "1,0", p=2, q=2), 14, 2),
    SeriesCase(Instance("uu", 2, "0,0", p=2, q=2), 8, 2, ms=(1, 2)),
    SeriesCase(Instance("uu", 2, "1/2,1/2", p=3, q=2), 2, 2),
    SeriesCase(Instance("oeven", 1, "2", m=2), 20, 2),
    SeriesCase(Instance("oeven", 2, "1,0", m=3), 4, 2),
    SeriesCase(Instance("oodd", 2, "2,1", m=2), 10, 12),
    SeriesCase(Instance("ostar", 2, "1,1", m=3), 10, 2),
)
LADDER_NUS = ("2", "-2")  # uu(1;1,1) on both sides of the support table
LADDER_DEPTH = 20
M_POINTS = 2


def _add_series_instance(plan: Plan, case: SeriesCase, theta_ops, every_m: bool) -> None:
    """support, then ktypes and constant at every listed m, and the checks
    that apply; theta_ops(m) adds the theta ops used to compare C_m Theta_m.
    With every_m the listed m must be all the admissible ones."""
    inst = case.inst
    plan.group()
    sup = plan.op("support", *inst.args())
    plan.check(f"support table, {inst}", (sup,), lambda d: _check_support(d, inst, case.ms, every_m))
    per_m = []
    for m in case.ms:
        kt = plan.op("ktypes", *inst.args(), *inst.embed(m), "--truncation", case.depth)
        co = plan.op("constant", *inst.args(), *inst.embed(m), "--truncation", case.level)
        plan.check(f"multiplicities, {inst} m={m}", (kt,), C.check_multiplicities)
        plan.check(f"constant's lambda-min is the minimal K-type, {inst} m={m}", (kt, co), _check_constant_lambda)
        if inst.kind != "uu":
            plan.check(
                f"minimal K-type is the dual lowest weight, {inst}",
                (kt,),
                lambda d: C.check_minimal_ktype(d["results"][0]["ktype"], inst.kind, inst.n, inst.m, inst.nu_fr),
            )
        per_m.append((kt, co, theta_ops(m)))
    if len(per_m) > 1:
        kt0, co0, th0 = per_m[0]
        for kt, co, th in per_m[1:]:
            plan.check(f"K-types agree across m, {inst}", (kt0, kt), C.check_same_ktypes)
            plan.check(f"C_m Theta_m agree across m, {inst}", (co0, *th0, co, *th), _check_normalized_across_m)


def _check_support(doc: dict, inst: Instance, ms, every_m: bool) -> None:
    lo, hi = C.check_support(doc, inst.kind, inst.n, inst.nu_fr, inst.p, inst.q, inst.m)
    if inst.kind != "uu" or ms == (None,):
        return
    admissible = tuple(range(max(lo, inst.n - inst.q, 0), min(hi, inst.p, inst.n) + 1))
    if not set(ms) <= set(admissible) or (every_m and tuple(ms) != admissible):
        raise C.CheckFailed(f"embeddings {ms} against the admissible m {admissible}")


def _check_constant_lambda(d_kt: dict, d_const: dict) -> None:
    r = d_const["results"][0]
    if Fraction(r["constant"]) == 0:
        raise C.CheckFailed("normalizing constant is zero")
    if r["lambda_min"] != d_kt["results"][0]["ktype"]:
        raise C.CheckFailed(f"lambda-min {r['lambda_min']} is not the first K-type {d_kt['results'][0]['ktype']}")


def _check_normalized_across_m(co0, *rest) -> None:
    """Docs: constant, its theta docs, then the same for the second m."""
    half = len(rest) // 2
    th0, co1, th1 = rest[:half], rest[half], rest[half + 1 :]
    for a, b in zip(th0, th1):
        C.check_normalized_m_independence(co0, a, co1, b)


def formal_series(seed: int) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    s = rng.randrange(2**31)
    for case in SERIES_CASES:
        inst = case.inst

        def theta_ops(m, inst=inst, several=len(case.ms) > 1):
            if not several:
                return []
            return [plan.op("theta", *inst.args(), *inst.embed(m), "--random-regular", M_POINTS, "--seed", s)]

        _add_series_instance(plan, case, theta_ops, every_m=False)
    plan.group()
    for nu in LADDER_NUS:
        inst = Instance("uu", 1, nu, p=1, q=1)
        o = plan.op("ktypes", *inst.args(), "--truncation", LADDER_DEPTH)
        plan.check(f"rank-one ladder, {inst}", (o,), lambda d, nu=nu: C.check_ladder(d, Fraction(nu), LADDER_DEPTH))
    return plan


# ---------------------------------------------------------------------------
# certify: the identity prover and the orbit oracles

IDENTITY_MAX_N = 8
RANDOM_IDENTITY = ((2, 2, 1), (3, 3, 2), (4, 4, 3))  # p, q, k
MC_RANK = 3
MC_SAMPLES = 10**6


def certify(seed: int) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    for N in range(2, IDENTITY_MAX_N + 1):
        for p in range(1, N):
            plan.group()
            for k in range(N):
                o = plan.op("identity", "--p", p, "--q", N - p, "--k", k, "--mode", "grid")
                want = C.expected_verdict(p, N - p, k)
                plan.check(f"grid verdict p={p} q={N - p} k={k}", (o,), lambda d, want=want: C.check_verdict(d, want))
    plan.group()
    for p, q, k in RANDOM_IDENTITY:
        o = plan.op("identity", "--p", p, "--q", q, "--k", k, "--mode", "random", "--seed", rng.randrange(2**31))
        plan.check(f"random verdict p={p} q={q} k={k}", (o,), lambda d: C.check_verdict(d, "holds"))
    lam = distinct_ints(rng, MC_RANK, -6, 6)
    x = distinct_reals(rng, MC_RANK, -3.0, 3.0, 0.15)
    truth = C.hciz_fourier(lam, x)
    args = ["--n", MC_RANK, f"--lam={csv(lam)}", f"--x={csv(map(repr, x))}"]
    mc = plan.op("oracle", *args, "--samples", MC_SAMPLES, "--seed", rng.randrange(2**31), "--method", "mc")
    plan.check("Monte-Carlo within 4 standard errors of HCIZ", (mc,), lambda d: C.check_monte_carlo(d, truth))
    hz = plan.op("oracle", *args, "--method", "hciz")
    plan.check("hciz oracle == HCIZ determinant", (hz,), lambda d: C.check_close(_only(d), truth, C.HCIZ_TOL, "hciz"))
    return plan


# ---------------------------------------------------------------------------
# instance_sweep: many small instances, so per-instance work dominates


@dataclass(frozen=True)
class SweepCase:
    inst: Instance
    ms: tuple[int | None, ...] = (None,)


SWEEP_DEPTH = 4
SWEEP_LEVEL = 8  # the lowest even constant level at which every case below is stable
SWEEP_CASES = (
    SweepCase(Instance("uu", 1, "0", p=1, q=1), (0, 1)),
    SweepCase(Instance("uu", 1, "-1/2", p=2, q=1), (0, 1)),
    SweepCase(Instance("uu", 1, "1/2", p=2, q=1), (0, 1)),
    SweepCase(Instance("uu", 1, "1/2", p=1, q=2), (0, 1)),
    SweepCase(Instance("uu", 2, "-1/2,-1/2", p=2, q=1), (1, 2)),
    SweepCase(Instance("uu", 2, "1/2,1/2", p=1, q=2), (0, 1)),
    SweepCase(Instance("uu", 2, "1,1", p=2, q=2), (0, 1)),
    SweepCase(Instance("oeven", 1, "0", m=1)),
    SweepCase(Instance("oeven", 1, "1", m=1)),
    SweepCase(Instance("oeven", 1, "0", m=2)),
    SweepCase(Instance("oeven", 1, "1", m=2)),
    SweepCase(Instance("oeven", 2, "0,0", m=2)),
    SweepCase(Instance("oeven", 2, "1,0", m=2)),
    SweepCase(Instance("oeven", 2, "1,1", m=2)),
    SweepCase(Instance("oodd", 1, "0", m=1)),
    SweepCase(Instance("oodd", 1, "2", m=1)),
    SweepCase(Instance("oodd", 2, "0,0", m=2)),
    SweepCase(Instance("oodd", 2, "1,0", m=2)),
    SweepCase(Instance("oodd", 2, "1,1", m=2)),
    SweepCase(Instance("ostar", 1, "0", m=2)),
    SweepCase(Instance("ostar", 1, "2", m=2)),
    SweepCase(Instance("ostar", 2, "0,0", m=2)),
    SweepCase(Instance("ostar", 2, "1,0", m=2)),
    SweepCase(Instance("ostar", 2, "1,1", m=2)),
    SweepCase(Instance("ostar", 1, "0", m=3)),
)


def instance_sweep(seed: int) -> Plan:
    rng = random.Random(seed)
    plan = Plan()
    for case in SWEEP_CASES:
        inst = case.inst
        base = regular_point(rng, C.gprime_family(inst.kind), inst.rank)
        turned = (base[0] + TWO_PI, *base[1:])

        def theta_ops(m, inst=inst, base=base, turned=turned):
            pair = [plan.op("theta", *inst.args(), *inst.embed(m), theta_arg(pt)) for pt in (base, turned)]
            plan.check(
                f"periodicity, {inst} m={m}", pair, lambda d0, d1: C.check_periodic(_only(d0), [_only(d1)])
            )
            return pair

        _add_series_instance(plan, SeriesCase(inst, SWEEP_DEPTH, SWEEP_LEVEL, case.ms), theta_ops, every_m=True)
        if inst.kind == "uu" and (inst.n, inst.p, inst.q) == (1, 1, 1):
            for kt in plan.groups[-1]:
                if plan.ops[kt][0] == "ktypes":
                    plan.check(
                        f"rank-one ladder, {inst}", (kt,), lambda d, nu=inst.nu: C.check_ladder(d, Fraction(nu), SWEEP_DEPTH)
                    )
    return plan


WORKLOADS = {
    "torus_eval": torus_eval,
    "formal_series": formal_series,
    "certify": certify,
    "instance_sweep": instance_sweep,
}
