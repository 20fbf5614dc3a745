"""Exact truncated Laurent sums of weight-exponent monomials.

A series is a sum of rational multiples of monomials h^e whose exponents
have denominators 1 or 2.  A chamber direction d orders the exponents by the
pairing <e, d>; terms with <e, d> < -T are dropped.  Inverse root factors
1/(h^{b/2} - h^{-b/2}) expand as geometric series toward -infinity along d.

`divide_by_root_factors` is exact at every level it keeps, and so is
`series_mul` when no term of its inputs was dropped, as for finite sums
above the truncation.  The product of two truncated infinite series is
not: a dropped term of one, times a term of the other above level 0, can
land above the truncation.

`LaurentSeries` stores the doubled form: `doubled` maps the int tuple 2e to
an int numerator over one denominator `den`, and a term is kept when its int
level <2e, d> is at least ceil(-2T), so no Fraction is touched inside a loop
over term pairs.  `terms`, the Fraction-keyed view, is derived on first read.

The library calls `divide_by_root_factors` on the doubled numerator that
`thetachar` compiles.  `series`, `series_mul` and
`expand_inverse_root_factor` stay because `benchmarks/layers.py` traces
them, and the tests check the engine against them; `root_factor_series`
stays because the tests multiply a division back with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import ChamberMismatch, NonConvergentDirection, PoleAtPoint
from .rootsys import Weight, format_weight

Chamber = tuple[int, ...]
# doubled exponent 2e -> int numerator; the denominator travels beside it
Doubled = dict[tuple[int, ...], int]


def dominant_chamber(rank: int) -> Chamber:
    """The strictly dominant direction (rank, rank-1, ..., 1)."""
    return tuple(range(rank, 0, -1))


def _ints(values: Sequence, scale: int = 2) -> tuple[int, ...]:
    """scale * values as ints: the doubled form 2e of an exponent whose
    denominators are 1 or 2, or with scale 1 an integral root."""
    out = tuple(scale * Fraction(x) for x in values)
    if any(x.denominator != 1 for x in out):
        need = "exponent denominators must be 1 or 2" if scale == 2 else "a root must be integral"
        raise ValueError(f"{need}: {format_weight(tuple(map(Fraction, values)))}")
    return tuple(x.numerator for x in out)


def _level(e: tuple[int, ...], chamber: Chamber) -> int:
    return sum(map(mul, e, chamber))


def _floor(truncation: Fraction) -> int:
    """Lowest doubled level kept: 2<e, d> >= -2T, with 2<e, d> an int."""
    return math.ceil(-2 * truncation)


@dataclass(frozen=True)
class LaurentSeries:
    rank: int
    chamber: Chamber
    truncation: Fraction
    doubled: Doubled
    den: int = 1

    @cached_property
    def terms(self) -> Mapping[Weight, Fraction]:
        """Exponent e -> coefficient, in the order of `doubled`."""
        halves = {x: Fraction(x, 2) for e in self.doubled for x in e}
        view = {tuple(map(halves.__getitem__, e)): Fraction(c, self.den) for e, c in self.doubled.items()}
        return MappingProxyType(view)

    def coefficient(self, exponent: Weight) -> Fraction:
        try:
            key = _ints(exponent)
        except ValueError:  # a denominator above 2: no term has that exponent
            return Fraction(0)
        return Fraction(self.doubled.get(key, 0), self.den)

    def __len__(self) -> int:
        return len(self.doubled)


def _product(a: Doubled, b: Doubled, chamber: Chamber, floor: int) -> Doubled:
    """a * b over the pairs whose doubled level is >= floor; zero sums dropped."""
    b_desc = sorted(((_level(e, chamber), e, c) for e, c in b.items()), key=itemgetter(0), reverse=True)
    out: Doubled = {}
    get = out.get
    for e1, c1 in a.items():
        room = floor - _level(e1, chamber)
        for l2, e2, c2 in b_desc:
            if l2 < room:
                break
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _geometric(beta: tuple[int, ...], chamber: Chamber, floor: int) -> Doubled:
    """Doubled terms of expand_inverse_root_factor for an integral beta."""
    pair = _level(beta, chamber)
    if pair == 0:
        raise NonConvergentDirection(f"root {beta} pairs to zero with chamber {chamber}")
    sgn = 1 if pair > 0 else -1
    e = tuple(-sgn * x for x in beta)  # 2 * (-sgn beta / 2)
    step = tuple(2 * x for x in e)
    terms: Doubled = {}
    level = -abs(pair)
    while level >= floor:
        terms[e] = sgn
        e = tuple(map(add, e, step))
        level -= 2 * abs(pair)
    return terms


def series(
    rank: int,
    chamber: Sequence[int],
    truncation,
    terms: Mapping[Weight, Fraction] | Iterable[tuple[Weight, Fraction]] = (),
) -> LaurentSeries:
    cham = tuple(int(c) for c in chamber)
    if len(cham) != rank:
        raise ValueError("chamber length must equal rank")
    trunc = Fraction(truncation)
    floor = _floor(trunc)
    summed: dict[tuple[int, ...], Fraction] = {}
    for e, c in terms.items() if isinstance(terms, Mapping) else terms:
        if len(e) != rank:
            raise ValueError("exponent length must equal rank")
        e2 = _ints(e)
        summed[e2] = summed.get(e2, 0) + Fraction(c)
    den = math.lcm(*(c.denominator for c in summed.values()))
    kept = {e: c.numerator * (den // c.denominator) for e, c in summed.items() if c and _level(e, cham) >= floor}
    return LaurentSeries(rank, cham, trunc, kept, den)


def _check_compatible(a: LaurentSeries, b: LaurentSeries) -> None:
    if a.rank != b.rank or a.chamber != b.chamber:
        raise ChamberMismatch(f"incompatible series: {a.rank}/{a.chamber} vs {b.rank}/{b.chamber}")


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    _check_compatible(a, b)
    trunc = min(a.truncation, b.truncation)
    prod = _product(a.doubled, b.doubled, a.chamber, _floor(trunc))
    g = math.gcd(a.den * b.den, *prod.values())  # den stays the least common denominator, as in series()
    return LaurentSeries(a.rank, a.chamber, trunc, {e: c // g for e, c in prod.items()}, a.den * b.den // g)


def expand_inverse_root_factor(beta: Weight, chamber: Sequence[int], truncation) -> LaurentSeries:
    """Geometric expansion of 1/(h^{beta/2} - h^{-beta/2}) toward -infinity.

    For <beta, chamber> > 0 this is h^{-beta/2} * sum_k h^{-k beta}; for a
    negative pairing the roles of the two exponents swap and an overall -1
    appears.  A zero pairing has no convergent direction.
    """
    cham = tuple(int(c) for c in chamber)
    trunc = Fraction(truncation)
    return LaurentSeries(len(beta), cham, trunc, _geometric(_ints(beta, 1), cham, _floor(trunc)))


def divide_by_root_factors(
    rank: int,
    chamber: Sequence[int],
    truncation,
    doubled: Mapping[tuple[int, ...], int],
    roots: Sequence[tuple[int, ...]],
) -> LaurentSeries:
    """doubled / prod over roots of (h^{b/2} - h^{-b/2}), expanded along chamber.

    doubled maps 2e to an int coefficient and each root is an int tuple.
    Every coefficient kept is exact.  Each factor term only lowers the
    level, so a running-product term below the floor never contributes above
    it; and each geometric factor is expanded down to the floor minus the
    top level of the running product, so no pair landing at or above the
    floor is missed, even when the numerator sits above level 0.
    """
    cham = tuple(int(c) for c in chamber)
    trunc = Fraction(truncation)
    floor = _floor(trunc)
    acc = {e: c for e, c in doubled.items() if _level(e, cham) >= floor}
    for beta in roots:
        top = max((_level(e, cham) for e in acc), default=0)
        acc = _product(acc, _geometric(beta, cham, floor - top), cham, floor)
    return LaurentSeries(rank, cham, trunc, acc)


def root_factor_series(beta: Weight, chamber: Sequence[int], truncation) -> LaurentSeries:
    """h^{beta/2} - h^{-beta/2} as an exact two-term series."""
    half = tuple(Fraction(c) / 2 for c in beta)
    return series(
        len(beta),
        chamber,
        truncation,
        [(half, Fraction(1)), (tuple(-c for c in half), Fraction(-1))],
    )


def partial_fraction_sum(values: Sequence[Fraction], power: int, indices: Sequence[int]) -> Fraction:
    """sum over b in indices of values[b]^power / prod_{a != b} (values[b] - values[a]).

    Exact rational arithmetic; repeated coordinates are poles.
    """
    values = [Fraction(v) for v in values]
    total = Fraction(0)
    for b in indices:
        den = Fraction(1)
        for a, va in enumerate(values):
            if a == b:
                continue
            diff = values[b] - va
            if diff == 0:
                raise PoleAtPoint(f"repeated coordinate value {va}")
            den *= diff
        total += Fraction(values[b]) ** power / den
    return total

