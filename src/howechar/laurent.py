"""Exact truncated Laurent sums of weight-exponent monomials.

A series holds rational coefficients keyed by exponent vectors (tuples of
Fractions with denominator at most 2).  A chamber direction d orders the
exponents by the pairing <e, d>; terms with <e, d> < -T are dropped, so the
ring operations are exact for every exponent kept.  Inverse root factors
1/(h^{b/2} - h^{-b/2}) expand as geometric series toward -infinity along d.

The arithmetic runs on doubled exponents: 2e is a tuple of ints, its level
<2e, d> an int, and a term is kept when that level is at least ceil(-2T).
Coefficients are int numerators over one common denominator per series, so
no Fraction is touched inside a loop over term pairs.  `LaurentSeries.terms`
is the Fraction-keyed view of that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import ChamberMismatch, NonConvergentDirection, PoleAtPoint
from .rootsys import Weight, weight_dot

Chamber = tuple[int, ...]
RationalPoint = tuple[Fraction, ...]
# doubled exponent 2e -> int numerator; the denominator travels beside it
Doubled = dict[tuple[int, ...], int]


def rational_point(values: Sequence) -> RationalPoint:
    pt = tuple(Fraction(v) for v in values)
    if any(v == 0 for v in pt):
        raise ValueError("substitution values must be nonzero")
    return pt


def dominant_chamber(rank: int) -> Chamber:
    """The strictly dominant direction (rank, rank-1, ..., 1)."""
    return tuple(range(rank, 0, -1))


@dataclass(frozen=True)
class LaurentSeries:
    rank: int
    chamber: Chamber
    truncation: Fraction
    terms: Mapping[Weight, Fraction]

    def depth(self, exponent: Weight) -> Fraction:
        return weight_dot(exponent, self.chamber)

    def coefficient(self, exponent: Weight) -> Fraction:
        return self.terms.get(tuple(Fraction(c) for c in exponent), Fraction(0))

    def __len__(self) -> int:
        return len(self.terms)


def _level(e: tuple[int, ...], chamber: Chamber) -> int:
    return sum(map(mul, e, chamber))


def _floor(truncation: Fraction) -> int:
    """Lowest doubled level kept: 2<e, d> >= -2T, with 2<e, d> an int."""
    return math.ceil(-2 * truncation)


def _doubled(rank: int, items: Iterable[tuple[Weight, object]]) -> tuple[Doubled, int]:
    """Sum the terms by doubled exponent; int numerators over their lcm denominator."""
    summed: dict[tuple[int, ...], Fraction] = {}
    for e, c in items:
        if len(e) != rank:
            raise ValueError("exponent length must equal rank")
        twice = tuple(2 * Fraction(x) for x in e)
        if any(x.denominator != 1 for x in twice):
            raise ValueError(f"exponent denominators must be 1 or 2: {tuple(x / 2 for x in twice)}")
        e2 = tuple(x.numerator for x in twice)
        summed[e2] = summed.get(e2, 0) + Fraction(c)
    den = math.lcm(*(c.denominator for c in summed.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in summed.items() if c}, den


def _truncated(rank: int, chamber: Chamber, floor: int, items: Iterable[tuple[Weight, object]]) -> tuple[Doubled, int]:
    terms, den = _doubled(rank, items)
    return {e: c for e, c in terms.items() if _level(e, chamber) >= floor}, den


def _from_doubled(rank: int, chamber: Chamber, truncation: Fraction, terms: Doubled, den: int) -> LaurentSeries:
    halves = {x: Fraction(x, 2) for x in {x for e in terms for x in e}}
    view = {tuple(map(halves.__getitem__, e)): Fraction(c, den) for e, c in terms.items()}
    return LaurentSeries(rank, chamber, truncation, MappingProxyType(view))


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


def _integral(beta: Weight) -> tuple[int, ...]:
    beta = tuple(Fraction(c) for c in beta)
    if any(c.denominator != 1 for c in beta):
        raise ValueError(f"exponent denominators must be 1 or 2: {tuple(c / 2 for c in beta)}")
    return tuple(c.numerator for c in beta)


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
    items = terms.items() if isinstance(terms, Mapping) else terms
    return _from_doubled(rank, cham, trunc, *_truncated(rank, cham, _floor(trunc), items))


def monomial(rank: int, chamber: Sequence[int], truncation, exponent: Weight, coeff=1) -> LaurentSeries:
    return series(rank, chamber, truncation, [(exponent, coeff)])


def _check_compatible(a: LaurentSeries, b: LaurentSeries) -> None:
    if a.rank != b.rank or a.chamber != b.chamber:
        raise ChamberMismatch(f"incompatible series: {a.rank}/{a.chamber} vs {b.rank}/{b.chamber}")


def series_add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    _check_compatible(a, b)
    return series(a.rank, a.chamber, min(a.truncation, b.truncation), [*a.terms.items(), *b.terms.items()])


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    _check_compatible(a, b)
    trunc = min(a.truncation, b.truncation)
    ta, da = _doubled(a.rank, a.terms.items())
    tb, db = _doubled(b.rank, b.terms.items())
    return _from_doubled(a.rank, a.chamber, trunc, _product(ta, tb, a.chamber, _floor(trunc)), da * db)


def expand_inverse_root_factor(beta: Weight, chamber: Sequence[int], truncation) -> LaurentSeries:
    """Geometric expansion of 1/(h^{beta/2} - h^{-beta/2}) toward -infinity.

    For <beta, chamber> > 0 this is h^{-beta/2} * sum_k h^{-k beta}; for a
    negative pairing the roles of the two exponents swap and an overall -1
    appears.  A zero pairing has no convergent direction.
    """
    cham = tuple(int(c) for c in chamber)
    trunc = Fraction(truncation)
    return _from_doubled(len(beta), cham, trunc, _geometric(_integral(beta), cham, _floor(trunc)), 1)


def divide_by_root_factors(
    rank: int,
    chamber: Sequence[int],
    truncation,
    terms: Mapping[Weight, Fraction],
    roots: Sequence[Weight],
) -> LaurentSeries:
    """terms / prod over roots of (h^{b/2} - h^{-b/2}), expanded along chamber.

    The same series as multiplying series(rank, chamber, truncation, terms)
    by expand_inverse_root_factor(b, chamber, truncation) for each root in
    turn, with the terms kept in doubled form from the first factor to the
    last.
    """
    cham = tuple(int(c) for c in chamber)
    trunc = Fraction(truncation)
    floor = _floor(trunc)
    acc, den = _truncated(rank, cham, floor, terms.items())
    for beta in roots:
        acc = _product(acc, _geometric(_integral(beta), cham, floor), cham, floor)
    return _from_doubled(rank, cham, trunc, acc, den)


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


def eval_exact(s: LaurentSeries, p: RationalPoint) -> Fraction:
    """Exact substitution; exponents must be integers and coordinates nonzero."""
    if len(p) != s.rank:
        raise ValueError("dimension mismatch")
    if any(v == 0 for v in p):
        raise PoleAtPoint("zero substitution value")
    total = Fraction(0)
    for e, c in s.terms.items():
        if any(x.denominator != 1 for x in e):
            raise ValueError(f"cannot evaluate half-integer exponent {e} exactly")
        term = c
        for v, x in zip(p, e):
            term *= Fraction(v) ** int(x)
        total += term
    return total
