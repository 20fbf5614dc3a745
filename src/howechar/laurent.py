"""Exact truncated Laurent sums of weight-exponent monomials, in doubled ints.

A series is a sum of integer multiples of monomials h^e whose exponents
have denominators 1 or 2.  It is held as a dict that maps the int tuple 2e
(the doubled exponent) to its int coefficient.  The dominant chamber
d = (N, ..., 1) orders the exponents by the int doubled level <2e, d>; a
series cut at a floor keeps the terms whose doubled level is at least that
floor.  Inverse root factors 1/(h^{b/2} - h^{-b/2}) expand as geometric
series toward -infinity along d.

`divide_by_root_factors` is exact at every level it keeps, and so is
`series_mul` when no term of its inputs was dropped, as for finite sums
above the floor.  The product of two cut infinite series is not: a dropped
term of one, times a term of the other above level 0, can land above the
floor.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter, mul
from typing import Mapping, Sequence

from .errors import NonConvergentDirection, PoleAtPoint
from .rootsys import format_weight

Chamber = tuple[int, ...]
# doubled exponent 2e -> int coefficient
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


def series(doubled: Mapping[tuple[int, ...], int], floor: int) -> Doubled:
    """The nonzero terms of doubled whose doubled level is >= floor."""
    if not doubled:
        return {}
    chamber = dominant_chamber(len(next(iter(doubled))))
    return {e: c for e, c in doubled.items() if c and _level(e, chamber) >= floor}


def series_mul(a: Doubled, b: Doubled, floor: int) -> Doubled:
    """a * b over the pairs whose doubled level is >= floor; zero sums dropped."""
    if not a or not b:
        return {}
    rank, rank_b = len(next(iter(a))), len(next(iter(b)))
    if rank != rank_b:
        raise ValueError(f"cannot multiply series of rank {rank} and {rank_b}")
    chamber = dominant_chamber(rank)
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


def expand_inverse_root_factor(beta: Sequence[int], floor: int) -> Doubled:
    """Geometric expansion of 1/(h^{beta/2} - h^{-beta/2}) toward -infinity,
    cut at the doubled level floor.

    For <beta, d> > 0 this is h^{-beta/2} * sum_k h^{-k beta}; for a
    negative pairing the roles of the two exponents swap and an overall -1
    appears.  A zero pairing has no convergent direction.  beta must be
    integral.
    """
    if not all(type(x) is int for x in beta):
        beta = _ints(beta, 1)
    chamber = dominant_chamber(len(beta))
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


def divide_by_root_factors(doubled: Mapping[tuple[int, ...], int], roots: Sequence[Sequence[int]], floor: int) -> Doubled:
    """doubled / prod over roots of (h^{b/2} - h^{-b/2}), cut at floor.

    Every coefficient kept is exact.  Each factor term only lowers the
    level, so a running-product term below the floor never contributes above
    it; and each geometric factor is expanded down to the floor minus the
    top level of the running product, so no pair landing at or above the
    floor is missed, even when the numerator sits above level 0.
    """
    acc = series(doubled, floor)
    for beta in roots:
        chamber = dominant_chamber(len(beta))
        top = max((_level(e, chamber) for e in acc), default=0)
        acc = series_mul(acc, expand_inverse_root_factor(beta, floor - top), floor)
    return acc


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
