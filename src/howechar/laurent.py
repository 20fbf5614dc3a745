"""Exact truncated Laurent sums of weight-exponent monomials, in doubled ints.

A series is a sum of integer multiples of monomials h^e whose exponents
have denominators 1 or 2.  It is held as a dict that maps the int tuple 2e
(the doubled exponent) to its int coefficient.  `level` orders the
exponents by the int doubled level <2e, d> along the fixed dominant chamber
d = (N, ..., 1); a series cut at a floor keeps the terms whose doubled level
is at least that floor.  Inverse root factors 1/(h^{b/2} - h^{-b/2}) expand
as geometric series toward -infinity along d.

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

# doubled exponent 2e -> int coefficient
Doubled = dict[tuple[int, ...], int]


def level(e: Sequence) -> int:
    """The doubled level <2e, d> of the doubled exponent 2e along the
    dominant chamber d = (N, ..., 1)."""
    return sum(map(mul, e, range(len(e), 0, -1)))


def _ints(values: Sequence, scale: int = 2) -> tuple[int, ...]:
    """scale * values as ints: the doubled form 2e of an exponent whose
    denominators are 1 or 2, or with scale 1 an integral root."""
    out = tuple(scale * Fraction(x) for x in values)
    if any(x.denominator != 1 for x in out):
        need = "exponent denominators must be 1 or 2" if scale == 2 else "a root must be integral"
        raise ValueError(f"{need}: {format_weight(tuple(map(Fraction, values)))}")
    return tuple(x.numerator for x in out)


def series(doubled: Mapping[tuple[int, ...], int], floor: int) -> Doubled:
    """The nonzero terms of doubled whose doubled level is >= floor."""
    return {e: c for e, c in doubled.items() if c and level(e) >= floor}


def series_mul(a: Doubled, b: Doubled, floor: int) -> Doubled:
    """a * b over the pairs whose doubled level is >= floor; zero sums dropped."""
    if not a or not b:
        return {}
    rank, rank_b = len(next(iter(a))), len(next(iter(b)))
    if rank != rank_b:
        raise ValueError(f"cannot multiply series of rank {rank} and {rank_b}")
    b_desc = sorted(((level(e), e, c) for e, c in b.items()), key=itemgetter(0), reverse=True)
    out: Doubled = {}
    get = out.get
    for e1, c1 in a.items():
        room = floor - level(e1)
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
    pair = level(beta)
    if pair == 0:
        raise NonConvergentDirection(f"root {beta} pairs to zero with chamber {tuple(range(len(beta), 0, -1))}")
    sgn = 1 if pair > 0 else -1
    e = tuple(-sgn * x for x in beta)  # 2 * (-sgn beta / 2)
    step = tuple(2 * x for x in e)
    terms: Doubled = {}
    rung = -abs(pair)
    while rung >= floor:
        terms[e] = sgn
        e = tuple(map(add, e, step))
        rung -= 2 * abs(pair)
    return terms


def divide_by_root_factors(doubled: Mapping[tuple[int, ...], int], roots: Sequence[Sequence[int]], floor: int) -> Doubled:
    """doubled / prod over roots of (h^{b/2} - h^{-b/2}), cut at floor.

    Every coefficient kept is exact.  The factor of beta lowers every level
    by at least its drop |level(beta)|, so only a term at or above the floor
    plus the drops of the factors still to come can reach the floor: the
    numerator and each running product are cut there, the last at the floor
    itself.  No running product rises above the cut numerator's top level
    minus the drops so far, so each geometric factor is expanded down to the
    next cut minus that bound, and no pair landing at or above the cut is
    missed, even when the numerator sits above level 0.
    """
    drops = [abs(level(beta)) for beta in roots]
    rest = sum(drops)
    acc = series(doubled, floor + rest)
    top = max(map(level, acc), default=0)
    for beta, drop in zip(roots, drops):
        rest -= drop
        acc = series_mul(acc, expand_inverse_root_factor(beta, floor + rest - top), floor + rest)
        top -= drop
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
