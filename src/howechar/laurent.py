"""Exact truncated Laurent sums of weight-exponent monomials.

A series holds rational coefficients keyed by exponent vectors (tuples of
Fractions with denominator at most 2).  A chamber direction d orders the
exponents by the pairing <e, d>; terms with <e, d> < -T are dropped, so the
ring operations are exact for every exponent kept.  Inverse root factors
1/(h^{b/2} - h^{-b/2}) expand as geometric series toward -infinity along d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import ChamberMismatch, NonConvergentDirection, PoleAtPoint
from .rootsys import Weight, weight_dot

Chamber = tuple[int, ...]
RationalPoint = tuple[Fraction, ...]


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
    clean: dict[Weight, Fraction] = {}
    for e, c in items:
        e = tuple(Fraction(x) for x in e)
        if len(e) != rank:
            raise ValueError("exponent length must equal rank")
        if any(x.denominator not in (1, 2) for x in e):
            raise ValueError(f"exponent denominators must be 1 or 2: {e}")
        c = Fraction(c)
        if c == 0 or weight_dot(e, cham) < -trunc:
            continue
        clean[e] = clean.get(e, Fraction(0)) + c
    clean = {e: c for e, c in clean.items() if c != 0}
    return LaurentSeries(rank, cham, trunc, MappingProxyType(clean))


def monomial(rank: int, chamber: Sequence[int], truncation, exponent: Weight, coeff=1) -> LaurentSeries:
    return series(rank, chamber, truncation, [(tuple(Fraction(c) for c in exponent), Fraction(coeff))])


def _check_compatible(a: LaurentSeries, b: LaurentSeries) -> None:
    if a.rank != b.rank or a.chamber != b.chamber:
        raise ChamberMismatch(f"incompatible series: {a.rank}/{a.chamber} vs {b.rank}/{b.chamber}")


def series_add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    _check_compatible(a, b)
    trunc = min(a.truncation, b.truncation)
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, Fraction(0)) + c
    return series(a.rank, a.chamber, trunc, out)


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    _check_compatible(a, b)
    trunc = min(a.truncation, b.truncation)
    out: dict[Weight, Fraction] = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if weight_dot(e, a.chamber) < -trunc:
                continue
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return series(a.rank, a.chamber, trunc, out)


def expand_inverse_root_factor(beta: Weight, chamber: Sequence[int], truncation) -> LaurentSeries:
    """Geometric expansion of 1/(h^{beta/2} - h^{-beta/2}) toward -infinity.

    For <beta, chamber> > 0 this is h^{-beta/2} * sum_k h^{-k beta}; for a
    negative pairing the roles of the two exponents swap and an overall -1
    appears.  A zero pairing has no convergent direction.
    """
    rank = len(beta)
    cham = tuple(int(c) for c in chamber)
    trunc = Fraction(truncation)
    beta = tuple(Fraction(c) for c in beta)
    pair = weight_dot(beta, cham)
    if pair == 0:
        raise NonConvergentDirection(f"root {beta} pairs to zero with chamber {cham}")
    if pair > 0:
        step, coeff = tuple(-c for c in beta), Fraction(1)
    else:
        step, coeff = beta, Fraction(-1)
    half = tuple(c / 2 for c in step)
    terms: dict[Weight, Fraction] = {}
    e = half
    while weight_dot(e, cham) >= -trunc:
        terms[e] = coeff
        e = tuple(x + y for x, y in zip(e, step))
    return series(rank, cham, trunc, terms)


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
