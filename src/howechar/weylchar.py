"""Weyl character and dimension formulas, a Gelfand-Tsetlin/Schur oracle,
and the Weyl numerators on a quadrature grid that check the orthogonality
of characters."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import methodcaller
from typing import Sequence

import numpy as np

from .errors import CapExceeded
from .rootsys import (
    RootSystem,
    Weight,
    act,
    format_weight,
    is_dominant,
    rho,
    sign,
    weight_add,
    weight_dot,
    weyl_elements,
)
from .torus import as_point, guarded_denominator, root_rows

SCHUR_WEIGHT_CAP = 12  # largest |lam| schur_oracle enumerates
SCHUR_LENGTH_CAP = 5  # most variables schur_oracle accepts

_ratio = methodcaller("as_integer_ratio")  # exact for int, Fraction and float


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform product grid theta_j = 2*pi*(j + 1/2)/N per axis.

    The half-step offset dodges the Weyl-denominator zeros, and the average
    over the grid is exact for trigonometric polynomials with per-axis
    frequencies strictly below N.
    """

    n_points: int
    rank: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("need at least 2 points per angle")

    def axis(self) -> np.ndarray:
        j = np.arange(self.n_points)
        return 2.0 * np.pi * (j + 0.5) / self.n_points

    def points(self) -> np.ndarray:
        """All grid points as an (N^rank, rank) array."""
        axes = np.meshgrid(*([self.axis()] * self.rank), indexing="ij")
        return np.stack([a.reshape(-1) for a in axes], axis=-1)


@cache
def _shifted_weight(rs: RootSystem, ratios: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """lam + rho as floats and the positive roots as rows, once per (rs, lam).

    lam comes as its entries' (numerator, denominator) pairs: an int pair
    hashes in a fraction of the time a Fraction does."""
    lam = tuple(Fraction(*r) for r in ratios)
    if not is_dominant(rs, lam):
        raise ValueError(f"{format_weight(lam)} is not dominant for {rs.family}{rs.rank}")
    x = np.array(weight_add(lam, rho(rs)), dtype=float)
    x.flags.writeable = False  # shared by every caller
    return x, root_rows(rs)


def weyl_character(rs: RootSystem, lam: Weight, theta: Sequence[float]) -> complex:
    """Weyl numerator over Weyl denominator at a regular point.  The numerator
    is a determinant in x = lam + rho (Macdonald, I.3): det(h_k^{x_j}) for A,
    det(h_k^{x_j} - h_k^{-x_j}) for B and C, and for D, whose W flips an even
    number of signs, the mean of that and det(h_k^{x_j} + h_k^{-x_j})."""
    x, roots = _shifted_weight(rs, tuple(map(_ratio, lam)))
    th = as_point(theta, rs.rank)
    den = guarded_denominator(roots, th)
    phase = np.outer(x, th)
    if rs.family == "A":
        num = np.linalg.det(np.exp(1j * phase))
    else:
        num = (2j) ** rs.rank * np.linalg.det(np.sin(phase))
        if rs.family == "D":
            num = (num + 2.0**rs.rank * np.linalg.det(np.cos(phase))) / 2
    return complex(num) / den


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """prod <lam+rho, alpha> / <rho, alpha> over positive roots, exactly."""
    if not is_dominant(rs, lam):
        raise ValueError(f"{format_weight(lam)} is not dominant for {rs.family}{rs.rank}")
    r = rho(rs)
    lam_rho = weight_add(lam, r)
    out = Fraction(1)
    for alpha in rs.positive_roots:
        out *= weight_dot(lam_rho, alpha) / weight_dot(r, alpha)
    if out.denominator != 1 or out <= 0:
        raise ValueError(f"non-integral dimension {out} for {format_weight(lam)}")
    return int(out)


def _gt_patterns(top: tuple[int, ...]):
    """Yield Gelfand-Tsetlin patterns below the given top row."""
    if len(top) == 1:
        yield [top]
        return
    lo_hi = list(zip(top[1:], top[:-1]))
    ranges = [range(lo, hi + 1) for lo, hi in lo_hi]

    def rows(i: int, current: list[int]):
        if i == len(ranges):
            yield tuple(current)
            return
        start = ranges[i].start
        stop = min(ranges[i].stop, current[-1] + 1) if current else ranges[i].stop
        for v in range(start, stop):
            yield from rows(i + 1, current + [v])

    for row in rows(0, []):
        for rest in _gt_patterns(row):
            yield [top] + rest


def schur_oracle(lam: Sequence[int], x: Sequence):
    """Schur polynomial s_lam(x) by brute-force Gelfand-Tsetlin enumeration.

    Exact when the x are exact (Fraction/int); independent of the Weyl
    quotient formula, so it serves as its oracle.
    """
    lam = tuple(int(v) for v in lam)
    n = len(x)
    if len(lam) != n:
        raise ValueError("weight length must match number of variables")
    if any(a < b for a, b in zip(lam, lam[1:])) or lam[-1] < 0:
        raise ValueError(f"{lam} is not a partition")
    if sum(lam) > SCHUR_WEIGHT_CAP or n > SCHUR_LENGTH_CAP:
        raise CapExceeded(f"|lam|={sum(lam)}, n={n} beyond caps ({SCHUR_WEIGHT_CAP}, {SCHUR_LENGTH_CAP})")
    total = 0
    for pattern in _gt_patterns(lam):
        rowsums = [sum(row) for row in reversed(pattern)]  # length 1 row first
        term = 1
        prev = 0
        for k, s in enumerate(rowsums):
            term = term * x[k] ** (s - prev)
            prev = s
        total = total + term
    return total


def character_numerators_on_grid(rs: RootSystem, lam: Weight, points: np.ndarray) -> np.ndarray:
    """Alternating Weyl numerator values; finite on the whole grid.

    chi_lam * conj(chi_mu) * |Delta|^2 equals numerator_lam * conj(numerator_mu)
    pointwise, which sidesteps the removable wall singularities entirely.

    The one sum over W left: it is the reference weyl_character's
    determinants are tested against, and on a large grid of a small group it
    is faster (262,144 points, |W| = 6: 1.5 s, against 3.0 s as 3 x 3 dets).
    """
    lam_rho = weight_add(tuple(lam), rho(rs))
    elements = list(weyl_elements(rs))
    exps = np.array([act(w, lam_rho) for w in elements], dtype=float)
    signs = np.array([sign(w) for w in elements], dtype=float)
    return np.exp(1j * (points @ exps.T)) @ signs
