"""Torus points, monomial evaluation, Weyl denominators and regularity tests.

A torus point is a tuple of angles in radians.  Monomials with half-integer
exponents are evaluated literally on the stored angles, i.e. the angle vector
itself is the chosen lift to the double cover: eval_monomial(theta, mu) is
e^{i <mu, theta>} whatever representative the caller supplied.  Integral
exponents are 2*pi-periodic; half-integral ones change sign under
theta_k -> theta_k + 2*pi, which is the intended double-cover behaviour.
"""

from __future__ import annotations

import cmath
import math
from functools import cache
from typing import Sequence

import numpy as np

from .errors import SingularPoint
from .rootsys import RootSystem, Weight

TorusPoint = tuple[float, ...]

SINGULAR_GUARD = 1e-9  # smallest |sin(alpha(theta)/2)|, or |h_a - h_b| between eigenvalues, a torus evaluator accepts
SAMPLE_MARGIN = 0.05  # smallest |sin(alpha(theta)/2)| at a point random_regular returns
SAMPLE_DRAWS = 10000  # draws random_regular makes before it gives up


def as_point(theta: Sequence[float], rank: int) -> np.ndarray:
    """theta as a float array, once it is known to hold rank finite angles."""
    if len(theta) != rank:
        raise ValueError("dimension mismatch")
    if not all(map(math.isfinite, theta)):
        raise ValueError("angles must be finite")
    return np.asarray(theta, dtype=float)


def pairing(mu: Weight, theta: Sequence[float]) -> float:
    if len(mu) != len(theta):
        raise ValueError(f"dimension mismatch: {len(mu)} vs {len(theta)}")
    return sum(float(c) * t for c, t in zip(mu, theta))


def eval_monomial(theta: Sequence[float], mu: Weight) -> complex:
    """e^{i <mu, theta>}, unit modulus."""
    return cmath.exp(1j * pairing(mu, theta))


def root_factor(alpha: Weight, theta: Sequence[float]) -> complex:
    """h^{alpha/2} - h^{-alpha/2} = 2i sin(alpha(theta)/2)."""
    half = pairing(alpha, theta) / 2.0
    return 2j * math.sin(half)


def weyl_denominator(rs: RootSystem, theta: Sequence[float]) -> complex:
    """Product of h^{alpha/2} - h^{-alpha/2} over the positive roots."""
    out = complex(1.0)
    for alpha in rs.positive_roots:
        out *= root_factor(alpha, theta)
    return out


@cache
def root_rows(rs: RootSystem) -> np.ndarray:
    """The positive roots of rs as the rows of a float array, built once and
    shared read-only by every caller."""
    roots = np.array(rs.positive_roots, dtype=float).reshape(-1, rs.rank)
    roots.flags.writeable = False
    return roots


def _root_sines(roots: np.ndarray, theta: np.ndarray, tol: float) -> np.ndarray | None:
    """sin(alpha(theta)/2) over the rows of roots, or None when a |sine| is
    below tol or an angle is NaN."""
    sines = np.sin(roots @ theta / 2)
    return sines if np.abs(sines).min(initial=np.inf) >= tol else None


def guarded_denominator(roots: np.ndarray, theta: np.ndarray) -> complex:
    """Product of 2i sin(alpha(theta)/2) over the rows of roots; raises
    SingularPoint when a |sine| is below SINGULAR_GUARD or an angle is NaN."""
    sines = _root_sines(roots, theta, SINGULAR_GUARD)
    if sines is None:
        raise SingularPoint("point too close to the singular set")
    return complex(np.prod(2j * sines))


def is_regular(rs: RootSystem, theta: Sequence[float], tol: float = SINGULAR_GUARD) -> bool:
    """True iff |sin(alpha(theta)/2)| >= tol for every positive root; the
    same root sines as guarded_denominator."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(theta) != rs.rank:
        raise ValueError("dimension mismatch")
    return _root_sines(root_rows(rs), np.asarray(theta, dtype=float), tol) is not None


def random_regular(rs: RootSystem, rng) -> TorusPoint:
    """Sample angles uniformly in (0, 2*pi) until every root sine is at
    least SAMPLE_MARGIN in modulus, in at most SAMPLE_DRAWS draws."""
    for _ in range(SAMPLE_DRAWS):
        theta = tuple(rng.uniform(0.0, 2 * math.pi) for _ in range(rs.rank))
        if is_regular(rs, theta, SAMPLE_MARGIN):
            return theta
    raise SingularPoint(f"no {SAMPLE_MARGIN}-regular point found in {SAMPLE_DRAWS} draws")
