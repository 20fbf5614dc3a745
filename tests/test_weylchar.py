import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from howechar.errors import CapExceeded, SingularPoint
from howechar.rootsys import act, build_root_system, weight, weyl_elements
from howechar.torus import random_regular, weyl_denominator
from howechar.weylchar import (
    QuadratureGrid,
    character_numerators_on_grid,
    schur_oracle,
    weyl_character,
    weyl_dimension,
)

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)


def test_schur_oracle_small_cases():
    a, b = Fraction(3), Fraction(5)
    assert schur_oracle((1, 0), [a, b]) == a + b
    assert schur_oracle((1, 1), [a, b]) == a * b
    assert schur_oracle((2, 1), [a, b]) == a**2 * b + a * b**2
    with pytest.raises(CapExceeded):
        schur_oracle((13, 0), [a, b])
    with pytest.raises(ValueError):
        schur_oracle((1, 2), [a, b])


def test_weyl_character_fundamental():
    theta = (1.0, 2.5)
    val = weyl_character(A2, weight(1, 0), theta)
    assert abs(val - (cmath.exp(1j) + cmath.exp(2.5j))) < 1e-12
    assert abs(weyl_character(A2, weight(0, 0), theta) - 1) < 1e-12


def test_weyl_character_vanishing_point():
    # schur oracle: x1^2 x2 + x1 x2^2 at x = (-1, 1) is 0
    val = weyl_character(A2, weight(2, 1), (math.pi, 0.0))
    assert abs(val) < 1e-12


def test_weyl_character_rejects_bad_input():
    with pytest.raises(ValueError):
        weyl_character(A2, weight(0, 1), (1.0, 2.0))
    with pytest.raises(SingularPoint):
        weyl_character(A2, weight(1, 0), (1.0, 1.0))
    with pytest.raises(ValueError, match="angles must be finite"):  # a NaN angle is no point at all
        weyl_character(A2, weight(1, 0), (1.0, float("nan")))


def test_weyl_dimension_examples():
    assert weyl_dimension(A2, weight(0, 0)) == 1
    for k in range(6):
        assert weyl_dimension(A2, weight(k, 0)) == k + 1 == schur_oracle((k, 0), [1, 1])
    assert weyl_dimension(A3, weight(2, 1, 0)) == 8
    assert schur_oracle((2, 1, 0), [1, 1, 1]) == 8
    with pytest.raises(ValueError):
        weyl_dimension(A2, weight("1/2", 0))


def test_character_matches_schur_at_random_points():
    rng = random.Random(11)
    for lam in ((2, 0, 0), (2, 1, 0), (3, 1, 1), (2, 2, 2)):
        for _ in range(10):
            theta = random_regular(A3, rng)
            x = [cmath.exp(1j * t) for t in theta]
            a = weyl_character(A3, weight(*lam), theta)
            b = schur_oracle(lam, x)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def _random_dominant(family: str, rank: int, rng: random.Random, half: bool, last_sign: int) -> tuple:
    """Decreasing parts in [0, 4], shifted by 1/2 when half; A may go negative,
    and D's last part takes last_sign."""
    shift = Fraction(1, 2) if half else 0
    parts = sorted((rng.randint(0, 4) + shift for _ in range(rank)), reverse=True)
    if family == "A":
        return tuple(c - 2 for c in parts)
    if family == "D":
        parts[-1] *= last_sign
    return tuple(parts)


def test_determinant_numerator_matches_weyl_group_sum():
    # weyl_character times the product denominator is the Weyl numerator;
    # character_numerators_on_grid sums it over W, element by element
    rng = random.Random(13)
    cases = [("A", n, False, 1) for n in range(1, 6)]
    cases += [("B", n, half, 1) for n in range(1, 5) for half in (False, True)]
    cases += [("C", n, False, 1) for n in range(1, 5)]
    cases += [("D", n, half, s) for n in range(2, 5) for half in (False, True) for s in (1, -1)]
    for family, n, half, last_sign in cases:
        rs = build_root_system(family, n)
        lams = [_random_dominant(family, n, rng, half, last_sign) for _ in range(3)]
        if family == "D" and not half:
            lams.append((2,) * (n - 1) + (0,))
        for lam in lams:
            for _ in range(4):
                theta = random_regular(rs, rng)
                a = weyl_character(rs, lam, theta) * weyl_denominator(rs, theta)
                b = character_numerators_on_grid(rs, lam, np.array([theta]))[0]
                assert abs(a - b) <= 1e-10 * abs(b), (family, n, lam, theta)


def test_weyl_invariance_of_character():
    rng = random.Random(12)
    elems = list(weyl_elements(A3))
    for _ in range(20):
        theta = random_regular(A3, rng)
        w = rng.choice(elems)
        a = weyl_character(A3, weight(2, 1, 0), theta)
        b = weyl_character(A3, weight(2, 1, 0), act(w, theta))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_numerator_pairing_equals_weighted_character_pairing():
    # chi_a conj(chi_b) |Delta|^2 == A_a conj(A_b) pointwise, so the plain
    # numerator average must match the |Delta|^2-weighted character average
    # over |W| on the same grid, whose singular points weigh zero; both are 0
    # for an orthogonal pair and 1 for a character with itself
    pts = QuadratureGrid(16, 2).points()
    for a, b in ((weight(1, 0), weight(2, 1)), (weight(2, 1), weight(2, 1))):
        na = character_numerators_on_grid(A2, a, pts)
        nb = character_numerators_on_grid(A2, b, pts)
        plain = np.mean(na * np.conj(nb)) / 2.0
        weighted = 0
        for th in pts:
            weight_sq = abs(weyl_denominator(A2, th)) ** 2
            if weight_sq > 1e-12:
                weighted += weyl_character(A2, a, th) * np.conj(weyl_character(A2, b, th)) * weight_sq
        assert abs(plain - weighted / len(pts) / 2.0) < 1e-10
        assert abs(plain - (a == b)) < 1e-10
