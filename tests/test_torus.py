import math
import random

import pytest

from howechar.rootsys import build_root_system, weight
from howechar.torus import (
    eval_monomial,
    is_regular,
    random_regular,
    weyl_denominator,
)


def test_eval_monomial_examples():
    assert eval_monomial((0.0, 0.0, 0.0), weight(3, -1, 2)) == 1
    assert abs(eval_monomial((math.pi, 0.0), weight(1, 0)) - (-1)) < 1e-12
    # principal half-angle convention: the given angles are the chosen lift
    assert abs(eval_monomial((math.pi,), weight("1/2")) - 1j) < 1e-12


def test_eval_monomial_multiplicative():
    rng = random.Random(2)
    for _ in range(30):
        theta = tuple(rng.uniform(0, 2 * math.pi) for _ in range(3))
        mu = weight(*[rng.randint(-4, 4) for _ in range(3)])
        nu = weight(*[rng.randint(-4, 4) for _ in range(3)])
        lhs = eval_monomial(theta, tuple(a + b for a, b in zip(mu, nu)))
        rhs = eval_monomial(theta, mu) * eval_monomial(theta, nu)
        assert abs(lhs - rhs) < 1e-12
        assert abs(abs(eval_monomial(theta, mu)) - 1.0) < 1e-12


def test_weyl_denominator_examples():
    a2 = build_root_system("A", 2)
    assert abs(weyl_denominator(a2, (math.pi / 2, -math.pi / 2)) - 2j) < 1e-12
    assert abs(weyl_denominator(a2, (0.0, 0.0))) < 1e-15
    c1 = build_root_system("C", 1)
    assert abs(weyl_denominator(c1, (math.pi / 2,)) - 2j) < 1e-12


def test_weyl_denominator_modulus_squared():
    rng = random.Random(3)
    b2 = build_root_system("B", 2)
    for _ in range(20):
        theta = tuple(rng.uniform(0, 2 * math.pi) for _ in range(2))
        d = weyl_denominator(b2, theta)
        assert abs(d * d.conjugate() - abs(d) ** 2) < 1e-12 * max(1.0, abs(d) ** 2)


def test_is_regular():
    a2 = build_root_system("A", 2)
    assert not is_regular(a2, (0.0, 0.0))
    assert is_regular(a2, (1.0, 2.0))
    b1 = build_root_system("B", 1)
    assert not is_regular(b1, (2 * math.pi - 1e-12,))
    with pytest.raises(ValueError):
        is_regular(a2, (1.0, 2.0), tol=0.0)


def test_random_regular_sampling():
    rng = random.Random(4)
    c2 = build_root_system("C", 2)
    for _ in range(5):
        theta = random_regular(c2, rng)
        assert is_regular(c2, theta, 0.05)
