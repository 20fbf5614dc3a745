import random
from fractions import Fraction

import pytest

from howechar.errors import NonConvergentDirection, PoleAtPoint
from howechar.laurent import (
    _ints,
    expand_inverse_root_factor,
    level,
    partial_fraction_sum,
    series,
    series_mul,
)

F = Fraction


def test_ring_operation_examples():
    # doubled exponents: h^{e1} is (2, 0), h^{e1/2} is (1, 0)
    floor = -60
    h1 = series({(2, 0): 1}, floor)
    plus = series({(2, 0): 1, (0, 2): 1}, floor)
    minus = series({(2, 0): 1, (0, 2): -1}, floor)
    assert series_mul(plus, minus, floor) == {(4, 0): 1, (0, 4): -1}
    assert series_mul(h1, series({}, floor), floor) == {}
    half = series({(1, 0): 1}, floor)
    assert series_mul(half, half, floor) == {(2, 0): 1}


def test_series_mul_rejects_operands_of_different_rank():
    with pytest.raises(ValueError, match="rank 2 and 3"):
        series_mul({(2, 0): 1}, {(2, 0, 0): 1}, -10)


def test_expand_inverse_root_factor_rank_one():
    # doubled exponents -(2k+1)*2 at doubled levels -2, -6, -10, ...; the
    # floor -6 keeps -2, -6 and the floor -10 keeps -2, -6, -10
    assert expand_inverse_root_factor((2,), -6) == {(-2,): 1, (-6,): 1}
    assert expand_inverse_root_factor((2,), -10) == {(-2,): 1, (-6,): 1, (-10,): 1}


def test_expand_inverse_defining_property():
    floor = -40
    for beta in ((2, 0), (1, -1), (0, 2), (1, 1), (-1, 0, 1)):
        inv = expand_inverse_root_factor(beta, floor)
        factor = {beta: 1, tuple(-x for x in beta): -1}  # h^{beta/2} - h^{-beta/2}
        prod = series_mul(inv, factor, floor)
        # 1 plus only a term at the floor's horizon
        zero = (0,) * len(beta)
        assert prod[zero] == 1
        assert all(level(e) < floor + abs(level(beta)) for e in prod if e != zero)


def test_expand_inverse_negative_direction_and_leading_term():
    s = expand_inverse_root_factor((1, -1), -20)
    assert max(s, key=level) == (-1, 1)
    flipped = expand_inverse_root_factor((-1, 1), -20)
    assert flipped[max(flipped, key=level)] == -1  # overall -1 on the reversed expansion
    with pytest.raises(NonConvergentDirection):
        expand_inverse_root_factor((1, -2, 1), -20)  # pairs to zero with (3, 2, 1)


def test_series_mul_matches_a_plain_product_on_polynomials():
    rng = random.Random(5)
    floor = -120
    for _ in range(20):
        a, b = ({(rng.randint(0, 6), rng.randint(0, 6)): rng.randint(-4, 4) for _ in range(3)} for _ in range(2))
        plain = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                plain[e] = plain.get(e, 0) + ca * cb
        prod = series_mul(series(a, floor), series(b, floor), floor)
        assert prod == {e: c for e, c in plain.items() if c}


def test_partial_fraction_sum_examples():
    assert partial_fraction_sum([F(2), F(3)], 0, [1]) == 1
    # both sides of the rank-one identity at (2, 3, 5), frozen by hand:
    # 5/((5-2)(5-3)) = 5/6 and -[2/((2-3)(2-5)) + 3/((3-2)(3-5))] = 5/6
    pt = [F(2), F(3), F(5)]
    assert partial_fraction_sum(pt, 1, [2]) == F(5, 6)
    assert -partial_fraction_sum(pt, 1, [0, 1]) == F(5, 6)
    with pytest.raises(PoleAtPoint):
        partial_fraction_sum([F(2), F(2)], 0, [0])


def test_level():
    # <(2, -1, 0, 3), (4, 3, 2, 1)> = 8 - 3 + 0 + 3
    assert level((2, -1, 0, 3)) == 8
    assert level((1,)) == 1 and level(()) == 0


def test_a_cut_keeps_its_floor_level():
    # floor -7: doubled level -7 (the exponent -7/2) is kept, -8 is dropped,
    # and so is a zero coefficient
    floor = -7
    assert series({(-7,): 1, (-8,): 1, (-6,): 0}, floor) == {(-7,): 1}
    low = series({(-6,): 1}, floor)
    assert series_mul(low, series({(-1,): 1, (-2,): 1}, floor), floor) == {(-7,): 1}
    assert sorted(expand_inverse_root_factor((1,), floor)) == [(-7,), (-5,), (-3,), (-1,)]


def test_exponent_denominator_three_is_refused():
    assert _ints((F(1, 2), 3)) == (1, 6)
    with pytest.raises(ValueError, match="denominators"):
        _ints((F(1, 3),))
    with pytest.raises(ValueError, match="denominators"):
        _ints((F(2, 3), F(0)))


def test_half_integral_root_is_refused_by_name():
    with pytest.raises(ValueError, match=r"root must be integral: \(1/2,\)$"):
        expand_inverse_root_factor((F(1, 2),), -6)
    assert expand_inverse_root_factor((F(2),), -6) == expand_inverse_root_factor((2,), -6)
