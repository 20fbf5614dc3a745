import random
from fractions import Fraction

import pytest

from howechar.errors import ChamberMismatch, NonConvergentDirection, PoleAtPoint
from howechar.laurent import (
    dominant_chamber,
    expand_inverse_root_factor,
    partial_fraction_sum,
    root_factor_series,
    series,
    series_mul,
)
from howechar.rootsys import weight

F = Fraction


def test_ring_operation_examples():
    cham, T = (2, 1), 30
    h1 = series(2, cham, T, {weight(1, 0): F(1)})
    plus = series(2, cham, T, {weight(1, 0): F(1), weight(0, 1): F(1)})
    minus = series(2, cham, T, {weight(1, 0): F(1), weight(0, 1): F(-1)})
    prod = series_mul(plus, minus)
    assert dict(prod.terms) == {weight(2, 0): F(1), weight(0, 2): F(-1)}
    zero = series(2, cham, T)
    assert not series_mul(h1, zero).terms
    half = series(2, cham, T, {weight("1/2", 0): F(1)})
    assert dict(series_mul(half, half).terms) == {weight(1, 0): F(1)}


def test_chamber_mismatch_rejected():
    a = series(2, (2, 1), 10, {weight(1, 0): F(1)})
    b = series(2, (1, 2), 10, {weight(1, 0): F(1)})
    with pytest.raises(ChamberMismatch):
        series_mul(a, b)


def test_expand_inverse_root_factor_rank_one():
    # pairing of -(2k+1)e1 with chamber (1) is -(2k+1); the T bound keeps
    # exponents -1, -3 at T=3 and -1, -3, -5 at T=5
    s3 = expand_inverse_root_factor(weight(2), (1,), 3)
    assert {e[0] for e in s3.terms} == {F(-1), F(-3)}
    s5 = expand_inverse_root_factor(weight(2), (1,), 5)
    assert {e[0] for e in s5.terms} == {F(-1), F(-3), F(-5)}
    assert all(c == 1 for c in s5.terms.values())


def test_expand_inverse_defining_property():
    for beta, cham in ((weight(2, 0), (2, 1)), (weight(1, -1), (2, 1)), (weight(0, 2), (2, 1)), (weight(1, 1), (3, 1))):
        T = 20
        inv = expand_inverse_root_factor(beta, cham, T)
        prod = series_mul(inv, root_factor_series(beta, cham, T))
        # 1 plus only terms at the truncation horizon
        assert prod.coefficient(weight(0, 0)) == 1
        for e, c in prod.terms.items():
            if e != weight(0, 0):
                assert sum(x * d for x, d in zip(e, cham)) <= -T + max(abs(sum(b * d for b, d in zip(beta, cham))), 1)


def test_expand_inverse_negative_direction_and_leading_term():
    s = expand_inverse_root_factor(weight(1, -1), (2, 1), 10)
    lead = max(s.terms, key=lambda e: sum(x * d for x, d in zip(e, (2, 1))))
    assert lead == weight("-1/2", "1/2")
    flipped = expand_inverse_root_factor(weight(-1, 1), (2, 1), 10)
    lead2 = max(flipped.terms, key=lambda e: sum(x * d for x, d in zip(e, (2, 1))))
    assert flipped.terms[lead2] == -1  # overall -1 on the reversed expansion
    with pytest.raises(NonConvergentDirection):
        expand_inverse_root_factor(weight(1, -1), (1, 1), 10)
    with pytest.raises(NonConvergentDirection):
        expand_inverse_root_factor(weight(1, 0, -1), (1, 2, 1), 10)


def test_series_mul_matches_a_plain_product_on_polynomials():
    rng = random.Random(5)
    cham, T = (2, 1), 60
    for _ in range(20):
        a, b = ({weight(rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-4, 4)) for _ in range(3)} for _ in range(2))
        plain = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                plain[e] = plain.get(e, 0) + ca * cb
        prod = series_mul(series(2, cham, T, a), series(2, cham, T, b))
        assert dict(prod.terms) == {e: c for e, c in plain.items() if c}


def test_partial_fraction_sum_examples():
    assert partial_fraction_sum([F(2), F(3)], 0, [1]) == 1
    # both sides of the rank-one identity at (2, 3, 5), frozen by hand:
    # 5/((5-2)(5-3)) = 5/6 and -[2/((2-3)(2-5)) + 3/((3-2)(3-5))] = 5/6
    pt = [F(2), F(3), F(5)]
    assert partial_fraction_sum(pt, 1, [2]) == F(5, 6)
    assert -partial_fraction_sum(pt, 1, [0, 1]) == F(5, 6)
    with pytest.raises(PoleAtPoint):
        partial_fraction_sum([F(2), F(2)], 0, [0])


def test_dominant_chamber():
    assert dominant_chamber(4) == (4, 3, 2, 1)


def test_mul_with_a_non_integral_coefficient_stays_exact():
    cham, T = (2, 1), 10
    a = series(2, cham, T, {weight("1/2", 0): F(1, 3), weight(0, "1/2"): F(1)})
    b = series(2, cham, T, {weight("1/2", "-1/2"): F(1, 3)})
    prod = series_mul(a, b)
    assert dict(prod.terms) == {weight(1, "-1/2"): F(1, 9), weight("1/2", 0): F(1, 3)}
    assert all(type(c) is Fraction for c in prod.terms.values())
    assert all(type(x) is Fraction for e in prod.terms for x in e)
    # equal series compare equal whatever denominators their factors carried
    third, three = series(2, cham, T, {weight(1, 0): F(1, 3)}), series(2, cham, T, {weight(0, 1): F(3)})
    assert series_mul(third, three) == series(2, cham, T, {weight(1, 1): F(1)})


def test_fraction_truncation_keeps_its_own_level():
    # T = 7/2: level -7/2 is kept, level -4 is dropped
    T = F(7, 2)
    s = series(1, (1,), T, {weight("-7/2"): F(1), weight(-4): F(1)})
    assert dict(s.terms) == {weight("-7/2"): F(1)}
    low = series(1, (1,), T, {weight(-3): F(1)})
    prod = series_mul(low, series(1, (1,), T, {weight("-1/2"): F(1), weight(-1): F(1)}))
    assert dict(prod.terms) == {weight("-7/2"): F(1)}
    inv = expand_inverse_root_factor(weight(1), (1,), T)
    assert sorted(e[0] for e in inv.terms) == [F(-7, 2), F(-5, 2), F(-3, 2), F(-1, 2)]


def test_exponent_denominator_three_is_refused():
    with pytest.raises(ValueError, match="denominators"):
        series(1, (1,), 5, {(F(1, 3),): F(1)})
    with pytest.raises(ValueError, match="denominators"):
        series(2, (2, 1), 5, {(F(2, 3), F(0)): F(1)})
    # reading such an exponent is not an error: no term has it
    assert series(1, (1,), 5, {weight("1/2"): F(1)}).coefficient((F(1, 3),)) == 0


def test_half_integral_root_is_refused_by_name():
    with pytest.raises(ValueError, match=r"root must be integral: \(1/2,\)$"):
        expand_inverse_root_factor((F(1, 2),), (1,), 3)
