import itertools
import random
from fractions import Fraction

import pytest

from howechar.errors import CapExceeded
from howechar.rootsys import (
    WeylElement,
    act,
    build_root_system,
    compose,
    identity_element,
    inverse,
    rho,
    sign,
    weight,
    weight_dot,
    weyl_elements,
    weyl_order,
)


def test_positive_root_counts():
    assert len(build_root_system("A", 3).positive_roots) == 3
    assert len(build_root_system("B", 2).positive_roots) == 4
    assert len(build_root_system("C", 2).positive_roots) == 4
    for n in (2, 3, 4):
        assert len(build_root_system("D", n).positive_roots) == n * (n - 1)
        assert len(build_root_system("B", n).positive_roots) == n * n


def test_roots_are_int_tuples_and_rho_is_a_weight():
    for family in "ABCD":
        for rank in (2, 3):
            rs = build_root_system(family, rank)
            assert all(type(c) is int for alpha in rs.all_roots for c in alpha)
            assert all(type(c) is Fraction for c in rho(rs))


def test_c2_and_b2_root_sets():
    c2 = {tuple(map(int, r)) for r in build_root_system("C", 2).positive_roots}
    assert c2 == {(1, -1), (1, 1), (2, 0), (0, 2)}
    b2 = {tuple(map(int, r)) for r in build_root_system("B", 2).positive_roots}
    assert b2 == {(1, -1), (1, 1), (1, 0), (0, 1)}


def test_bad_ranks_rejected():
    with pytest.raises(ValueError):
        build_root_system("A", 0)
    with pytest.raises(ValueError):
        build_root_system("D", 1)
    with pytest.raises(ValueError):
        build_root_system("E", 3)


def test_rho_examples():
    assert rho(build_root_system("A", 3)) == weight(1, 0, -1)
    assert rho(build_root_system("D", 2)) == weight(1, 0)
    assert rho(build_root_system("C", 2)) == weight(2, 1)
    assert rho(build_root_system("B", 2)) == weight("3/2", "1/2")


def test_sum_of_positive_roots_is_two_rho():
    for family in "ABCD":
        for rank in (2, 3, 4):
            rs = build_root_system(family, rank)
            total = [Fraction(0)] * rank
            for alpha in rs.positive_roots:
                total = [a + b for a, b in zip(total, alpha)]
            assert tuple(total) == tuple(2 * c for c in rho(rs))


def test_weyl_group_sizes_and_uniqueness():
    for family, rank, size in (("A", 3, 6), ("C", 2, 8), ("D", 3, 24), ("B", 2, 8)):
        rs = build_root_system(family, rank)
        elems = list(weyl_elements(rs))
        assert len(elems) == size == weyl_order(rs)
        assert len(set(elems)) == size
        assert elems.count(identity_element(rank)) == 1


def test_weyl_elements_follow_the_lex_listing():
    # every sign vector of every permutation, in lex order, filtered to the
    # family's group: the order that the orbit tables and float sums follow
    keep = {"A": lambda s: -1 not in s, "B": lambda s: True, "C": lambda s: True, "D": lambda s: s.count(-1) % 2 == 0}
    for family, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 2), ("D", 3)):
        listing = [
            WeylElement(perm, signs)
            for perm in itertools.permutations(range(rank))
            for signs in itertools.product((1, -1), repeat=rank)
            if keep[family](signs)
        ]
        assert list(weyl_elements(build_root_system(family, rank))) == listing, (family, rank)


def test_enumeration_cap():
    rs = build_root_system("B", 11)
    with pytest.raises(CapExceeded):
        next(weyl_elements(rs))


def test_act_and_sign_examples():
    mu = weight(2, 1)
    assert act(identity_element(2), mu) == mu
    assert sign(identity_element(2)) == 1
    swap = WeylElement((1, 0), (1, 1))
    assert act(swap, mu) == weight(1, 2)
    assert sign(swap) == -1
    flip = WeylElement((0, 1), (-1, 1))
    assert act(flip, mu) == weight(-2, 1)
    assert sign(flip) == -1


def test_act_is_a_group_action():
    rng = random.Random(0)
    for family, rank in (("A", 4), ("B", 3), ("D", 4)):
        rs = build_root_system(family, rank)
        elems = list(weyl_elements(rs))
        for _ in range(100):
            w1, w2 = rng.choice(elems), rng.choice(elems)
            mu = weight(*[rng.randint(-9, 9) for _ in range(rank)])
            assert act(w1, act(w2, mu)) == act(compose(w1, w2), mu)
        w = rng.choice(elems)
        assert compose(w, inverse(w)) == identity_element(rank)


def test_inversion_parity_matches_sign():
    for family, rank in (("A", 4), ("C", 3), ("D", 3)):
        rs = build_root_system(family, rank)
        negatives = {tuple(-c for c in a) for a in rs.positive_roots}
        for w in weyl_elements(rs):
            inv = sum(1 for a in rs.positive_roots if act(w, a) in negatives)
            assert (-1) ** inv == sign(w)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        act(identity_element(2), weight(1, 2, 3))
    with pytest.raises(ValueError):
        weight_dot(weight(1), weight(1, 2))
