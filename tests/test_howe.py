import itertools
import math
from fractions import Fraction

import pytest

from howechar.errors import NotInCorrespondence
from howechar.howe import (
    dual_pair,
    embedded_index_set,
    eta_cosets,
    eta_cosets_brute_force,
    kprime_weyl,
    project,
    rho_z,
    structural_m_range,
    support_interval,
    validate_weight,
    z_subsystem,
    z_weyl,
)
from howechar.rootsys import RootSystem, WeylElement, rho, weight
from howechar.thetachar import compact_rho, noncompact_positive_roots

F = Fraction


def _marked_compact_roots(pair):
    # the compact positive roots, built root by root: e_i - e_j with i < j
    # inside one K' block, sorted
    rank = pair.rank_gprime
    out = []
    for start, stop in pair.kprime_blocks:
        for i in range(start, stop):
            for j in range(i + 1, stop):
                v = [0] * rank
                v[i], v[j] = 1, -1
                out.append(tuple(v))
    return tuple(sorted(out))


def _small_pairs():
    for n in (1, 2, 3):
        for p, q in itertools.product((1, 2, 3), repeat=2):
            if n <= p + q:
                yield dual_pair("uu", n, p=p, q=q)
        for kind in ("oeven-sp", "oodd-sp", "uh-ostar"):
            for m in range(max(n, 2 if kind == "uh-ostar" else 1), 5):
                yield dual_pair(kind, n, m=m)


def test_compact_data_matches_the_marked_roots():
    # noncompact_positive_roots and compact_rho read the K' blocks alone;
    # they must agree with the compact roots marked one by one
    checked = 0
    for pair in _small_pairs():
        compact = _marked_compact_roots(pair)
        positive = pair.rs_gprime.positive_roots
        assert set(compact) <= set(positive), pair
        assert noncompact_positive_roots(pair) == tuple(a for a in positive if a not in compact), pair
        assert compact_rho(pair) == rho(RootSystem("A", pair.rank_gprime, compact)), pair
        checked += 1
    assert checked == 52


def test_pair_root_data():
    uu = dual_pair("uu", 2, p=2, q=1)
    assert uu.rs_gprime.family == "A"
    assert len(_marked_compact_roots(uu)) == 1  # e1 - e2 inside U(2) x U(1)
    assert len(noncompact_positive_roots(uu)) == 2
    oe = dual_pair("oeven-sp", 2, m=3)
    assert oe.rs_gprime.family == "C"
    assert len(_marked_compact_roots(oe)) == 3
    assert len(noncompact_positive_roots(oe)) == 9 - 3
    oo = dual_pair("oodd-sp", 1, m=2)
    assert oo.rs_gprime.family == "C"
    uh = dual_pair("uh-ostar", 2, m=3)
    assert uh.rs_gprime.family == "D"
    with pytest.raises(ValueError):
        dual_pair("uu", 3, p=1, q=1)
    with pytest.raises(ValueError):
        dual_pair("oeven-sp", 3, m=2)


def test_uh_ostar_needs_m_at_least_two():
    # O*(2) is of type D_1, which has no roots
    with pytest.raises(ValueError, match="uh-ostar needs m >= 2"):
        dual_pair("uh-ostar", 1, m=1)
    assert dual_pair("uh-ostar", 1, m=2).rs_gprime.rank == 2


def test_rho_g_values():
    assert dual_pair("uu", 3, p=2, q=2).rho_g == weight(1, 0, -1)
    assert dual_pair("oeven-sp", 2, m=2).rho_g == weight(1, 0)
    assert dual_pair("oodd-sp", 2, m=2).rho_g == weight("3/2", "1/2")
    assert dual_pair("uh-ostar", 2, m=2).rho_g == weight(2, 1)


def test_validate_weight_examples():
    pair = dual_pair("uu", 1, p=1, q=1)
    cd = validate_weight(pair, [-2])
    assert cd.mu == weight(-2) and cd.mu_prime == weight(-2)
    oe = dual_pair("oeven-sp", 1, m=2)
    cd2 = validate_weight(oe, [0])
    assert cd2.mu == weight(0) and cd2.mu_prime == weight(0)


def test_validate_weight_rejections():
    pair = dual_pair("uu", 2, p=1, q=1)
    with pytest.raises(NotInCorrespondence):
        validate_weight(pair, [3, 1])  # two positive entries, q = 1
    with pytest.raises(NotInCorrespondence):
        validate_weight(pair, [-1, -2])  # two negative entries, p = 1
    # one positive and one negative entry is admissible
    validate_weight(pair, [3, -1])
    with pytest.raises(NotInCorrespondence):
        validate_weight(dual_pair("uu", 1, p=2, q=1), [1])  # needs half-integers
    with pytest.raises(NotInCorrespondence):
        validate_weight(pair, [0, 1])  # not decreasing
    with pytest.raises(NotInCorrespondence):
        validate_weight(dual_pair("oodd-sp", 2, m=2), [1, -1])


def test_mu_prime_reversal_is_involution():
    pair = dual_pair("uu", 3, p=2, q=2)
    cd = validate_weight(pair, [1, 0, -1])
    assert tuple(reversed(cd.mu_prime)) == cd.mu


def test_support_interval_u1_case_table():
    for p in range(1, 5):
        for q in range(1, 5):
            pair = dual_pair("uu", 1, p=p, q=q)
            for lam1 in range(-q - 2, p + 3):
                cd = validate_weight(pair, [F(q - p, 2) + lam1])
                iv = support_interval(pair, cd)
                if lam1 <= -q:
                    assert (iv.lo, iv.hi) == (1, 1), (p, q, lam1)
                elif lam1 >= p:
                    assert (iv.lo, iv.hi) == (0, 0), (p, q, lam1)
                else:
                    assert (iv.lo, iv.hi) == (0, 1), (p, q, lam1)


def test_support_interval_oeven_examples():
    oe = dual_pair("oeven-sp", 1, m=2)
    iv3 = support_interval(oe, validate_weight(oe, [3]))
    assert (iv3.lo, iv3.hi) == (0, 0)
    assert iv3.a == (F(2),)
    iv0 = support_interval(oe, validate_weight(oe, [0]))
    assert (iv0.lo, iv0.hi) == (0, 1)
    assert iv0.a == (F(-1),) and iv0.b == (F(-1),)


def test_support_monotone_in_nu():
    pair = dual_pair("uu", 2, p=3, q=3)
    prev = None
    for t in range(-3, 4):
        cd = validate_weight(pair, [t + 1, t])
        iv = support_interval(pair, cd)
        if prev is not None:
            assert iv.lo <= prev[0] and iv.hi <= prev[1]
        prev = (iv.lo, iv.hi)


def test_embedded_index_set_and_project():
    uu = dual_pair("uu", 2, p=2, q=2)
    assert embedded_index_set(uu, 1) == (0, 3)
    assert embedded_index_set(uu, 2) == (0, 1)
    theta = (0.1, 0.2, 0.3, 0.4)
    assert project(uu, 1, theta) == (0.1, 0.4)
    assert project(uu, 2, theta) == (0.1, 0.2)
    oe = dual_pair("oeven-sp", 2, m=3)
    assert embedded_index_set(oe, 2) == (0, 1)
    assert project(oe, 2, (0.5, 0.6, 0.7)) == (0.5, 0.6)
    with pytest.raises(ValueError):
        embedded_index_set(uu, 3)
    for pair, m in ((uu, 1), (dual_pair("uh-ostar", 2, m=3), 2)):
        assert len(embedded_index_set(pair, m)) == pair.n


def test_kprime_weyl_counts():
    assert len(list(kprime_weyl(dual_pair("uu", 1, p=2, q=1)))) == 2 == math.factorial(2) * math.factorial(1)
    assert len(list(kprime_weyl(dual_pair("oeven-sp", 1, m=3)))) == 6
    assert len(list(kprime_weyl(dual_pair("uh-ostar", 1, m=2)))) == 2


def test_kprime_and_z_weyl_follow_the_lex_listing():
    # every sign vector of every permutation of the big torus, in lex order,
    # filtered to the subgroup: the order that the orbit table follows
    pairs = [dual_pair("uu", n, p=p, q=q) for n in (1, 2) for p in (1, 2) for q in (1, 2)]
    pairs += [
        dual_pair(kind, n, m=m)
        for kind in ("oeven-sp", "oodd-sp", "uh-ostar")
        for m in (1, 2, 3)
        for n in range(1, m + 1)
        if kind != "uh-ostar" or m >= 2
    ]
    for pair in pairs:
        N, family = pair.rank_gprime, pair.rs_gprime.family
        listing = [
            WeylElement(perm, signs)
            for perm in itertools.permutations(range(N))
            for signs in itertools.product((1, -1), repeat=N)
        ]
        kprime = [
            w
            for w in listing
            if -1 not in w.signs and all(start <= w.perm[i] < stop for start, stop in pair.kprime_blocks for i in range(start, stop))
        ]
        assert list(kprime_weyl(pair)) == kprime, pair
        lo, hi = structural_m_range(pair)
        for m in range(lo, hi + 1):
            fixed = embedded_index_set(pair, m)
            z = [
                w
                for w in listing
                if all(w.perm[i] == i and w.signs[i] == 1 for i in fixed)
                and (family != "A" or -1 not in w.signs)
                and (family != "D" or w.signs.count(-1) % 2 == 0)
            ]
            assert list(z_weyl(pair, m)) == z, (pair, m)


def test_eta_cosets_uu_examples():
    p11 = dual_pair("uu", 1, p=1, q=1)
    iv = support_interval(p11, validate_weight(p11, [0]))
    assert len(eta_cosets(p11, iv, 1)) == 1
    p22 = dual_pair("uu", 2, p=2, q=2)
    iv22 = support_interval(p22, validate_weight(p22, [-3, -4]))
    assert (iv22.lo, iv22.hi) == (2, 2)
    assert len(eta_cosets(p22, iv22, 2)) == 1
    iv_free = support_interval(p22, validate_weight(p22, [0, 0]))
    assert (iv_free.lo, iv_free.hi) == (0, 2)
    reps = eta_cosets(p22, iv_free, 1)
    assert sorted(tuple(sorted(r.perm[:1])) for r in reps) == [(0,), (1,)]


def test_eta_cosets_uu_against_brute_force():
    for n, p, q in ((3, 3, 3), (4, 4, 4), (5, 5, 5)):
        pair = dual_pair("uu", n, p=p, q=q)
        for nu in ((0,) * n, tuple(range(n, 0, -1)), tuple(-k for k in range(n))):
            cd = validate_weight(pair, list(nu))
            iv = support_interval(pair, cd)
            for m in range(max(iv.lo, 0), min(iv.hi, n) + 1):
                reps = eta_cosets(pair, iv, m)
                assert len(reps) == eta_cosets_brute_force(pair, iv, m)


def test_eta_cosets_signed_pairs():
    oe = dual_pair("oeven-sp", 2, m=3)
    iv = support_interval(oe, validate_weight(oe, [0, 0]))  # both middle signs free
    assert (iv.lo, iv.hi) == (0, 2)
    reps = eta_cosets(oe, iv, 2)
    assert all(r.perm == (0, 1) for r in reps)
    assert {r.signs for r in reps} == {(1, 1), (-1, -1)}  # even flip count only
    oe22 = dual_pair("oeven-sp", 2, m=2)
    iv22 = support_interval(oe22, validate_weight(oe22, [0, 0]))
    assert (iv22.lo, iv22.hi) == (0, 1)  # second coordinate flip is forced
    assert {r.signs for r in eta_cosets(oe22, iv22, 2)} == {(1, -1)}
    oo = dual_pair("oodd-sp", 2, m=3)
    iv2 = support_interval(oo, validate_weight(oo, [0, 0]))
    assert (iv2.lo, iv2.hi) == (0, 1)
    assert {r.signs for r in eta_cosets(oo, iv2, 2)} == {(1, -1), (-1, -1)}
    uh = dual_pair("uh-ostar", 1, m=2)
    iv3 = support_interval(uh, validate_weight(uh, [0]))
    assert [r.signs for r in eta_cosets(uh, iv3, 1)] == [(1,)]


def test_rho_z_examples():
    uu = dual_pair("uu", 2, p=2, q=2)
    assert rho_z(uu, 1) == weight(0, "1/2", "-1/2", 0)
    assert rho_z(uu, 2) == weight(0, 0, "1/2", "-1/2")
    oe = dual_pair("oeven-sp", 1, m=2)
    assert rho_z(oe, 1) == weight(0, 1)
    full = dual_pair("uu", 2, p=1, q=1)
    assert rho_z(full, 1) == weight(0, 0)
    assert len(list(z_weyl(full, 1))) == 1


def test_z_weyl_sizes():
    assert len(list(z_weyl(dual_pair("uu", 2, p=2, q=2), 1))) == 2  # S_2 on the complement
    assert len(list(z_weyl(dual_pair("oeven-sp", 1, m=2), 1))) == 2  # C_1 block
    assert len(list(z_weyl(dual_pair("uh-ostar", 1, m=2), 1))) == 1  # D_1 block is trivial
    assert len(list(z_weyl(dual_pair("uh-ostar", 1, m=3), 1))) == 4  # D_2 block


def test_z_subsystem_roots():
    oe = dual_pair("oeven-sp", 1, m=2)
    assert z_subsystem(oe, 1).positive_roots == (weight(0, 2),)


def test_kprime_weyl_cap():
    from howechar.errors import CapExceeded

    big = dual_pair("oeven-sp", 1, m=11)
    with pytest.raises(CapExceeded):
        next(kprime_weyl(big))
