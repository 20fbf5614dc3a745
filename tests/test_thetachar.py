import cmath
import copy
import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from howechar.errors import FormulaInconsistency, NotInCorrespondence, NotMinimalKType, SingularPoint
from howechar.howe import dual_pair, kprime_weyl
from howechar.rootsys import act, weight
from howechar.thetachar import (
    ThetaCharacter,
    character_series,
    ktype_expansion,
    normalizing_constant,
    numerator_terms,
    theta_character,
    theta_eval,
    theta_numerator_form,
    theta_u1_closed,
    vandermonde_identity_check,
)
from howechar.torus import random_regular, weyl_denominator

F = Fraction
REF_POINT = (math.pi / 2, -math.pi / 2)


def spread(vals):
    v = np.array(vals)
    return float(np.abs(v - v.mean()).max() / max(abs(v.mean()), 1e-300))


def test_theta_rank_one_reference_value():
    pair = dual_pair("uu", 1, p=1, q=1)
    tc = theta_character(pair, [0], m=1)
    assert abs(theta_eval(tc, REF_POINT) - (-0.5j)) < 1e-12
    assert abs(theta_u1_closed(1, 1, 0, 1, REF_POINT) - (-0.5j)) < 1e-12
    tc0 = theta_character(pair, [0], m=0)
    assert abs(theta_eval(tc0, REF_POINT) - (-0.5j)) < 1e-12


def test_theta_singular_point_rejected():
    pair = dual_pair("uu", 1, p=1, q=1)
    tc = theta_character(pair, [0])
    with pytest.raises(SingularPoint):
        theta_eval(tc, (1.0, 1.0))
    with pytest.raises(ValueError, match="angles must be finite"):  # no point, not a singular one
        theta_eval(tc, (float("nan"), 1.0))
    with pytest.raises(SingularPoint):
        theta_u1_closed(1, 1, 0, 1, (1.0, 1.0))


def test_theta_kprime_invariance():
    rng = random.Random(21)
    for pair, nu in (
        (dual_pair("uu", 2, p=2, q=1), [F("1/2"), F("-1/2")]),
        (dual_pair("oodd-sp", 1, m=2), [2]),
    ):
        tc = theta_character(pair, nu)
        elems = list(kprime_weyl(pair))
        for _ in range(10):
            th = random_regular(pair.rs_gprime, rng)
            w = rng.choice(elems)
            a = theta_eval(tc, th)
            b = theta_eval(tc, act(w, th))
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_theta_m_independence_rank_one():
    rng = random.Random(22)
    for p, q in ((1, 1), (2, 1), (3, 2), (3, 3)):
        pair = dual_pair("uu", 1, p=p, q=q)
        for lam1 in range(-q + 1, p):
            nu = [F(q - p, 2) + lam1]
            tc0 = theta_character(pair, nu, m=0)
            tc1 = theta_character(pair, nu, m=1)
            ratios = []
            for _ in range(10):
                th = random_regular(pair.rs_gprime, rng)
                ratios.append(theta_eval(tc0, th) / theta_eval(tc1, th))
            assert spread(ratios) <= 1e-9, (p, q, lam1)


def test_theta_m_independence_all_small_instances():
    # every admissible nu with integer parts in [-3, 3], n <= 2, p+q <= 4,
    # whose support interval leaves a genuine choice of embedding
    import itertools

    from howechar.errors import NotInCorrespondence
    from howechar.howe import structural_m_range, support_interval, validate_weight

    rng = random.Random(23)
    checked = 0
    for p, q in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)):
        for n in (1, 2):
            if n > p + q:
                continue
            pair = dual_pair("uu", n, p=p, q=q)
            shift = F(q - p, 2)
            for ints in itertools.product(range(-3, 4), repeat=n):
                if any(a < b for a, b in zip(ints, ints[1:])):
                    continue
                nu = [shift + v for v in ints]
                try:
                    iv = support_interval(pair, validate_weight(pair, nu))
                except NotInCorrespondence:
                    continue
                s_lo, s_hi = structural_m_range(pair)
                ms = list(range(max(iv.lo, s_lo), min(iv.hi, s_hi) + 1))
                if len(ms) < 2:
                    continue
                base = theta_character(pair, nu, m=ms[0])
                for m in ms[1:]:
                    other = theta_character(pair, nu, m=m)
                    ratios = []
                    for _ in range(10):
                        th = random_regular(pair.rs_gprime, rng)
                        ratios.append(theta_eval(other, th) / theta_eval(base, th))
                    assert spread(ratios) <= 1e-9, (p, q, nu, m, ratios)
                    checked += 1
    assert checked >= 40


def test_closed_form_agreement_up_to_constant():
    rng = random.Random(24)
    for p, q in ((1, 1), (2, 1), (1, 3), (3, 3)):
        pair = dual_pair("uu", 1, p=p, q=q)
        for lam1 in (-q - 1, -q, 0, p - 1, p + 2):
            nu = [F(q - p, 2) + lam1]
            tc = theta_character(pair, nu)
            ratios = []
            for _ in range(10):
                th = random_regular(pair.rs_gprime, rng)
                ratios.append(theta_u1_closed(p, q, lam1, tc.m, th) / theta_eval(tc, th))
            assert spread(ratios) <= 1e-9, (p, q, lam1)


def test_numerator_form_matches_denominator_times_theta():
    rng = random.Random(25)
    cases = [
        (dual_pair("uu", 2, p=2, q=2), [1, 0]),
        (dual_pair("uu", 1, p=2, q=1), [F("1/2")]),
        (dual_pair("oeven-sp", 2, m=3), [2, 0]),
        (dual_pair("oodd-sp", 2, m=2), [1, 1]),
        (dual_pair("uh-ostar", 2, m=3), [2, 1]),
        (dual_pair("uu", 2, p=4, q=3), [F("-1/2"), F("-1/2")]),
        (dual_pair("oeven-sp", 3, m=5), [1, 0, 0]),
    ]
    for pair, nu in cases:
        tc = theta_character(pair, nu)
        ratios = []
        for _ in range(10):
            th = random_regular(pair.rs_gprime, rng)
            ratios.append(theta_numerator_form(tc, th) / (weyl_denominator(pair.rs_gprime, th) * theta_eval(tc, th)))
        assert spread(ratios) <= 1e-9
        assert abs(np.mean(ratios) - 1) < 1e-9  # exact identity in this normalization


def test_numerator_form_finite_at_singular_points():
    pair = dual_pair("uu", 2, p=2, q=2)
    tc = theta_character(pair, [1, 0])
    val = theta_numerator_form(tc, (1.0, 1.0, 1.0, 1.0))
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_u1_closed_m_relation_at_p_q_one():
    # theta(m=0)/theta(m=1) carries the sign from the partial-fraction
    # identity times the reorientation of the m=0 denominators
    rng = random.Random(27)
    p = q = 1
    pair = dual_pair("uu", 1, p=p, q=q)
    ratios = []
    for _ in range(10):
        th = random_regular(pair.rs_gprime, rng)
        ratios.append(theta_eval(theta_character(pair, [0], m=0), th) / theta_eval(theta_character(pair, [0], m=1), th))
    predicted = (-1) ** (p + q) * math.factorial(p) * math.factorial(q - 1) / (math.factorial(p - 1) * math.factorial(q))
    assert spread(ratios) <= 1e-9
    assert abs(np.mean(ratios) - predicted) < 1e-9


def test_vandermonde_identity_examples():
    assert vandermonde_identity_check(1, 1, 0, mode="random-rational").status == "holds"
    assert vandermonde_identity_check(2, 1, 1, mode="deterministic-grid").status == "proved"
    out = vandermonde_identity_check(1, 1, 1)
    assert out.status == "not-in-asserted-range"
    assert "3" in out.detail and "2" in out.detail  # the (2, 3) counterexample sides


def test_vandermonde_identity_reports_a_failure_in_both_modes(monkeypatch):
    # a surviving Leibniz coefficient, or two sides that differ at a random
    # point, is the verdict 'failed', not an error
    from howechar import thetachar as tmod

    monkeypatch.setattr(tmod, "_identity_polynomial_coefficients", lambda N, k: {(1, 0, 0): 1})
    out = vandermonde_identity_check(2, 1, 1, mode="deterministic-grid")
    assert (out.status, out.detail) == ("failed", "1 surviving coefficients")
    monkeypatch.setattr(tmod, "partial_fraction_sum", lambda values, power, indices: F(len(indices)))
    out = vandermonde_identity_check(2, 1, 1, mode="random-rational")
    assert out.status == "failed" and out.detail.startswith("trial 0 at ") and out.detail.endswith(": 1 != -2")


def test_vandermonde_identity_random_rational_full_sweep():
    for total in range(2, 9):
        for p in range(1, total):
            q = total - p
            for k in range(0, total - 1):
                out = vandermonde_identity_check(p, q, k, mode="random-rational", seed=7)
                assert out.status == "holds", (p, q, k, out)


def test_vandermonde_identity_leibniz_coefficients():
    # the one deterministic path: every Leibniz coefficient cancels inside
    # the asserted range, for every p at the same N = p+q
    from howechar.thetachar import _identity_polynomial_coefficients

    for N, k in ((2, 0), (3, 1), (4, 2), (5, 0)):
        assert not _identity_polynomial_coefficients(N, k)
    assert _identity_polynomial_coefficients(3, 2)  # k = N-1 genuinely fails
    for p in range(1, 5):
        out = vandermonde_identity_check(p, 5 - p, 3, mode="deterministic-grid")
        assert (out.status, out.detail) == ("proved", "all Leibniz coefficients cancel (degree-bounded polynomial)")


def _naive_leibniz_coefficients(N, k):
    # sum_b (-1)^b h_b^k V_b expanded one permutation at a time, with tuple
    # keys and perm_sign: a reference that shares no code with the prover
    from howechar.rootsys import perm_sign

    M = N - 1
    coeffs = {}
    for b in range(N):
        for pi in itertools.permutations(range(M)):
            row = tuple(M - 1 - i for i in pi)
            key = (*row[:b], k, *row[b:])
            coeffs[key] = coeffs.get(key, 0) + (-1) ** b * perm_sign(pi)
    return {e: c for e, c in coeffs.items() if c != 0}


def test_leibniz_prover_matches_the_naive_expansion():
    from howechar.thetachar import _identity_polynomial_coefficients

    for N in range(2, 7):
        for k in range(N):
            got = _identity_polynomial_coefficients(N, k)
            assert got == _naive_leibniz_coefficients(N, k), (N, k)
            assert all(type(c) is int and all(type(e) is int for e in key) for key, c in got.items())
    assert len(_identity_polynomial_coefficients(4, 3)) == 24  # k = N-1: the total Vandermonde
    with pytest.raises(ValueError, match="k must be"):  # a digit of N or more would alias
        _identity_polynomial_coefficients(4, 4)


def test_identity_check_refuses_vacuous_arguments():
    # the mode is checked before the range test on k, so an unknown mode is
    # never answered with a verdict
    for k in (0, 5):
        with pytest.raises(ValueError, match="mode"):
            vandermonde_identity_check(1, 1, k, mode="bogus")


def test_ktype_ladder_uu111():
    pair = dual_pair("uu", 1, p=1, q=1)
    for lam1 in range(-3, 4):
        tc = theta_character(pair, [lam1])
        kt = ktype_expansion(tc, depth=20)
        mu_p = F(lam1)
        # chamber (2, 1) pairing drops by 1 per ladder step, so depth 20
        # reports 21 rungs of the geometric series
        if tc.m == 1:
            expected = [(-mu_p - F(1, 2) - k, F(1, 2) + k) for k in range(21)]
        else:
            expected = [(-F(1, 2) - k, -mu_p + F(1, 2) + k) for k in range(21)]
        assert list(kt) == expected, (lam1, list(kt)[:3], expected[:3])
        assert all(v == 1 for v in kt.values())


def test_ktype_depth_zero_reports_only_the_minimal_type():
    tc = theta_character(dual_pair("uu", 1, p=1, q=1), [1])
    kt = ktype_expansion(tc, depth=0)
    assert list(kt.values()) == [1]


def test_signed_rank_one_closed_forms():
    # for n = m = 1 both Sp pairs reduce to a one-term numerator over the
    # single long root: theta is proportional to u^{-mu'}/(u - 1/u) with
    # u = e^{i theta}, the geometric sum of the dual lowest-weight ladder
    rng = random.Random(29)
    for kind, nu in (("oeven-sp", [0]), ("oeven-sp", [2]), ("oodd-sp", [0]), ("oodd-sp", [3])):
        pair = dual_pair(kind, 1, m=1)
        tc = theta_character(pair, nu)
        mu_p = tc.cd.mu_prime[0]
        ratios = []
        for _ in range(10):
            th = random_regular(pair.rs_gprime, rng)
            u = cmath.exp(1j * th[0])
            closed = cmath.exp(-1j * float(mu_p) * th[0]) / (u - 1 / u)
            ratios.append(theta_eval(tc, th) / closed)
        assert spread(ratios) <= 1e-9, (kind, nu, ratios)


def test_ktype_signed_pairs_match_dual_lowest_weights():
    # dual weight tables: -n - nu_rev (even orthogonal and quaternionic),
    # -(2n+1)/2 - nu_rev (odd orthogonal, embedding-filling case m = n)
    cases = [
        ("oeven-sp", 1, 1, (2,), weight(-3)),
        ("oeven-sp", 1, 2, (3,), weight(-1, -4)),
        ("oeven-sp", 2, 2, (1, 0), weight(-2, -3)),
        ("oodd-sp", 1, 1, (0,), weight("-3/2")),
        ("oodd-sp", 2, 2, (2, 1), weight("-7/2", "-9/2")),
        ("uh-ostar", 1, 2, (0,), weight(-1, -1)),
        ("uh-ostar", 2, 3, (1, 1), weight(-2, -3, -3)),
    ]
    for kind, n, m, nu, expected_min in cases:
        tc = theta_character(dual_pair(kind, n, m=m), nu)
        kt = ktype_expansion(tc, depth=10)
        assert next(iter(kt)) == expected_min, (kind, n, m, nu, next(iter(kt)))
        assert next(iter(kt.values())) == 1
        assert all(v >= 0 for v in kt.values())


def test_normalizing_constant_rank_one():
    pair = dual_pair("uu", 1, p=1, q=1)
    for lam1 in (1, 2, -2):
        tc = theta_character(pair, [lam1])
        lam_min = next(iter(ktype_expansion(tc, depth=4)))
        assert normalizing_constant(tc, lam_min) != 0
        with pytest.raises(NotMinimalKType):
            normalizing_constant(tc, tuple(x - 1 for x in lam_min))


def test_normalizing_constant_degenerate_block_is_one():
    # with no noncompact roots the pairing reduces to character
    # orthonormality: <A_lam, conj(A_lam)> / |W(K')| = 1
    from howechar.thetachar import _alternating_orbit_terms, compact_rho

    pair = dual_pair("uu", 1, p=2, q=1)
    lam = weight(2, 1, 0)
    rho0 = compact_rho(pair)
    plus = _alternating_orbit_terms(pair, tuple(a + b for a, b in zip(lam, rho0)), F(1))
    minus = _alternating_orbit_terms(pair, tuple(-(a + b) for a, b in zip(lam, rho0)), F(1))
    const = sum(c * minus.get(tuple(-x for x in e), F(0)) for e, c in plus.items())
    assert const / (math.factorial(2) * math.factorial(1)) == 1  # |W(K')| = p! q!


def test_normalizing_constant_truncation_guard():
    # the last K-type at depth 14 has a nonzero coefficient of its own, so
    # only the higher K-types in the series show that it is not minimal
    tc = theta_character(dual_pair("uu", 1, p=2, q=1), [F("5/2")])
    deep = weight("-1/2", "-29/2", "25/2")
    kt = ktype_expansion(tc, depth=14)
    assert list(kt)[-1] == deep and kt[deep] == 1
    # the error names the highest K-type above deep
    with pytest.raises(NotMinimalKType, match=re.escape("lies below the K-type (-1/2, -1/2, -3/2)")):
        normalizing_constant(tc, deep)


def test_normalizing_constant_reads_the_whole_orbit():
    # the coefficient at lam_min + rho_0 carries the whole alternating
    # orbit, whose lower members the series at that level leaves out
    tc = theta_character(dual_pair("uh-ostar", 2, m=3), [1, 1])
    lam_min = weight(-2, -3, -3)
    assert next(iter(ktype_expansion(tc, depth=4))) == lam_min
    assert normalizing_constant(tc, lam_min) == 1
    tc = theta_character(dual_pair("uh-ostar", 1, m=3), [2])
    lam_min = next(iter(ktype_expansion(tc, depth=4)))
    assert normalizing_constant(tc, lam_min) == F(1, 2)


def test_normalizing_constant_reads_one_exact_coefficient():
    # lam_min + rho_0 = (-3, -5) sits at chamber level -11; the one series
    # cut there holds its coefficient exactly
    tc = theta_character(dual_pair("oodd-sp", 2, m=2), [2, 1])
    assert normalizing_constant(tc, weight("-7/2", "-9/2")) == 1


def test_constant_op_compiles_the_numerator_once(monkeypatch, capsys):
    from functools import cached_property

    from howechar import thetachar as tmod
    from howechar.cli import run

    calls = []
    original = tmod.ThetaCharacter.numerator.func

    def counted(tc):
        calls.append(tc)
        return original(tc)

    expansion = cached_property(counted)
    expansion.__set_name__(tmod.ThetaCharacter, "numerator")
    monkeypatch.setattr(tmod.ThetaCharacter, "numerator", expansion)
    argv = ["constant", "--pair", "uu", "--n", "1", "--p", "1", "--q", "1", "--nu", "2"]
    assert run(argv) == 0
    first = capsys.readouterr()
    assert len(calls) == 1
    # a second identical op in the same process reuses the shared instance
    assert run(argv) == 0
    assert capsys.readouterr() == first
    assert len(calls) == 1


def test_theta_character_is_one_shared_instance_per_argument():
    pair = dual_pair("uu", 2, p=2, q=2)
    tc = theta_character(pair, [1, 0])
    assert theta_character(pair, ("1", "0")) is tc
    assert theta_character(pair, (F(1), F(0))) is tc
    # m = 1 and m = 2 both lie in the support interval of nu = (0, 0)
    tc1, tc2 = (theta_character(pair, [0, 0], m=m) for m in (1, 2))
    assert tc1 is not tc2 and (tc1.m, tc2.m) == (1, 2)
    # a fresh instance can still be built directly
    assert ThetaCharacter(pair, tc.cd, tc.interval, tc.m) is not tc


def test_a_compiled_instance_pickles_and_copies():
    tc = theta_character(dual_pair("uu", 2, p=2, q=1), [F(1, 2), F(-1, 2)])
    point = [0.3, 1.1, 2.0]
    value = theta_eval(tc, point)
    for twin in (pickle.loads(pickle.dumps(tc)), copy.deepcopy(tc)):
        assert twin == tc and twin is not tc
        assert theta_eval(twin, point) == value and twin.numerator == tc.numerator


def test_theta_character_raises_on_every_call_for_an_invalid_weight():
    pair = dual_pair("uu", 2, p=2, q=2)
    messages = []
    for _ in range(2):
        with pytest.raises(NotInCorrespondence) as exc:
            theta_character(pair, [0, 1])
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and "not weakly decreasing" in messages[0]


def test_shared_tables_are_read_only():
    tc = theta_character(dual_pair("uu", 2, p=2, q=1), [F(1, 2), F(-1, 2)])
    v = next(iter(tc.orbit_table))
    e = next(iter(tc.numerator))
    with pytest.raises(TypeError):
        tc.orbit_table[v] = 0
    with pytest.raises(TypeError):
        tc.numerator[e] = 0
    for array in tc._float_table:
        with pytest.raises(ValueError, match="read-only"):
            array[0, ...] = 0
    # numerator_terms is the caller's own copy
    terms = numerator_terms(tc)
    terms.clear()
    assert numerator_terms(tc) and len(numerator_terms(tc)) == len(tc.numerator)


def test_ktype_expansion_rejects_a_broken_alternation(monkeypatch):
    # flipping the sign of one non-dominant term leaves an orbit that is
    # not W(K')-alternating; the expansion must refuse it
    from howechar import thetachar as tmod

    tc = theta_character(dual_pair("uu", 1, p=2, q=1), [F("1/2")])
    assert ktype_expansion(tc, depth=10)
    original = tmod.character_series

    def flipped(tc, floor):
        S = original(tc, floor)
        off = [e for e in S if tmod._block_sorted(tc.pair, e)[0] != e]
        e = max(off, key=lambda e: sum(x * d for x, d in zip(e, (3, 2, 1))))
        return {**S, e: -S[e]}

    monkeypatch.setattr(tmod, "character_series", flipped)
    with pytest.raises(FormulaInconsistency, match="alternation"):
        ktype_expansion(tc, depth=10)


def test_character_series_times_noncompact_factors_recovers_numerator():
    # S * Delta_+ must reproduce the numerator polynomial exactly above the
    # floor's horizon, for every pair kind
    from howechar.laurent import level, series_mul
    from howechar.thetachar import noncompact_positive_roots

    def root_factor_series(beta):
        """h^{beta/2} - h^{-beta/2}, doubled."""
        return {tuple(beta): 1, tuple(-x for x in beta): -1}

    for pair, nu in (
        (dual_pair("uu", 1, p=2, q=1), [F("1/2")]),
        (dual_pair("oeven-sp", 1, m=2), [1]),
        (dual_pair("uh-ostar", 1, m=2), [1]),
    ):
        tc = theta_character(pair, nu)
        floor = -40
        S = character_series(tc, floor)
        back = S
        for beta in noncompact_positive_roots(pair):
            back = series_mul(back, root_factor_series(beta), floor)
        P = numerator_terms(tc)
        horizon = floor + sum(abs(level(b)) for b in noncompact_positive_roots(pair))
        for e, c in P.items():
            assert back.get(e, 0) == c
        for e, c in back.items():
            if level(e) >= horizon + 4:
                assert P.get(e, 0) == c, (pair.kind, e, c)


def _divide_by_root_factor(S, beta, chamber, floor):
    """S / (h^{beta/2} - h^{-beta/2}) on plain dicts, exact at levels >= floor.

    With s = -beta/2, c = 1 for <beta, chamber> > 0 (s = beta/2, c = -1
    otherwise) the quotient U satisfies U(e) = c S(e - s) + U(e - 2s), and
    e - s, e - 2s lie higher along the chamber than e, so the keys are
    filled in descending level.
    """

    def level(e):
        return sum(x * d for x, d in zip(e, chamber))

    sgn = 1 if level(beta) > 0 else -1
    s = tuple(-sgn * F(b) / 2 for b in beta)
    keys = set()
    for e0 in S:
        e = tuple(x + y for x, y in zip(e0, s))
        while level(e) >= floor:
            keys.add(e)
            e = tuple(x + 2 * y for x, y in zip(e, s))
    U = {}
    for e in sorted(keys, key=level, reverse=True):
        above = tuple(x - y for x, y in zip(e, s))
        c = sgn * S.get(above, 0) + U.get(tuple(x - y for x, y in zip(above, s)), 0)
        if c:
            U[e] = c
    return U


@pytest.mark.parametrize(
    "kind, n, kw, nu",
    [
        ("uu", 2, dict(p=2, q=2), [1, 0]),
        ("oeven-sp", 1, dict(m=2), [2]),
        ("oodd-sp", 2, dict(m=2), [2, 1]),
        ("uh-ostar", 2, dict(m=3), [1, 1]),
        ("uu", 2, dict(p=3, q=2), [F(1, 2), F(1, 2)]),
        ("uh-ostar", 3, dict(m=4), [2, 1, 1]),
        ("oodd-sp", 3, dict(m=3), [1, 1, 1]),
    ],
    ids=["uu(2;2,2)", "oeven-sp(1;2)", "oodd-sp(2;2)", "uh-ostar(2;3)", "uu(2;3,2)", "uh-ostar(3;4)", "oodd-sp(3;3)"],
)
def test_character_series_matches_a_recurrence_oracle(kind, n, kw, nu):
    # the oracle shares no code with the Laurent engine: it divides the
    # numerator by one noncompact factor at a time through the recurrence
    from howechar.thetachar import noncompact_positive_roots, series_top

    def fractions(doubled):
        return {tuple(F(x, 2) for x in e): F(c) for e, c in doubled.items()}

    tc = theta_character(dual_pair(kind, n, **kw), nu)
    chamber = tuple(range(tc.pair.rank_gprime, 0, -1))
    floor = series_top(tc) - 16  # a doubled level: depth 8 below the top
    U = fractions(numerator_terms(tc))
    for beta in noncompact_positive_roots(tc.pair):
        U = _divide_by_root_factor(U, beta, chamber, F(floor, 2))
    assert fractions(character_series(tc, floor)) == U
    assert len(U) >= 10  # 13 to 60 terms compared


@pytest.mark.parametrize(
    "kind, n, kw, nu",
    [
        ("uu", 2, dict(p=3, q=2), [F(1, 2), F(1, 2)]),
        ("oeven-sp", 2, dict(m=3), [1, 0]),
        ("oodd-sp", 2, dict(m=2), [2, 1]),
        ("uh-ostar", 2, dict(m=3), [1, 1]),
        ("uu", 1, dict(p=1, q=1), [-3]),
        ("oeven-sp", 3, dict(m=5), [1, 0, 0]),
    ],
    ids=["uu(2;3,2)", "oeven-sp(2;3)", "oodd-sp(2;2)", "uh-ostar(2;3)", "uu(1;1,1)", "oeven-sp(3;5)"],
)
def test_division_is_exact_at_every_level_it_keeps(kind, n, kw, nu):
    # a deeper division agrees with a shallower one on every level the
    # shallower keeps; uu(1;1,1) nu=-3 has the numerator {(6, 0): 1} above
    # level 0, where a factor cut at the floor alone loses the lowest rungs
    from howechar.laurent import divide_by_root_factors, level
    from howechar.thetachar import noncompact_positive_roots, series_top

    tc = theta_character(dual_pair(kind, n, **kw), nu)
    betas = noncompact_positive_roots(tc.pair)
    floor = series_top(tc) - 40  # a doubled level

    def divide(lowest):
        return divide_by_root_factors(tc.numerator, betas, lowest)

    shallow = divide(floor)
    deep = {e: c for e, c in divide(floor - 20).items() if level(e) >= floor}
    assert shallow == deep
    if kind == "uu" and n == 1:
        assert tc.numerator == {(6, 0): 1}
        # the 21 rungs h^{(5/2-k, 1/2+k)} at doubled levels 11 - 2k >= 11 - 40
        assert shallow == {(5 - 2 * k, 1 + 2 * k): 1 for k in range(21)}


def test_running_products_stay_near_the_series_they_build(monkeypatch):
    # each running product is cut at the floor plus the drops of the root
    # factors still to come, so none grows far past the final series
    from howechar import laurent
    from howechar.thetachar import noncompact_positive_roots, series_top

    sizes = []
    original = laurent.series_mul

    def counted(a, b, floor):
        out = original(a, b, floor)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(laurent, "series_mul", counted)
    tc = theta_character(dual_pair("oeven-sp", 3, m=5), [1, 0, 0])
    S = character_series(tc, series_top(tc) - 12)
    assert len(S) >= 50 and len(sizes) == len(noncompact_positive_roots(tc.pair))
    assert max(sizes) <= 2 * len(S), (max(sizes), len(S))


@pytest.mark.parametrize(
    "kind, n, kw, nu",
    [
        ("uu", 2, dict(p=3, q=2), [F(1, 2), F(1, 2)]),
        ("oeven-sp", 2, dict(m=3), [1, 0]),
        ("oodd-sp", 2, dict(m=2), [2, 1]),
        ("uh-ostar", 2, dict(m=3), [1, 1]),
    ],
    ids=["uu(2;3,2)", "oeven-sp(2;3)", "oodd-sp(2;2)", "uh-ostar(2;3)"],
)
def test_character_series_is_held_in_doubled_ints(kind, n, kw, nu):
    from howechar.thetachar import series_top

    tc = theta_character(dual_pair(kind, n, **kw), nu)
    assert all(type(x) is int for e, c in tc.numerator.items() for x in (*e, c))
    S = character_series(tc, series_top(tc) - 12)
    assert len(S) >= 10 and max(sum(x * d for x, d in zip(e, range(len(e), 0, -1))) for e in S) == series_top(tc)
    assert all(type(x) is int for e, c in S.items() for x in (*e, c))


def test_block_sorting_rejects_non_regular_orbits():
    from howechar.thetachar import _block_sorted

    pair = dual_pair("uu", 1, p=2, q=1)
    with pytest.raises(FormulaInconsistency):
        _block_sorted(pair, (2, 2, 0))  # the doubled exponent (1, 1, 0)


def test_theta_independent_of_eta_coset_representatives():
    # replacing the representative eta = id of the single m = 2 coset by
    # eta o w with w = (1 2) in S_m x S_{n-m} flips sgn(eta) and reverses
    # the exponent; the W(K') sum absorbs both, leaving theta unchanged
    from howechar import howe as howe_mod
    from howechar import thetachar as tmod
    from howechar.rootsys import WeylElement, compose

    rng = random.Random(30)
    pair = dual_pair("uu", 2, p=2, q=2)
    tc = theta_character(pair, [0, 0], m=2)
    assert (tc.interval.lo, tc.interval.hi) == (0, 2)
    points = [random_regular(pair.rs_gprime, rng) for _ in range(4)]
    reference = [theta_eval(tc, th) for th in points]
    [eta] = howe_mod.eta_cosets(pair, tc.interval, 2)
    assert eta.perm == (0, 1)
    swap = WeylElement((1, 0), (1, 1))
    twisted_rep = compose(swap, eta)  # the function eta o swap, same coset

    calls = []

    def twisted(*args, **kwargs):
        calls.append(args)
        return [twisted_rep]

    original = tmod.eta_cosets
    try:
        tmod.eta_cosets = twisted
        # a fresh instance, not the shared one, so the twisted representative
        # reaches the compile
        twisted_tc = tmod.ThetaCharacter(pair, tc.cd, tc.interval, tc.m)
        twisted_vals = [theta_eval(twisted_tc, th) for th in points]
    finally:
        tmod.eta_cosets = original
    assert calls
    for a, b in zip(reference, twisted_vals):
        assert abs(a) > 1e-3
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_ktype_rank_two_one_signed_weights():
    # one-signed weights pair with lowest/highest-weight duals, whose K-type
    # spectrum is one-sided and expands cleanly in the fixed chamber; the
    # minimal K-types carry the +-n/2 determinant twists on the two blocks
    pair = dual_pair("uu", 2, p=2, q=2)
    expected_min = {
        (0, 0): weight(-1, -1, 1, 1),
        (1, 0): weight(-1, -1, 1, 0),
        (2, 1): weight(-1, -1, 0, -1),
        (0, -1): weight(0, -1, 1, 1),
        (-1, -2): weight(1, 0, 1, 1),
    }
    for nu, mink in expected_min.items():
        kt = ktype_expansion(theta_character(pair, list(nu)), depth=8)
        assert next(iter(kt)) == mink, (nu, next(iter(kt)))
        assert all(v == 1 for v in kt.values())
    # equal K-type sets for every admissible embedding choice
    k1 = ktype_expansion(theta_character(pair, [0, 0], m=1), depth=8)
    k2 = ktype_expansion(theta_character(pair, [0, 0], m=2), depth=8)
    assert k1 == k2


def test_ktype_mixed_sign_weights_are_refused():
    # mixed-sign weights pair with duals that are neither highest nor
    # lowest weight; their K-spectrum is two-sided, the single-chamber
    # expansion cannot represent it, and the expansion must say so rather
    # than return garbage
    pair = dual_pair("uu", 2, p=2, q=2)
    for nu in ([1, -1], [2, -1]):
        with pytest.raises(FormulaInconsistency):
            ktype_expansion(theta_character(pair, nu), depth=8)


# the five instances of the benchmark's torus_eval workload
TORUS_EVAL_INSTANCES = (
    (dual_pair("uu", 2, p=4, q=3), [F(-1, 2), F(-1, 2)]),
    (dual_pair("oeven-sp", 3, m=5), [1, 0, 0]),
    (dual_pair("oodd-sp", 3, m=3), [1, 1, 1]),
    (dual_pair("uh-ostar", 3, m=4), [2, 1, 1]),
    (dual_pair("uu", 3, p=3, q=3), [1, 0, 0]),
)


def _theta_mpmath(tc, theta):
    """The orbit table over the Weyl denominator of g', at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        th = [mpmath.mpf(t) for t in theta]
        num = mpmath.mpc(0)
        for v2, c in tc.orbit_table.items():
            term = mpmath.mpf(c)
            for start, stop in tc.pair.kprime_blocks:
                block = range(start, stop)
                term *= mpmath.det(mpmath.matrix([[mpmath.expj(th[k] * v2[j] / 2) for j in block] for k in block]))
            num += term
        den = mpmath.mpc(1)
        for alpha in tc.pair.rs_gprime.positive_roots:
            den *= 2j * mpmath.sin(sum(int(a) * t for a, t in zip(alpha, th)) / 2)
        return complex(num / den)


@pytest.mark.parametrize(
    "pair, nu", TORUS_EVAL_INSTANCES, ids=["uu(2;4,3)", "oeven-sp(3;5)", "oodd-sp(3;3)", "uh-ostar(3;4)", "uu(3;3,3)"]
)
def test_theta_eval_matches_a_40_digit_evaluation(pair, nu):
    rng = random.Random(31)
    tc = theta_character(pair, nu)
    for _ in range(4):
        th = random_regular(pair.rs_gprime, rng)
        exact = _theta_mpmath(tc, th)
        assert abs(theta_eval(tc, th) - exact) <= 1e-12 * abs(exact), (pair, th)
