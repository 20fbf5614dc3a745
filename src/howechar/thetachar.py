"""Characters of the noncompact member of each dual pair on its compact
Cartan torus: pointwise evaluation, the polynomial numerator form, rank-one
closed forms, the partial-fraction identity behind m-independence, the
normalizing constant, and truncated K-type expansion."""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import FormulaInconsistency, NotMinimalKType, SingularPoint
from .howe import (
    CorrespondenceData,
    DualPairSpec,
    PairKind,
    SupportInterval,
    embedded_index_set,
    eta_cosets,
    kprime_weyl,
    rho_z,
    structural_m_range,
    support_interval,
    validate_weight,
    z_weyl,
)
from .laurent import Doubled, _ints, divide_by_root_factors, level, partial_fraction_sum
from .rootsys import Root, Weight, act, format_weight, inverse, perm_sign, sign
from .torus import SINGULAR_GUARD, as_point, guarded_denominator, root_rows


@dataclass(frozen=True)
class ThetaCharacter:
    pair: DualPairSpec
    cd: CorrespondenceData
    interval: SupportInterval
    m: int

    def __getstate__(self) -> dict:
        """Pickle and copy the fields only: the compiled tables (read-only
        views) are not picklable, and a copy compiles its own on first use."""
        return {f: self.__dict__[f] for f in ("pair", "cd", "interval", "m")}

    @cached_property
    def orbit_table(self) -> Mapping[tuple[int, ...], int]:
        """The one representation of the instance: the numerator
        sum_v c_v sum_{tau in W(K')} sign(tau) h^{tau(v)}, keyed by the doubled
        block-decreasing exponent 2v with int coefficient c_v.

        Each (eta, z) pair contributes the W(K')-alternating sum over the
        orbit of u = base_eta + z(rho_z).  That sum is zero when u repeats a
        value inside a K' block, and otherwise sign(tau) times the sum over
        the block-sorted v with act(tau, v) == u; so the signs are collected
        per v.  The table is a read-only view: theta_character shares the
        instance with every caller.
        """
        pair = self.pair
        S = embedded_index_set(pair, self.m)
        table: dict[tuple[int, ...], int] = {}
        for sgn_eta, expo in eta_exponents(self):
            base = [0] * pair.rank_gprime
            for key, c in zip(S, _ints(expo)):
                base[key] = c
            for sgn_z, w in _z_orbit(pair, self.m):
                u = tuple(b + c for b, c in zip(base, w))
                if any(len(set(u[start:stop])) < stop - start for start, stop in pair.kprime_blocks):
                    continue
                v, sgn_tau = _block_sorted(pair, u)
                table[v] = table.get(v, 0) + sgn_eta * sgn_z * sgn_tau
        return MappingProxyType({v: c for v, c in table.items() if c})

    @cached_property
    def numerator(self) -> Mapping[tuple[int, ...], int]:
        """numerator_terms(self), read-only."""
        return MappingProxyType(numerator_terms(self))

    @cached_property
    def _float_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """orbit_table as float exponents v and coefficients c_v, beside the
        positive roots of g' as rows; all three arrays are read-only."""
        table = self.orbit_table
        exps = np.array(list(table), dtype=float).reshape(len(table), self.pair.rank_gprime) / 2
        coeffs = np.array(list(table.values()), dtype=float)
        exps.flags.writeable = coeffs.flags.writeable = False  # shared by every caller
        return exps, coeffs, root_rows(self.pair.rs_gprime)


# Instances theta_character keeps compiled.  A workload round or a test module
# touches a few dozen; the bound keeps a census-style loop over hundreds of
# instances from holding every table it ever compiled.
THETA_CACHE_SIZE = 128


def theta_character(pair: DualPairSpec, nu: Sequence, m: int | None = None) -> ThetaCharacter:
    """Validate nu, compute the support interval, and fix the embedding index.

    For the UU pair m may be chosen anywhere in the support interval
    (default: its upper end); the other pairs have a single embedding.

    Instances are memoised per process (the THETA_CACHE_SIZE most recent):
    equal arguments (pair, nu, m), with nu given as ints, strings or
    Fractions, return the same instance, shared by every caller, so its
    tables are compiled once and are read-only.  Invalid arguments raise on
    every call.  ThetaCharacter(...) still builds a fresh instance.
    """
    try:  # keyed on nu's (numerator, denominator) pairs, which hash fast
        ratios = tuple(v.as_integer_ratio() for v in nu)
    except AttributeError:  # text, or a number type without the method
        ratios = tuple(Fraction(v).as_integer_ratio() for v in nu)
    return _theta_character(pair, ratios, m)


@lru_cache(maxsize=THETA_CACHE_SIZE)
def _theta_character(pair: DualPairSpec, ratios: tuple[tuple[int, int], ...], m: int | None) -> ThetaCharacter:
    cd = validate_weight(pair, tuple(Fraction(*r) for r in ratios))
    interval = support_interval(pair, cd)
    if pair.kind is PairKind.UU:
        s_lo, s_hi = structural_m_range(pair)
        lo, hi = max(interval.lo, s_lo), min(interval.hi, s_hi)
        if lo > hi:
            raise FormulaInconsistency(f"support interval [{interval.lo}, {interval.hi}] misses the embeddable range")
        if m is None:
            m = hi
        if not lo <= m <= hi:
            raise ValueError(f"m = {m} outside [{lo}, {hi}]")
    else:
        m = pair.n
    return ThetaCharacter(pair, cd, interval, m)


def eta_exponents(tc: ThetaCharacter) -> list[tuple[int, Weight]]:
    """(sign(eta), o * (-eta^{-1} mu')) for each coset representative."""
    o = tc.pair.orientation
    out = []
    for eta in eta_cosets(tc.pair, tc.interval, tc.m):
        w = act(inverse(eta), tc.cd.mu_prime)
        out.append((sign(eta), tuple(-o * c for c in w)))
    return out


def _numerator_value(tc: ThetaCharacter, theta: np.ndarray) -> complex:
    """sum_v c_v prod over K' blocks of det(e^{i v_j theta_k}), the block
    determinants being the alternating sums over W(K')."""
    exps, coeffs, _ = tc._float_table
    terms = coeffs.astype(complex)
    for start, stop in tc.pair.kprime_blocks:
        terms *= np.linalg.det(np.exp(1j * theta[start:stop, None] * exps[:, None, start:stop]))
    return complex(terms.sum())


def theta_eval(tc: ThetaCharacter, theta_prime: Sequence[float]) -> complex:
    """The numerator form over the Weyl denominator of all positive roots of g'.

    This is the paper's double sum (verify.theta_double_sum) rewritten.
    Values are canonical up to one overall constant per character instance;
    tests and callers compare ratios unless a normalization was computed.
    """
    theta = as_point(theta_prime, tc.pair.rank_gprime)
    den = guarded_denominator(tc._float_table[2], theta)
    return _numerator_value(tc, theta) / den


def theta_numerator_form(tc: ThetaCharacter, theta_prime: Sequence[float]) -> complex:
    """Delta(h) * Theta(h) as the polynomial sum_e c_e h^e; no poles.

    Evaluated off the orbit table, compiled once per instance.
    """
    return _numerator_value(tc, as_point(theta_prime, tc.pair.rank_gprime))


def theta_u1_closed(p: int, q: int, lam1: int, m: int, theta_prime: Sequence[float]) -> complex:
    """Rank-one closed forms: a single sum over b <= p (m=1) or b > p (m=0).

    Up to one overall constant this is the same function as
    theta_eval(theta_character(dual_pair(UU, 1, p, q), ...), theta').
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    if m not in (0, 1):
        raise ValueError("m must be 0 or 1")
    N = p + q
    theta = as_point(theta_prime, N).tolist()
    # N/2 - mu'_1 - 1 with mu'_1 = (q-p)/2 + lam1
    expo = p - lam1 - 1
    h = [cmath.exp(1j * t) for t in theta]
    prefactor = cmath.exp(0.5j * sum(theta))
    b_range = range(p) if m == 1 else range(p, N)
    total = complex(0.0)
    for b in b_range:
        den = complex(1.0)
        for a in range(N):
            if a == b:
                continue
            diff = h[b] - h[a]
            if abs(diff) < SINGULAR_GUARD:
                raise SingularPoint("coincident eigenvalues")
            den *= diff
        total += h[b] ** expo / den
    return prefactor * total


IDENTITY_RANDOM_POINTS = 20  # rational points per random-rational identity check


@dataclass(frozen=True)
class IdentityVerdict:
    status: str  # 'holds', 'proved', 'failed' or 'not-in-asserted-range'
    detail: str


@cache
def _leibniz_codes(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The N*(N-1)! Leibniz terms of sum_b (-1)^b V_b(h), as base-N codes.

    An exponent tuple e is coded as sum_i e_i N^(N-1-i); the codes stay
    below N^N, inside int64 for N <= 15, where N! terms are already far
    beyond memory.  Row b holds the codes of V_b's terms, V_b = sum_pi
    sgn(pi) prod_i x_i^{M-1-pi(i)} over the M = N-1 variables other than b,
    with slot b's digit left 0; the second array holds the signs
    (-1)^b sgn(pi), and the third the place values N^(N-1-b) at which h_b^k
    enters.
    """
    M = N - 1
    perms = np.array(list(itertools.permutations(range(M))), dtype=np.int64)
    inversions = np.zeros(len(perms), dtype=np.int64)
    for i, j in itertools.combinations(range(M), 2):
        inversions += perms[:, i] > perms[:, j]
    sgn = 1 - 2 * (inversions % 2)
    place = N ** np.arange(N - 1, -1, -1, dtype=np.int64)
    rows = M - 1 - perms
    codes = np.stack([rows @ np.delete(place, b) for b in range(N)])
    signs = np.outer((-1) ** np.arange(N), sgn)
    return codes, signs, place


@cache
def _identity_polynomial_coefficients(N: int, k: int) -> dict[tuple[int, ...], int]:
    """Exponent -> coefficient of sum_b (-1)^b h_b^k V_b(h), via Leibniz.

    V_b is the Vandermonde product over the variables other than b, expanded
    as a determinant: V_b = sum over permutations pi of sgn(pi) * prod_i
    x_i^{M-1-pi(i)} with M = N-1.  The full polynomial is the asserted
    identity times the total Vandermonde, so the identity holds exactly when
    every coefficient cancels.  Every one of the N*(N-1)! terms is formed as
    a base-N code (0 <= k <= N-1 keeps every digit below N), the signed
    terms are summed per code with one sort, and only the surviving codes
    are decoded to exponent tuples.  The result depends on N = p+q only, so
    it is memoised; the codes depend on N only and are shared by every k.
    """
    if not 0 <= k < N:
        raise ValueError(f"k must be in [0, {N - 1}], got {k}")
    codes, signs, place = _leibniz_codes(N)
    unique, index = np.unique(codes + k * place[:, None], return_inverse=True)
    coeffs = np.zeros(len(unique), dtype=np.int64)
    np.add.at(coeffs, index.ravel(), signs.ravel())
    alive = coeffs != 0
    digits = unique[alive, None] // place % N
    return dict(zip(map(tuple, digits.tolist()), coeffs[alive].tolist()))


def vandermonde_identity_check(p: int, q: int, k: int, mode: str = "deterministic-grid", seed: int = 0) -> IdentityVerdict:
    """Check sum_{b>p} h_b^k/prod(h_b-h_a) = -sum_{b<=p} h_b^k/prod(h_b-h_a).

    The identity is asserted only for 0 <= k <= p+q-2; at k = p+q-1 both
    sides sum to the constant 1 instead and the check reports that the
    identity is not asserted there (with a counterexample).  The
    random-rational mode checks it exactly at IDENTITY_RANDOM_POINTS points.
    """
    if mode not in ("deterministic-grid", "random-rational"):
        raise ValueError(f"unknown mode {mode!r}")
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    N = p + q
    if not 0 <= k <= N - 2:
        pt = [Fraction(2 + i) for i in range(N)]
        lhs = partial_fraction_sum(pt, k, range(p, N))
        rhs = -partial_fraction_sum(pt, k, range(p))
        return IdentityVerdict(
            "not-in-asserted-range",
            f"k={k} outside [0, {N - 2}]; at h={[str(v) for v in pt]} sides are {lhs} vs {rhs}",
        )
    if mode == "random-rational":
        import random

        rng = random.Random(seed)
        for trial in range(IDENTITY_RANDOM_POINTS):
            while True:
                vals = [Fraction(rng.randint(-60, 60), rng.randint(1, 7)) for _ in range(N)]
                if 0 not in vals and len(set(vals)) == N:
                    break
            lhs = partial_fraction_sum(vals, k, range(p, N))
            rhs = -partial_fraction_sum(vals, k, range(p))
            if lhs != rhs:
                return IdentityVerdict("failed", f"trial {trial} at {vals}: {lhs} != {rhs}")
        return IdentityVerdict("holds", f"exact at {IDENTITY_RANDOM_POINTS} random rational points")
    leftover = _identity_polynomial_coefficients(N, k)
    if leftover:
        return IdentityVerdict("failed", f"{len(leftover)} surviving coefficients")
    return IdentityVerdict("proved", "all Leibniz coefficients cancel (degree-bounded polynomial)")


# ---------------------------------------------------------------------------
# formal series: numerator polynomial, normalizing constant, K-type expansion


def noncompact_positive_roots(pair: DualPairSpec) -> tuple[Root, ...]:
    """The positive roots of g' outside K', in the order of rs_gprime.  The
    K' blocks tile the coordinates and the compact roots are the e_i - e_j
    inside one block: the only roots whose sum over every block is 0."""
    blocks = pair.kprime_blocks
    return tuple(a for a in pair.rs_gprime.positive_roots if any(sum(a[start:stop]) for start, stop in blocks))


def compact_rho(pair: DualPairSpec) -> Weight:
    """Half the sum of the compact positive roots: (k-1)/2, (k-3)/2, ...,
    (1-k)/2 on each K' block of size k."""
    return tuple(Fraction(start + stop - 1 - 2 * i, 2) for start, stop in pair.kprime_blocks for i in range(start, stop))


@cache
def _z_orbit(pair: DualPairSpec, m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(sign(z), 2 z(rho_z)) over W(Z); it depends on the pair and m only."""
    rz = _ints(rho_z(pair, m))
    return tuple((sign(sz), act(sz, rz)) for sz in z_weyl(pair, m))


def numerator_terms(tc: ThetaCharacter) -> Doubled:
    """The numerator polynomial, orbit_table expanded over W(K'): doubled
    exponent 2e -> int coefficient.  The W(K') orbits of distinct
    block-sorted regular v are disjoint, so no two orbits share a term."""
    out: Doubled = {}
    for v, c in tc.orbit_table.items():
        out.update(_alternating_orbit_terms(tc.pair, v, c))
    return out


def _alternating_orbit_terms(pair: DualPairSpec, v: tuple, coeff) -> dict:
    """coeff * sum_tau sign(tau) h^{tau(v)} over W(K'); v may be doubled."""
    out: dict = {}
    for tau in kprime_weyl(pair):
        e = act(tau, v)
        out[e] = out.get(e, 0) + coeff * sign(tau)
    return {e: c for e, c in out.items() if c != 0}


def character_series(tc: ThetaCharacter, floor: int) -> Doubled:
    """P / Delta_+ expanded along the dominant chamber: doubled exponent 2e
    -> int coefficient.

    This equals Delta_0(h) * Theta(h) up to the instance's constant; its
    alternating W(K')-orbits are the K-type characters times Delta_0.  The
    series is cut at the doubled level floor, and every coefficient it keeps
    is exact (see divide_by_root_factors).
    """
    raw = tc.numerator
    if not raw:
        raise FormulaInconsistency("empty numerator polynomial")
    return divide_by_root_factors(raw, noncompact_positive_roots(tc.pair), floor)


def series_top(tc: ThetaCharacter) -> int:
    """Doubled level of the leading term of the character series.  A
    block-decreasing v tops its own W(K') orbit along the dominant chamber,
    so the numerator's top term is in the orbit table."""
    lead = sum(map(level, noncompact_positive_roots(tc.pair)))
    return max(map(level, tc.orbit_table)) - lead


def _block_sorted(pair: DualPairSpec, e: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Dominant representative v of the doubled exponent e under W(K') block
    sorting, with the sign of the block permutation tau such that
    act(tau, v) == e."""
    N = pair.rank_gprime
    perm = [0] * N
    v = [0] * N
    for start, stop in pair.kprime_blocks:
        chunk = sorted(range(start, stop), key=lambda i: (-e[i], i))
        vals = [e[i] for i in chunk]
        if any(vals[i] == vals[i + 1] for i in range(len(vals) - 1)):
            raise FormulaInconsistency(f"non-regular K' orbit at doubled exponent {e}")
        for off, i in enumerate(chunk):
            v[start + off] = e[i]
            perm[i] = start + off
    return tuple(v), perm_sign(perm)


def _ktype_terms(tc: ThetaCharacter, floor: int) -> list[tuple[int, Weight, int]]:
    """(level, gamma, c) for each block-decreasing term 2(gamma + rho_0) of
    the character series cut at floor, highest first.

    The series is W(K')-alternating, so each K-type orbit is read off its
    dominant member; every other term must be sign(tau) times the
    coefficient of its block-sorted member, which lies higher and so above
    the cut too.  A term that breaks the alternation raises
    FormulaInconsistency.
    """
    pair = tc.pair
    S = character_series(tc, floor)
    rho0 = _ints(compact_rho(pair))
    terms = []
    for e, c in S.items():
        v, sgn_tau = _block_sorted(pair, e)
        if v == e:
            terms.append((level(e), tuple(Fraction(x - r, 2) for x, r in zip(e, rho0)), c))
        elif sgn_tau * S.get(v, 0) != c:
            raise FormulaInconsistency(f"doubled term {e} breaks the W(K') alternation of {v}")
    terms.sort(reverse=True)
    return terms


def ktype_expansion(tc: ThetaCharacter, depth: int = 20) -> dict[Weight, int]:
    """Multiplicities of the K'-types appearing down to the chamber depth.

    The coefficient of the series term at gamma + rho_0 is C * m(gamma)
    (see _ktype_terms).  Multiplicities are normalized so the first
    (minimal) K-type has multiplicity 1.  A term that breaks the alternation
    and a non-integral or negative multiplicity raise FormulaInconsistency.
    """
    terms = _ktype_terms(tc, series_top(tc) - 2 * depth)
    if not terms:
        raise FormulaInconsistency("no K-types found above the requested depth")
    C = terms[0][2]
    result: dict[Weight, int] = {}
    for _, gamma, c in terms:
        mult = Fraction(c, C)
        if mult.denominator != 1 or mult < 0:
            raise FormulaInconsistency(f"multiplicity {mult} for K-type {format_weight(gamma)}")
        result[gamma] = int(mult)
    return result


def normalizing_constant(tc: ThetaCharacter, lam_min: Sequence) -> Fraction:
    """C with C * theta_eval-normalization carrying the minimal K-type once.

    C is the inverse of the series coefficient at lam_min + rho_0, which
    carries the minimal K-type's whole alternating orbit; it is read exactly
    from the K-type terms of one series cut at that level (see
    _ktype_terms).  lam_min must be the minimal K-type: a higher K-type in
    the series, or a zero coefficient at lam_min + rho_0, raises
    NotMinimalKType.
    """
    pair = tc.pair
    lam = tuple(Fraction(v) for v in lam_min)
    if len(lam) != pair.rank_gprime:
        raise ValueError("dimension mismatch")
    for start, stop in pair.kprime_blocks:
        if any(lam[i] < lam[i + 1] for i in range(start, stop - 1)):
            raise ValueError(f"{format_weight(lam)} is not dominant for K'")
    # the level of 2(lam + rho_0), not an int if lam has a denominator above 2
    lam_level = level(tuple(2 * (a + r) for a, r in zip(lam, compact_rho(pair))))
    terms = _ktype_terms(tc, math.ceil(lam_level))
    if terms and terms[0][0] > lam_level:
        raise NotMinimalKType(f"{format_weight(lam)} lies below the K-type {format_weight(terms[0][1])}; not the minimal K-type")
    c = next((c for _, gamma, c in terms if gamma == lam), 0)
    if c == 0:
        raise NotMinimalKType(f"{format_weight(lam)} pairs to zero; not the minimal K-type")
    return Fraction(1, c)
