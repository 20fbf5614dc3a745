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
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    FormulaInconsistency,
    NotMinimalKType,
    SingularPoint,
    TruncationTooSmall,
)
from .howe import (
    CorrespondenceData,
    DualPairSpec,
    PairKind,
    SupportInterval,
    embedded_index_set,
    eta_cosets,
    kprime_weyl,
    kprime_weyl_order,
    project,
    rho_z,
    structural_m_range,
    support_interval,
    validate_weight,
    z_weyl,
)
from .laurent import (
    LaurentSeries,
    dominant_chamber,
    expand_inverse_root_factor,
    partial_fraction_sum,
    series,
    series_mul,
)
from .rootsys import Weight, WeylElement, act, inverse, perm_sign, sign, weight_dot
from .torus import eval_monomial, is_regular

SINGULAR_GUARD = 1e-9


@dataclass(frozen=True)
class ThetaCharacter:
    pair: DualPairSpec
    cd: CorrespondenceData
    interval: SupportInterval
    m: int

    @cached_property
    def _numerator_table(self) -> tuple[np.ndarray, np.ndarray]:
        """numerator_terms as a float exponent matrix and coefficient vector."""
        terms = numerator_terms(self)
        exps = np.array([[float(c) for c in e] for e in terms], dtype=float)
        coeffs = np.array([float(c) for c in terms.values()], dtype=float)
        return exps.reshape(len(terms), self.pair.rank_gprime), coeffs


def theta_character(pair: DualPairSpec, nu: Sequence, m: int | None = None) -> ThetaCharacter:
    """Validate nu, compute the support interval, and fix the embedding index.

    For the UU pair m may be chosen anywhere in the support interval
    (default: its upper end); the other pairs have a single embedding.
    """
    cd = validate_weight(pair, nu)
    interval = support_interval(pair, cd)
    if pair.kind is PairKind.UU:
        s_lo, s_hi = structural_m_range(pair)
        lo, hi = max(interval.lo, s_lo), min(interval.hi, s_hi)
        if lo > hi:
            raise FormulaInconsistency(f"support interval {interval} misses the embeddable range")
        if m is None:
            m = hi
        if not lo <= m <= hi:
            raise ValueError(f"m = {m} outside [{lo}, {hi}]")
    else:
        m = pair.n
    return ThetaCharacter(pair, cd, interval, m)


def _eta_exponents(tc: ThetaCharacter) -> list[tuple[int, Weight]]:
    """(sign(eta), o * (-eta^{-1} mu')) for each coset representative."""
    o = tc.pair.orientation
    out = []
    for eta in eta_cosets(tc.pair, tc.interval, tc.m):
        w = act(inverse(eta), tc.cd.mu_prime)
        out.append((sign(eta), tuple(-o * c for c in w)))
    return out


def _nonvanishing_predicate(tc: ThetaCharacter):
    embedded = set(embedded_index_set(tc.pair, tc.m))
    return lambda alpha: any(alpha[i] != 0 for i in embedded)


def theta_eval(tc: ThetaCharacter, theta_prime: Sequence[float]) -> complex:
    """The double alternating sum over W(K') and the eta cosets.

    Values are canonical up to one overall constant per character instance;
    tests and callers compare ratios unless a normalization was computed.
    """
    pair = tc.pair
    rs = pair.rs_gprime
    if len(theta_prime) != rs.rank:
        raise ValueError("dimension mismatch")
    if not is_regular(rs, theta_prime, SINGULAR_GUARD):
        raise SingularPoint("point too close to the singular set")
    keep = _nonvanishing_predicate(tc)
    exponents = _eta_exponents(tc)
    total = complex(0.0)
    for sigma in kprime_weyl(pair):
        point = act(sigma, theta_prime)
        den = complex(1.0)
        for alpha in rs.positive_roots:
            if keep(alpha):
                half = sum(float(c) * t for c, t in zip(alpha, point)) / 2.0
                f = 2j * math.sin(half)
                if abs(f) < SINGULAR_GUARD:
                    raise SingularPoint(f"denominator factor for {alpha} below guard")
                den *= f
        pr = project(pair, tc.m, point)
        num = complex(0.0)
        for sgn_eta, expo in exponents:
            num += sgn_eta * eval_monomial(pr, expo)
        total += num / den
    return total


def theta_numerator_form(tc: ThetaCharacter, theta_prime: Sequence[float]) -> complex:
    """Delta(h) * Theta(h) as the polynomial sum_e c_e h^e; no poles.

    The terms come from numerator_terms, compiled once per instance.
    """
    if len(theta_prime) != tc.pair.rank_gprime:
        raise ValueError("dimension mismatch")
    exps, coeffs = tc._numerator_table
    return complex(coeffs @ np.exp(1j * (exps @ np.asarray(theta_prime, dtype=float))))


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
    if len(theta_prime) != N:
        raise ValueError("dimension mismatch")
    # N/2 - mu'_1 - 1 with mu'_1 = (q-p)/2 + lam1
    expo = p - lam1 - 1
    h = [cmath.exp(1j * float(t)) for t in theta_prime]
    prefactor = cmath.exp(0.5j * sum(float(t) for t in theta_prime))
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


@dataclass(frozen=True)
class IdentityVerdict:
    status: str  # 'holds', 'proved' or 'not-in-asserted-range'
    detail: str


def _vandermonde_omit(values: Sequence[int], omit: int) -> int:
    out = 1
    for a in range(len(values)):
        if a == omit:
            continue
        for c in range(a + 1, len(values)):
            if c == omit:
                continue
            out *= values[a] - values[c]
    return out


def _identity_polynomial_coefficients(N: int, k: int) -> dict[tuple[int, ...], int]:
    """Exponent -> coefficient of sum_b (-1)^{b-1} h_b^k V_b(h), via Leibniz.

    V_b is the Vandermonde product over the variables other than b, expanded
    as a determinant: V_b = sum over permutations pi of sgn(pi) * prod_i
    x_i^{M-1-pi(i)} with M = N-1.  The full polynomial is the asserted
    identity times the total Vandermonde; per-variable degree is below N-1,
    so vanishing of every coefficient is equivalent to vanishing on any
    N-per-axis product grid.
    """
    M = N - 1
    coeffs: dict[tuple[int, ...], int] = {}
    for b in range(N):
        others = [a for a in range(N) if a != b]
        for pi in itertools.permutations(range(M)):
            sgn = perm_sign(pi)
            expo = [0] * N
            expo[b] = k
            for slot, a in enumerate(others):
                expo[a] = M - 1 - pi[slot]
            key = tuple(expo)
            coeffs[key] = coeffs.get(key, 0) + (-1) ** b * sgn
    return {e: c for e, c in coeffs.items() if c != 0}


def vandermonde_identity_check(
    p: int, q: int, k: int, mode: str = "deterministic-grid", seed: int = 0, n_points: int = 20
) -> IdentityVerdict:
    """Check sum_{b>p} h_b^k/prod(h_b-h_a) = -sum_{b<=p} h_b^k/prod(h_b-h_a).

    The identity is asserted only for 0 <= k <= p+q-2; at k = p+q-1 both
    sides sum to the constant 1 instead and the check reports that the
    identity is not asserted there (with a counterexample).
    """
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
        for trial in range(n_points):
            while True:
                vals = [Fraction(rng.randint(-60, 60), rng.randint(1, 7)) for _ in range(N)]
                if 0 not in vals and len(set(vals)) == N:
                    break
            lhs = partial_fraction_sum(vals, k, range(p, N))
            rhs = -partial_fraction_sum(vals, k, range(p))
            if lhs != rhs:
                return IdentityVerdict("failed", f"trial {trial} at {vals}: {lhs} != {rhs}")
        return IdentityVerdict("holds", f"exact at {n_points} random rational points")
    if mode != "deterministic-grid":
        raise ValueError(f"unknown mode {mode!r}")
    if N <= 5:
        for point in itertools.product(range(1, N + 1), repeat=N):
            total = 0
            for b in range(N):
                total += (-1) ** b * point[b] ** k * _vandermonde_omit(point, b)
            if total != 0:
                return IdentityVerdict("failed", f"nonzero value {total} at grid point {point}")
        return IdentityVerdict("proved", f"zero on the full {N}^{N} grid")
    leftover = _identity_polynomial_coefficients(N, k)
    if leftover:
        return IdentityVerdict("failed", f"{len(leftover)} surviving coefficients")
    return IdentityVerdict("proved", "all Leibniz coefficients cancel (degree-bounded polynomial)")


# ---------------------------------------------------------------------------
# formal series: numerator polynomial, normalizing constant, K-type expansion


def noncompact_positive_roots(pair: DualPairSpec) -> tuple[Weight, ...]:
    rs = pair.rs_gprime
    compact = set(rs.compact_positive_roots)
    return tuple(a for a in rs.positive_roots if a not in compact)


def compact_rho(pair: DualPairSpec) -> Weight:
    acc = [Fraction(0)] * pair.rank_gprime
    for alpha in pair.rs_gprime.compact_positive_roots:
        for i, c in enumerate(alpha):
            acc[i] += c
    return tuple(c / 2 for c in acc)


def numerator_terms(tc: ThetaCharacter) -> dict[Weight, Fraction]:
    """Exponent -> coefficient of the triple-sum numerator polynomial."""
    pair = tc.pair
    N = pair.rank_gprime
    S = embedded_index_set(pair, tc.m)
    rz = rho_z(pair, tc.m)
    exponents = _eta_exponents(tc)
    z_parts = [(sign(sz), act(sz, rz)) for sz in z_weyl(pair, tc.m)]
    out: dict[Weight, Fraction] = {}
    for tau in kprime_weyl(pair):
        sgn_tau = sign(tau)
        for sgn_eta, expo in exponents:
            base = [Fraction(0)] * N
            for key, c in zip(S, expo):
                base[tau.perm[key]] += c
            for sgn_z, w in z_parts:
                e = list(base)
                for i, c in enumerate(w):
                    e[tau.perm[i]] += c
                key2 = tuple(e)
                out[key2] = out.get(key2, Fraction(0)) + sgn_tau * sgn_eta * sgn_z
    return {e: c for e, c in out.items() if c != 0}


def _alternating_orbit_terms(pair: DualPairSpec, v: Weight, coeff: Fraction) -> dict[Weight, Fraction]:
    """coeff * sum_tau sign(tau) h^{tau(v)} over W(K')."""
    out: dict[Weight, Fraction] = {}
    for tau in kprime_weyl(pair):
        e = act(tau, v)
        out[e] = out.get(e, Fraction(0)) + coeff * sign(tau)
    return {e: c for e, c in out.items() if c != 0}


def character_series(tc: ThetaCharacter, exact_to: Fraction) -> LaurentSeries:
    """P / Delta_+ expanded along the dominant chamber.

    This equals Delta_0(h) * Theta(h) up to the instance's constant; its
    alternating W(K')-orbits are the K-type characters times Delta_0.  The
    result is exact at every chamber pairing >= exact_to: the internal
    truncation is padded so no product of kept factor terms is missing
    above that level.
    """
    pair = tc.pair
    N = pair.rank_gprime
    chamber = dominant_chamber(N)
    raw = numerator_terms(tc)
    if not raw:
        raise FormulaInconsistency("empty numerator polynomial")
    pairs = [weight_dot(e, chamber) for e in raw]
    betas = noncompact_positive_roots(pair)
    leads = [-weight_dot(b, chamber) / 2 for b in betas]
    pad = max(pairs) - sum(leads) + (max((-l for l in leads), default=Fraction(0)))
    trunc = max(Fraction(-exact_to) + pad, -min(pairs)) + 2
    P = series(N, chamber, trunc, raw)
    S = P
    for beta in betas:
        S = series_mul(S, expand_inverse_root_factor(beta, chamber, trunc))
    return S


def series_top_pairing(tc: ThetaCharacter) -> Fraction:
    """Chamber pairing of the leading term of the character series."""
    chamber = dominant_chamber(tc.pair.rank_gprime)
    raw = numerator_terms(tc)
    lead = sum(-weight_dot(b, chamber) / 2 for b in noncompact_positive_roots(tc.pair))
    return max(weight_dot(e, chamber) for e in raw) + lead


def _block_sorted(pair: DualPairSpec, e: Weight) -> tuple[Weight, WeylElement]:
    """Dominant representative of e under W(K') block sorting, with the
    block permutation tau such that act(tau, v) == e."""
    N = pair.rank_gprime
    perm = [0] * N
    v = [Fraction(0)] * N
    for start, stop in pair.kprime_blocks:
        chunk = sorted(range(start, stop), key=lambda i: (-e[i], i))
        vals = [e[i] for i in chunk]
        if any(vals[i] == vals[i + 1] for i in range(len(vals) - 1)):
            raise FormulaInconsistency(f"non-regular K' orbit at exponent {e}")
        for off, i in enumerate(chunk):
            v[start + off] = e[i]
            perm[i] = start + off
    return tuple(v), WeylElement(tuple(perm), (1,) * N)


def ktype_expansion(tc: ThetaCharacter, depth: int = 20) -> dict[Weight, int]:
    """Multiplicities of the K'-types appearing down to the chamber depth.

    The series is peeled orbit by orbit: the top term of each remaining
    alternating orbit is its dominant (block-decreasing) member, whose
    coefficient is C * m(gamma); everything is normalized so the first
    (minimal) K-type has multiplicity 1.  Non-integral or negative
    multiplicities raise FormulaInconsistency.
    """
    pair = tc.pair
    chamber = dominant_chamber(pair.rank_gprime)
    rho0 = compact_rho(pair)
    top = series_top_pairing(tc)
    floor = top - depth
    S = character_series(tc, floor - 1)
    terms = dict(S.terms)
    found: list[tuple[Weight, Fraction]] = []
    while True:
        live = [(weight_dot(e, chamber), e) for e in terms]
        live = [(d, e) for d, e in live if d >= floor]
        if not live:
            break
        d, e = max(live, key=lambda t: (t[0], t[1]))
        coeff = terms[e]
        v, tau = _block_sorted(pair, e)
        if v != e:
            raise FormulaInconsistency(f"top term {e} is not K'-dominant")
        for oe, oc in _alternating_orbit_terms(pair, v, coeff).items():
            if weight_dot(oe, chamber) < -S.truncation:
                continue
            new = terms.get(oe, Fraction(0)) - oc
            if new == 0:
                terms.pop(oe, None)
            else:
                terms[oe] = new
        gamma = tuple(x - y for x, y in zip(v, rho0))
        found.append((gamma, coeff))
    if not found:
        raise FormulaInconsistency("no K-types found above the requested depth")
    C = found[0][1]
    result: dict[Weight, int] = {}
    for gamma, mc in found:
        mult = mc / C
        if mult.denominator != 1 or mult < 0:
            raise FormulaInconsistency(f"multiplicity {mult} for K-type {gamma}")
        if mult != 0:
            result[gamma] = int(mult)
    return result


def _constant_inverse_at(tc: ThetaCharacter, lam: Weight, depth: Fraction) -> Fraction:
    pair = tc.pair
    chamber = dominant_chamber(pair.rank_gprime)
    rho0 = compact_rho(pair)
    lam_rho = tuple(Fraction(a) + b for a, b in zip(lam, rho0))
    orbit = _alternating_orbit_terms(pair, tuple(-c for c in lam_rho), Fraction(1))
    S = character_series(tc, -depth)
    const = Fraction(0)
    for e2, c2 in orbit.items():
        c1 = S.terms.get(tuple(-x for x in e2))
        if c1 is not None:
            const += c1 * c2
    return const / kprime_weyl_order(pair)


def normalizing_constant(tc: ThetaCharacter, lam_min: Sequence, depth: int = 40) -> Fraction:
    """C with C * theta_eval-normalization carrying the minimal K-type once.

    Computed as constant-term extraction of (P/Delta_+) against the
    alternating sum sum_sigma sign(sigma) h^{-sigma(lam+rho_0)}, divided by
    |W(K')|; the caller's lam_min must be the minimal K-type.  The
    coefficient must agree between depth and depth+5 and be nonzero.
    """
    lam = tuple(Fraction(v) for v in lam_min)
    if len(lam) != tc.pair.rank_gprime:
        raise ValueError("dimension mismatch")
    for start, stop in tc.pair.kprime_blocks:
        if any(lam[i] < lam[i + 1] for i in range(start, stop - 1)):
            raise ValueError(f"{lam} is not dominant for K'")
    c1 = _constant_inverse_at(tc, lam, Fraction(depth))
    c2 = _constant_inverse_at(tc, lam, Fraction(depth + 5))
    if c1 != c2:
        raise TruncationTooSmall(f"coefficient moved from {c1} to {c2}; raise the depth")
    if c1 == 0:
        raise NotMinimalKType(f"{lam} pairs to zero; not the minimal K-type")
    return 1 / c1
