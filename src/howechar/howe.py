"""The four compact dual pairs: root data for both members, weight
admissibility, support intervals, torus embeddings, and the Weyl-group
enumerations the character formulas consume.

Pair kinds, with the compact member first:

    UU        (U(n), U(p,q)),            n <= p+q
    OEVEN_SP  (O(2n), Sp(2m, R)),        n <= m
    OODD_SP   (O(2n+1), Sp(2m, R)),      n <= m
    UH_OSTAR  (U(n, H), O*(2m)),         n <= m

All index sets in this module are 0-based; documentation follows the usual
1-based conventions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import CapExceeded, FormulaInconsistency, NotInCorrespondence
from .rootsys import (
    ENUMERATION_CAP,
    Root,
    RootSystem,
    Weight,
    WeylElement,
    build_root_system,
    format_weight,
    rho,
    signed_permutations,
    weight_add,
)


class PairKind(Enum):
    UU = "uu"
    OEVEN_SP = "oeven-sp"
    OODD_SP = "oodd-sp"
    UH_OSTAR = "uh-ostar"


# family of g'; its compact roots are the e_i - e_j inside one K' block
_GPRIME_FAMILY = {
    PairKind.UU: "A",
    PairKind.OEVEN_SP: "C",
    PairKind.OODD_SP: "C",
    PairKind.UH_OSTAR: "D",
}


@dataclass(frozen=True)
class DualPairSpec:
    kind: PairKind
    n: int
    p: int = 0  # UU only
    q: int = 0  # UU only
    m: int = 0  # the other three

    @property
    def rank_gprime(self) -> int:
        return self.p + self.q if self.kind is PairKind.UU else self.m

    @property
    def rs_gprime(self) -> RootSystem:
        return build_root_system(_GPRIME_FAMILY[self.kind], self.rank_gprime)

    @property
    def kprime_blocks(self) -> tuple[tuple[int, int], ...]:
        if self.kind is PairKind.UU:
            return ((0, self.p), (self.p, self.p + self.q))
        return ((0, self.m),)

    @property
    def half_shift(self) -> Fraction:
        """The shift s with a_k = mu'_k - s and b_k = -mu'_k - s."""
        if self.kind is PairKind.UU:
            return Fraction(self.p + self.q - self.n - 1, 2)
        if self.kind is PairKind.OEVEN_SP:
            return Fraction(self.m - self.n)
        if self.kind is PairKind.OODD_SP:
            return Fraction(self.m - self.n) - Fraction(1, 2)
        return Fraction(self.m - self.n - 1)

    @property
    def rho_g(self) -> Weight:
        n = self.n
        if self.kind is PairKind.UU:
            return tuple(Fraction(n - 2 * a - 1, 2) for a in range(n))
        if self.kind is PairKind.OEVEN_SP:
            return tuple(Fraction(n - 1 - a) for a in range(n))
        if self.kind is PairKind.OODD_SP:
            return tuple(Fraction(n - 1 - a) + Fraction(1, 2) for a in range(n))
        return tuple(Fraction(n - a) for a in range(n))

    @property
    def orientation(self) -> int:
        """Sign relating e_a to the torus angles: h^{e_a} = e^{o * i * theta_a}.

        The Sp pairs carry the opposite convention from the unitary and
        quaternionic ones; evaluation exponents are scaled by o so the
        formal expansions run toward lowest weights in a single chamber.
        """
        return -1 if self.kind in (PairKind.OEVEN_SP, PairKind.OODD_SP) else 1


def dual_pair(kind: PairKind | str, n: int, p: int | None = None, q: int | None = None, m: int | None = None) -> DualPairSpec:
    kind = PairKind(kind) if not isinstance(kind, PairKind) else kind
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind is PairKind.UU:
        if p is None or q is None or p < 1 or q < 1:
            raise ValueError("UU needs p >= 1 and q >= 1")
        if n > p + q:
            raise ValueError(f"rank condition n <= p+q violated: {n} > {p + q}")
        return DualPairSpec(kind, n, p=p, q=q)
    if m is None or m < 1:
        raise ValueError(f"{kind.value} needs m >= 1")
    if kind is PairKind.UH_OSTAR and m < 2:
        # O*(2) is of type D_1, which has no roots
        raise ValueError("uh-ostar needs m >= 2")
    if n > m:
        raise ValueError(f"rank condition n <= m violated: {n} > {m}")
    return DualPairSpec(kind, n, m=m)


@dataclass(frozen=True)
class CorrespondenceData:
    pair: DualPairSpec
    nu: Weight
    mu: Weight
    mu_prime: Weight


@dataclass(frozen=True)
class SupportInterval:
    lo: int
    hi: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]


def validate_weight(pair: DualPairSpec, nu: Sequence) -> CorrespondenceData:
    """Check nu against the pair's admissibility rules; fill mu and mu'."""
    nu = tuple(Fraction(v) for v in nu)
    if len(nu) != pair.n:
        raise NotInCorrespondence(f"weight length {len(nu)} != n = {pair.n}")
    if any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
        raise NotInCorrespondence(f"{format_weight(nu)} is not weakly decreasing")
    if pair.kind is PairKind.UU:
        ints = [v - Fraction(pair.q - pair.p, 2) for v in nu]
        if any(v.denominator != 1 for v in ints):
            raise NotInCorrespondence(f"entries of {format_weight(nu)} must lie in (q-p)/2 + Z")
        n_pos = sum(1 for v in ints if v > 0)
        n_neg = sum(1 for v in ints if v < 0)
        if n_pos > pair.q:
            raise NotInCorrespondence(f"{n_pos} positive entries exceed q = {pair.q}")
        if n_neg > pair.p:
            raise NotInCorrespondence(f"{n_neg} negative entries exceed p = {pair.p}")
    else:
        if any(v.denominator != 1 for v in nu):
            raise NotInCorrespondence(f"{format_weight(nu)} must be integral")
        if nu[-1] < 0:
            raise NotInCorrespondence(f"{format_weight(nu)} must be nonnegative")
    mu = weight_add(nu, pair.rho_g)
    mu_prime = tuple(reversed(mu))
    return CorrespondenceData(pair, nu, mu, mu_prime)


def support_interval(pair: DualPairSpec, cd: CorrespondenceData) -> SupportInterval:
    """Endpoints from the a_k >= 1 / b_k >= 1 case table.

    mu' is strictly increasing, so b is decreasing and a increasing:
    lo = #{k : b_k >= 1} and hi = n - #{k : a_k >= 1}.
    """
    s = pair.half_shift
    a = tuple(mp - s for mp in cd.mu_prime)
    b = tuple(-mp - s for mp in cd.mu_prime)
    lo = max((k + 1 for k in range(pair.n) if b[k] >= 1), default=0)
    hi = min((k + 1 for k in range(pair.n) if a[k] >= 1), default=pair.n + 1) - 1
    if lo > hi:
        raise FormulaInconsistency(f"empty support interval ({lo}, {hi}) for {format_weight(cd.nu)}")
    return SupportInterval(lo, hi, a, b)


def structural_m_range(pair: DualPairSpec) -> tuple[int, int]:
    """The m values for which the torus embedding exists at all."""
    if pair.kind is PairKind.UU:
        return max(pair.n - pair.q, 0), min(pair.p, pair.n)
    return pair.n, pair.n


def embedded_index_set(pair: DualPairSpec, m: int) -> tuple[int, ...]:
    """0-based positions of the embedded small torus inside the big one.

    UU sends coordinate j to position j for j < m and to position
    p+q-n+j for j >= m; the other pairs embed as the first n coordinates.
    """
    if pair.kind is not PairKind.UU:
        return tuple(range(pair.n))
    lo, hi = structural_m_range(pair)
    if not lo <= m <= hi:
        raise ValueError(f"m = {m} outside the embeddable range [{lo}, {hi}]")
    N = pair.p + pair.q
    return tuple(range(m)) + tuple(N - pair.n + j for j in range(m, pair.n))


def project(pair: DualPairSpec, m: int, theta_prime: Sequence[float]) -> tuple[float, ...]:
    """pr_m: pick the embedded angles, in the small-torus coordinate order."""
    if len(theta_prime) != pair.rank_gprime:
        raise ValueError("dimension mismatch")
    return tuple(theta_prime[i] for i in embedded_index_set(pair, m))


def kprime_weyl(pair: DualPairSpec) -> Iterator[WeylElement]:
    """W(K', h') as block permutations of the big torus coordinates; the
    K' blocks tile the coordinates, so an element is one permutation per
    block, concatenated."""
    yield from signed_permutations("A", pair.rank_gprime, pair.kprime_blocks)


def eta_cosets(pair: DualPairSpec, interval: SupportInterval, m: int) -> list[WeylElement]:
    """Coset representatives for the outer alternating sum of the character.

    UU: representatives of {eta in S_n : eta({1..m}) contains {1..lo} and
    eta({m+1..n}) contains {hi+1..n}} modulo S_m x S_{n-m}, one per image
    set eta({1..m}), each order-preserving on {1..m} and its complement.

    Signed pairs: one representative per admissible sign pattern, with the
    permutation part the identity (the pure permutations stabilize the
    embedding cone and are absorbed by the W(K') sum).  The constrained
    signs match the orientation of the embedding cone, which is the
    positive orthant for the Sp pairs and the negative orthant for the
    quaternionic pair: Sp pairs pin +1 on {1..lo} and -1 on {hi+1..n},
    the O* pair the opposite.  Free middle signs run over all choices,
    except that for the even orthogonal pair the free flips are
    constrained to an even count.
    """
    n = pair.n
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"n = {n} exceeds enumeration cap {ENUMERATION_CAP}")
    lo, hi = interval.lo, interval.hi
    if pair.kind is PairKind.UU:
        if not lo <= m <= hi:
            raise ValueError(f"m = {m} outside the support interval [{lo}, {hi}]")
        reps = []
        for extra in itertools.combinations(range(lo, hi), m - lo):
            image = list(range(lo)) + list(extra)
            complement = [j for j in range(n) if j not in set(image)]
            perm = tuple(image + complement)
            reps.append(WeylElement(perm, (1,) * n))
        return reps
    head = -1 if pair.kind is PairKind.UH_OSTAR else 1
    reps = []
    n_free = hi - lo
    for bits in itertools.product((1, -1), repeat=n_free):
        if pair.kind is PairKind.OEVEN_SP and bits.count(-1) % 2 != 0:
            continue
        signs = (head,) * lo + bits + (-head,) * (n - hi)
        reps.append(WeylElement(tuple(range(n)), signs))
    return reps


def eta_cosets_brute_force(pair: DualPairSpec, interval: SupportInterval, m: int) -> int:
    """Independent count of UU cosets by filtering all n! permutations."""
    if pair.kind is not PairKind.UU:
        raise ValueError("brute-force path is defined for the UU rule only")
    n, lo, hi = pair.n, interval.lo, interval.hi
    need_low = set(range(lo))
    need_high = set(range(hi, n))
    images = set()
    for perm in itertools.permutations(range(n)):
        image = set(perm[:m])
        if need_low <= image and need_high <= (set(range(n)) - image):
            images.add(frozenset(image))
    return len(images)


def vanishing_positive_roots(pair: DualPairSpec, m: int) -> tuple[Root, ...]:
    """Positive roots of g' that vanish on the embedded torus h'(m)."""
    embedded = set(embedded_index_set(pair, m))
    out = []
    for alpha in pair.rs_gprime.positive_roots:
        if all(alpha[i] == 0 for i in embedded):
            out.append(alpha)
    return tuple(out)


def rho_z(pair: DualPairSpec, m: int) -> Weight:
    """Half-sum of the positive roots vanishing on the embedded torus."""
    return rho(z_subsystem(pair, m))


def z_weyl(pair: DualPairSpec, m: int) -> Iterator[WeylElement]:
    """Weyl group of the vanishing-root subsystem, acting on all coordinates.

    UU leaves an A-type block on the complement indices; the Sp pairs leave
    a C-type block (signed permutations); the O* pair a D-type block (even
    sign changes).
    """
    N = pair.rank_gprime
    free = sorted(set(range(N)) - set(embedded_index_set(pair, m)))  # one run of coordinates
    start = free[0] if free else N
    yield from signed_permutations(_GPRIME_FAMILY[pair.kind], N, [(start, start + len(free))])


def z_subsystem(pair: DualPairSpec, m: int) -> RootSystem:
    """The vanishing-root subsystem packaged as a RootSystem on all coords."""
    return RootSystem(_GPRIME_FAMILY[pair.kind], pair.rank_gprime, tuple(sorted(vanishing_positive_roots(pair, m))))
