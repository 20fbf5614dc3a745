"""Classical root systems (types A, B, C, D) and their Weyl groups.

Roots are int tuples and weights tuples of ``fractions.Fraction`` (an int
and an equal Fraction hash alike); A-type systems use the gl-style
convention with n coordinates (roots e_i - e_j on n coordinates), so an "A"
system of rank n means n coordinates and n(n-1)/2 positive roots.

Weyl group elements are signed permutations acting by

    act(w, mu)_k = signs[k] * mu[perm[k]]        (0-based)

which is the coordinate-shuffling action used throughout: the same formula
acts on weights and on torus angle vectors.  `signed_permutations` lists
every Weyl group the library enumerates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, Sequence

from .errors import CapExceeded

Root = tuple[int, ...]
Weight = tuple[Fraction, ...]

ENUMERATION_CAP = 10  # blocks of more coordinates are refused by signed_permutations


def weight(*coords) -> Weight:
    """Build a Weight from ints / Fractions / 'a/b' strings."""
    return tuple(Fraction(c) for c in coords)


def format_weight(w: Sequence) -> str:
    """A weight as messages print it, e.g. (0, 1) or (1/2,)."""
    return "(" + ", ".join(map(str, w)) + ("," if len(w) == 1 else "") + ")"


def weight_add(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def weight_neg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def weight_dot(a: Weight, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class RootSystem:
    family: str  # 'A', 'B', 'C' or 'D'
    rank: int  # number of coordinates
    positive_roots: tuple[Root, ...]

    @property
    def all_roots(self) -> tuple[Root, ...]:
        return self.positive_roots + tuple(weight_neg(a) for a in self.positive_roots)


@dataclass(frozen=True)
class WeylElement:
    perm: tuple[int, ...]  # 0-based one-line notation; value perm[k] feeds slot k
    signs: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"not a permutation: {self.perm}")
        if len(self.signs) != len(self.perm) or any(s not in (-1, 1) for s in self.signs):
            raise ValueError(f"bad sign vector: {self.signs}")


def act(w: WeylElement, mu: Sequence) -> tuple:
    """Apply w to a coordinate vector (weight or angle vector)."""
    if len(mu) != len(w.perm):
        raise ValueError(f"dimension mismatch: {len(mu)} vs {len(w.perm)}")
    return tuple(s * mu[p] for s, p in zip(w.signs, w.perm))


def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """Element with act(compose(w1, w2), mu) == act(w1, act(w2, mu))."""
    if len(w1.perm) != len(w2.perm):
        raise ValueError("rank mismatch")
    perm = tuple(w2.perm[p] for p in w1.perm)
    signs = tuple(s1 * w2.signs[p] for s1, p in zip(w1.signs, w1.perm))
    return WeylElement(perm, signs)


def inverse(w: WeylElement) -> WeylElement:
    n = len(w.perm)
    inv = [0] * n
    for k, p in enumerate(w.perm):
        inv[p] = k
    signs = tuple(w.signs[inv[k]] for k in range(n))
    return WeylElement(tuple(inv), signs)


def perm_sign(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sgn = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sgn = -sgn
    return sgn


def sign(w: WeylElement) -> int:
    """Determinant of w acting on the Cartan; a group homomorphism to {+1, -1}."""
    sgn = perm_sign(w.perm)
    for s in w.signs:
        sgn *= s
    return sgn


@cache
def build_root_system(family: str, rank: int) -> RootSystem:
    """Positive roots in a fixed lexicographic coordinate order.  Built once
    per (family, rank): every caller shares the returned instance."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if family == "D" and rank < 2:
        raise ValueError("family D needs rank >= 2")
    if family not in ("A", "B", "C", "D"):
        raise ValueError(f"unknown family {family!r}")
    roots: list[Root] = []

    def e(i: int, c: int = 1) -> list[int]:
        v = [0] * rank
        v[i] = c
        return v

    for i in range(rank):
        for j in range(i + 1, rank):
            v = e(i)
            v[j] = -1
            roots.append(tuple(v))
            if family in ("B", "C", "D"):
                v = e(i)
                v[j] = 1
                roots.append(tuple(v))
    if family == "B":
        roots.extend(tuple(e(i)) for i in range(rank))
    elif family == "C":
        roots.extend(tuple(e(i, 2)) for i in range(rank))
    roots.sort()
    return RootSystem(family, rank, tuple(roots))


def rho(rs: RootSystem) -> Weight:
    """Half the sum of the positive roots, exact."""
    acc = [Fraction(0)] * rs.rank
    for alpha in rs.positive_roots:
        for k, c in enumerate(alpha):
            acc[k] += c
    return tuple(c / 2 for c in acc)


def signed_permutations(family: str, rank: int, blocks: Sequence[tuple[int, int]]) -> Iterator[WeylElement]:
    """The Weyl group of type family on each block [start, stop) of
    coordinates, the identity off the blocks: permutations for A, signed
    permutations for B and C, and an even number of sign changes for D
    (Humphreys, Reflection Groups and Coxeter Groups, 2.10).  Lex order, which
    the orbit tables and their float sums follow: the first block slowest,
    and in a block the permutations (itertools order) before the signs (1
    before -1)."""
    sizes = [stop - start for start, stop in blocks]
    if max(sizes, default=0) > ENUMERATION_CAP:
        raise CapExceeded(f"block sizes {sizes} exceed enumeration cap {ENUMERATION_CAP}")
    sign_pools = [
        [(1,) * k] if family == "A" else [s for s in itertools.product((1, -1), repeat=k) if family != "D" or s.count(-1) % 2 == 0]
        for k in sizes
    ]
    perm, signs = list(range(rank)), [1] * rank

    def walk(i: int) -> Iterator[WeylElement]:
        if i == len(blocks):
            yield WeylElement(tuple(perm), tuple(signs))
            return
        start, stop = blocks[i]
        for images in itertools.permutations(range(start, stop)):
            perm[start:stop] = images
            for bits in sign_pools[i]:
                signs[start:stop] = bits
                yield from walk(i + 1)

    return walk(0)


def weyl_elements(rs: RootSystem) -> Iterator[WeylElement]:
    """Stream the full Weyl group in a deterministic (lex) order."""
    yield from signed_permutations(rs.family, rs.rank, [(0, rs.rank)])


def is_dominant(rs: RootSystem, lam: Weight) -> bool:
    """Dominance for the standard positive system of each family."""
    if len(lam) != rs.rank:
        raise ValueError("dimension mismatch")
    decreasing = all(lam[i] >= lam[i + 1] for i in range(rs.rank - 1))
    if rs.family == "A":
        return decreasing
    if rs.family in ("B", "C"):
        return decreasing and lam[-1] >= 0
    return all(lam[i] >= lam[i + 1] for i in range(rs.rank - 2)) and lam[-2] >= abs(lam[-1])
