"""Independent checks of howechar's CLI output.

Every function here either recomputes a quantity with its own numpy code
(Weyl denominators, bialternants, the HCIZ determinant, the rank-one K-type
ladder, the support-interval case table) or tests a property the method
must have (periodicity on the double cover, W(K') invariance, constant
ratios between two forms of one character).  None compares against a stored
copy of the program's output.  A failed check raises CheckFailed.

Tolerances: 1e-9 relative unless stated, the pin the repository's own
acceptance suite uses; the HCIZ comparison uses 1e-10 as criterion 9 does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

REL_TOL = 1e-9
HCIZ_TOL = 1e-10
MC_SIGMAS = 4.0


class CheckFailed(Exception):
    """An output disagrees with the independent computation or property."""


def value(entry: dict) -> complex:
    """The complex value of one result entry of an evaluator subcommand."""
    return complex(entry["value"]["re"], entry["value"]["im"])


def values(doc: dict) -> list[complex]:
    return [value(r) for r in doc["results"]]


def points(doc: dict) -> list[tuple[float, ...]]:
    return [tuple(r["point"]) for r in doc["results"]]


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# root data, written out independently of howechar.rootsys


def positive_roots(family: str, rank: int) -> np.ndarray:
    """Positive roots of the classical system as rows of a float matrix."""
    rows = []
    for i in range(rank):
        for j in range(i + 1, rank):
            v = np.zeros(rank)
            v[i], v[j] = 1.0, -1.0
            rows.append(v)
            if family in "CD":
                w = np.zeros(rank)
                w[i], w[j] = 1.0, 1.0
                rows.append(w)
    if family == "C":
        rows.extend(2.0 * np.eye(rank))
    return np.array(rows).reshape(-1, rank)


def gprime_family(kind: str) -> str:
    """Root family of the noncompact member g' of each pair kind."""
    return {"uu": "A", "oeven": "C", "oodd": "C", "ostar": "D"}[kind]


def weyl_denominator(family: str, theta: Sequence[float]) -> complex:
    """prod over positive roots of 2i sin(<alpha, theta>/2)."""
    roots = positive_roots(family, len(theta))
    return complex(np.prod(2j * np.sin(roots @ np.asarray(theta, dtype=float) / 2.0)))


def min_root_sine(family: str, theta: Sequence[float]) -> float:
    roots = positive_roots(family, len(theta))
    if len(roots) == 0:
        return 1.0
    return float(np.abs(np.sin(roots @ np.asarray(theta, dtype=float) / 2.0)).min())


def bialternant_a(lam: Sequence[int], theta: Sequence[float]) -> complex:
    """Schur polynomial det(x_i^(lam_j + n-1-j)) / det(x_i^(n-1-j)), x = e^(i theta)."""
    n = len(lam)
    x = np.exp(1j * np.asarray(theta, dtype=float))
    j = np.arange(n)
    num = np.linalg.det(x[:, None] ** (np.asarray(lam, dtype=float) + n - 1 - j)[None, :])
    den = np.linalg.det(x[:, None] ** (n - 1 - j)[None, :].astype(float))
    return complex(num / den)


def bialternant_c(lam: Sequence[int], theta: Sequence[float]) -> complex:
    """Symplectic character det(x^l - x^-l) / det(x^r - x^-r), l = lam + r, r = (n, ..., 1)."""
    n = len(lam)
    x = np.exp(1j * np.asarray(theta, dtype=float))
    r = np.arange(n, 0, -1, dtype=float)
    l = np.asarray(lam, dtype=float) + r

    def alt(e):
        return np.linalg.det(x[:, None] ** e[None, :] - x[:, None] ** (-e)[None, :])

    return complex(alt(l) / alt(r))


def hciz_fourier(lam: Sequence[float], x: Sequence[float]) -> complex:
    """Orbit Fourier transform of U(n) from the HCIZ determinant.

    prod_{i<j} |lam_i - lam_j| * det(e^(i lam_j x_k)) / (i^(n(n-1)/2) V(lam) V(x)),
    V(v) = prod_{j<k} (v_j - v_k); lam and x must have distinct entries.
    """
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(lam)
    iu = np.triu_indices(n, 1)
    v_lam = np.prod((lam[:, None] - lam[None, :])[iu])
    v_x = np.prod((x[:, None] - x[None, :])[iu])
    liouville = np.prod(np.abs((lam[:, None] - lam[None, :])[iu]))
    det = np.linalg.det(np.exp(1j * np.outer(lam, x)))
    return complex(liouville * det / ((1j) ** (n * (n - 1) // 2) * v_lam * v_x))


# ---------------------------------------------------------------------------
# torus_eval properties


def check_periodic(base: complex, shifted: Sequence[complex], tol: float = REL_TOL) -> None:
    """Theta(theta + 2 pi e_k) / Theta(theta) has modulus 1 and one sign for all k.

    A genuine character of the double cover changes at most by the one
    central sign under a full turn of any coordinate.
    """
    ratios = [s / base for s in shifted]
    for k, r in enumerate(ratios):
        if abs(abs(r) - 1.0) > tol:
            raise CheckFailed(f"|Theta(theta + 2 pi e_{k}) / Theta(theta)| = {abs(r):.12g}, not 1")
        if abs(r - ratios[0]) > tol:
            raise CheckFailed(f"periodicity ratio {r:.12g} at k={k} differs from {ratios[0]:.12g} at k=0")
        if abs(r.imag) > tol:
            raise CheckFailed(f"periodicity ratio {r:.12g} at k={k} is not +-1")


def check_invariant(base: complex, moved: Sequence[complex], tol: float = REL_TOL) -> None:
    """Theta(sigma theta) == Theta(theta) for sigma in W(K')."""
    for i, v in enumerate(moved):
        if not _close(v, base, tol):
            raise CheckFailed(f"Theta(sigma_{i} theta) = {v:.12g} != Theta(theta) = {base:.12g}")


def check_constant_ratio(num: Sequence[complex], den: Sequence[complex], tol: float = REL_TOL) -> complex:
    """num_i / den_i is one nonzero constant across i; returns it."""
    if len(num) != len(den) or not num:
        raise CheckFailed(f"ratio needs aligned non-empty lists, got {len(num)} and {len(den)}")
    ratios = [a / b for a, b in zip(num, den)]
    c = ratios[0]
    if c == 0 or not math.isfinite(abs(c)):
        raise CheckFailed(f"degenerate ratio {c}")
    for i, r in enumerate(ratios):
        if abs(r - c) > tol * abs(c):
            raise CheckFailed(f"ratio {r:.15g} at point {i} differs from {c:.15g}")
    return c


def check_close(got: complex, want: complex, tol: float, what: str) -> None:
    if not _close(got, want, tol):
        raise CheckFailed(f"{what}: program {got:.15g} vs independent {want:.15g} (rel tol {tol:g})")


def check_same_points(a: dict, b: dict) -> None:
    if points(a) != points(b):
        raise CheckFailed("two ops meant to share seeded points returned different points")


# ---------------------------------------------------------------------------
# formal_series properties


def ktype_list(doc: dict) -> list[tuple[tuple[Fraction, ...], int]]:
    return [(tuple(Fraction(c) for c in r["ktype"]), r["multiplicity"]) for r in doc["results"]]


def check_multiplicities(doc: dict) -> None:
    """Multiplicities are positive integers and the first (minimal) one is 1."""
    kt = ktype_list(doc)
    if not kt:
        raise CheckFailed("empty K-type list")
    for gamma, mult in kt:
        if not isinstance(mult, int) or isinstance(mult, bool) or mult <= 0:
            raise CheckFailed(f"multiplicity {mult!r} of {gamma} is not a positive integer")
    if kt[0][1] != 1:
        raise CheckFailed(f"minimal K-type has multiplicity {kt[0][1]}, not 1")


def u11_ladder(nu: Fraction, m: int, depth: int) -> list[tuple[Fraction, Fraction]]:
    """K-types of the uu(1;1,1) character: one inverse root factor, so the
    geometric series 1/(1 - h^-beta) shifted by the lowest weight."""
    half = Fraction(1, 2)
    if m == 1:
        return [(-nu - half - k, half + k) for k in range(depth + 1)]
    return [(-half - k, -nu + half + k) for k in range(depth + 1)]


def check_ladder(doc: dict, nu: Fraction, depth: int) -> None:
    kt = ktype_list(doc)
    want = u11_ladder(nu, doc["meta"]["m_embed"], depth)
    got = [gamma for gamma, _ in kt]
    if got != want or any(mult != 1 for _, mult in kt):
        raise CheckFailed(f"uu(1;1,1) nu={nu}: K-types {got[:3]}... differ from the ladder {want[:3]}...")


def check_same_ktypes(a: dict, b: dict) -> None:
    if ktype_list(a) != ktype_list(b):
        raise CheckFailed("K-type lists differ between embeddings m")


def dual_lowest_weight(kind: str, n: int, m: int, nu: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Minimal K'-type of a signed pair: reverse(-c - (nu padded to length m)),
    c = n, or (2n+1)/2 for oodd-sp."""
    c = Fraction(2 * n + 1, 2) if kind == "oodd" else Fraction(n)
    padded = list(nu) + [Fraction(0)] * (m - n)
    return tuple(reversed([-c - v for v in padded]))


def check_minimal_ktype(got: Sequence, kind: str, n: int, m: int, nu: Sequence[Fraction]) -> None:
    want = dual_lowest_weight(kind, n, m, nu)
    got = tuple(Fraction(c) for c in got)
    if got != want:
        raise CheckFailed(f"{kind}({n};{m}) nu={list(map(str, nu))}: minimal K-type {got} != dual lowest weight {want}")


def check_normalized_m_independence(const_a: dict, theta_a: dict, const_b: dict, theta_b: dict) -> None:
    """C_m * Theta_m(theta) is the same function for every admissible m."""
    check_same_points(theta_a, theta_b)
    ca = float(Fraction(const_a["results"][0]["constant"]))
    cb = float(Fraction(const_b["results"][0]["constant"]))
    for a, b in zip(values(theta_a), values(theta_b)):
        check_close(ca * a, cb * b, REL_TOL, "C_m Theta_m across m")


def _rho_g(kind: str, n: int) -> list[Fraction]:
    if kind == "uu":
        return [Fraction(n - 2 * a - 1, 2) for a in range(n)]
    if kind == "oeven":
        return [Fraction(n - 1 - a) for a in range(n)]
    if kind == "oodd":
        return [Fraction(n - 1 - a) + Fraction(1, 2) for a in range(n)]
    return [Fraction(n - a) for a in range(n)]


def _half_shift(kind: str, n: int, p: int, q: int, m: int) -> Fraction:
    if kind == "uu":
        return Fraction(p + q - n - 1, 2)
    if kind == "oeven":
        return Fraction(m - n)
    if kind == "oodd":
        return Fraction(m - n) - Fraction(1, 2)
    return Fraction(m - n - 1)


def support_table(kind: str, n: int, nu: Sequence[Fraction], p: int = 0, q: int = 0, m: int = 0):
    """(lo, hi, mu', a, b) from the a_k >= 1 / b_k >= 1 case table."""
    mu_prime = list(reversed([v + r for v, r in zip(nu, _rho_g(kind, n))]))
    s = _half_shift(kind, n, p, q, m)
    a = [mp - s for mp in mu_prime]
    b = [-mp - s for mp in mu_prime]
    lo = sum(1 for k in range(n) if b[k] >= 1)
    hi = n - sum(1 for k in range(n) if a[k] >= 1)
    return lo, hi, mu_prime, a, b


def check_support(doc: dict, kind: str, n: int, nu: Sequence[Fraction], p: int = 0, q: int = 0, m: int = 0) -> tuple[int, int]:
    r = doc["results"][0]
    lo, hi, mu_prime, a, b = support_table(kind, n, nu, p, q, m)
    got = (r["lo"], r["hi"], [Fraction(c) for c in r["mu_prime"]], [Fraction(c) for c in r["a"]], [Fraction(c) for c in r["b"]])
    if got != (lo, hi, mu_prime, a, b):
        raise CheckFailed(f"support {got[:2]} differs from the case table ({lo}, {hi})")
    return lo, hi


# ---------------------------------------------------------------------------
# certify properties


def expected_verdict(p: int, q: int, k: int) -> str:
    """The identity is an alternant with a repeated exponent for k <= p+q-2,
    hence zero (Macdonald I.3); at k = p+q-1 it is not asserted."""
    return "proved" if 0 <= k <= p + q - 2 else "not-in-asserted-range"


def check_verdict(doc: dict, want: str) -> None:
    got = doc["results"][0]["verdict"]
    if got != want:
        raise CheckFailed(f"verdict {got!r}, expected {want!r} ({doc['meta']})")


def check_monte_carlo(doc: dict, truth: complex, sigmas: float = MC_SIGMAS) -> None:
    r = doc["results"][0]
    est, se = value(r), r["stderr"]
    if not se or se <= 0:
        raise CheckFailed(f"Monte-Carlo standard error {se!r} is not positive")
    z = abs(est - truth) / se
    if z > sigmas:
        raise CheckFailed(f"Monte-Carlo estimate {est:.6g} is {z:.2f} standard errors from HCIZ {truth:.6g}")
