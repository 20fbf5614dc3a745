"""Fourier transforms of coadjoint orbits for compact unitary groups.

The finite Weyl sum

    F(X) = (-1)^{n(lam)} sum_{w in W(k)/W(k)^lam} e^{i<w lam, X>}
           / prod_{alpha in P_lam} i <w alpha, X>

with P_lam = {alpha : <lam, alpha> > 0} is validated against two
independent oracles for U(n): a Haar Monte-Carlo average of
e^{i tr(diag(x) U diag(lam) U*)} and the exact determinant closed form of
the unitary-group exponential integral.  The average reads U only
through x.|u_j|^2 for its first n-1 columns u_j, which the sampler draws by
the subgroup algorithm: each column is uniform on the sphere of the
complement of the earlier ones, and only diag(x) compressed to that
complement is carried, with no normals and no Gram-Schmidt (3 exponentials
and 2 uniforms per U(3) sample).  The Haar average's determinant form has the
constant prod_{k=1}^{n-1} k!; dividing the normalized Haar average by that
constant and multiplying by the Liouville prefactor
prod_{alpha in P_lam} <lam, alpha> reproduces F(X), which is the
calibration the tests pin at a reference point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import MonteCarloOnly, SingularPoint
from .rootsys import Root, RootSystem, Weight, act, build_root_system, weight_dot, weyl_elements
from .torus import SINGULAR_GUARD

MC_BATCH = 4096  # samples per chunk; chunk i is drawn from the i-th child seed


@dataclass(frozen=True)
class OrbitParameter:
    lam: Weight
    roots: tuple[Root, ...]  # P_lam, the roots paired positively with lam
    n_noncompact: int


def orbit_parameter(rs_g: RootSystem, rs_k: RootSystem, lam: Sequence) -> OrbitParameter:
    lam = tuple(Fraction(v) for v in lam)
    if len(lam) != rs_g.rank:
        raise ValueError("dimension mismatch")
    compact = set(rs_k.positive_roots) | {tuple(-c for c in a) for a in rs_k.positive_roots}
    p_lam = tuple(a for a in rs_g.all_roots if weight_dot(lam, a) > 0)
    n_nc = sum(1 for a in p_lam if a not in compact)
    return OrbitParameter(lam, p_lam, n_nc)


def _as_floats(values: Sequence, name: str) -> list[float]:
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ValueError(f"{name} does not fit a float") from None


def _check_finite(value: complex, what: str) -> complex:
    if not cmath.isfinite(value):
        raise ValueError(f"{what} overflows a float")
    return value


def liouville_normalization(op: OrbitParameter) -> float:
    """prod over P_lam of <lam, alpha>; strictly positive by construction."""
    out = Fraction(1)
    for alpha in op.roots:
        out *= weight_dot(op.lam, alpha)
    return _as_floats([out], "the Liouville prefactor of lam")[0]


def _coset_representatives(rs_k: RootSystem, lam: Weight):
    seen = set()
    for w in weyl_elements(rs_k):
        image = act(w, lam)
        if image not in seen:
            seen.add(image)
            yield w


def rdv_fourier(rs_g: RootSystem, rs_k: RootSystem, op: OrbitParameter, X: Sequence[float]) -> complex:
    """The Weyl-sum expression for the orbit Fourier transform at X; raises
    SingularPoint when |alpha(X)| < SINGULAR_GUARD for a root of P_lam."""
    if len(X) != rs_g.rank:
        raise ValueError("dimension mismatch")
    x = _as_floats(X, "X")
    if any(not math.isfinite(v) for v in x):
        raise ValueError("X must be finite")
    for alpha in op.roots:
        if abs(sum(float(c) * v for c, v in zip(alpha, x))) < SINGULAR_GUARD:
            raise SingularPoint(f"X pairs to ~0 with root {alpha}")
    lam = _as_floats(op.lam, "lam")
    total = complex(0.0)
    for w in _coset_representatives(rs_k, op.lam):
        phase = sum(c * v for c, v in zip(act(w, lam), x))
        den = complex(1.0)
        for alpha in op.roots:
            walpha = act(w, alpha)
            den *= 1j * sum(float(c) * v for c, v in zip(walpha, x))
        _check_finite(phase, "the pairing of lam with X")
        _check_finite(den, "the product of the root pairings of X")
        with np.errstate(over="ignore", invalid="ignore"):  # reported as a ValueError instead
            total = _check_finite(total + np.exp(1j * phase) / den, "the orbit Fourier transform")
    return (-1) ** op.n_noncompact * total


def _column_forms(n: int, x: np.ndarray, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """x.|u_j|^2 for the first n-1 columns u_j of count Haar unitaries U.

    Subgroup algorithm (Diaconis and Shahshahani, 1987): column j is B_j c_j,
    with B_j an orthonormal basis of the complement of the earlier columns and
    c_j uniform on the unit sphere of C^{n-j}.  No weight moves under a left
    diagonal phase or a phase on c_j, so column 0 is real, sqrt(e / sum e)
    from n exponentials, and every c_j has a real first entry.  Only
    M_j = B_j* diag(x) B_j is carried: x.|u_j|^2 = c_j* M_j c_j, and
    H = I - u u*/h with u = e_1 + c_j and h = 1 + c_j0 >= 1 sends e_1 to -c_j,
    so M_{j+1} = (H M_j H)[1:, 1:].  A middle c_j takes its moduli from n-j
    exponentials and its phases from n-j-1 uniforms; the last, (sqrt(a),
    sqrt(1-a) e^{i phi}) in C^2, takes a and phi uniform.  A U(3) sample draws
    3 exponentials and 2 uniforms; n = 1 draws nothing.
    """
    if n < 2:
        return []
    e = rng.standard_exponential((n, count))
    w = e / e.sum(0)
    c = np.sqrt(w)
    forms, mat, v = [x @ w], np.diag(x).tolist(), x[:, None] * c
    for m in range(n - 1, 1, -1):  # m: dimension of the complement after column c
        # M <- (H M H)[1:, 1:] = M - u p* - p u* on rows and columns 1:, with
        # p = (g - u s/2h)/h, g = M u = v + M e_1, s = u* g = c* M c + 2 Re v_0 + M_00
        h = 1.0 + c[0]
        half = (forms[-1] + 2 * v[0].real + mat[0][0]) / (2 * h)
        p = [(vk + row[0] - half * ck) / h for vk, row, ck in zip(v[1:], mat[1:], c[1:])]
        cb, pb = [ck.conj() for ck in c[1:]], [pk.conj() for pk in p]
        mat = [[mkl - ck * pl - pk * cl for mkl, cl, pl in zip(row[1:], cb, pb)] for row, ck, pk in zip(mat[1:], c[1:], p)]
        if m > 2:
            e = rng.standard_exponential((m, count))
            r = np.sqrt(e / e.sum(0))
            phi = (2 * np.pi) * rng.random((m - 1, count))
            c = [r[0], *(r[1:] * (np.cos(phi) + 1j * np.sin(phi)))]
            v = [sum(mkl * cl for mkl, cl in zip(row, c)) for row in mat]
            forms.append(sum((ck.conj() * vk).real for ck, vk in zip(c, v)))
        else:
            a, phi = rng.random((2, count))
            phi *= 2 * np.pi
            # Re(M_01 e^{i phi}); M_01 is real when column 0 is the only earlier one
            m01 = mat[0][1]
            cross = m01.real * np.cos(phi) - (m01.imag * np.sin(phi) if np.iscomplexobj(m01) else 0.0)
            forms.append(np.real(a * mat[0][0] + (1 - a) * mat[1][1]) + 2 * np.sqrt(a * (1 - a)) * cross)
    return forms


@dataclass(frozen=True)
class OracleEstimate:
    value: complex
    stderr: float | None
    method: str


def hciz_mean(lam: Sequence[float], X: Sequence[float]) -> complex:
    """Exact Haar average of e^{i tr(diag(X) U diag(lam) U*)}.

    det(e^{i lam_j x_k}) / [ (i)^{n(n-1)/2} V(x) V(lam) ] times
    prod_{k=1}^{n-1} k!, with V the decreasing-order Vandermonde
    prod_{j<k}(v_j - v_k).  Needs distinct lam and distinct x.
    """
    lam = [float(v) for v in lam]
    x = [float(v) for v in X]
    n = len(lam)
    if len(x) != n:
        raise ValueError("dimension mismatch")

    def vandermonde(v):
        out = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                out *= v[i] - v[j]
        return out

    v_lam = _check_finite(vandermonde(lam), "the product of the root pairings of lam")
    v_x = _check_finite(vandermonde(x), "the product of the root pairings of X")
    if abs(v_lam) < 1e-12:
        raise MonteCarloOnly("lam has (nearly) repeated entries; determinant form degenerates")
    if abs(v_x) < 1e-12:
        raise SingularPoint("X has (nearly) repeated entries")
    with np.errstate(over="ignore"):  # reported as a ValueError instead
        phases = np.outer(lam, x)
    if not np.isfinite(phases).all():
        raise ValueError("a pairing lam_j x_k overflows a float")
    M = np.exp(1j * phases)
    cn = math.prod(math.factorial(k) for k in range(1, n))
    with np.errstate(over="ignore", invalid="ignore"):  # reported as a ValueError instead
        mean = complex(cn * np.linalg.det(M) / ((1j) ** (n * (n - 1) // 2) * v_lam * v_x))
    return _check_finite(mean, "the determinant ratio of the HCIZ mean")


def orbit_integral_oracle(
    n: int,
    lam: Sequence,
    X: Sequence[float],
    n_samples: int = 10**6,
    seed: int = 0,
    method: str = "mc",
) -> OracleEstimate:
    """Independent estimates of the orbit Fourier transform for U(n).

    method='mc' averages the exponential trace over Haar unitaries;
    method='hciz' evaluates the determinant closed form.  Both are scaled
    by the Liouville prefactor over the superfactorial constant so they
    target the same quantity as rdv_fourier.

    The trace needs only x.|u_j|^2 for the first n-1 columns, which each
    batch draws with _column_forms; every row of U has unit norm, so the
    last column's weights are 1 - sum_{j<n-1} |u_ij|^2.
    """
    lam_f = _as_floats(lam, "lam")
    x = _as_floats(X, "X")
    if len(lam_f) != n or len(x) != n:
        raise ValueError("dimension mismatch")
    if not all(map(math.isfinite, lam_f)):
        raise ValueError("lam must be finite")
    if not all(map(math.isfinite, x)):
        raise ValueError("X must be finite")
    rs = build_root_system("A", n)
    op = orbit_parameter(rs, rs, [Fraction(v) for v in lam])
    scale = liouville_normalization(op) / math.prod(math.factorial(k) for k in range(1, n))
    if method == "hciz":
        return OracleEstimate(scale * hciz_mean(lam_f, x), None, "hciz")
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    xdiag = np.array(x)
    root = np.random.SeedSequence(seed)
    sums = []
    for start in range(0, n_samples, MC_BATCH):
        count = min(MC_BATCH, n_samples - start)
        (ss,) = root.spawn(1)  # the i-th call spawns the child with spawn key (i,)
        # diag(U diag(lam) U*) = |U|^2 lam; with the last column's weights
        # 1 - sum_{j<n-1} |u_ij|^2 the phase x.|U|^2 lam is
        # lam_last sum(x) + sum_{j<n-1} (lam_j - lam_last) x.|u_.j|^2
        phase = np.full(count, lam_f[-1] * math.fsum(x))
        for lam_j, form in zip(lam_f, _column_forms(n, xdiag, count, np.random.default_rng(ss))):
            phase += (lam_j - lam_f[-1]) * form
        sums.append(complex(np.cos(phase).sum(), np.sin(phase).sum()))
    mean = complex(math.fsum(s.real for s in sums), math.fsum(s.imag for s in sums)) / n_samples
    # every sample has modulus one, so mean |v - mean|^2 = 1 - |mean|^2
    stderr = math.sqrt(max(0.0, 1.0 - abs(mean) ** 2) / n_samples)
    return OracleEstimate(scale * mean, abs(scale) * stderr, "mc")
