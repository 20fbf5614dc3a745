"""Fourier transforms of coadjoint orbits for compact unitary groups.

The finite Weyl sum

    F(X) = (-1)^{n(lam)} sum_{w in W(k)/W(k)^lam} e^{i<w lam, X>}
           / prod_{alpha in P_lam} i <w alpha, X>

with P_lam = {alpha : <lam, alpha> > 0} is validated against two
independent oracles for U(n): a Haar Monte-Carlo average of
e^{i tr(diag(x) U diag(lam) U*)} and the exact determinant closed form of
the unitary-group exponential integral.  The average reads U only
through the weights |u_ij|^2, which a left diagonal phase leaves alone, so
the sampler takes U's first column real (the square root of a
Dirichlet(1,...,1) vector, n exponentials per sample) and draws 2n normals
for each of the n-2 further columns it needs: 3 exponentials and 6 normals
per U(3) sample.  The determinant formula for the Haar average carries the
constant prod_{k=1}^{n-1} k!; dividing the normalized Haar average by that
constant and multiplying by the Liouville prefactor
prod_{alpha in P_lam} <lam, alpha> reproduces F(X), which is the
calibration the tests pin at a reference point.
"""

from __future__ import annotations

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


def liouville_normalization(op: OrbitParameter) -> float:
    """prod over P_lam of <lam, alpha>; strictly positive by construction."""
    out = Fraction(1)
    for alpha in op.roots:
        out *= weight_dot(op.lam, alpha)
    return float(out)


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
    x = tuple(float(v) for v in X)
    if any(not math.isfinite(v) for v in x):
        raise ValueError("X must be finite")
    for alpha in op.roots:
        if abs(sum(float(c) * v for c, v in zip(alpha, x))) < SINGULAR_GUARD:
            raise SingularPoint(f"X pairs to ~0 with root {alpha}")
    total = complex(0.0)
    for w in _coset_representatives(rs_k, op.lam):
        wlam = act(w, op.lam)
        num = np.exp(1j * sum(float(c) * v for c, v in zip(wlam, x)))
        den = complex(1.0)
        for alpha in op.roots:
            walpha = act(w, alpha)
            den *= 1j * sum(float(c) * v for c, v in zip(walpha, x))
        total += num / den
    return (-1) ** op.n_noncompact * total


def _haar_columns(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The first n-1 columns of count Haar unitaries, up to a left diagonal phase.

    Returns the real and imaginary parts as one (part, column, row, sample)
    array.  A Haar U is the Gram-Schmidt Q of a complex Gaussian matrix
    (Mezzadri, Notices AMS 54, 2007), and DU is Haar for every diagonal
    unitary D, so the first column can be taken real: it is sqrt(w) with
    w ~ Dirichlet(1, ..., 1), n standard exponentials over their sum.  Columns
    1 to n-2 are Gram-Schmidt on complex Gaussians (the 1/sqrt(2) is left
    out, Gram-Schmidt does not see the scale), each projected off the
    earlier columns twice before it is normalised, which keeps them
    orthogonal to machine precision (Giraud, Langou and Rozloznik, 2005).
    A sample costs n exponentials and 2n(n-2) normals; n = 1 draws nothing.
    """
    cols = np.zeros((2, n - 1, n, count))
    if n < 2:
        return cols
    e = rng.standard_exponential((n, count))
    q0 = np.sqrt(e / e.sum(0))
    cols[0, 0] = q0
    cols[:, 1:] = rng.standard_normal((2, n - 2, n, count))
    re, im = cols
    for j in range(1, n - 1):
        vr, vi = re[j], im[j]
        for _ in range(2):
            # q0 is real, so <q0, v> = sum_k q0_k v_k
            cr, ci = (q0 * vr).sum(0), (q0 * vi).sum(0)
            vr -= q0 * cr
            vi -= q0 * ci
            for i in range(1, j):
                qr, qi = re[i], im[i]
                # c = <q, v> = sum_k conj(q_k) v_k, then v -= q c
                cr = (qr * vr).sum(0) + (qi * vi).sum(0)
                ci = (qr * vi).sum(0) - (qi * vr).sum(0)
                vr -= qr * cr - qi * ci
                vi -= qr * ci + qi * cr
        norm = np.sqrt((vr * vr).sum(0) + (vi * vi).sum(0))
        vr /= norm
        vi /= norm
    return cols


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

    v_lam, v_x = vandermonde(lam), vandermonde(x)
    if abs(v_lam) < 1e-12:
        raise MonteCarloOnly("lam has (nearly) repeated entries; determinant form degenerates")
    if abs(v_x) < 1e-12:
        raise SingularPoint("X has (nearly) repeated entries")
    M = np.exp(1j * np.outer(lam, x))
    cn = math.prod(math.factorial(k) for k in range(1, n))
    return complex(cn * np.linalg.det(M) / ((1j) ** (n * (n - 1) // 2) * v_lam * v_x))


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

    The trace needs only the weights |u_ij|^2.  Each batch draws the first
    n-1 columns with _haar_columns; every row of U has unit norm, so the
    last column's weights are 1 - sum_{j<n-1} |u_ij|^2.
    """
    lam_f = [float(v) for v in lam]
    x = [float(v) for v in X]
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
    counts = [min(MC_BATCH, n_samples - i) for i in range(0, n_samples, MC_BATCH)]
    seeds = np.random.SeedSequence(seed).spawn(len(counts))
    sums = []
    for count, ss in zip(counts, seeds):
        re, im = _haar_columns(n, count, np.random.default_rng(ss))
        # diag(U diag(lam) U*) = |U|^2 lam; with the last column's weights
        # 1 - sum_{j<n-1} |u_ij|^2 the phase x.|U|^2 lam is
        # lam_last sum(x) + sum_{j<n-1} (lam_j - lam_last) x.|u_.j|^2
        phase = np.full(count, lam_f[-1] * math.fsum(x))
        for j in range(n - 1):
            phase += (lam_f[j] - lam_f[-1]) * (xdiag @ (re[j] * re[j] + im[j] * im[j]))
        sums.append(complex(np.cos(phase).sum(), np.sin(phase).sum()))
    mean = complex(math.fsum(s.real for s in sums), math.fsum(s.imag for s in sums)) / n_samples
    # every sample has modulus one, so mean |v - mean|^2 = 1 - |mean|^2
    stderr = math.sqrt(max(0.0, 1.0 - abs(mean) ** 2) / n_samples)
    return OracleEstimate(scale * mean, abs(scale) * stderr, "mc")
