"""Fourier transforms of coadjoint orbits for compact unitary groups.

For U(n) the finite Weyl sum

    F(X) = sum_{w in W/W_lam} e^{i<w lam, X>} / prod_{alpha in P_lam} i <w alpha, X>

with P_lam = {alpha : <lam, alpha> > 0} is one confluent determinant
(Harish-Chandra, Amer. J. Math. 79, 1957; Itzykson and Zuber, J. Math.
Phys. 21, 1980).  Sort lam decreasing and give the s-th repeat (s = 0, 1,
...) of a value l the row (i x_k)^s e^{i l x_k} of C; then

    F(X) = (-1)^{sum_b k_b(k_b-1)/2} det C / (i^{n(n-1)/2} V(x)),

with k_b the size of each block of equal entries of lam and
V(x) = prod_{j<k} (x_j - x_k).  rdv_fourier(lam, X) evaluates it, for
itself and for the 'hciz' oracle; it reads nothing but lam and X, since
P_lam and W/W_lam follow from the order of lam.  It raises SingularPoint
where the determinant's error bound eps cond_2(D C) (n + max |lam_j x_k|),
relative to the value, exceeds COND_GUARD; D scales every row of C to unit
norm, which leaves the relative error of det C unchanged.

The Monte-Carlo oracle is independent of it: a Haar average of
e^{i tr(diag(x) U diag(lam) U*)}, drawn column by column by the subgroup
algorithm (_column_forms), times the Liouville volume of the orbit.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import MonteCarloOnly, SingularPoint

MC_BATCH = 4096  # samples per chunk; chunk i is drawn from the i-th child seed
COND_GUARD = 1e-9  # largest relative error bound eps cond_2(D C) (n + max |lam_j x_k|) the determinant form accepts


def _as_floats(values: Sequence, name: str) -> list[float]:
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ValueError(f"{name} does not fit a float") from None


def _check_finite(value: complex, what: str) -> complex:
    if not cmath.isfinite(value):
        raise ValueError(f"{what} overflows a float")
    return value


def rdv_fourier(lam: Sequence, X: Sequence[float]) -> complex:
    """The orbit Fourier transform of U(n) at X, n = len(lam) = len(X), by
    the confluent determinant of the module docstring; lam may hold ints,
    Fractions or their strings, in any order.  Raises SingularPoint when the
    determinant's error bound exceeds COND_GUARD."""
    order = sorted(map(Fraction, lam), reverse=True)
    if len(order) != len(X):
        raise ValueError("dimension mismatch")
    if not order:
        raise ValueError("rank must be >= 1")
    x = _as_floats(X, "X")
    if any(not math.isfinite(v) for v in x):
        raise ValueError("X must be finite")
    reps = np.array([order[:j].count(v) for j, v in enumerate(order)])  # s of each row
    n, xa = len(x), np.array(x)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as a ValueError instead
        phases = np.outer(_as_floats(order, "lam"), xa)
        # (i x)^s e^{i l x} with the i^s factored out of the determinant
        C = xa ** reps[:, None] * np.exp(1j * phases)
    if not np.isfinite(C).all():
        raise ValueError("an entry of the determinant overflows a float")
    # the LU's roundoff, n eps, and each phase's rounding, eps |l x|, through
    # cond_2(D C); a zero row keeps its zeros, so cond stays infinite there
    norms = np.linalg.norm(C, axis=1, keepdims=True)
    bound = np.finfo(float).eps * np.linalg.cond(C / np.where(norms > 0, norms, 1.0)) * (n + np.abs(phases).max())
    if bound > COND_GUARD:
        raise SingularPoint(f"the determinant's relative error bound {bound:.1e} exceeds {COND_GUARD:g}")
    v_x = math.prod(x[j] - x[k] for j in range(n) for k in range(j + 1, n))
    _check_finite(v_x, "the product of the root pairings of X")
    # (-1)^S i^S / i^{n(n-1)/2} with S the sum of the row indices s
    unit = (1, 1j, -1, -1j)[(3 * int(reps.sum()) - n * (n - 1) // 2) % 4]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported as a ValueError instead
        value = complex(unit * np.linalg.det(C) / v_x)
    return _check_finite(value, "the orbit Fourier transform")


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


def orbit_integral_oracle(
    n: int,
    lam: Sequence,
    X: Sequence[float],
    n_samples: int = 10**6,
    seed: int = 0,
    method: str = "mc",
) -> OracleEstimate:
    """Independent estimates of the orbit Fourier transform for U(n), the
    quantity rdv_fourier computes.

    method='hciz' is rdv_fourier's determinant; it refuses repeated lam with
    MonteCarloOnly.  method='mc' averages the exponential trace over Haar
    unitaries and scales the average by the orbit's Liouville volume.

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
    if n < 1:
        raise ValueError("rank must be >= 1")
    order = sorted(map(Fraction, lam), reverse=True)
    if method == "hciz":
        if len(set(order)) < n:
            raise MonteCarloOnly("lam has repeated entries; the determinant oracle needs distinct ones")
        return OracleEstimate(rdv_fourier(order, x), None, "hciz")
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    # the Liouville volume prod_{alpha in P_lam} <lam, alpha>/<rho, alpha>, exact
    # until the one rounding; lam is sorted, so P_lam is the e_j - e_k with
    # j < k and lam_j != lam_k, and <rho, e_j - e_k> = k - j
    pairs = itertools.combinations(enumerate(order), 2)
    volume = math.prod((Fraction(lj - lk, k - j) for (j, lj), (k, lk) in pairs if lj != lk), start=Fraction(1))
    scale = _as_floats([volume], "the Liouville volume of lam")[0]
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
