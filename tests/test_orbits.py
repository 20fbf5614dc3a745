import cmath
import math
import random

import numpy as np
import pytest

from howechar.errors import MonteCarloOnly, SingularPoint
from howechar.orbits import (
    MC_BATCH,
    haar_unitaries,
    hciz_mean,
    liouville_normalization,
    orbit_integral_oracle,
    orbit_parameter,
    rdv_fourier,
)
from howechar.rootsys import RootSystem, act, build_root_system, weight, weyl_elements

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)


def test_rdv_reference_value():
    op = orbit_parameter(A2, A2, [1, 0])
    val = rdv_fourier(A2, A2, op, (math.pi, 0.0))
    # two-term sum [e^{i pi} - 1]/(i pi) = 2i/pi, frozen by hand
    assert abs(val - 2j / math.pi) < 1e-12


def test_orbit_parameter_accepts_equal_fraction_roots():
    # U(2) x U(1) in U(3) with every root given as Fractions: the same P_lam
    # and the same noncompact count as with the int roots
    k_int = RootSystem("A", 3, ((1, -1, 0),))
    k_frac = RootSystem("A", 3, (weight(1, -1, 0),))
    g_frac = RootSystem("A", 3, tuple(weight(*a) for a in A3.positive_roots))
    lam = [2, 1, -1]
    expect = orbit_parameter(A3, k_int, lam)
    assert expect.n_noncompact == 2
    for rs_g, rs_k in ((A3, k_frac), (g_frac, k_int), (g_frac, k_frac)):
        assert orbit_parameter(rs_g, rs_k, lam) == expect


def test_rdv_singular_orbit_parameter():
    op = orbit_parameter(A2, A2, [1, 1])
    assert op.roots == ()
    x = (1.0, 2.0)
    assert abs(rdv_fourier(A2, A2, op, x) - cmath.exp(3j)) < 1e-12


def test_rdv_weyl_invariance_in_lambda_and_x():
    rng = random.Random(31)
    op = orbit_parameter(A2, A2, [2, -1])
    elems = list(weyl_elements(A2))
    for _ in range(20):
        x = (rng.uniform(0.3, 3.0), rng.uniform(-3.0, -0.3))
        w = rng.choice(elems)
        a = rdv_fourier(A2, A2, op, x)
        op_w = orbit_parameter(A2, A2, act(w, op.lam))
        assert abs(rdv_fourier(A2, A2, op_w, x) - a) < 1e-12 * max(1.0, abs(a))
        assert abs(rdv_fourier(A2, A2, op, act(w, x)) - a) < 1e-10 * max(1.0, abs(a))


def test_rdv_homogeneity():
    op = orbit_parameter(A2, A2, [1, 0])
    x = (1.3, -0.4)
    t = 2.5
    a = rdv_fourier(A2, A2, op, tuple(t * v for v in x))
    op_t = orbit_parameter(A2, A2, [t, 0])
    b = rdv_fourier(A2, A2, op_t, x)
    assert abs(a - b * t ** (-len(op.roots))) < 1e-12


def test_rdv_alternating_sum_identity():
    # prod_{alpha in P_lam} i<alpha, X> * F(X) equals the signed exponential sum
    rng = random.Random(32)
    lam = (3, 1, 0)
    op = orbit_parameter(A3, A3, lam)
    for _ in range(10):
        x = tuple(rng.uniform(-2, 2) for _ in range(3))
        if min(abs(x[i] - x[j]) for i in range(3) for j in range(i + 1, 3)) < 0.2:
            continue
        lhs = rdv_fourier(A3, A3, op, x)
        for alpha in op.roots:
            lhs *= 1j * sum(float(c) * v for c, v in zip(alpha, x))
        from howechar.rootsys import sign

        rhs = sum(
            sign(w) * cmath.exp(1j * sum(float(c) * v for c, v in zip(act(w, op.lam), x)))
            for w in weyl_elements(A3)
        )
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_liouville_examples():
    assert liouville_normalization(orbit_parameter(A2, A2, [1, 0])) == 1.0
    from howechar.rootsys import rho

    assert liouville_normalization(orbit_parameter(A2, A2, rho(A2))) == 1.0
    op = orbit_parameter(A2, A2, [3, 0])
    t = 3.0
    base = orbit_parameter(A2, A2, [1, 0])
    assert liouville_normalization(op) == t ** len(base.roots) * liouville_normalization(base)


def test_rdv_regularity_guard():
    op = orbit_parameter(A2, A2, [1, 0])
    with pytest.raises(SingularPoint):
        rdv_fourier(A2, A2, op, (1.0, 1.0))


def _haar_qr_reference(n, count, rng):
    # reference kernel: Householder QR of the same Gaussian batch, with R's
    # diagonal phases moved into Q so that R has a positive diagonal
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.einsum("bii->bi", r)
    return q * (d / np.abs(d))[:, None, :]


def test_haar_unitaries_are_unitary():
    for n in (1, 2, 3, 5):
        u = haar_unitaries(n, 4096, np.random.default_rng(0))
        eye = np.einsum("bij,bkj->bik", u, np.conj(u))
        assert np.abs(eye - np.eye(n)).max() <= 1e-13


class _NearlyDependentColumns:
    # stands in for a Generator: in every Gaussian block the columns differ
    # from the first column by 1e-6 times a random vector
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape)
        return z[:, :, :1] + 1e-6 * z


def test_haar_unitaries_stay_unitary_on_nearly_dependent_columns():
    # one Gram-Schmidt pass leaves errors near 1e-8 here; the second pass
    # brings the columns back to orthogonal at machine precision
    for n in (2, 3, 5):
        u = haar_unitaries(n, 4096, _NearlyDependentColumns(3))
        eye = np.einsum("bij,bkj->bik", u, np.conj(u))
        assert np.abs(eye - np.eye(n)).max() <= 1e-13


def test_haar_unitaries_match_phase_fixed_qr():
    # QR with a positive-diagonal R is unique, so both kernels must return
    # the same unitary for the same Gaussian draw, up to roundoff
    for n in (1, 2, 3, 5):
        u = haar_unitaries(n, 4096, np.random.default_rng(11 + n))
        ref = _haar_qr_reference(n, 4096, np.random.default_rng(11 + n))
        assert np.abs(u - ref).max() <= 1e-12


def test_monte_carlo_stderr_matches_two_pass_formula():
    # redraw the oracle's chunks as full unitaries and take the mean and the
    # two-pass standard error from the full sample array; lam has a nonzero
    # last entry, so the weights of the last column enter the integrand
    n_samples, seed = 20_000, 5
    counts = [min(MC_BATCH, n_samples - i) for i in range(0, n_samples, MC_BATCH)]
    children = np.random.SeedSequence(seed).spawn(len(counts))
    for n in (1, 2, 3, 5):
        lam, x = [2, -1, 0, 3, 1][:n][::-1], [1.0, -0.5, 0.7, -1.3, 0.2][:n]
        est = orbit_integral_oracle(n, lam, x, n_samples=n_samples, seed=seed, method="mc")
        rs = build_root_system("A", n)
        superfactorial = math.prod(math.factorial(k) for k in range(1, n))
        scale = liouville_normalization(orbit_parameter(rs, rs, lam)) / superfactorial
        lam_v, xdiag = np.array(lam, dtype=float), np.array(x)
        u = np.concatenate([haar_unitaries(n, c, np.random.default_rng(ss)) for c, ss in zip(counts, children)])
        vals = np.exp(1j * ((np.abs(u) ** 2) @ lam_v) @ xdiag)
        mean = scale * vals.mean()
        stderr = scale * np.sqrt((np.abs(vals - vals.mean()) ** 2).mean() / len(vals))
        assert abs(est.value - mean) <= 1e-14, n
        if n == 1:
            # the integrand is the constant e^{i lam x}: both standard errors
            # are zero up to the roundoff of 1 - |mean|^2, a few ulp
            floor = math.sqrt(8 * np.finfo(float).eps / n_samples)
            assert est.stderr <= floor and stderr <= floor
        else:
            assert abs(est.stderr - stderr) <= 1e-12 * stderr, n


def test_hciz_matches_rdv():
    rng = random.Random(33)
    for n, rs in ((2, A2), (3, A3)):
        for _ in range(20):
            lam = []
            while len(set(lam)) != n:
                lam = [rng.randint(-5, 5) for _ in range(n)]
            x = [rng.uniform(-3, 3) for _ in range(n)]
            while min(abs(x[i] - x[j]) for i in range(n) for j in range(i + 1, n)) < 0.15:
                x = [rng.uniform(-3, 3) for _ in range(n)]
            op = orbit_parameter(rs, rs, lam)
            a = rdv_fourier(rs, rs, op, x)
            b = orbit_integral_oracle(n, lam, x, method="hciz").value
            assert abs(a - b) <= 1e-10 * abs(b)


def test_hciz_rejects_degenerate_lambda():
    with pytest.raises(MonteCarloOnly):
        hciz_mean([1.0, 1.0], [0.5, 1.5])


def test_monte_carlo_agrees_within_three_sigma():
    est = orbit_integral_oracle(2, [1, 0], [1.0, -0.5], n_samples=200_000, seed=7, method="mc")
    op = orbit_parameter(A2, A2, [1, 0])
    truth = rdv_fourier(A2, A2, op, [1.0, -0.5])
    assert abs(est.value - truth) <= 3 * est.stderr
    assert est.stderr < 0.01


def test_small_x_limit_matches_liouville_scaling():
    # as X -> 0 the transform tends to liouville / prod_{k<n} k!
    op = orbit_parameter(A2, A2, [2, 0])
    x = (1e-4, -0.7e-4)
    val = rdv_fourier(A2, A2, op, x)
    assert abs(val - liouville_normalization(op)) <= 1e-2 * liouville_normalization(op)


def test_monte_carlo_rejects_non_positive_sample_counts():
    for n_samples in (0, -5):
        with pytest.raises(ValueError, match="n_samples"):
            orbit_integral_oracle(2, [1, 0], [1.0, -0.5], n_samples=n_samples, method="mc")
