import cmath
import math
import random

import numpy as np
import pytest

from howechar.errors import MonteCarloOnly, SingularPoint
from howechar.orbits import (
    MC_BATCH,
    _haar_columns,
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


def _phase_fixed_qr(n, count, rng):
    # reference kernel: Householder QR of [sqrt(e) | z_1 ... z_{n-2} | z], the
    # first n-1 columns drawn as _haar_columns draws them and the last one an
    # extra Gaussian column, with R's diagonal phases moved into Q so that R
    # has a positive diagonal
    cols = []
    if n > 1:
        cols.append(np.sqrt(rng.standard_exponential((n, count))))
        z = rng.standard_normal((2, n - 2, n, count))
        cols.extend(z[0] + 1j * z[1])
    cols.append(rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count)))
    q, r = np.linalg.qr(np.stack(cols).transpose(2, 1, 0))
    d = np.einsum("bii->bi", r)
    return q * (d / np.abs(d))[:, None, :]


def _columns(n, count, rng):
    # the first n-1 Haar columns as a complex (sample, row, column) array
    re, im = _haar_columns(n, count, rng)
    return (re + 1j * im).transpose(2, 1, 0)


def _max_gram_error(q):
    gram = np.einsum("bki,bkj->bij", np.conj(q), q)
    return np.abs(gram - np.eye(q.shape[2])).max(initial=0.0)


def test_haar_columns_are_orthonormal():
    for n in (1, 2, 3, 5):
        q = _columns(n, 4096, np.random.default_rng(0))
        assert q.shape == (4096, n, n - 1)
        assert _max_gram_error(q) <= 1e-13


class _NearlyDependentColumns:
    # stands in for a Generator: every Gaussian column differs from the real
    # first column sqrt(e / sum e) by 1e-6 times a random vector
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def standard_exponential(self, shape):
        self.e = self.rng.standard_exponential(shape)
        return self.e

    def standard_normal(self, shape):
        z = 1e-6 * self.rng.standard_normal(shape)
        z[0] += np.sqrt(self.e / self.e.sum(0))
        return z


def test_haar_columns_stay_orthonormal_on_nearly_dependent_columns():
    # one Gram-Schmidt pass leaves errors near 1e-8 here; the second pass
    # brings the columns back to orthogonal at machine precision
    for n in (2, 3, 5):
        q = _columns(n, 4096, _NearlyDependentColumns(3))
        assert _max_gram_error(q) <= 1e-13


def test_haar_columns_match_phase_fixed_qr():
    # QR with a positive-diagonal R is unique, so both kernels must return
    # the same first n-1 columns for the same draws, up to roundoff
    for n in (1, 2, 3, 5):
        q = _columns(n, 4096, np.random.default_rng(11 + n))
        ref = _phase_fixed_qr(n, 4096, np.random.default_rng(11 + n))
        assert np.abs(q - ref[:, :, : n - 1]).max(initial=0.0) <= 1e-12


class _CountingGenerator:
    # stands in for a Generator and counts the variates drawn of each kind
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = {"standard_exponential": 0, "standard_normal": 0}

    def standard_exponential(self, shape):
        self.drawn["standard_exponential"] += math.prod(shape)
        return self.rng.standard_exponential(shape)

    def standard_normal(self, shape):
        self.drawn["standard_normal"] += math.prod(shape)
        return self.rng.standard_normal(shape)


def test_haar_columns_draw_n_exponentials_and_2n_n_minus_2_normals_per_sample():
    count = 1000
    for n in range(1, 6):
        rng = _CountingGenerator(n)
        _haar_columns(n, count, rng)
        expect_exp, expect_normal = (n, 2 * n * (n - 2)) if n > 1 else (0, 0)
        assert rng.drawn == {"standard_exponential": expect_exp * count, "standard_normal": expect_normal * count}


def test_haar_weights_match_weingarten_moments():
    # exact Haar moments of w_ij = |u_ij|^2 (Collins-Sniady): E w = 1/n,
    # E w^2 = 2/(n(n+1)), E w_i0 w_i1 = 1/(n(n+1)), E w_00 w_11 = 1/(n^2-1);
    # each sample mean lies within 5 standard errors
    count = 200_000
    for n in (2, 3, 4, 5):
        re, im = _haar_columns(n, count, np.random.default_rng(100 + n))
        w = re * re + im * im
        w = np.concatenate([w, 1.0 - w.sum(0, keepdims=True)])  # (column, row, sample)
        moments = [(w[j, i], 1 / n) for i in range(n) for j in range(n)]
        moments += [(w[j, i] ** 2, 2 / (n * (n + 1))) for i in range(n) for j in range(n)]
        moments += [(w[0, i] * w[1, i], 1 / (n * (n + 1))) for i in range(n)]
        moments.append((w[0, 0] * w[1, 1], 1 / (n * n - 1)))
        for sample, exact in moments:
            stderr = sample.std() / math.sqrt(count)
            assert abs(sample.mean() - exact) <= 5 * stderr, (n, exact)


def test_monte_carlo_stderr_matches_two_pass_formula():
    # redraw each of the oracle's chunks from the same child seed, complete it
    # to a full unitary by the phase-fixed QR reference and take the mean and
    # the two-pass standard error from the full |U|^2; lam has a nonzero last
    # entry, so the weights of the last column enter the integrand
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
        u = np.concatenate([_phase_fixed_qr(n, c, np.random.default_rng(ss)) for c, ss in zip(counts, children)])
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


def test_oracle_rejects_non_finite_input():
    for method in ("mc", "hciz"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="X must be finite"):
                orbit_integral_oracle(2, [1, 0], [bad, 0.5], n_samples=10, method=method)
            with pytest.raises(ValueError, match="lam must be finite"):
                orbit_integral_oracle(2, [bad, 0], [1.0, 0.5], n_samples=10, method=method)
