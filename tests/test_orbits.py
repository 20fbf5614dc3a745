import cmath
import math
import random

import numpy as np
import pytest

from howechar.errors import MonteCarloOnly, SingularPoint
from howechar.orbits import (
    haar_unitaries,
    hciz_mean,
    liouville_normalization,
    orbit_integral_oracle,
    orbit_parameter,
    rdv_fourier,
)
from howechar.rootsys import act, build_root_system, weyl_elements

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)


def test_rdv_reference_value():
    op = orbit_parameter(A2, A2, [1, 0])
    val = rdv_fourier(A2, A2, op, (math.pi, 0.0))
    # two-term sum [e^{i pi} - 1]/(i pi) = 2i/pi, frozen by hand
    assert abs(val - 2j / math.pi) < 1e-12


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


def test_haar_unitaries_are_unitary():
    rng = np.random.default_rng(0)
    u = haar_unitaries(3, 8, rng)
    eye = np.einsum("bij,bkj->bik", u, np.conj(u))
    assert np.abs(eye - np.eye(3)).max() < 1e-12


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


def test_threads_env_var_respected(monkeypatch):
    monkeypatch.setenv("HOWECHAR_THREADS", "2")
    est = orbit_integral_oracle(2, [1, 0], [0.9, -0.4], n_samples=50_000, seed=3, method="mc")
    op = orbit_parameter(A2, A2, [1, 0])
    truth = rdv_fourier(A2, A2, op, [0.9, -0.4])
    assert abs(est.value - truth) <= 4 * est.stderr


def test_monte_carlo_bytes_do_not_depend_on_thread_count(monkeypatch):
    # samples come in fixed-size chunks with one child seed each, so the
    # worker count only changes who draws a chunk, not what is drawn
    runs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("HOWECHAR_THREADS", threads)
        runs.append(orbit_integral_oracle(2, [1, 0], [1.0, -0.5], n_samples=20_000, seed=3, method="mc", batch=1000))
    assert runs[0].value == runs[1].value
    assert runs[0].stderr == runs[1].stderr


def test_monte_carlo_rejects_non_positive_sample_counts():
    for n_samples in (0, -5):
        with pytest.raises(ValueError, match="n_samples"):
            orbit_integral_oracle(2, [1, 0], [1.0, -0.5], n_samples=n_samples, method="mc")
