import cmath
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from howechar.errors import SingularPoint
from howechar.orbits import (
    COND_GUARD,
    MC_BATCH,
    _column_forms,
    orbit_integral_oracle,
    rdv_fourier,
)
from howechar.rootsys import act, build_root_system, sign, weight, weight_dot, weyl_elements
from howechar.verify import orbit_draw, rdv_weyl_sum

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)


def test_rdv_reference_value():
    val = rdv_fourier([1, 0], (math.pi, 0.0))
    # two-term sum [e^{i pi} - 1]/(i pi) = 2i/pi, frozen by hand
    assert abs(val - 2j / math.pi) < 1e-12
    # lam as Fractions, as their strings or in another order is the same lam
    for lam in (weight(1, 0), ["1", "0"], ("2/2", Fraction(0, 3)), [0, 1]):
        assert rdv_fourier(lam, (math.pi, 0.0)) == val, lam


def test_rdv_singular_orbit_parameter():
    # lam = (1, 1) pairs positively with no root: F is the one exponential
    x = (1.0, 2.0)
    assert abs(rdv_fourier([1, 1], x) - cmath.exp(3j)) < 1e-12


def test_rdv_weyl_invariance_in_lambda_and_x():
    rng = random.Random(31)
    lam = weight(2, -1)
    elems = list(weyl_elements(A2))
    for _ in range(20):
        x = (rng.uniform(0.3, 3.0), rng.uniform(-3.0, -0.3))
        w = rng.choice(elems)
        a = rdv_fourier(lam, x)
        assert abs(rdv_fourier(act(w, lam), x) - a) < 1e-12 * max(1.0, abs(a))
        assert abs(rdv_fourier(lam, act(w, x)) - a) < 1e-10 * max(1.0, abs(a))


def test_rdv_homogeneity():
    # F_{t lam}(X) = F_lam(t X) t^{|P_lam|}, and P_lam = {e_1 - e_2} here
    x = (1.3, -0.4)
    t = 2.5
    a = rdv_fourier([1, 0], tuple(t * v for v in x))
    b = rdv_fourier([t, 0], x)
    assert abs(a - b / t) < 1e-12


def test_rdv_alternating_sum_identity():
    # prod_{alpha in P_lam} i<alpha, X> * F(X) equals the signed exponential sum
    rng = random.Random(32)
    lam = weight(3, 1, 0)
    p_lam = [alpha for alpha in A3.all_roots if weight_dot(lam, alpha) > 0]
    for _ in range(10):
        x = tuple(rng.uniform(-2, 2) for _ in range(3))
        if min(abs(x[i] - x[j]) for i in range(3) for j in range(i + 1, 3)) < 0.2:
            continue
        lhs = rdv_fourier(lam, x)
        for alpha in p_lam:
            lhs *= 1j * sum(float(c) * v for c, v in zip(alpha, x))
        rhs = sum(
            sign(w) * cmath.exp(1j * sum(float(c) * v for c, v in zip(act(w, lam), x)))
            for w in weyl_elements(A3)
        )
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_rdv_regularity_guard():
    with pytest.raises(SingularPoint):
        rdv_fourier([1, 0], (1.0, 1.0))


def _householder_unitaries(n, count, rng):
    # reference: all n columns of U as explicit matrix products, from the
    # draws _column_forms makes in the order it makes them.  Column j is B_j c_j
    # and B_{j+1} = B_j H_j[:, 1:] with the Householder H_j = I - u u*/h,
    # u = e_1 + c_j, h = 1 + c_j0; the last column is what B is left with.
    # Returns a complex (sample, row, column) array.
    basis = np.broadcast_to(np.eye(n, dtype=complex), (count, n, n))
    cols = []
    for m in range(n, 1, -1):
        if m == n:
            e = rng.standard_exponential((n, count))
            c = np.sqrt(e / e.sum(0)).astype(complex)
        elif m > 2:
            e = rng.standard_exponential((m, count))
            r = np.sqrt(e / e.sum(0))
            c = np.concatenate([r[:1], r[1:] * np.exp(2j * np.pi * rng.random((m - 1, count)))])
        else:
            a, phi = rng.random((2, count))
            c = np.stack([np.sqrt(a), np.sqrt(1 - a) * np.exp(2j * np.pi * phi)])
        c = c.T
        cols.append((basis @ c[:, :, None])[:, :, 0])
        u = c.copy()
        u[:, 0] += 1
        householder = np.eye(m) - u[:, :, None] * u[:, None, :].conj() / u[:, :1, None].real
        basis = basis @ householder[:, :, 1:]
    cols.append(basis[:, :, 0])
    return np.stack(cols, axis=2)


def _max_gram_error(q):
    gram = np.einsum("bki,bkj->bij", np.conj(q), q)
    return np.abs(gram - np.eye(q.shape[2])).max(initial=0.0)


X5 = np.array([1.0, -0.5, 0.7, -1.3, 0.2])


def _max_form_error(n, count, make_rng):
    # largest |x.|u_j|^2 - form_j| between _column_forms and the reference
    forms = _column_forms(n, X5[:n], count, make_rng())
    assert len(forms) == n - 1
    u = _householder_unitaries(n, count, make_rng())
    return max((np.abs(f - (np.abs(u[:, :, j]) ** 2) @ X5[:n]).max() for j, f in enumerate(forms)), default=0.0)


def test_householder_reference_is_orthonormal():
    for n in range(1, 6):
        u = _householder_unitaries(n, 4096, np.random.default_rng(n))
        assert u.shape == (4096, n, n)
        assert _max_gram_error(u) <= 1e-13


def test_column_forms_match_householder_reference():
    # the compressed form c* M c must give the reference's x.|u_j|^2 from the
    # same draws, up to roundoff
    for n in range(1, 6):
        assert _max_form_error(n, 4096, lambda: np.random.default_rng(11 + n)) <= 1e-13


class _ExtremeDraws:
    # stands in for a Generator: exponentials spread over 24 orders of
    # magnitude and uniforms within 1e-12 of 0 or 1, so the moduli of each
    # column are nearly a basis vector or nearly split between two entries
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def standard_exponential(self, shape):
        return 10.0 ** self.rng.uniform(-12, 12, shape)

    def random(self, shape):
        u = self.rng.random(shape)
        return np.where(u < 0.5, 1e-12 * u, 1 - 1e-12 * u)


def test_column_forms_match_reference_on_extreme_draws():
    # h = 1 + c_0 >= 1, so no step cancels, whichever entry the modulus sits in
    for n in range(2, 6):
        u = _householder_unitaries(n, 4096, _ExtremeDraws(3))
        assert _max_gram_error(u) <= 1e-13
        assert _max_form_error(n, 4096, lambda: _ExtremeDraws(3)) <= 1e-13


class _CountingGenerator:
    # stands in for a Generator and counts the variates drawn of each kind
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = {"standard_exponential": 0, "random": 0, "standard_normal": 0}

    def standard_exponential(self, shape):
        self.drawn["standard_exponential"] += math.prod(shape)
        return self.rng.standard_exponential(shape)

    def random(self, shape):
        self.drawn["random"] += math.prod(shape)
        return self.rng.random(shape)

    def standard_normal(self, shape):
        self.drawn["standard_normal"] += math.prod(shape)
        return self.rng.standard_normal(shape)


def test_column_forms_draw_exponentials_and_uniforms_only():
    # column 0 takes n exponentials, a middle column in C^m takes m
    # exponentials and m-1 uniforms, the last free column 2 uniforms
    count = 1000
    per_sample = {1: (0, 0), 2: (2, 0), 3: (3, 2), 4: (4 + 3, 2 + 2), 5: (5 + 4 + 3, 3 + 2 + 2)}
    for n, (exponentials, uniforms) in per_sample.items():
        rng = _CountingGenerator(n)
        _column_forms(n, X5[:n], count, rng)
        assert rng.drawn == {"standard_exponential": exponentials * count, "random": uniforms * count, "standard_normal": 0}


def test_haar_weights_match_weingarten_moments():
    # exact Haar moments of w_ij = |u_ij|^2 (Collins-Sniady): E w = 1/n,
    # E w^2 = 2/(n(n+1)), E w_i0 w_i1 = 1/(n(n+1)), E w_00 w_11 = 1/(n^2-1);
    # w_ij is the form of column j at x = e_i, drawn with the same seed for
    # every i; each sample mean lies within 5 standard errors
    count = 200_000
    for n in (2, 3, 4, 5):
        w = np.array([_column_forms(n, np.eye(n)[i], count, np.random.default_rng(100 + n)) for i in range(n)])
        w = np.concatenate([w, 1.0 - w.sum(1, keepdims=True)], axis=1).transpose(1, 0, 2)  # (column, row, sample)
        moments = [(w[j, i], 1 / n) for i in range(n) for j in range(n)]
        moments += [(w[j, i] ** 2, 2 / (n * (n + 1))) for i in range(n) for j in range(n)]
        moments += [(w[0, i] * w[1, i], 1 / (n * (n + 1))) for i in range(n)]
        moments.append((w[0, 0] * w[1, 1], 1 / (n * n - 1)))
        for sample, exact in moments:
            stderr = sample.std() / math.sqrt(count)
            assert abs(sample.mean() - exact) <= 5 * stderr, (n, exact)


def test_monte_carlo_stderr_matches_two_pass_formula():
    # redraw each of the oracle's chunks from the same child seed as full
    # unitaries by the Householder reference and take the mean and the
    # two-pass standard error from the full |U|^2; lam has a nonzero last
    # entry, so the weights of the last column enter the integrand
    n_samples, seed = 20_000, 5
    counts = [min(MC_BATCH, n_samples - i) for i in range(0, n_samples, MC_BATCH)]
    children = np.random.SeedSequence(seed).spawn(len(counts))
    for n in (1, 2, 3, 5):
        lam, x = [2, -1, 0, 3, 1][:n][::-1], [1.0, -0.5, 0.7, -1.3, 0.2][:n]
        est = orbit_integral_oracle(lam, x, n_samples=n_samples, seed=seed)
        superfactorial = math.prod(math.factorial(k) for k in range(1, n))
        scale = math.prod(abs(a - b) for a, b in itertools.combinations(lam, 2)) / superfactorial
        lam_v, xdiag = np.array(lam, dtype=float), np.array(x)
        u = np.concatenate([_householder_unitaries(n, c, np.random.default_rng(ss)) for c, ss in zip(counts, children)])
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


def test_monte_carlo_matches_hciz_at_every_rank():
    # the determinant closed form shares no code with the sampler
    lam = [3, 1, 0, -2, 4]
    x = [0.9, -0.4, 1.7, -1.2, 0.3]
    for n in (2, 3, 4, 5):
        est = orbit_integral_oracle(lam[:n], x[:n], n_samples=200_000, seed=n)
        truth = rdv_fourier(lam[:n], x[:n])
        assert abs(est.value - truth) <= 4 * est.stderr, n


def test_hciz_matches_rdv():
    # rdv's determinant form, which `oracle --method hciz` prints too, is held
    # to the Weyl sum over W/W_lam, with blocks of 1, 2 and 3 equal entries
    rng = random.Random(33)
    for n, block in ((2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (4, 3), (5, 3)):
        for _ in range(20):
            lam, x = orbit_draw(rng, n, block)
            truth = rdv_weyl_sum(lam, x)
            assert abs(rdv_fourier(lam, x) - truth) <= 1e-10 * abs(truth), (lam, x)


def test_rdv_accepts_only_the_unitary_group_of_the_point():
    # lam and X must both lie in the Cartan of one U(n)
    for lam, x in (([2, 1, 0], (0.1, 0.5)), ([2, 1], (0.1, 0.5, 0.9)), ([], (0.1,))):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            rdv_fourier(lam, x)
    with pytest.raises(ValueError, match="rank must be >= 1"):
        rdv_fourier([], [])


def test_monte_carlo_matches_rdv_on_repeated_entries():
    # an entry repeated k times divides the Haar average by sf(k) = prod_{j<k} j!
    # relative to F; the Liouville volume puts that factor back
    for lam, x in (
        ([1, 1, 1], [0.3, 0.5, 0.9]),
        ([2, 1, 1, 1], [0.3, 0.5, 0.9, -0.4]),
        ([1, 0, 1, 0, 1], [0.2, -0.7, 1.1, 0.5, -0.1]),
    ):
        n = len(lam)
        truth = rdv_fourier(lam, x)
        est = orbit_integral_oracle(lam, x, n_samples=100_000, seed=n)
        assert abs(est.value - truth) <= 4 * est.stderr + 1e-12 * abs(truth), (lam, est, truth)


def test_monte_carlo_agrees_within_three_sigma():
    est = orbit_integral_oracle([1, 0], [1.0, -0.5], n_samples=200_000, seed=7)
    truth = rdv_fourier([1, 0], [1.0, -0.5])
    assert abs(est.value - truth) <= 3 * est.stderr
    assert est.stderr < 0.01


def test_small_x_limit_matches_liouville_scaling():
    # as X -> 0 the transform tends to the Liouville volume of the orbit,
    # prod_{alpha in P_lam} <lam, alpha> / <rho, alpha> = 2 here
    x = (1e-4, -0.7e-4)
    val = rdv_fourier([2, 0], x)
    assert abs(val - 2.0) <= 1e-2 * 2.0


def test_monte_carlo_scale_is_exact_past_the_float_range():
    # at n = 30, prod <rho, alpha> = prod_{k<30} k! ~ 1e383 passes the float
    # range, and so does prod <lam, alpha> for lam = (0, 1, ..., 29); the
    # scale, their ratio, is 1 there and 2^-435 for lam / 2.  The oracle once
    # refused the first with a ValueError and raised OverflowError on the
    # second.  At X = 0 every sample is 1, so the estimate is the scale itself
    for step in (1, 2):
        lam = [Fraction(k, step) for k in range(30)]
        est = orbit_integral_oracle(lam, [0.0] * 30, n_samples=8)
        assert est.value == 2.0 ** (-435 * (step - 1)), step


def test_monte_carlo_rejects_non_positive_sample_counts():
    for n_samples in (0, -5):
        with pytest.raises(ValueError, match="n_samples"):
            orbit_integral_oracle([1, 0], [1.0, -0.5], n_samples=n_samples)


def test_oracle_rejects_non_finite_input():
    for bad in (math.nan, math.inf):
        for evaluate in (rdv_fourier, lambda lam, x: orbit_integral_oracle(lam, x, n_samples=10)):
            with pytest.raises(ValueError, match="X must be finite"):
                evaluate([1, 0], [bad, 0.5])
        with pytest.raises(ValueError, match="lam must be finite"):
            orbit_integral_oracle([bad, 0], [1.0, 0.5], n_samples=10)


def _mp_weyl_sum(lam, x):
    """The Weyl sum over W/W_lam in mpmath: over the distinct orderings of
    lam, e^{i<lam', x>} over prod of i(x_j - x_k) for lam'_j > lam'_k.  It
    carries enough digits for the cancellation, which loses about
    N log10(1 / min |x_j - x_k|) of them."""
    n = len(lam)
    gap = min(abs(x[j] - x[k]) for j in range(n) for k in range(j + 1, n))
    with mpmath.workdps(30 + math.ceil(n * (n - 1) / 2 * max(0.0, -math.log10(gap)))):
        xs = [mpmath.mpf(v) for v in x]  # the floats, exactly
        total = mpmath.mpc(0)
        for image in set(itertools.permutations(lam)):
            den = mpmath.mpc(1)
            for j in range(n):
                for k in range(n):
                    if image[j] > image[k]:
                        den *= 1j * (xs[j] - xs[k])
            total += mpmath.expj(mpmath.fsum(l * v for l, v in zip(image, xs))) / den
        return complex(total)


def test_rdv_matches_mpmath_where_the_weyl_sum_lost_digits():
    # the float Weyl sum was off by 3.3e-9 at the first point.  At the second,
    # cond_2(C) is 3.0e6 from the scale of the rows x_k^s alone, and the guard
    # once refused with a bound of 2.1e-8; with unit rows the bound is 1.0e-11,
    # and the error 3.8e-14.  At the third, the phases lam_j x_1 up to 9.1e9
    # are exact and the others err by at most 8.9e-16, yet the guard charged
    # each phase eps |lam_j x_k| and refused with a bound of 4.0e-5; the
    # error is 1.1e-15
    for lam, x in (
        ((4, 3, -2, -3), (-0.0262, -0.0129, 0.0212, 0.0294)),
        ((1, 1, 1, 1, 1, 0), (5, 10, 15, 20, 25, -3)),
        ((7, 3, -6), (1.3e9, 0.1, -2.2)),
    ):
        truth = _mp_weyl_sum(lam, x)
        assert abs(rdv_fourier(lam, x) - truth) <= 1e-10 * abs(truth), (lam, x)


def test_rdv_refuses_a_point_beyond_its_error_bound():
    # the float Weyl sum printed a value 93 % wrong at the first point; at the
    # second, the rounding of the phase 6 x_1 alone costs 1e-7 of the value
    for lam, x in (
        ((6, 3, 0, -1, -6), (-0.022, -0.0101, -0.0074, 0.0054, 0.008)),
        ((6, -6), (1e8 + 0.3, 0.1)),
    ):
        with pytest.raises(SingularPoint, match="error bound"):
            rdv_fourier(lam, x)


def test_every_answer_is_within_the_guard_of_mpmath():
    # a fixed sweep of x scaled from 1e6 down to 1e-6, with lam distinct or
    # with a block of 2 or 3: rdv answers within COND_GUARD of the Weyl sum
    # in mpmath, or raises SingularPoint
    rng = random.Random(20261020)
    answered = refused = 0
    for n, block in ((2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (4, 3), (5, 2), (6, 3)):
        lam, x = orbit_draw(rng, n, block)
        for scale in (1e6, 1e3, 1.0, 0.3, 0.1, 1e-2, 1e-3, 1e-4, 1e-6):
            xs = [scale * v for v in x]
            truth = _mp_weyl_sum(lam, xs)
            try:
                value = rdv_fourier(lam, xs)
            except SingularPoint:
                refused += 1
                continue
            answered += 1
            assert abs(value - truth) <= COND_GUARD * abs(truth), (lam, xs, value, truth)
    assert answered >= 40 and refused >= 10, (answered, refused)
