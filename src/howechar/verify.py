"""The check table behind `howechar verify` and tests/test_acceptance.py.

CHECKS holds one entry per acceptance criterion (labels 1-11) plus two
unnumbered invariants.  Each entry's function takes `quick` and returns a
detail line, or raises CheckFailed naming the failing case.  The full tier
runs the pinned acceptance ranges, seeds and tolerances; the quick tier
shrinks the ranges so the whole table finishes in a few seconds, and no
quick tolerance is looser than its full one.  Entries that take well under
a second at full size ignore `quick`.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import NotInCorrespondence, SingularPoint
from .howe import (
    PairKind,
    dual_pair,
    embedded_index_set,
    eta_cosets,
    eta_cosets_brute_force,
    kprime_weyl,
    project,
    support_interval,
    validate_weight,
    z_subsystem,
    z_weyl,
)
from .orbits import orbit_integral_oracle, rdv_fourier
from .rootsys import act, build_root_system, compose, rho, sign, weight, weight_dot, weyl_elements
from .thetachar import (
    ThetaCharacter,
    eta_exponents,
    ktype_expansion,
    theta_character,
    theta_eval,
    theta_numerator_form,
    theta_u1_closed,
    vandermonde_identity_check,
)
from .torus import eval_monomial, is_regular, random_regular, root_factor, weyl_denominator
from .weylchar import QuadratureGrid, character_numerators_on_grid, schur_oracle, weyl_character, weyl_dimension

F = Fraction


class CheckFailed(Exception):
    """An invariant of the table did not hold."""


class Check(NamedTuple):
    label: str
    name: str
    fn: Callable[[bool], str]


def _require(ok: bool, *context) -> None:
    if not ok:
        raise CheckFailed(repr(context))


def _partitions(total_max: int, length: int) -> list[tuple[int, ...]]:
    """Partitions of size <= total_max, padded with zeros to the length."""
    out = []

    def rec(rest, prev, acc):
        if len(acc) == length:
            out.append(tuple(acc))
            return
        for v in range(min(rest, prev), -1, -1):
            rec(rest - v, v, acc + [v])

    rec(total_max, total_max, [])
    return out


def _spread(vals) -> float:
    """Largest deviation from the mean, relative to the mean."""
    v = np.array(vals)
    return float(np.abs(v - v.mean()).max() / max(abs(v.mean()), 1e-300))


def schur_agreement(quick: bool) -> str:
    rng = random.Random(101)
    ns, top, draws = ((2, 3), 4, 5) if quick else ((1, 2, 3, 4), 6, 20)
    checked = 0
    for n in ns:
        rs = build_root_system("A", n)
        for lam in _partitions(top, n):
            for _ in range(draws):
                theta = random_regular(rs, rng)
                a = weyl_character(rs, weight(*lam), theta)
                b = schur_oracle(lam, [cmath.exp(1j * t) for t in theta])
                _require(abs(a - b) <= 1e-10 * max(1.0, abs(b)), n, lam, theta)
                checked += 1
    return f"weyl_character == schur_oracle at {checked} points (n <= {ns[-1]}, |lam| <= {top}, rel 1e-10)"


def dimension_count(quick: bool) -> str:
    checked = 0
    for n in (1, 2, 3, 4):
        rs = build_root_system("A", n)
        for lam in _partitions(6, n):
            dim = weyl_dimension(rs, weight(*lam))
            count = schur_oracle(lam, [1] * n)
            _require(dim == count, n, lam, dim, count)
            checked += 1
    return f"weyl_dimension == Gelfand-Tsetlin pattern count for {checked} weights, exactly"


def orthogonality(quick: bool) -> str:
    ns, n_grid, top, tol = ((2,), 32, 3, 1e-9) if quick else ((1, 2, 3), 64, 4, 1e-8)
    for n in ns:
        rs = build_root_system("A", n)
        pts = QuadratureGrid(n_grid, n).points()
        # chi_a conj(chi_b) |Delta|^2 == A_a conj(A_b) pointwise, so the
        # uniform average of numerator products is the quadrature value
        nums = np.stack([character_numerators_on_grid(rs, weight(*lam), pts) for lam in _partitions(top, n)])
        gram = nums @ nums.conj().T / pts.shape[0] / math.factorial(n)
        err = np.abs(gram - np.eye(len(nums))).max()
        _require(err <= tol, n, err)
    return f"Gram matrix of Weyl numerators on the grid == identity for |lam| <= {top}, n <= {ns[-1]}, N = {n_grid} ({tol:g})"


def partial_fraction_identity(quick: bool) -> str:
    top = 5 if quick else 8
    checked = 0
    for total in range(2, top + 1):
        for p in range(1, total):
            q = total - p
            for k in range(0, total - 1):
                verdict = vandermonde_identity_check(p, q, k, mode="deterministic-grid")
                _require(verdict.status == "proved", p, q, k, verdict)
                checked += 1
    return f"identity proved deterministically for all p+q <= {top}, k in range ({checked} cases, exact)"


def m_independence(quick: bool) -> str:
    rng = random.Random(105)
    sizes, draws = (((1, 1), (2, 1), (2, 2)), 6) if quick else (itertools.product((1, 2, 3), repeat=2), 10)
    measured = []
    for p, q in sizes:
        pair = dual_pair("uu", 1, p=p, q=q)
        for lam1 in range(-q + 1, p):
            nu = [F(q - p, 2) + lam1]
            tc0 = theta_character(pair, nu, m=0)
            tc1 = theta_character(pair, nu, m=1)
            ratios = []
            for _ in range(draws):
                th = random_regular(pair.rs_gprime, rng)
                ratios.append(theta_eval(tc0, th) / theta_eval(tc1, th))
            _require(_spread(ratios) <= 1e-9, p, q, lam1)
            measured.append((p, q, lam1, complex(np.mean(ratios))))
    # (p, q) = (1, 1): the measured ratio equals the -1 of the B.2 identity
    # combined with the (-1)^{p+q-1} reorientation of the m=0 denominators,
    # after the (p-1)!q! vs p!(q-1)! factors
    predicted = (-1) ** 2 * math.factorial(1) * math.factorial(0) / (math.factorial(0) * math.factorial(1))
    for p, q, lam1, r in measured:
        # the ratio is real; print its real part so roundoff in Im r never shows
        _require(abs(r.imag) <= 1e-9 * abs(r), p, q, lam1, r)
        if (p, q) == (1, 1):
            _require(abs(r - predicted) <= 1e-9, lam1, r, predicted)
    lines = ", ".join(f"(p={p},q={q},l={l}): {r.real:.3g}" for p, q, l, r in measured)
    return f"theta(m=0)/theta(m=1) constant (spread <= 1e-9); measured ratios {lines}"


def closed_forms(quick: bool) -> str:
    rng = random.Random(106)
    sizes, draws = (((1, 1), (2, 1), (1, 2), (2, 2)), 6) if quick else (itertools.product((1, 2, 3), repeat=2), 10)
    checked = 0
    for p, q in sizes:
        pair = dual_pair("uu", 1, p=p, q=q)
        for lam1 in (-q, 0, p) if quick else range(-q - 1, p + 2):
            tc = theta_character(pair, [F(q - p, 2) + lam1])
            ratios = []
            for _ in range(draws):
                th = random_regular(pair.rs_gprime, rng)
                ratios.append(theta_u1_closed(p, q, lam1, tc.m, th) / theta_eval(tc, th))
            _require(_spread(ratios) <= 1e-9, p, q, lam1)
            checked += 1
    return f"theta_eval == closed forms up to one constant per instance ({checked} instances, 1e-9)"


def theta_double_sum(tc: ThetaCharacter, theta_prime) -> complex:
    """The paper's formula, the reference of criterion 7: the alternating sum
    over W(K') and the eta cosets, over the Weyl denominator of the roots that
    touch the embedded torus.  It shares no evaluation code with theta_eval.
    """
    pair, rs = tc.pair, tc.pair.rs_gprime
    if not is_regular(rs, theta_prime):
        raise SingularPoint("point too close to the singular set")
    embedded = embedded_index_set(pair, tc.m)
    touching = [alpha for alpha in rs.positive_roots if any(alpha[i] != 0 for i in embedded)]
    exponents = eta_exponents(tc)
    total = complex(0.0)
    for sigma in kprime_weyl(pair):
        point = act(sigma, theta_prime)
        pr = project(pair, tc.m, point)
        num = sum(sgn_eta * eval_monomial(pr, expo) for sgn_eta, expo in exponents)
        total += num / math.prod(root_factor(alpha, point) for alpha in touching)
    return total


def numerator_consistency(quick: bool) -> str:
    rng = random.Random(107)
    cases = []
    for p, q in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)):
        for n in (1, 2):
            cases.append((dual_pair("uu", n, p=p, q=q), [F(q - p, 2) + (1 - i) for i in range(n)]))
    cases += [
        (dual_pair("oeven-sp", 2, m=3), [2, 0]),
        (dual_pair("oodd-sp", 2, m=3), [1, 0]),
        (dual_pair("uh-ostar", 2, m=3), [1, 1]),
    ]
    for pair, nu in cases:
        tc = theta_character(pair, nu)
        numerator, theta = [], []
        for _ in range(10):
            th = random_regular(pair.rs_gprime, rng)
            reference = theta_double_sum(tc, th)
            numerator.append(theta_numerator_form(tc, th) / (weyl_denominator(pair.rs_gprime, th) * reference))
            theta.append(theta_eval(tc, th) / reference)
        for ratios in (numerator, theta):
            # the orbit table is the double sum rewritten exactly, so the
            # constant is 1 in this normalization
            _require(_spread(ratios) <= 1e-9 and abs(np.mean(ratios) - 1) <= 1e-9, pair.kind, nu, ratios)
    return f"numerator form / (Delta * theta) constant for {len(cases)} instances (spread <= 1e-9)"


def support_tables(quick: bool) -> str:
    # rank-one case table for all lam1 in [-q-2, p+2], p, q <= 4
    for p in range(1, 5):
        for q in range(1, 5):
            pair = dual_pair("uu", 1, p=p, q=q)
            for lam1 in range(-q - 2, p + 3):
                iv = support_interval(pair, validate_weight(pair, [F(q - p, 2) + lam1]))
                if lam1 <= -q:
                    expected = (1, 1)
                elif lam1 >= p:
                    expected = (0, 0)
                else:
                    expected = (0, 1)
                _require((iv.lo, iv.hi) == expected, p, q, lam1, iv)
    # 20 enumerated instances for the Sp pairs, checked against inline a/b
    checked = 0
    for kind, shift_fn in (
        ("oeven-sp", lambda n, m: F(m - n)),
        ("oodd-sp", lambda n, m: F(m - n) - F(1, 2)),
    ):
        for n, m in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
            pair = dual_pair(kind, n, m=m)
            dominant = (nu for nu in itertools.product(range(4), repeat=n) if all(a >= b for a, b in zip(nu, nu[1:])))
            for nu in itertools.islice(dominant, 2):
                cd = validate_weight(pair, list(nu))
                iv = support_interval(pair, cd)
                s = shift_fn(n, m)
                a = [mp - s for mp in cd.mu_prime]
                b = [-mp - s for mp in cd.mu_prime]
                lo = max((k + 1 for k in range(n) if b[k] >= 1), default=0)
                hi = min((k + 1 for k in range(n) if a[k] >= 1), default=n + 1) - 1
                _require((iv.lo, iv.hi) == (lo, hi), kind, n, m, nu)
                _require(iv.a == tuple(a) and iv.b == tuple(b), kind, n, m, nu)
                checked += 1
    _require(checked == 20, checked)
    return "support intervals match the rank-one case table (p,q <= 4) and 20 hand-checked Sp instances"


def rdv_weyl_sum(lam, X) -> complex:
    """The orbit Fourier transform of U(n) as the paper writes it, the sum
    over W/W^lam of e^{i<w lam, X>} / prod_{alpha in P_lam} i<w alpha, X>,
    with P_lam = {alpha : <lam, alpha> > 0}, walking every Weyl element: the
    reference of criterion 9.  It guards nothing, so callers pass points
    well away from the walls."""
    lam = weight(*lam)
    rs = build_root_system("A", len(lam))
    p_lam = [alpha for alpha in rs.all_roots if weight_dot(lam, alpha) > 0]
    x = [float(v) for v in X]
    seen, total = set(), complex(0.0)
    for w in weyl_elements(rs):
        image = act(w, lam)
        if image not in seen:
            seen.add(image)
            den = math.prod(1j * sum(c * v for c, v in zip(act(w, alpha), x)) for alpha in p_lam)
            total += cmath.exp(1j * sum(float(c) * v for c, v in zip(image, x))) / den
    return total


def orbit_draw(rng: random.Random, n: int, block: int = 1) -> tuple[list[int], list[float]]:
    """lam in [-6, 6]^n with one block of `block` equal entries, in random
    order, and x in [-3, 3]^n with entries at least 0.15 apart."""
    values = rng.sample(range(-6, 7), n - block + 1)
    lam = values[:1] * block + values[1:]
    rng.shuffle(lam)
    x = [rng.uniform(-3, 3) for _ in range(n)]
    while min(abs(x[i] - x[j]) for i in range(n) for j in range(i + 1, n)) < 0.15:
        x = [rng.uniform(-3, 3) for _ in range(n)]
    return lam, x


def rdv_oracles(quick: bool) -> str:
    rng = random.Random(109)
    draws, samples, mc_cases = (10, 10**5, 1) if quick else (20, 10**6, 2)
    cases = ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3))  # (n, size of the block of equal entries)
    for n, block in cases:
        for _ in range(draws):
            lam, x = orbit_draw(rng, n, block)
            truth = rdv_weyl_sum(lam, x)
            _require(abs(rdv_fourier(lam, x) - truth) <= 1e-10 * abs(truth), n, lam, x)
    zs = []
    for n, lam, x in ((2, [1, 0], [1.0, -0.5]), (3, [2, 1, -1], [1.2, 0.3, -0.9]))[:mc_cases]:
        est = orbit_integral_oracle(lam, x, n_samples=samples, seed=1109)
        truth = rdv_fourier(lam, x)
        z = abs(est.value - truth) / est.stderr
        _require(z <= 3.0, n, lam, x, z)
        zs.append(z)
    return (
        f"rdv == the Weyl sum ({len(cases) * draws} draws, blocks of 1-3 equal entries, rel 1e-10);"
        f" Monte-Carlo z-scores {[f'{z:.2f}' for z in zs]} at {samples:.0e} samples"
    )


def ktype_ladders(quick: bool) -> str:
    cases = [(dual_pair("uu", 1, p=1, q=1), (lam1,)) for lam1 in range(-3, 4)]
    cases += [
        (dual_pair("oeven-sp", 1, m=2), (2,)),
        (dual_pair("oodd-sp", 1, m=1), (1,)),
        (dual_pair("uh-ostar", 1, m=2), (1,)),
    ]
    for pair, nu in cases:
        tc = theta_character(pair, nu)
        kt = ktype_expansion(tc, depth=20)
        _require(all(isinstance(v, int) and v >= 0 for v in kt.values()), pair.kind, nu, kt)
        _require(next(iter(kt.values())) == 1, pair.kind, nu, kt)
        if pair.kind is PairKind.UU:
            # independent rank-one oracle: the single inverse factor is the
            # geometric series 1/(1 - h^{-beta}) shifted by the lowest weight
            mu_p = F(nu[0])
            if tc.m == 1:
                expected = [(-mu_p - F(1, 2) - k, F(1, 2) + k) for k in range(21)]
            else:
                expected = [(-F(1, 2) - k, -mu_p + F(1, 2) + k) for k in range(21)]
            _require(list(kt) == expected and set(kt.values()) == {1}, nu, kt)
    return "K-type multiplicities nonneg integers, minimal type multiplicity 1; rank-one ladder exact"


def denominator_identity(quick: bool) -> str:
    rng = random.Random(111)
    systems = []
    for pair, m in (
        (dual_pair("uu", 2, p=2, q=2), 1),
        (dual_pair("uu", 2, p=2, q=2), 2),
        (dual_pair("oeven-sp", 1, m=2), 1),
        (dual_pair("oodd-sp", 1, m=3), 1),
        (dual_pair("uh-ostar", 1, m=3), 1),
    ):
        m_eff = m if pair.kind is PairKind.UU else pair.n
        systems.append((z_subsystem(pair, m_eff), list(z_weyl(pair, m_eff))))
    # the same identity for full systems through their own Weyl groups
    for family, rank in (("A", 3), ("B", 2), ("C", 2), ("D", 3)):
        rs = build_root_system(family, rank)
        systems.append((rs, list(weyl_elements(rs))))
    for rs, group in systems:
        r = rho(rs)
        for _ in range(50):
            th = tuple(rng.uniform(0.05, 2 * math.pi - 0.05) for _ in range(rs.rank))
            lhs = weyl_denominator(rs, th)
            rhs = sum(sign(w) * eval_monomial(th, act(w, r)) for w in group)
            _require(abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), rs.family, rs.rank, th)
    return f"product form == alternating sum for {len(systems)} subsystems at 50 points each (1e-10)"


def group_laws(quick: bool) -> str:
    rng = random.Random(20240601)
    for family, rank in (("A", 4), ("B", 3), ("C", 3), ("D", 3)):
        rs = build_root_system(family, rank)
        elements = list(weyl_elements(rs))
        for _ in range(50):
            w1, w2 = rng.choice(elements), rng.choice(elements)
            mu = tuple(F(rng.randint(-5, 5)) for _ in range(rank))
            _require(act(w1, act(w2, mu)) == act(compose(w1, w2), mu), family, w1, w2, mu)
            _require(sign(compose(w1, w2)) == sign(w1) * sign(w2), family, w1, w2)
        total = [F(0)] * rank
        for alpha in rs.positive_roots:
            total = [a + b for a, b in zip(total, alpha)]
        _require(tuple(total) == tuple(2 * c for c in rho(rs)), family, rank)
    return "act and sign are homomorphisms at 50 random pairs in A4, B3, C3, D3; positive roots sum to 2*rho"


def eta_coset_counts(quick: bool) -> str:
    checked = 0
    for n, p, q in ((2, 2, 2), (3, 3, 3), (4, 3, 3)):
        pair = dual_pair("uu", n, p=p, q=q)
        for nu_ints in itertools.product(range(-2, 3), repeat=n):
            if any(nu_ints[i] < nu_ints[i + 1] for i in range(n - 1)):
                continue
            try:
                cd = validate_weight(pair, [F(q - p, 2) + v for v in nu_ints])
            except NotInCorrespondence:
                continue
            iv = support_interval(pair, cd)
            for m in range(max(iv.lo, pair.n - q, 0), min(iv.hi, p, n) + 1):
                reps = eta_cosets(pair, iv, m)
                _require(len(reps) == eta_cosets_brute_force(pair, iv, m), n, nu_ints, m)
                _require(len({tuple(sorted(r.perm[:m])) for r in reps}) == len(reps), n, nu_ints, m)
                checked += 1
    return f"UU eta-coset representatives match the brute-force count, with distinct images, for {checked} (nu, m)"


CHECKS: tuple[Check, ...] = (
    Check("1", "weyl character vs schur oracle", schur_agreement),
    Check("2", "weyl dimension vs Gelfand-Tsetlin count", dimension_count),
    Check("3", "character orthogonality on the offset grid", orthogonality),
    Check("4", "partial-fraction identity (deterministic)", partial_fraction_identity),
    Check("5", "m-independence for rank-one pairs", m_independence),
    Check("6", "closed forms vs theta", closed_forms),
    Check("7", "numerator form and theta vs the double sum", numerator_consistency),
    Check("8", "support interval tables", support_tables),
    Check("9", "orbit transform vs the Weyl sum and the Monte-Carlo oracle", rdv_oracles),
    Check("10", "K-type ladders", ktype_ladders),
    Check("11", "weyl denominator identity", denominator_identity),
    Check("group-laws", "weyl group laws and 2*rho", group_laws),
    Check("eta-cosets", "eta coset counts vs brute force", eta_coset_counts),
)


def run_suite(quick: bool = False) -> bool:
    """Run every entry of CHECKS, printing one pass/fail line each."""
    ok = True
    for check in CHECKS:
        start = time.time()
        try:
            check.fn(quick)
            print(f"PASS  {check.name}  ({time.time() - start:.1f}s)")
        except Exception as exc:  # noqa: BLE001 - report and keep going
            print(f"FAIL  {check.name}: {type(exc).__name__}: {exc}")
            ok = False
    print("VERIFY", "OK" if ok else "FAILED")
    return ok
