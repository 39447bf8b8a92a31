"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line with the measured quantities once its
assertions hold, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist.  Tolerances and instance counts here are contractual; loosening
them is an API break, not a test fix.
"""

import collections
import itertools
import random
import time
from fractions import Fraction

import numpy as np

from triplekit import (
    CosineProfile,
    ConstantProfile,
    SolveStatus,
    SubtripleInvariants,
    TripleInvariants,
    build_problem,
    check_slope_equivalence,
    dual_invariants,
    dual_parameter,
    dual_subtriple,
    enumerate_walls,
    kernel_image_identity,
    moduli_dimension,
    mu_sigma,
    residual,
    solve,
    theta_tau,
)
from triplekit.vortex import TWO_PI

from conftest import (
    brute_force_walls,
    descent_witness,
    identity_defect,
    random_dualizable_subtriple,
    random_positive_sigma,
    random_proper_subtriple,
    random_sigma,
    random_subtriple,
    random_triple,
    smooth_field,
)


def test_criterion_1_definition_sign_equivalence():
    rng = random.Random(10001)
    count = 10_000
    t0 = time.perf_counter()
    for _ in range(count):
        T = random_triple(rng, max_rank=6, max_deg=20)
        Tp = random_subtriple(rng, T, max_deg=20)
        sigma = random_sigma(rng, max_num=60, max_den=12)
        tau = mu_sigma(T, sigma)
        th = theta_tau(T, Tp, tau)
        diff = mu_sigma(Tp, sigma) - mu_sigma(T, sigma)
        assert (th > 0) == (diff > 0) and (th == 0) == (diff == 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 1: sign equivalence on {count} instances in {elapsed:.2f}s")


def test_criterion_2_duality_involution():
    rng = random.Random(10002)
    count = 10_000
    t0 = time.perf_counter()
    for _ in range(count):
        T = random_triple(rng, max_rank=6, max_deg=20)
        Tp = random_dualizable_subtriple(rng, T, max_deg=20)
        sigma = random_sigma(rng, max_num=60, max_den=12)
        tau = mu_sigma(T, sigma)
        th = theta_tau(T, Tp, tau)
        th_dual = theta_tau(dual_invariants(T), dual_subtriple(T, Tp), dual_parameter(T, tau))
        assert (th < 0) == (th_dual < 0) and (th == 0) == (th_dual == 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 2: duality sign preservation on {count} instances in {elapsed:.2f}s")


def _random_exact_sequence(rng, T):
    # kernel/image rank splits with forced degrees in the full and empty
    # slots; both pieces must be nontrivial
    while True:
        k1 = rng.randint(0, T.r1)
        k2 = rng.randint(0, T.r2)
        if (k1, k2) in ((0, 0), (T.r1, T.r2)):
            continue
        if k1 == 0:
            dk1 = 0
        elif k1 == T.r1:
            dk1 = T.d1
        else:
            dk1 = rng.randint(-20, 20)
        if k2 == 0:
            dk2 = 0
        elif k2 == T.r2:
            dk2 = T.d2
        else:
            dk2 = rng.randint(-20, 20)
        K = SubtripleInvariants(k1, k2, dk1, dk2)
        I = SubtripleInvariants(T.r1 - k1, T.r2 - k2, T.d1 - dk1, T.d2 - dk2)
        return K, I


def test_criterion_3_kernel_image_identity():
    rng = random.Random(10003)
    count = 1_000
    for _ in range(count):
        T = random_triple(rng, max_rank=6, max_deg=20)
        K, I = _random_exact_sequence(rng, T)
        tau = random_sigma(rng, max_num=60, max_den=12)
        assert kernel_image_identity(T, K, I, tau) == 0
    print(f"PASS criterion 3: rank-weighted kernel/image combination vanishes "
          f"on {count} exact sequences")


def test_criterion_4_wall_soundness():
    checked = 0
    for r1, r2 in itertools.product((1, 2), repeat=2):
        for d1, d2 in itertools.product(range(-3, 4), repeat=2):
            T = TripleInvariants(r1, r2, d1, d2)
            assert enumerate_walls(T, 6).walls == brute_force_walls(T, 6)
            checked += 1
    worked = TripleInvariants(2, 1, 2, 0)
    dec = enumerate_walls(worked, 6)
    assert (dec.interval.lower, dec.interval.upper) == (1, 2)
    assert dec.walls == [Fraction(3, 2)]
    assert moduli_dimension(worked, 2) == 6
    print(f"PASS criterion 4: walls match brute force on {checked} triples, "
          f"worked instance (1,2)/[3/2]/dim 6")


def test_criterion_5_three_way_slope_equivalence():
    rng = random.Random(10005)
    count = 10_000
    for _ in range(count):
        T = random_triple(rng, max_rank=6, max_deg=20)
        Tp = random_proper_subtriple(rng, T, max_deg=20)
        sigma = random_positive_sigma(rng, max_num=60, max_den=12)
        eq = check_slope_equivalence(T, Tp, sigma)
        assert eq.f_slope_test == eq.theta_test == eq.sigma_slope_test
    print(f"PASS criterion 5: three-way equivalence on {count} instances")


def test_criterion_6_vortex_closed_form():
    t0 = time.perf_counter()
    p = build_problem(64, 0, 0, 2.0, ConstantProfile(float(np.pi)))
    s = solve(p, tol=1e-12)
    elapsed = time.perf_counter() - t0
    assert s.feasible
    v = s.u1 - s.u2
    dev = float(np.abs(v - 0.5 * np.log(2.0)).max())
    assert dev < 1e-12
    assert s.residual_sup < 1e-12
    assert elapsed < 2.0
    print(f"PASS criterion 6: closed form dev {dev:.2e}, residual {s.residual_sup:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_7_threshold_at_desk_scale():
    t0 = time.perf_counter()
    profile = CosineProfile(3.14159, 1.5)
    worst_res = 0.0
    worst_defect = 0.0
    certificates = collections.Counter()
    for dd in (0, 1):
        d1, d2 = dd, 0
        for off in (0.5, 1.0, 2.0):
            p = build_problem(64, d1, d2, dd + off, profile)
            s = solve(p)
            assert s.feasible, f"expected feasible at sigma={dd + off}, d=({d1},{d2})"
            assert s.residual_sup < 1e-10
            defect = identity_defect(p, s.v)
            assert defect < 1e-8
            worst_res = max(worst_res, s.residual_sup)
            worst_defect = max(worst_defect, defect)
        for sigma in (dd - 0.5, float(dd)):
            p = build_problem(64, d1, d2, sigma, profile)
            s = solve(p)
            assert not s.feasible, f"expected infeasible at sigma={sigma}, d=({d1},{d2})"
            assert s.certificate is not None, "infeasible verdict must carry a certificate"
            assert s.certificate.startswith("integral obstruction:")
            certificates[s.certificate.split(":")[0]] += 1
            # a descent on E that shares no code with the solver, as a
            # witness independent of the proof
            status, certificate, _ = descent_witness(p)
            assert status is not SolveStatus.FEASIBLE, f"the witness 'solved' sigma={sigma}"
            assert certificate is not None, "the witness's verdict must carry a certificate"
            certificates[certificate.split(":")[0]] += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 7: threshold switch at both degree gaps, worst residual "
          f"{worst_res:.2e}, worst integral defect {worst_defect:.2e}, certificates "
          f"{dict(certificates)}, {elapsed:.1f}s")


def test_criterion_8_jacobian_central_differences():
    rng = np.random.default_rng(10008)
    p = build_problem(32, 1, 0, 1.5, CosineProfile(2.0, 0.7))

    def G(field):
        return 2.0 * residual(p, 0.5 * field, -0.5 * field).res2

    eps = 1e-6
    worst = 0.0
    for _ in range(10):
        v = smooth_field(32, 3, 0.3, rng)
        w = smooth_field(32, 3, 0.3, rng)
        fd = (G(v + eps * w) - G(v - eps * w)) / (2.0 * eps)
        analytic = p.grid.laplacian(w) - 4.0 * p.phi_sq * np.exp(2.0 * v) * w
        rel = float(np.abs(fd - analytic).max() / np.abs(analytic).max())
        worst = max(worst, rel)
        assert rel < 1e-5
    print(f"PASS criterion 8: Jacobian vs central differences, worst rel {worst:.2e}")


def test_criterion_9_dimension_duality_invariance():
    rng = random.Random(10009)
    count = 1_000
    for _ in range(count):
        T = random_triple(rng, max_rank=6, max_deg=20)
        g = rng.randint(0, 5)
        assert moduli_dimension(T, g) == moduli_dimension(dual_invariants(T), g)
    print(f"PASS criterion 9: dimension duality on {count} instances")
