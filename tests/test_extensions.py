import random
from fractions import Fraction

import pytest

from triplekit import (
    InvalidSubtripleError,
    ParameterRangeError,
    SubtripleInvariants,
    TripleInvariants,
    check_slope_equivalence,
    dual_invariants,
    dual_parameter,
    mu_sigma,
    parameter_interval,
    sigma_from_tau,
    theta_tau,
)
from triplekit import extensions
from triplekit.extensions import _f_slope

from conftest import random_positive_sigma, random_proper_subtriple, random_triple


def test_extension_invariants_example():
    # (1, 1, 1, 0) at sigma = 3: c1(F) = a + 2b, [omega_3] = (3/2)a + b,
    # so deg_3(F) = 1 + 3 = 4 on rank 2
    assert _f_slope(2, 1, 1, Fraction(3)) == 2
    # the first bundle alone: c1 = a pairs to 1 with [omega_sigma]
    assert _f_slope(1, 1, 0, Fraction(3)) == 1


def test_extension_requires_positive_sigma():
    T = TripleInvariants(1, 1, 1, 0)
    for sigma in (0, Fraction(-1, 2)):
        with pytest.raises(ParameterRangeError):
            check_slope_equivalence(T, SubtripleInvariants(1, 0, 1, 0), sigma)


def test_extension_slope_is_sigma_slope():
    # the intersection pairing on X x P^1 reproduces the sigma-slope
    # (d1 + d2 + r2*sigma)/(r1 + r2) of the triple and of each subtriple
    rng = random.Random(3)
    for _ in range(1000):
        T = random_triple(rng)
        sigma = random_positive_sigma(rng)
        assert _f_slope(T.total_rank, T.total_degree, T.r2, sigma) == mu_sigma(T, sigma)
        Tp = random_proper_subtriple(rng, T)
        assert _f_slope(Tp.total_rank, Tp.total_degree, Tp.r2p, sigma) == mu_sigma(Tp, sigma)


def test_f_slope_leg_is_independent_of_mu_sigma_and_theta(monkeypatch):
    # with mu_sigma and theta_tau broken inside the module, the f-slope leg
    # still gives its verdict and only the other two legs change
    rng = random.Random(5)
    cases = []
    for _ in range(200):
        T = random_triple(rng)
        cases.append((T, random_proper_subtriple(rng, T), random_positive_sigma(rng)))
    before = [check_slope_equivalence(*c) for c in cases]
    monkeypatch.setattr(extensions, "mu_sigma", lambda inv, sigma: Fraction(10**9))
    monkeypatch.setattr(extensions, "theta_tau", lambda T, Tp, tau: Fraction(1))
    after = [check_slope_equivalence(*c) for c in cases]
    assert [e.f_slope_test for e in after] == [e.f_slope_test for e in before]
    assert not any(e.theta_test or e.sigma_slope_test for e in after)
    assert any(e.f_slope_test for e in before) and not all(e.f_slope_test for e in before)


def test_check_slope_equivalence_rejects_bad_subobjects():
    T = TripleInvariants(2, 1, 2, 0)
    with pytest.raises(InvalidSubtripleError):
        check_slope_equivalence(T, SubtripleInvariants(0, 0, 0, 0), 1)
    with pytest.raises(InvalidSubtripleError):
        check_slope_equivalence(T, SubtripleInvariants(2, 1, 2, 0), 1)
    with pytest.raises(InvalidSubtripleError):
        check_slope_equivalence(T, SubtripleInvariants(3, 1, 0, 0), 1)


def test_three_way_equivalence_random():
    rng = random.Random(8675309)
    seen_true = seen_false = 0
    for _ in range(2000):
        T = random_triple(rng)
        Tp = random_proper_subtriple(rng, T)
        sigma = random_positive_sigma(rng)
        eq = check_slope_equivalence(T, Tp, sigma)
        assert eq.consistent
        assert eq.f_slope_test == eq.theta_test == eq.sigma_slope_test
        if eq.theta_test:
            seen_true += 1
        else:
            seen_false += 1
    # the sampler should exercise both outcomes
    assert seen_true > 100 and seen_false > 100


def test_dual_parameter_examples():
    T = TripleInvariants(1, 1, 1, 0)
    assert dual_parameter(T, 2) == 1
    assert sigma_from_tau(dual_invariants(T), 1) == sigma_from_tau(T, 2) == 3

    T = TripleInvariants(2, 1, 2, 0)
    dt = dual_parameter(T, Fraction(4, 3))
    assert dt == Fraction(2, 3)
    assert parameter_interval(dual_invariants(T)).contains(dt)

    assert dual_parameter(T, T.mu) == -T.mu


def test_dual_parameter_maps_interval_to_dual_interval():
    rng = random.Random(14)
    checked = 0
    for _ in range(400):
        T = random_triple(rng)
        iv = parameter_interval(T)
        if iv.is_empty or iv.upper is None:
            continue
        tau = (iv.lower + iv.upper) / 2
        dt = dual_parameter(T, tau)
        assert parameter_interval(dual_invariants(T)).contains(dt)
        # matching sigma on both sides
        assert sigma_from_tau(dual_invariants(T), dt) == sigma_from_tau(T, tau)
        checked += 1
    assert checked > 50


def test_dual_parameter_round_trip():
    rng = random.Random(63)
    for _ in range(500):
        T = random_triple(rng)
        tau = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        assert dual_parameter(dual_invariants(T), dual_parameter(T, tau)) == tau


def test_equivalence_matches_direct_theta_sign():
    T = TripleInvariants(2, 1, 2, 1)
    Tp = SubtripleInvariants(1, 1, 0, 1)
    sigma = Fraction(7, 2)
    tau = mu_sigma(T, sigma)
    eq = check_slope_equivalence(T, Tp, sigma)
    assert eq.theta_test == (theta_tau(T, Tp, tau) < 0)
