import random
from fractions import Fraction

import pytest

from triplekit import (
    ConstraintViolationError,
    InvalidRankError,
    InvalidSubtripleError,
    StabilityStatus,
    SubtripleInvariants,
    TripleInvariants,
    check_slope_equivalence,
    classify_line_pair,
    classify_phi_zero,
    dual_invariants,
    dual_subtriple,
    evaluate_stability,
    kernel_image_identity,
    mu_sigma,
    sigma_from_tau,
    tau_prime,
    theta_tau,
)

from conftest import (
    random_dualizable_subtriple,
    random_proper_subtriple,
    random_sigma,
    random_subtriple,
    random_triple,
)

EDGE_TAUS = [0, 1, -1, Fraction(1, 40), Fraction(-1, 40), Fraction(10**12, 7), Fraction(-10**12, 7)]


def triples_and_taus(seed: int):
    """Ranks 1-5 and degrees -12..12 against tau with denominator <= 40:
    2000 seeded draws, numerators small or up to 10^12, then every edge
    value of EDGE_TAUS against 20 triples each."""
    rng = random.Random(seed)
    for _ in range(2000):
        big = rng.random() < 0.5
        tau = random_sigma(rng, max_num=10**12 if big else 40, max_den=40)
        yield random_triple(rng, max_rank=5, max_deg=12), tau
    for tau in EDGE_TAUS:
        for _ in range(20):
            yield random_triple(rng, max_rank=5, max_deg=12), tau


def test_theta_examples():
    assert theta_tau(TripleInvariants(2, 1, 3, 0), SubtripleInvariants(2, 0, 3, 0), 2) == Fraction(-1, 2)
    assert theta_tau(TripleInvariants(2, 1, 2, 1), SubtripleInvariants(1, 1, 0, 1), 3) == Fraction(1, 2)
    with pytest.raises(InvalidSubtripleError):
        theta_tau(TripleInvariants(1, 1, 1, 0), SubtripleInvariants(0, 0, 0, 0), 1)


def test_theta_of_full_triple_vanishes():
    for T, tau in triples_and_taus(7):
        full = SubtripleInvariants(T.r1, T.r2, T.d1, T.d2)
        assert theta_tau(T, full, tau) == 0


def test_mu_sigma_examples():
    assert mu_sigma(TripleInvariants(1, 1, 1, 0), 3) == 2
    T = TripleInvariants(3, 2, 7, -4)
    assert mu_sigma(T, 0) == T.mu
    assert mu_sigma(SubtripleInvariants(1, 0, 1, 0), Fraction(17, 5)) == 1


def test_parameter_conversions_examples():
    T = TripleInvariants(1, 1, 1, 0)
    assert sigma_from_tau(T, 2) == 3
    assert sigma_from_tau(T, T.mu) == 0
    assert sigma_from_tau(TripleInvariants(2, 1, 2, 0), Fraction(4, 3)) == 2
    # the sigma-slope of the triple is the tau that belongs to sigma
    assert mu_sigma(T, 3) == 2
    assert mu_sigma(T, 0) == T.mu
    assert mu_sigma(TripleInvariants(2, 1, 2, 0), 2) == Fraction(4, 3)
    assert tau_prime(T, 2) == -1
    assert tau_prime(T, T.mu) == T.mu
    assert tau_prime(TripleInvariants(2, 1, 2, 0), 1) == 0


def test_round_trip_and_sigma_is_tau_minus_tau_prime():
    for T, x in triples_and_taus(11):
        assert sigma_from_tau(T, mu_sigma(T, x)) == x
        assert mu_sigma(T, sigma_from_tau(T, x)) == x
        assert x - tau_prime(T, x) == sigma_from_tau(T, x)


def test_slope_thresholds_examples():
    # the first-bundle bound is tau itself, the kernel bound tau'
    assert tau_prime(TripleInvariants(2, 1, 2, 0), Fraction(4, 3)) == Fraction(-2, 3)
    # equal ranks: tau = mu(T) is the fixed point where the two bounds meet
    assert tau_prime(TripleInvariants(1, 1, 1, 0), Fraction(1, 2)) == Fraction(1, 2)
    # sigma-form of the first-bundle bound: mu(T) + r2*sigma/(r1+r2) at
    # tau = mu_sigma(T) is tau itself
    T = TripleInvariants(1, 1, 1, 0)
    sigma = Fraction(3)
    assert T.mu + Fraction(T.r2, T.total_rank) * sigma == mu_sigma(T, sigma)


def test_evaluate_stability_three_verdicts():
    T = TripleInvariants(1, 1, 1, 0)
    cands = [SubtripleInvariants(1, 0, 1, 0)]
    assert evaluate_stability(T, 2, cands).status is StabilityStatus.STABLE
    semi = evaluate_stability(T, 1, cands)
    assert semi.status is StabilityStatus.STRICTLY_SEMISTABLE
    assert semi.witness == cands[0]
    uns = evaluate_stability(T, Fraction(1, 2), cands)
    assert uns.status is StabilityStatus.UNSTABLE
    assert uns.witness == cands[0]


def test_evaluate_stability_rejects_bad_candidates():
    T = TripleInvariants(1, 1, 1, 0)
    with pytest.raises(InvalidSubtripleError):
        evaluate_stability(T, 1, [SubtripleInvariants(1, 1, 1, 0)])
    with pytest.raises(InvalidSubtripleError):
        evaluate_stability(T, 1, [SubtripleInvariants(0, 0, 0, 0)])
    with pytest.raises(InvalidSubtripleError):
        evaluate_stability(T, 1, [SubtripleInvariants(2, 1, 0, 0)])


def test_subobject_check_is_one_rule():
    # a trivial, a full and an oversize subobject: both entry points
    # reject each with the same message
    T = TripleInvariants(2, 1, 2, 0)
    messages = []
    for Tp in (SubtripleInvariants(0, 0, 0, 0), SubtripleInvariants(2, 1, 2, 0),
               SubtripleInvariants(3, 1, 0, 0)):
        with pytest.raises(InvalidSubtripleError) as ev:
            evaluate_stability(T, 1, [Tp])
        with pytest.raises(InvalidSubtripleError) as ch:
            check_slope_equivalence(T, Tp, 1)
        assert str(ev.value) == str(ch.value)
        messages.append(str(ev.value))
    assert messages == ["subobject must be nontrivial", "subobject must be proper",
                        "subobject ranks (3, 1) exceed ambient (2, 1)"]


def test_evaluate_stability_witness_achieves_max():
    rng = random.Random(23)
    for _ in range(200):
        T = random_triple(rng, max_rank=4, max_deg=10)
        cands = [random_proper_subtriple(rng, T, max_deg=10) for _ in range(5)]
        tau = random_sigma(rng)
        v = evaluate_stability(T, tau, cands)
        thetas = [theta_tau(T, c, tau) for c in cands]
        if v.status is StabilityStatus.STABLE:
            assert max(thetas) < 0 and v.witness is None
        else:
            assert theta_tau(T, v.witness, tau) == max(thetas)
            if v.status is StabilityStatus.STRICTLY_SEMISTABLE:
                assert max(thetas) == 0
            else:
                assert max(thetas) > 0


def test_phi_zero_classification():
    T = TripleInvariants(1, 1, 1, 0)
    assert classify_phi_zero(T, 1, True, True).status is StabilityStatus.STRICTLY_SEMISTABLE
    assert classify_phi_zero(T, 2, True, True).status is StabilityStatus.UNSTABLE
    assert classify_phi_zero(T, 1, True, False).status is StabilityStatus.UNSTABLE
    rng = random.Random(99)
    for _ in range(300):
        T = random_triple(rng)
        tau = random_sigma(rng)
        v = classify_phi_zero(T, tau, rng.random() < 0.5, rng.random() < 0.5)
        assert v.status is not StabilityStatus.STABLE
        if v.witness is not None and v.status is StabilityStatus.UNSTABLE:
            assert theta_tau(T, v.witness, tau) > 0
        if v.status is StabilityStatus.STRICTLY_SEMISTABLE:
            assert theta_tau(T, v.witness, tau) == 0


def test_line_pair_classification():
    T = TripleInvariants(1, 1, 1, 0)
    assert classify_line_pair(T, 2, True).status is StabilityStatus.STABLE
    assert classify_line_pair(T, 1, True).status is StabilityStatus.STRICTLY_SEMISTABLE
    assert classify_line_pair(T, Fraction(1, 2), True).status is StabilityStatus.UNSTABLE
    with pytest.raises(InvalidRankError):
        classify_line_pair(TripleInvariants(2, 1, 0, 0), 1, True)
    # zero map delegates to the split classification
    assert classify_line_pair(T, 2, False).status is StabilityStatus.UNSTABLE
    assert classify_line_pair(T, 1, False).status is StabilityStatus.STRICTLY_SEMISTABLE


def test_line_pair_agrees_with_candidate_evaluation():
    # with a nonzero map the only proper saturated subobject is the first
    # line bundle alone
    rng = random.Random(41)
    for _ in range(200):
        T = TripleInvariants(1, 1, rng.randint(-10, 10), rng.randint(-10, 10))
        tau = random_sigma(rng)
        full_set = [SubtripleInvariants(1, 0, T.d1, 0)]
        assert (
            classify_line_pair(T, tau, True).status
            is evaluate_stability(T, tau, full_set).status
        )


def test_kernel_image_identity_examples():
    T = TripleInvariants(2, 2, 2, 0)
    assert kernel_image_identity(T, SubtripleInvariants(1, 1, 1, 0), SubtripleInvariants(1, 1, 1, 0), 1) == 0
    assert kernel_image_identity(T, SubtripleInvariants(1, 1, 0, 0), SubtripleInvariants(1, 1, 2, 0), 1) == 0


def test_kernel_image_identity_rejects_inconsistent_data():
    T = TripleInvariants(2, 2, 2, 0)
    with pytest.raises(ConstraintViolationError):
        kernel_image_identity(T, SubtripleInvariants(1, 1, 0, 0), SubtripleInvariants(1, 1, 1, 0), 1)
    with pytest.raises(InvalidSubtripleError):
        kernel_image_identity(T, SubtripleInvariants(0, 0, 0, 0), SubtripleInvariants(2, 2, 2, 0), 1)


def test_total_rank_weights_are_the_vanishing_ones():
    # the (r1, r2)-weighted combination is nonzero on perfectly consistent
    # data whenever the total ranks do not split proportionally; the
    # total-rank weighting is the identity that holds
    T = TripleInvariants(2, 1, 2, 1)
    K = SubtripleInvariants(1, 0, 3, 0)
    I = SubtripleInvariants(1, 1, -1, 1)
    tau = Fraction(1)
    naive = T.r1 * theta_tau(T, K, tau) + T.r2 * theta_tau(T, I, tau)
    assert naive != 0
    assert kernel_image_identity(T, K, I, tau) == 0


def test_sign_equivalence_of_theta_and_sigma_slope():
    rng = random.Random(2024)
    for _ in range(2000):
        T = random_triple(rng)
        Tp = random_subtriple(rng, T)
        sigma = random_sigma(rng)
        tau = mu_sigma(T, sigma)
        th = theta_tau(T, Tp, tau)
        diff = mu_sigma(Tp, sigma) - mu_sigma(T, sigma)
        assert (th > 0) == (diff > 0)
        assert (th == 0) == (diff == 0)


def test_duality_preserves_theta_sign():
    rng = random.Random(31337)
    for _ in range(2000):
        T = random_triple(rng)
        Tp = random_dualizable_subtriple(rng, T)
        tau = random_sigma(rng)
        th = theta_tau(T, Tp, tau)
        th_dual = theta_tau(dual_invariants(T), dual_subtriple(T, Tp), -tau_prime(T, tau))
        assert (th < 0) == (th_dual < 0)
        assert (th == 0) == (th_dual == 0)
