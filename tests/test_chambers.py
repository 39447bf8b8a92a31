import itertools
import random
from fractions import Fraction

import pytest

from triplekit import (
    ParameterRangeError,
    TripleInvariants,
    dual_invariants,
    enumerate_walls,
    fibration_bound,
    is_generic,
    moduli_dimension,
    parameter_interval,
    projectivity_flags,
    sigma_from_tau,
    sigma_interval,
    small_tau_window,
)

from conftest import brute_force_walls, random_triple


def test_parameter_interval_examples():
    iv = parameter_interval(TripleInvariants(2, 1, 2, 0))
    assert (iv.lower, iv.upper) == (1, 2)
    iv = parameter_interval(TripleInvariants(1, 1, 5, 3))
    assert iv.lower == 5 and iv.upper is None
    iv = parameter_interval(TripleInvariants(1, 2, 1, 0))
    assert (iv.lower, iv.upper) == (1, 3)


def test_interval_contains_is_strict():
    iv = parameter_interval(TripleInvariants(2, 1, 2, 0))
    assert iv.contains(Fraction(3, 2))
    assert not iv.contains(1) and not iv.contains(2)
    unbounded = parameter_interval(TripleInvariants(1, 1, 5, 3))
    assert unbounded.contains(10**9)
    assert not unbounded.contains(5)


def test_empty_interval_when_slopes_reversed():
    # mu1 <= mu2 leaves no stable range for distinct ranks
    iv = parameter_interval(TripleInvariants(2, 1, 0, 3))
    assert iv.is_empty


def test_sigma_interval_examples():
    iv = sigma_interval(TripleInvariants(2, 1, 2, 0))
    assert (iv.lower, iv.upper) == (1, 4)
    iv = sigma_interval(TripleInvariants(1, 1, 5, 3))
    assert iv.lower == 2 and iv.upper is None
    iv = sigma_interval(TripleInvariants(1, 1, 1, 0))
    assert iv.lower == 1 and iv.upper is None


def test_sigma_interval_is_endpoint_image():
    rng = random.Random(5)
    for _ in range(200):
        T = random_triple(rng)
        tiv = parameter_interval(T)
        siv = sigma_interval(T)
        assert siv.lower == sigma_from_tau(T, tiv.lower)
        if tiv.upper is None:
            assert siv.upper is None
        else:
            assert siv.upper == sigma_from_tau(T, tiv.upper)


def test_walls_example():
    dec = enumerate_walls(TripleInvariants(2, 1, 2, 0), 4)
    assert dec.walls == [Fraction(3, 2)]
    assert (dec.interval.lower, dec.interval.upper) == (1, 2)
    assert dec.coprime_generic


def test_walls_line_pair_windows():
    # rank (1, 1) walls sit at integer translates of the slopes; the first
    # one past the lower edge is tau = 2
    dec = enumerate_walls(TripleInvariants(1, 1, 1, 0), 5)
    assert [w for w in dec.walls if w < Fraction(5, 2)] == [2]
    assert [w for w in dec.walls if w < 2] == []


def test_walls_rejects_bad_window():
    with pytest.raises(ValueError):
        enumerate_walls(TripleInvariants(2, 1, 2, 0), 0)


def test_walls_grow_with_window():
    T = TripleInvariants(2, 2, 2, 0)
    small = set(enumerate_walls(T, 2).walls)
    large = set(enumerate_walls(T, 6).walls)
    assert small <= large


def test_walls_lie_strictly_inside_interval():
    rng = random.Random(11)
    for _ in range(60):
        T = random_triple(rng, max_rank=3, max_deg=6)
        dec = enumerate_walls(T, 4)
        for w in dec.walls:
            assert dec.interval.contains(w)
        assert dec.walls == sorted(set(dec.walls))


def test_walls_match_brute_force():
    # the last two have a degree below -window: that slot's range is empty
    for triple, window in [
        ((2, 1, 2, 0), 5), ((2, 2, 2, 0), 5), ((1, 2, 3, -1), 5), ((2, 2, 3, 1), 5),
        ((2, 1, 0, -3), 2), ((2, 1, 1, -5), 3),
    ]:
        T = TripleInvariants(*triple)
        assert enumerate_walls(T, window).walls == brute_force_walls(T, window), triple


def test_is_generic_examples():
    T = TripleInvariants(2, 1, 2, 0)
    assert is_generic(T, Fraction(7, 5), 4)
    assert not is_generic(T, Fraction(3, 2), 4)
    assert is_generic(T, Fraction(4, 3), 4)
    with pytest.raises(ParameterRangeError):
        is_generic(T, 2, 4)
    with pytest.raises(ParameterRangeError):
        is_generic(T, Fraction(1, 2), 4)


def _walls_and_chamber_points(dec):
    """Every wall and every chamber midpoint of a decomposition; an
    unbounded last chamber is sampled one unit past its left end."""
    iv = dec.interval
    if iv.is_empty:
        return []
    ends = [iv.lower, *dec.walls]
    ends.append(ends[-1] + 2 if iv.upper is None else iv.upper)
    return dec.walls + [(lo + hi) / 2 for lo, hi in zip(ends, ends[1:])]


def test_is_generic_agrees_with_wall_list():
    # is_generic solves each rank pair's wall equation for the degree sum
    # instead of reading the wall list, so the two are checked against
    # each other, including at walls that only a wider window finds
    checked = 0
    for r1, r2 in itertools.product(range(1, 4), repeat=2):
        for d1, d2 in itertools.product(range(-9, 10), repeat=2):
            T = TripleInvariants(r1, r2, d1, d2)
            lower = parameter_interval(T).lower
            decs = [enumerate_walls(T, W) for W in range(1, 5)]
            for W, dec, wider in zip(range(1, 4), decs, decs[1:]):
                walls = set(dec.walls)
                points = _walls_and_chamber_points(dec)
                for tau in points + wider.walls:
                    assert is_generic(T, tau, W) == (tau not in walls)
                    checked += 1
                with pytest.raises(ParameterRangeError):
                    is_generic(T, lower, W)
            # the range check comes before the window check
            with pytest.raises(ParameterRangeError):
                is_generic(T, lower, 0)
            if points:
                with pytest.raises(ValueError, match="degree_window"):
                    is_generic(T, points[-1], 0)
    assert checked > 10_000


def test_moduli_dimension_examples():
    assert moduli_dimension(TripleInvariants(2, 1, 2, 0), 2) == 6
    assert moduli_dimension(TripleInvariants(1, 1, 1, 0), 1) == 2
    assert moduli_dimension(TripleInvariants(1, 1, 1, 0), 0) == 1
    with pytest.raises(ValueError):
        moduli_dimension(TripleInvariants(1, 1, 1, 0), -1)


def test_moduli_dimension_duality():
    rng = random.Random(17)
    for _ in range(500):
        T = random_triple(rng)
        g = rng.randint(0, 5)
        assert moduli_dimension(T, g) == moduli_dimension(dual_invariants(T), g)


def test_projectivity_examples():
    T = TripleInvariants(2, 1, 2, 0)
    flags = projectivity_flags(T, Fraction(7, 5), 4)
    assert flags.quasi_projective and flags.projective
    flags = projectivity_flags(T, Fraction(3, 2), 4)
    assert flags.quasi_projective and not flags.projective
    flags = projectivity_flags(TripleInvariants(2, 2, 2, 0), Fraction(3, 2), 4)
    assert flags.quasi_projective and not flags.projective


def test_small_tau_window_examples():
    assert small_tau_window(TripleInvariants(2, 1, 2, 0)) == Fraction(1, 2)
    assert small_tau_window(TripleInvariants(1, 1, 1, 0)) == Fraction(1)
    assert small_tau_window(TripleInvariants(12, 1, 5, -3)) == Fraction(1, 27720)
    assert small_tau_window(TripleInvariants(3, 5, 1, 2)) == Fraction(1, 60)


def test_small_tau_window_clears_both_gaps():
    # no invariant vector of bounded denominator may land in either gap:
    # subsheaves of E1 have slopes with denominator at most r1, quotients
    # of E2 at most r2.  Each gap depends on its degree only modulo its
    # rank, so every residue of every rank pair up to 12 is checked,
    # r1 > 2*r2 included
    rng = random.Random(29)
    for r1, r2 in itertools.product(range(1, 13), repeat=2):
        for a1, a2 in itertools.product(range(r1), range(r2)):
            T = TripleInvariants(r1, r2, a1 + r1 * rng.randint(-2, 2), a2 + r2 * rng.randint(-2, 2))
            eps = small_tau_window(T)
            assert eps > 0
            lo1, hi1 = T.mu1, T.mu1 + eps
            lo2, hi2 = T.mu2 - Fraction(T.r1, T.r2) * eps, T.mu2
            for q in range(1, T.r1 + 1):
                p = lo1.numerator * q // lo1.denominator + 1
                assert Fraction(p, q) >= hi1
            for q in range(1, T.r2 + 1):
                p = lo2.numerator * q // lo2.denominator + 1
                assert Fraction(p, q) >= hi2


def test_fibration_bound_examples():
    assert fibration_bound(TripleInvariants(2, 1, 2, 0), 0)
    assert not fibration_bound(TripleInvariants(2, 1, 2, 0), 2)
    assert fibration_bound(TripleInvariants(1, 1, 5, 3), 1)
