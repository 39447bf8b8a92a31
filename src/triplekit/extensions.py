"""Dimensional reduction: the slope of the bundle a triple gives on X x P^1.

A triple E2 -> E1 on a curve X with invariants (r1, r2, d1, d2) gives an
SU(2)-equivariant bundle F of rank r1 + r2 on X x P^1, an extension

    0 -> p*E1 -> F -> p*E2 (x) q*O(2) -> 0,

and a subtriple gives an equivariant subsheaf F' the same way.  The triple
is sigma-stable exactly when F is stable for the Kahler class omega_sigma
(Garcia-Prada, arXiv alg-geom/9401008).  Degrees on X x P^1 are
intersection numbers: H^2 is spanned by a = p*[pt] and b = q*[pt], with
a.a = b.b = 0 and a.b = 1, so

    c1(F') = (d1' + d2')*a + 2*r2'*b,   [omega_sigma] = (sigma/2)*a + b,

and deg_sigma(F') = c1(F').[omega_sigma] = d1' + d2' + r2'*sigma.  This
module computes that pairing, checks it against the theta sign test and
the sigma-slopes of the triples themselves, and keeps the parameter the
duality involution sends tau to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .invariants import (
    ParameterRangeError,
    SubtripleInvariants,
    TripleInvariants,
    _check_proper,
)
from .stability import mu_sigma, tau_prime, theta_tau


def _f_slope(rank: int, degree: int, r2: int, sigma: Fraction) -> Fraction:
    """deg_sigma / rank of the sheaf on X x P^1 given by a (sub)triple of
    this total rank and degree and second-slot rank r2.

    A class x*a + y*b is the pair (x, y), and the intersection form
    (a.b = 1, a.a = b.b = 0) pairs (x1, y1) with (x2, y2) as x1*y2 + y1*x2.
    """
    c1 = (degree, 2 * r2)  # the second bundle is twisted by q*O(2)
    omega = (sigma / 2, 1)
    return Fraction(c1[0] * omega[1] + c1[1] * omega[0], rank)


@dataclass(frozen=True)
class SlopeEquivalence:
    """Outcomes of the three equivalent strict-inequality tests.

    All three booleans agree on every valid input; carrying them
    separately lets callers audit that the equivalence really holds on
    their data.
    """

    f_slope_test: bool
    theta_test: bool
    sigma_slope_test: bool

    @property
    def consistent(self) -> bool:
        return self.f_slope_test == self.theta_test == self.sigma_slope_test


def check_slope_equivalence(
    T: TripleInvariants, Tp: SubtripleInvariants, sigma: Fraction
) -> SlopeEquivalence:
    """Run the three equivalent subobject tests at polarization sigma > 0.

    (1) f-slope: the omega_sigma-slope of F' is below that of F on
        X x P^1, each degree the intersection number c1.[omega_sigma];
    (2) theta at the tau that belongs to sigma, mu_sigma(T), is negative;
    (3) the sigma-slopes of the triples themselves compare the same way.

    (1) uses only the intersection form, not mu_sigma or theta, so the
    agreement of the three is a check of the dimensional reduction.
    """
    sigma = Fraction(sigma)
    if sigma <= 0:
        raise ParameterRangeError(f"polarization weight must be > 0, got {sigma}")
    _check_proper(T, Tp)
    mu = mu_sigma(T, sigma)
    return SlopeEquivalence(
        f_slope_test=_f_slope(Tp.total_rank, Tp.total_degree, Tp.r2p, sigma)
        < _f_slope(T.total_rank, T.total_degree, T.r2, sigma),
        theta_test=theta_tau(T, Tp, mu) < 0,
        sigma_slope_test=mu_sigma(Tp, sigma) < mu,
    )


def dual_parameter(T: TripleInvariants, tau: Fraction) -> Fraction:
    """Parameter value the duality involution pairs with tau.

    Returns -tau_prime(T, tau).  The defining property is that the sigma
    computed from (T, tau) and from (dual, -tau') coincide.
    """
    return -tau_prime(T, Fraction(tau))
