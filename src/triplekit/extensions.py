"""Slope bookkeeping for the extension bundle attached to a triple.

A triple with invariants (r1, r2, d1, d2) determines a rank r1+r2 bundle
on the product of the base curve with a projective line, sitting in an
extension with the two pieces of the triple as factors.  With the product
polarization weighted by sigma, its slope is an exact rational function
of the invariants, and slope comparisons against subobjects reproduce the
theta sign test.  This module keeps only that bookkeeping: ranks, slopes,
the three-way equivalence check, and the parameter the duality involution
sends tau to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .invariants import (
    InvalidRankError,
    InvalidSubtripleError,
    ParameterRangeError,
    Rational,
    SubtripleInvariants,
    TripleInvariants,
)
from .stability import mu_sigma, tau_from_sigma, tau_prime, theta_tau


@dataclass(frozen=True)
class ExtensionInvariants:
    """Rank and sigma-weighted slope of the extension bundle of a triple."""

    base: TripleInvariants
    sigma: Rational
    rankF: int
    slopeF: Rational


def extension_invariants(T: TripleInvariants, sigma: Rational) -> ExtensionInvariants:
    """Rank and slope of the extension bundle for polarization weight sigma.

    rank = r1 + r2 and slope = (d1 + d2 + sigma*r2)/(r1 + r2), which is the
    sigma-slope of the triple itself.  Only sigma > 0 gives a genuine
    polarization (and only there can the triple be stable anyway).
    """
    sigma = Fraction(sigma)
    if sigma <= 0:
        raise ParameterRangeError(f"polarization weight must be > 0, got {sigma}")
    return ExtensionInvariants(
        base=T,
        sigma=sigma,
        rankF=T.total_rank,
        slopeF=mu_sigma(T, sigma),
    )


def subextension_slope(Tp: SubtripleInvariants, sigma: Rational) -> Rational:
    """Slope of the subextension induced by a subobject:
    (d1p + d2p + sigma*r2p)/(r1p + r2p)."""
    if Tp.total_rank < 1:
        raise InvalidRankError("subextension slope needs total rank >= 1")
    return mu_sigma(Tp, sigma)


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
    T: TripleInvariants, Tp: SubtripleInvariants, sigma: Rational
) -> SlopeEquivalence:
    """Run the three equivalent subobject tests at polarization sigma.

    (1) extension slopes: mu_sigma(sub) < mu_sigma(full) on the product;
    (2) theta at tau = mu_sigma(T) is negative;
    (3) sigma-slopes of the triples themselves compare the same way.
    """
    sigma = Fraction(sigma)
    if sigma <= 0:
        raise ParameterRangeError(f"polarization weight must be > 0, got {sigma}")
    if Tp.is_trivial:
        raise InvalidSubtripleError("subobject must be nontrivial")
    if Tp.equals_full(T):
        raise InvalidSubtripleError("subobject must be proper")
    if not Tp.fits_inside(T):
        raise InvalidSubtripleError(
            f"subobject ranks ({Tp.r1p}, {Tp.r2p}) exceed ambient ({T.r1}, {T.r2})"
        )
    full = extension_invariants(T, sigma)
    tau = tau_from_sigma(T, sigma)
    return SlopeEquivalence(
        f_slope_test=subextension_slope(Tp, sigma) < full.slopeF,
        theta_test=theta_tau(T, Tp, tau) < 0,
        sigma_slope_test=mu_sigma(Tp, sigma) < mu_sigma(T, sigma),
    )


def dual_parameter(T: TripleInvariants, tau: Rational) -> Rational:
    """Parameter value the duality involution pairs with tau.

    Returns -tau_prime(T, tau).  The defining property is that the sigma
    computed from (T, tau) and from (dual, -tau') coincide.
    """
    return -tau_prime(T, Fraction(tau))
