"""Stability arithmetic for bundle triples.

The central object is the functional theta_tau: a subobject destabilizes
when it is positive, sits on a wall when it is zero.  Equivalently one can
compare sigma-slopes; the two viewpoints are related by an exact change of
parameter implemented here (sigma_from_tau one way; mu_sigma of the triple,
its sigma-slope, is the tau that belongs to sigma), together with the
companion parameter tau', complete classifications for the two degenerate
families we can decide from invariants alone (zero map; a pair of line
bundles), and the weighted kernel/image identity.

Everything is exact Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .invariants import (
    ConstraintViolationError,
    InvalidRankError,
    InvalidSubtripleError,
    Rational,
    SubtripleInvariants,
    TripleInvariants,
)

Invariants = Union[TripleInvariants, SubtripleInvariants]


def theta_tau(T: TripleInvariants, Tp: SubtripleInvariants, tau: Rational) -> Rational:
    """Destabilization functional of the subobject Tp inside T at parameter tau.

    theta = (mu(sub) - tau) - (r2p/r2) * ((r1+r2)/(r1p+r2p)) * (mu(T) - tau)

    Negative for every proper nontrivial subobject means stable; a zero
    marks strict semistability.
    """
    if Tp.is_trivial:
        raise InvalidSubtripleError("trivial subobject has no slope")
    tau = Fraction(tau)
    mu_sub = Fraction(Tp.total_degree, Tp.total_rank)
    coeff = Fraction(Tp.r2p, T.r2) * Fraction(T.total_rank, Tp.total_rank)
    return (mu_sub - tau) - coeff * (T.mu - tau)


def _second_rank(inv: Invariants) -> int:
    # SubtripleInvariants stores r2p, TripleInvariants stores r2
    return inv.r2p if isinstance(inv, SubtripleInvariants) else inv.r2


def mu_sigma(inv: Invariants, sigma: Rational) -> Rational:
    """sigma-slope: (d1 + d2 + r2*sigma) / (r1 + r2).

    Works for a triple or a subobject; only the second-slot rank feels
    the sigma weighting.  For the triple itself it is the tau that belongs
    to sigma, the inverse of sigma_from_tau.
    """
    if inv.total_rank < 1:
        raise InvalidRankError("sigma-slope needs total rank >= 1")
    return Fraction(inv.total_degree + _second_rank(inv) * Fraction(sigma), inv.total_rank)


def sigma_from_tau(T: TripleInvariants, tau: Rational) -> Rational:
    """Parameter change tau -> sigma: ((r1+r2)*tau - (d1+d2)) / r2."""
    return Fraction(T.total_rank * Fraction(tau) - T.total_degree, T.r2)


def tau_prime(T: TripleInvariants, tau: Rational) -> Rational:
    """Companion parameter: r1*tau + r2*tau' = d1 + d2, so
    tau' = (d1 + d2 - r1*tau)/r2.  Satisfies tau - tau' = sigma exactly.

    tau and tau' are the slope bounds a stable triple imposes: subbundles
    of the first bundle have slope < tau, subbundles of the second inside
    the kernel of the map slope < tau', and quotients of the second and
    first bundles are bounded below by tau' and tau.
    """
    return Fraction(T.total_degree - T.r1 * Fraction(tau), T.r2)


class StabilityStatus(str, Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly-semistable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability test.

    witness is a subobject achieving the verdict: theta > 0 for unstable,
    theta = 0 for strictly-semistable.  It is None when the verdict is
    stable, or when instability is forced by bundle-level data that the
    discrete invariants cannot exhibit (see classify_phi_zero).
    """

    status: StabilityStatus
    witness: Optional[SubtripleInvariants] = None


def evaluate_stability(
    T: TripleInvariants,
    tau: Rational,
    candidates: Sequence[SubtripleInvariants],
) -> StabilityVerdict:
    """Three-way verdict of T at tau relative to a finite candidate set.

    Candidates must be proper and nontrivial: theta of the full triple is
    identically zero, so admitting it would contradict strictness.
    """
    best: Optional[SubtripleInvariants] = None
    best_theta: Optional[Rational] = None
    for Tp in candidates:
        if Tp.is_trivial:
            raise InvalidSubtripleError("trivial candidate not allowed")
        if Tp.equals_full(T):
            raise InvalidSubtripleError("full triple is not a proper subobject")
        if not Tp.fits_inside(T):
            raise InvalidSubtripleError(
                f"candidate ranks ({Tp.r1p}, {Tp.r2p}) exceed ambient ({T.r1}, {T.r2})"
            )
        th = theta_tau(T, Tp, tau)
        if best_theta is None or th > best_theta:
            best_theta = th
            best = Tp
    if best_theta is None or best_theta < 0:
        return StabilityVerdict(StabilityStatus.STABLE)
    if best_theta == 0:
        return StabilityVerdict(StabilityStatus.STRICTLY_SEMISTABLE, witness=best)
    return StabilityVerdict(StabilityStatus.UNSTABLE, witness=best)


def classify_phi_zero(
    T: TripleInvariants,
    tau: Rational,
    e1_semistable: bool,
    e2_semistable: bool,
) -> StabilityVerdict:
    """Complete verdict for a triple whose map is zero.

    Such a triple splits, so it is never stable; it is strictly semistable
    exactly when tau equals the slope of the first bundle and both bundles
    are themselves semistable.
    """
    tau = Fraction(tau)
    first_factor = SubtripleInvariants(T.r1, 0, T.d1, 0)
    second_factor = SubtripleInvariants(0, T.r2, 0, T.d2)
    if tau < T.mu1:
        # theta(first factor) = mu1 - tau > 0
        return StabilityVerdict(StabilityStatus.UNSTABLE, witness=first_factor)
    if tau > T.mu1:
        # theta(second factor) = (r1/r2)(tau - mu1) > 0
        return StabilityVerdict(StabilityStatus.UNSTABLE, witness=second_factor)
    if e1_semistable and e2_semistable:
        return StabilityVerdict(StabilityStatus.STRICTLY_SEMISTABLE, witness=first_factor)
    # A destabilizing subsheaf lives inside whichever bundle fails
    # semistability; its invariants are not determined by ours.
    return StabilityVerdict(StabilityStatus.UNSTABLE)


def classify_line_pair(
    T: TripleInvariants,
    tau: Rational,
    phi_nonzero: bool,
) -> StabilityVerdict:
    """Complete verdict for a pair of line bundles.

    With a nonzero map the only proper saturated subobject is the first
    line bundle alone, so the verdict reduces to comparing tau with d1.
    """
    if T.r1 != 1 or T.r2 != 1:
        raise InvalidRankError(f"expected ranks (1, 1), got ({T.r1}, {T.r2})")
    if not phi_nonzero:
        # line bundles are stable, hence semistable
        return classify_phi_zero(T, tau, True, True)
    tau = Fraction(tau)
    sub = SubtripleInvariants(1, 0, T.d1, 0)
    if tau > T.d1:
        return StabilityVerdict(StabilityStatus.STABLE)
    if tau == T.d1:
        return StabilityVerdict(StabilityStatus.STRICTLY_SEMISTABLE, witness=sub)
    return StabilityVerdict(StabilityStatus.UNSTABLE, witness=sub)


def kernel_image_identity(
    T: TripleInvariants,
    ker_inv: SubtripleInvariants,
    im_inv: SubtripleInvariants,
    tau: Rational,
) -> Rational:
    """Weighted sum of theta over a kernel/image decomposition of T.

    For any splitting of the invariants (ranks and degrees summing
    componentwise to T's) the total-rank-weighted combination

        n(K) * theta(K) + n(I) * theta(I),   n(.) = total rank,

    vanishes identically; this is what the function returns, and a nonzero
    return would indicate corrupted input rather than interesting geometry.
    The naive weighting by (r1, r2) only agrees when the two total ranks
    split proportionally to (r1, r2), and fails otherwise.
    """
    if (
        ker_inv.r1p + im_inv.r1p != T.r1
        or ker_inv.r2p + im_inv.r2p != T.r2
        or ker_inv.d1p + im_inv.d1p != T.d1
        or ker_inv.d2p + im_inv.d2p != T.d2
    ):
        raise ConstraintViolationError(
            "kernel and image invariants must sum componentwise to the triple's"
        )
    if ker_inv.is_trivial or im_inv.is_trivial:
        raise InvalidSubtripleError("kernel and image must both be nontrivial")
    return ker_inv.total_rank * theta_tau(T, ker_inv, tau) + im_inv.total_rank * theta_tau(
        T, im_inv, tau
    )
