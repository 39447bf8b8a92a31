"""Admissible parameter ranges, walls, and chamber-level predicates.

The stability parameter only produces nonempty moduli inside an open
interval determined by the ranks and degrees.  Inside it, the verdict can
only change where some subobject's theta crosses zero; those crossing
values are the walls.  Ranks bound the wall candidates' rank data, but
their degrees are a priori unbounded, so enumeration takes an explicit
degree window and the caller widens it when in doubt.  On top of the wall
set sit the predicates consumers actually ask for: is this parameter
generic, what is the expected moduli dimension, is the moduli space
projective, and how small does the parameter have to be for the
"just above the minimum" chamber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional

from .invariants import ParameterRangeError, TripleInvariants
from .stability import sigma_from_tau


@dataclass(frozen=True)
class ParameterInterval:
    """Open interval of admissible parameter values.

    upper is None for an unbounded interval (equal ranks).
    """

    lower: Fraction
    upper: Optional[Fraction]

    @property
    def is_empty(self) -> bool:
        return self.upper is not None and self.upper <= self.lower

    def contains(self, tau: Fraction) -> bool:
        """Strict interior membership."""
        tau = Fraction(tau)
        if tau <= self.lower:
            return False
        return self.upper is None or tau < self.upper


@lru_cache(maxsize=128)
def parameter_interval(T: TripleInvariants) -> ParameterInterval:
    """Admissible open interval for the tau parameter.

    Lower endpoint is the slope of the first bundle; the upper endpoint is
    finite only for distinct ranks, where it sits at
    mu1 + (r2/|r1-r2|)(mu1 - mu2).  Memoized: is_generic asks for it once
    per query, typically for many taus of one triple.
    """
    lower = T.mu1
    if T.r1 == T.r2:
        return ParameterInterval(lower, None)
    upper = T.mu1 + Fraction(T.r2, abs(T.r1 - T.r2)) * (T.mu1 - T.mu2)
    return ParameterInterval(lower, upper)


def sigma_interval(T: TripleInvariants) -> ParameterInterval:
    """The same admissible range in the sigma parameter.

    Exactly the image of parameter_interval under the tau -> sigma change
    of variables, which is affine increasing, so endpoints map to
    endpoints.
    """
    iv = parameter_interval(T)
    upper = None if iv.upper is None else sigma_from_tau(T, iv.upper)
    return ParameterInterval(sigma_from_tau(T, iv.lower), upper)


@dataclass(frozen=True)
class ChamberDecomposition:
    interval: ParameterInterval
    walls: List[Fraction]


def _wall_equations(T: TripleInvariants, window: int):
    # (r2p, denom, range of S) per rank pair whose theta depends on tau; a
    # rank-zero slot has degree 0, any other runs over -window..min(window, d)
    if window < 1:
        raise ValueError(f"degree_window must be >= 1, got {window}")
    for r1p in range(T.r1 + 1):
        for r2p in range(T.r2 + 1):
            denom = T.r2 * r1p - T.r1 * r2p
            if denom == 0:
                continue
            tops = [min(window, d) for rp, d in ((r1p, T.d1), (r2p, T.d2)) if rp]
            if min(tops) < -window:
                continue  # some slot's degree range is empty
            yield r2p, denom, range(-window * len(tops), sum(tops) + 1)


def enumerate_walls(T: TripleInvariants, degree_window: int) -> ChamberDecomposition:
    """Candidate wall values inside the admissible interval.

    A subobject of ranks (r1p, r2p) and degree sum S = d1p + d2p pins tau to

        (r2*S - r2p*(d1+d2)) / (r2*r1p - r1*r2p)

    whenever the denominator is nonzero; proportional rank pairs give a
    theta that does not depend on tau at all and contribute no wall.
    Degrees run over |d'| <= degree_window, additionally capped above by
    the ambient degrees, and S over their sums.  Walls outside the window
    are not found; widen the window to push the guarantee further.
    """
    iv = parameter_interval(T)
    D = T.total_degree
    values = set()
    for r2p, denom, sums in _wall_equations(T, degree_window):
        for S in sums:
            tau_c = Fraction(T.r2 * S - r2p * D, denom)
            if iv.contains(tau_c):
                values.add(tau_c)
    return ChamberDecomposition(interval=iv, walls=sorted(values))


def is_generic(T: TripleInvariants, tau: Fraction, degree_window: int) -> bool:
    """True when tau avoids every candidate wall found within the window:
    for no rank pair of enumerate_walls is S = (tau*(r2*r1p - r1*r2p) +
    r2p*(d1+d2)) / r2 an integer inside the pair's degree-sum range."""
    tau = Fraction(tau)
    if not parameter_interval(T).contains(tau):
        raise ParameterRangeError(f"tau={tau} outside admissible interval")
    p, q = tau.numerator, tau.denominator
    for r2p, denom, sums in _wall_equations(T, degree_window):
        S, rem = divmod(p * denom + q * r2p * T.total_degree, q * T.r2)
        if rem == 0 and S in sums:
            return False
    return True


def _chi(A: TripleInvariants, B: TripleInvariants, genus: int) -> int:
    """chi(A1, B1) + chi(A2, B2) - chi(A2, B1): the Euler characteristic of
    the hom complex from the triple A to the triple B, with
    chi(E, F) = rk E*rk F*(1 - g) + rk E*deg F - rk F*deg E (Bradlow,
    Garcia-Prada, Gothen (BGG), Math. Ann. 328 (2004) 299, Prop. 3.5)."""

    def chi(rE: int, dE: int, rF: int, dF: int) -> int:
        return rE * rF * (1 - genus) + rE * dF - rF * dE

    return (chi(A.r1, A.d1, B.r1, B.d1) + chi(A.r2, A.d2, B.r2, B.d2)
            - chi(A.r2, A.d2, B.r1, B.d1))


def moduli_dimension(T: TripleInvariants, genus: int) -> int:
    """Expected dimension 1 - chi(T, T) at a smooth point of the moduli
    space (BGG 2004, Sect. 3); invariant under the duality swap."""
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    return 1 - _chi(T, T, genus)


def is_projective(T: TripleInvariants, tau: Fraction, degree_window: int) -> bool:
    """Whether the moduli space of tau-stable triples is projective.

    At a generic tau only a proper subtriple whose theta vanishes for every
    tau can make a semistable triple strictly semistable: its ranks are
    proportional to (r1, r2), and its degree sum is (d1 + d2)*k/gcd(r1, r2)
    for some 0 < k < gcd(r1, r2).  None exists when gcd(r1, r2, d1 + d2)
    is 1; then stable is semistable, whose moduli space is projective (BGG
    2004, Sect. 3: generic tau and GCD(r2, r1 + r2, d1 + d2) = 1).  A tau
    outside the admissible interval raises ParameterRangeError.
    """
    return is_generic(T, tau, degree_window) and math.gcd(T.r1, T.r2, T.total_degree) == 1


def small_tau_window(T: TripleInvariants) -> Fraction:
    """Width of the chamber hugging the lower endpoint.

    Returns eps = 1/L, L = lcm(1..R), R = max(r1, r2), such that
    (mu1, mu1 + eps) contains no rational with denominator <= r1 and
    (mu2 - (r1/r2)*eps, mu2) contains no rational with denominator <= r2.

    First gap: mu1 and every p/q with q <= r1 are multiples of eps.
    Second gap, r1 <= r2: it is at most eps wide and ends at mu2, and mu2
    and every p/q with q <= r2 are multiples of eps.  Second gap, r1 > r2:
    a rational p/q != mu2 with q <= r2 lies at least 1/r2^2 from mu2, and
    (r1/r2)*eps <= 1/r2^2 because r1*r2 <= R(R - 1) <= L, since the
    coprime R and R - 1 both divide L.
    """
    return Fraction(1, math.lcm(*range(1, max(T.r1, T.r2) + 1)))


def fibration_bound(T: TripleInvariants, genus: int) -> bool:
    """Degree condition making the big-parameter moduli fiber over a
    bundle moduli space: r2*d1 - r1*d2 > r1*r2*(2g - 2)."""
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    return T.r2 * T.d1 - T.r1 * T.d2 > T.r1 * T.r2 * (2 * genus - 2)
