"""Discrete invariants of bundle triples and the duality involution.

A triple is a pair of holomorphic bundles joined by a map from the second
to the first.  At the level of this package a triple is remembered only
through its ranks and degrees, and a subobject through the ranks and
degrees of its two components.  Everything downstream (stability signs,
wall locations, moduli dimensions) is exact rational arithmetic on these
four-tuples, so this module pins down the value types, their validity
conventions, and the two pieces of pure bookkeeping everyone needs:
slopes and duals.

All numbers on this side of the package are exact; floating point is
confined to the PDE solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class InvariantError(ValueError):
    """Base class for invalid invariant data."""


class InvalidRankError(InvariantError):
    """A rank outside its allowed range."""


class InvalidSubtripleError(InvariantError):
    """Subobject data violating the rank/degree conventions."""


class ConstraintViolationError(InvariantError):
    """Input data failing a required algebraic side condition."""


class ParameterRangeError(InvariantError):
    """A stability parameter outside its admissible interval."""


def slope(degree: int, rank: int) -> Fraction:
    """Exact slope degree/rank.  The rank must be positive."""
    if rank <= 0:
        raise InvalidRankError(f"rank must be positive, got {rank}")
    return Fraction(degree, rank)


@dataclass(frozen=True)
class TripleInvariants:
    """Ranks and degrees (r1, r2, d1, d2) of a bundle pair with a map
    from the second bundle into the first."""

    r1: int
    r2: int
    d1: int
    d2: int

    def __post_init__(self) -> None:
        if self.r1 < 1 or self.r2 < 1:
            raise InvalidRankError(
                f"both ranks must be >= 1, got ({self.r1}, {self.r2})"
            )

    @property
    def total_rank(self) -> int:
        return self.r1 + self.r2

    @property
    def total_degree(self) -> int:
        return self.d1 + self.d2

    @property
    def mu1(self) -> Fraction:
        """Slope of the first bundle."""
        return slope(self.d1, self.r1)

    @property
    def mu2(self) -> Fraction:
        """Slope of the second bundle."""
        return slope(self.d2, self.r2)

    @property
    def mu(self) -> Fraction:
        """Slope of the direct sum of the two bundles."""
        return slope(self.total_degree, self.total_rank)


@dataclass(frozen=True)
class SubtripleInvariants:
    """Ranks and degrees (r1p, r2p, d1p, d2p) of a candidate subobject.

    Ranks are nonnegative and a rank-zero slot carries degree zero by
    convention (the missing component is the zero sheaf).  The trivial
    subobject (0, 0, 0, 0) is representable but rejected by every
    operation that needs a nontrivial one.
    """

    r1p: int
    r2p: int
    d1p: int
    d2p: int

    def __post_init__(self) -> None:
        if self.r1p < 0 or self.r2p < 0:
            raise InvalidRankError(
                f"subobject ranks must be >= 0, got ({self.r1p}, {self.r2p})"
            )
        if self.r1p == 0 and self.d1p != 0:
            raise InvalidSubtripleError(
                f"rank-zero first slot must have degree 0, got {self.d1p}"
            )
        if self.r2p == 0 and self.d2p != 0:
            raise InvalidSubtripleError(
                f"rank-zero second slot must have degree 0, got {self.d2p}"
            )

    @property
    def total_rank(self) -> int:
        return self.r1p + self.r2p

    @property
    def total_degree(self) -> int:
        return self.d1p + self.d2p

    @property
    def is_trivial(self) -> bool:
        return self.total_rank == 0

    def fits_inside(self, T: TripleInvariants) -> bool:
        """Rank bounds for being a subobject of T."""
        return self.r1p <= T.r1 and self.r2p <= T.r2

    def equals_full(self, T: TripleInvariants) -> bool:
        """True when these are exactly the ambient invariants."""
        return (self.r1p, self.r2p, self.d1p, self.d2p) == (
            T.r1,
            T.r2,
            T.d1,
            T.d2,
        )


def _check_proper(T: TripleInvariants, Tp: SubtripleInvariants) -> None:
    """Reject Tp unless it is a proper nontrivial subobject of T."""
    if Tp.is_trivial:
        raise InvalidSubtripleError("subobject must be nontrivial")
    if Tp.equals_full(T):
        raise InvalidSubtripleError("subobject must be proper")
    if not Tp.fits_inside(T):
        raise InvalidSubtripleError(
            f"subobject ranks ({Tp.r1p}, {Tp.r2p}) exceed ambient ({T.r1}, {T.r2})"
        )


def dual_invariants(T: TripleInvariants) -> TripleInvariants:
    """Invariants of the dual triple: both bundles dualized and swapped.

    An involution: applying it twice gives back T.
    """
    return TripleInvariants(T.r2, T.r1, -T.d2, -T.d1)


def dual_subtriple(T: TripleInvariants, Tp: SubtripleInvariants) -> SubtripleInvariants:
    """Subobject of the dual triple induced by the quotient of Tp in T.

    The quotient of T by Tp has invariants (r1-r1p, r2-r2p, d1-d1p, d2-d2p);
    dualizing it (components dualized and swapped) lands inside the dual
    triple.  The construction only makes sense when a full-rank slot of Tp
    carries the full degree, since otherwise the quotient would be a
    rank-zero sheaf of nonzero degree.
    """
    if not Tp.fits_inside(T):
        raise InvalidSubtripleError(
            f"subobject ranks ({Tp.r1p}, {Tp.r2p}) exceed ambient ({T.r1}, {T.r2})"
        )
    if Tp.r1p == T.r1 and Tp.d1p != T.d1:
        raise InvalidSubtripleError(
            "full-rank first slot with deficient degree leaves a torsion quotient"
        )
    if Tp.r2p == T.r2 and Tp.d2p != T.d2:
        raise InvalidSubtripleError(
            "full-rank second slot with deficient degree leaves a torsion quotient"
        )
    return SubtripleInvariants(
        T.r2 - Tp.r2p,
        T.r1 - Tp.r1p,
        -(T.d2 - Tp.d2p),
        -(T.d1 - Tp.d1p),
    )
