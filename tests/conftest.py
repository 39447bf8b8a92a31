"""Shared samplers and small oracles for the test suite."""

import itertools
import random
from fractions import Fraction

import numpy as np

from triplekit import (
    SubtripleInvariants,
    TorusGrid,
    TripleInvariants,
    parameter_interval,
    theta_tau,
)
from triplekit.vortex import TWO_PI


def random_triple(rng: random.Random, max_rank: int = 6, max_deg: int = 20) -> TripleInvariants:
    return TripleInvariants(
        rng.randint(1, max_rank),
        rng.randint(1, max_rank),
        rng.randint(-max_deg, max_deg),
        rng.randint(-max_deg, max_deg),
    )


def random_subtriple(
    rng: random.Random, T: TripleInvariants, max_deg: int = 20
) -> SubtripleInvariants:
    """Nontrivial subobject with ranks inside T; rank-zero slots carry
    degree zero."""
    while True:
        r1p = rng.randint(0, T.r1)
        r2p = rng.randint(0, T.r2)
        if (r1p, r2p) != (0, 0):
            break
    d1p = rng.randint(-max_deg, max_deg) if r1p else 0
    d2p = rng.randint(-max_deg, max_deg) if r2p else 0
    return SubtripleInvariants(r1p, r2p, d1p, d2p)


def random_proper_subtriple(
    rng: random.Random, T: TripleInvariants, max_deg: int = 20
) -> SubtripleInvariants:
    """Proper nontrivial subobject, never equal to the full invariants."""
    while True:
        Tp = random_subtriple(rng, T, max_deg)
        if not Tp.equals_full(T):
            return Tp


def random_dualizable_subtriple(
    rng: random.Random, T: TripleInvariants, max_deg: int = 20
) -> SubtripleInvariants:
    """Proper nontrivial subobject in the domain of the quotient dual:
    a full-rank slot must carry the full degree."""
    while True:
        r1p = rng.randint(0, T.r1)
        r2p = rng.randint(0, T.r2)
        if (r1p, r2p) in ((0, 0), (T.r1, T.r2)):
            continue
        d1p = T.d1 if r1p == T.r1 else (rng.randint(-max_deg, max_deg) if r1p else 0)
        d2p = T.d2 if r2p == T.r2 else (rng.randint(-max_deg, max_deg) if r2p else 0)
        return SubtripleInvariants(r1p, r2p, d1p, d2p)


def brute_force_walls(T: TripleInvariants, window: int) -> list:
    """Walls found one subobject at a time, independently of the
    degree-sum enumeration: a wall is a tau where some admissible invariant
    vector sits exactly on the threshold, and theta is affine in tau, so
    each vector roots at most once."""
    found = set()
    iv = parameter_interval(T)
    for r1p, r2p in itertools.product(range(T.r1 + 1), range(T.r2 + 1)):
        if (r1p, r2p) in ((0, 0), (T.r1, T.r2)):
            continue
        d1s = [0] if r1p == 0 else range(-window, min(window, T.d1) + 1)
        d2s = [0] if r2p == 0 else range(-window, min(window, T.d2) + 1)
        for d1p, d2p in itertools.product(d1s, d2s):
            Tp = SubtripleInvariants(r1p, r2p, d1p, d2p)
            a = theta_tau(T, Tp, 0)
            b = theta_tau(T, Tp, 1) - a
            if b == 0:
                continue
            root = -a / b
            if iv.contains(root):
                found.add(root)
    return sorted(found)


def random_sigma(rng: random.Random, max_num: int = 60, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_positive_sigma(rng: random.Random, max_num: int = 60, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def smooth_field(n: int, kmax: int, amp: float, rng: np.random.Generator) -> np.ndarray:
    """Random real field band-limited to |k_x|,|k_y| <= kmax, then filtered
    so the band limit holds exactly in the discrete spectrum."""
    x, y = TorusGrid(n).coords()
    f = np.zeros((n, n))
    for kx in range(kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if kx == 0 and ky <= 0:
                continue
            f += rng.uniform(-amp, amp) * np.cos(
                TWO_PI * (kx * x + ky * y) + rng.uniform(0.0, TWO_PI)
            )
    k = np.fft.fftfreq(n, d=1.0 / n)
    mask = (np.abs(k[:, None]) <= kmax) & (np.abs(k[None, :]) <= kmax)
    return np.fft.ifft2(np.fft.fft2(f) * mask).real
