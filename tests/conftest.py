"""Shared samplers and small oracles for the test suite."""

import itertools
import random
from fractions import Fraction

import numpy as np

from triplekit import (
    SolveStatus,
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


def _spectral(n: int):
    """4*pi^2*|k|^2 on the full n-by-n spectrum, and the Laplacian it gives
    through numpy.fft, independent of the grid's real-FFT operator."""
    k = np.fft.fftfreq(n, 1.0 / n)
    k2 = 4.0 * np.pi**2 * (k[:, None] ** 2 + k[None, :] ** 2)
    return k2, lambda f: np.fft.ifft2(-k2 * np.fft.fft2(f - f.mean())).real


def energy(p, v: np.ndarray) -> float:
    """E(v) = mean(v*(-lap v))/2 + a*mean(v) + mean(phi_sq*e^{2v}), whose
    gradient is minus the reduced residual G(v) = lap(v) - a - 2*phi_sq*e^{2v},
    with a = 2*pi*(d1 - d2 - sigma)."""
    _, lap = _spectral(p.grid.n)
    w = v - v.mean()
    a = TWO_PI * (p.d1 - p.d2 - p.sigma)
    return 0.5 * np.mean(w * -lap(w)) + a * np.mean(v) + np.mean(p.phi_sq * np.exp(2.0 * v))


def identity_defect(p, v: np.ndarray) -> float:
    """|mean(2*phi_sq*e^{2v}) - 2*pi*(sigma - (d1 - d2))|, the defect of the
    reduced equation integrated over the torus, formed apart from the solver.

    The mean is taken in long double over e^{L - m}, L = log(phi_sq) + 2v
    and m the largest L, then multiplied by e^m, so no coupling scale
    overflows or flushes to zero on the way; cells where phi_sq vanishes
    give L = -inf and add nothing.
    """
    with np.errstate(divide="ignore"):
        logs = np.log(p.phi_sq.astype(np.longdouble)) + 2 * v.astype(np.longdouble)
    top = logs.max()
    mass = 2 * np.exp(top) * np.mean(np.exp(logs - top))
    budget = 2 * np.longdouble(np.pi) * (np.longdouble(p.sigma) - (p.d1 - p.d2))
    return float(abs(mass - budget))


def descent_witness(p, tol: float = 1e-10, max_steps: int = 200):
    """Decide G(v) = 0 by descent on E alone, from v = 0, at any sigma.

    A witness that shares no code with triplekit's solver: each step divides
    G by the symbol 4*pi^2*|k|^2 + mean(4*phi_sq*e^{2v}) and backtracks on E
    until the Armijo condition holds.  Below the threshold E is unbounded
    below (a > 0) or tends to its unattained infimum 0 (a = 0), so the
    iterates drift toward v = -infinity and sup|G| can dip under 2*tol on
    the way; a verdict of feasible therefore also needs the last step to be
    tiny.  Returns (status, certificate, v): FEASIBLE with no certificate, or
    INDETERMINATE with one naming why the descent stopped, how far E fell,
    mean(v) at the start and at the end, and the step count.
    """
    k2, lap = _spectral(p.grid.n)
    a = TWO_PI * (p.d1 - p.d2 - p.sigma)
    v = np.zeros(p.grid.shape)
    last_step = 0.0
    reason = "budget spent"
    with np.errstate(all="ignore"):
        for steps in range(max_steps + 1):
            coupling = p.phi_sq * np.exp(2.0 * v)
            G = lap(v) - a - 2.0 * coupling
            if np.abs(G).max() < 2.0 * tol and last_step <= 1e-6 * (1.0 + np.abs(v).max()):
                return SolveStatus.FEASIBLE, None, v
            if steps == max_steps:
                break
            d = np.fft.ifft2(np.fft.fft2(G) / (k2 + 4.0 * coupling.mean())).real
            if not np.isfinite(d).all():
                reason = "non-finite direction"
                break
            # E(v + alpha*d) - E(v), expanded so that no two nearly equal
            # energies are subtracted near the solution
            slope, curvature = np.mean(G * d), np.mean(d * -lap(d))
            alpha = 1.0
            for _ in range(30):
                t = 2.0 * alpha * d
                change = alpha * (0.5 * alpha * curvature - slope) + np.mean(
                    coupling * (np.expm1(t) - t))
                if change <= -1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                reason = "no Armijo decrease"
                break
            v = v + alpha * d
            last_step = alpha * np.abs(d).max()
        fall = energy(p, np.zeros(p.grid.shape)) - energy(p, v)
    return SolveStatus.INDETERMINATE, (
        f"{reason}: E fell by {fall:.6g}, mean(v) went from 0 to {v.mean():.6g} "
        f"in {steps} steps"), v
