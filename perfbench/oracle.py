"""Computations the benchmark checks the program against.

None of these call triplekit.  The exact side works in integers: walls are
enumerated over the degree sum S = d1' + d2' instead of over (d1', d2'),
and signs are compared by cross-multiplying.  The numeric side uses its own
numpy.fft Laplacian and its own sampling of the coupling profiles.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _degree_span(rank_p, degree, window):
    """Closed integer range of d' for one slot, or None when it is empty."""
    if rank_p == 0:
        return (0, 0)
    hi = min(window, degree)
    return None if hi < -window else (-window, hi)


def interval(r1, r2, d1, d2):
    """Admissible tau interval as ((p, q), (p, q) or None), q > 0."""
    lower = (d1, r1)
    if r1 == r2:
        return lower, None
    k = abs(r1 - r2)
    return lower, (d1 * k + r2 * d1 - r1 * d2, r1 * k)


def _inside(num, den, lower, upper):
    if num * lower[1] <= lower[0] * den:
        return False
    return upper is None or num * upper[1] < upper[0] * den


def walls(r1, r2, d1, d2, window):
    """Sorted wall values inside the admissible interval.

    A wall depends on a subobject's degrees only through S = d1' + d2', and
    the sum of two integer ranges is the integer range of the sums, so each
    rank pair costs O(window) instead of O(window^2).
    """
    lower, upper = interval(r1, r2, d1, d2)
    D = d1 + d2
    found = set()
    for r1p in range(r1 + 1):
        for r2p in range(r2 + 1):
            if (r1p, r2p) in ((0, 0), (r1, r2)):
                continue
            den = r2 * r1p - r1 * r2p
            if den == 0:
                continue
            a = _degree_span(r1p, d1, window)
            b = _degree_span(r2p, d2, window)
            if a is None or b is None:
                continue
            for S in range(a[0] + b[0], a[1] + b[1] + 1):
                num = r2 * S - r2p * D
                num, d = (num, den) if den > 0 else (-num, -den)
                if _inside(num, d, lower, upper):
                    g = math.gcd(num, d)
                    found.add((num // g, d // g))
    return sorted(Fraction(p, q) for p, q in found)


def theta_numerator(T, sub, tau):
    """Integer with the sign of theta(sub) at tau; theta = it / (r2 n' q).

    Cross-multiplied sigma-slope comparison mu_sigma(sub) - mu_sigma(T) at
    sigma = ((r1 + r2) tau - D) / r2, with tau = p/q.
    """
    r1, r2, d1, d2 = T
    r1p, r2p, d1p, d2p = sub
    p, q = tau.numerator, tau.denominator
    n, np_ = r1 + r2, r1p + r2p
    return r2 * ((d1p + d2p) * q - np_ * p) - r2p * ((d1 + d2) * q - n * p)


def theta_exact(T, sub, tau):
    return Fraction(theta_numerator(T, sub, tau), T[1] * (sub[0] + sub[1]) * tau.denominator)


def sigma_of_tau(T, tau):
    r1, r2, d1, d2 = T
    return Fraction((r1 + r2) * tau.numerator - (d1 + d2) * tau.denominator, r2 * tau.denominator)


def dimension(T, genus):
    r1, r2, d1, d2 = T
    return 1 + r2 * d1 - r1 * d2 + (r1 * r1 + r2 * r2 - r1 * r2) * (genus - 1)


def has_rational(lo, hi, max_den):
    """Whether the open interval (lo, hi) holds a rational with denominator <= max_den."""
    return any(Fraction(math.floor(lo * q) + 1, q) < hi for q in range(1, max_den + 1))


# ---- numeric side -------------------------------------------------------
# numpy is imported inside the functions so that importing this module does
# not load it: setup_s must show what importing triplekit itself costs.

def profile_field(n, profile):
    """Sample ("constant", level) or ("cosine", level, amplitude) on the n x n grid."""
    import numpy as np
    if profile[0] == "constant":
        return np.full((n, n), float(profile[1]))
    c = np.cos(2.0 * np.pi * np.arange(n) / n)
    return profile[1] + profile[2] * np.outer(c, c)


def laplacian(f):
    """Spectral torus Laplacian; the mean is removed since it maps to zero."""
    import numpy as np
    n = f.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    mult = -4.0 * np.pi ** 2 * (k[:, None] ** 2 + k[None, :] ** 2)
    return np.fft.ifft2(mult * np.fft.fft2(f - f.mean())).real


def reduced_residual(n, d1, d2, sigma, profile, v):
    """sup|G| for G = lap(v) - 2 pi (d1 - d2 - sigma) - 2 phi_sq e^{2v}."""
    import numpy as np
    a = 2.0 * np.pi * (d1 - d2 - sigma)
    G = laplacian(v) - a - 2.0 * profile_field(n, profile) * np.exp(2.0 * v)
    return float(np.abs(G).max())


def identity_defect(n, d1, d2, sigma, profile, v):
    """|mean(2 phi_sq e^{2v}) - 2 pi (sigma - (d1 - d2))|."""
    import numpy as np
    mass = float(np.mean(2.0 * profile_field(n, profile) * np.exp(2.0 * v)))
    return abs(mass - 2.0 * np.pi * (sigma - (d1 - d2)))
