"""Coupled vortex equations on a flat torus, line-bundle case.

Model: two metrics on degree-d1 and degree-d2 line bundles over the unit
square torus (volume 1), written as e^{2*u_i} times a background whose
curvature is the constant harmonic representative 2*pi*d_i.  The coupled
equations for the pair (u1, u2) with coupling density phi_sq >= 0 are

    c1 - lap(u1) + phi_sq * e^{2(u1-u2)} - 2*pi*tau      = 0
    c2 - lap(u2) - phi_sq * e^{2(u1-u2)} - 2*pi*tau_prime = 0

with c_i = 2*pi*d_i.  Adding them forces tau + tau_prime = d1 + d2 (the
trace condition) and, integrating, u1 + u2 harmonic, gauged to mean zero.
Subtracting reduces everything to one scalar equation for v = u1 - u2,

    lap(v) = 2*pi*(d1 - d2) - 2*pi*sigma + 2*phi_sq*e^{2v},

with sigma = tau - tau_prime.  The integral of the right side must vanish,
which is possible for nonzero phi_sq exactly when sigma > d1 - d2: the
solvability threshold this module is built to exhibit.  The discrete
Laplacian is spectral (Fourier multiplier -4*pi^2*|k|^2), so constants are
annihilated exactly and integration by parts is exact; the nonlinear solve
is a damped Newton iteration with a spectrally preconditioned CG inner
solve.  Every field is real, so both the Laplacian and the preconditioner
work on the half spectrum of the real FFT (rfft2/irfft2), which holds all
of a real field's Fourier data in (n, n//2 + 1) coefficients.

Nonexistence is proved for sigma <= d1 - d2: the spectral Laplacian has
mean exactly zero, so the mean of the reduced equation's defect is
-2*pi*(d1 - d2 - sigma) - 2*mean(phi_sq*e^{2v}) < 0 for every v, and no
iteration is run.  Above the threshold the reduced equation is the
Euler-Lagrange equation of a strictly convex, coercive energy
(Kazdan-Warner), so the discrete system has exactly one solution; Newton
descends that energy from the constant that balances the integral budget.
It ends feasible, or indeterminate with a certificate of why it stopped;
only the two proofs, zero coupling and the integral obstruction, say infeasible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .invariants import ConstraintViolationError

TWO_PI = 2.0 * np.pi

# trace condition |tau + tau' - (d1+d2)| below this, plus the rounding of
# tau and tau', is treated as exact
TRACE_TOL = 1e-12


class SweepWarning(RuntimeWarning):
    """A sigma sweep with indeterminate rows."""


@lru_cache(maxsize=16)
def _half_multiplier(n: int) -> np.ndarray:
    """-4*pi^2*|k|^2 on the (n, n//2 + 1) half spectrum of rfft2."""
    kx = np.fft.fftfreq(n, d=1.0 / n)
    ky = np.fft.rfftfreq(n, d=1.0 / n)
    mult = -4.0 * np.pi**2 * (kx[:, None] ** 2 + ky[None, :] ** 2)
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=16)
def _ring(n: int) -> np.ndarray:
    """max(|kx|, |ky|) on the (n, n//2 + 1) half spectrum of rfft2."""
    kx = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    ky = np.fft.rfftfreq(n, d=1.0 / n)
    ring = np.maximum(kx[:, None], ky[None, :])
    ring.setflags(write=False)
    return ring


def _amplitudes(f: np.ndarray) -> np.ndarray:
    """|f_k| of a square field's Fourier coefficients, on the rfft2 half
    spectrum, normalized so that f = sum_k f_k e^{2 pi i k.x}."""
    return np.abs(np.fft.rfft2(f)) / f.size


def _tail(amp: np.ndarray, m: int) -> float:
    """4*pi^2*(m/2)^2 * max|f_k| over the modes with max(|kx|, |ky|) >= m/2 - 1.

    This bounds what the outer shell of an m-by-m grid, and every mode past
    it, contributes to lap(f), so to G: below tol, the grid of size m
    resolves f to the gate.  amp is _amplitudes(f) on any grid of size >= m.
    """
    return 4.0 * np.pi**2 * (m // 2) ** 2 * float(amp[_ring(amp.shape[0]) >= m // 2 - 1].max())


def _pad(f: np.ndarray, n: int) -> np.ndarray:
    """The band-limited interpolant on the n-by-n grid of an m-by-m field.

    The rfft2 spectrum is zero-padded (Trefethen, Spectral Methods in
    MATLAB, 2000, ch. 3).  The coarse Nyquist row and column stand for the
    modes +-m/2 at once, so each is split half and half between them: the
    padded field is real and equals f at the shared nodes.
    """
    m = f.shape[0]
    h = m // 2
    spec = np.fft.rfft2(f) * (n // m) ** 2
    spec[h] *= 0.5
    spec[:, h] *= 0.5
    out = np.zeros((n, n // 2 + 1), dtype=spec.dtype)
    out[:h + 1, :h + 1] = spec[:h + 1]
    out[n - h:, :h + 1] = spec[h:]
    return np.fft.irfft2(out, s=(n, n))


@dataclass(frozen=True)
class TorusGrid:
    """n-by-n sample grid on the unit square torus, spacing 1/n.

    The quadrature weight per cell is 1/n^2, so integrals are plain means
    and the total volume is 1.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 16, got {self.n}")

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    def coords(self) -> Tuple[np.ndarray, np.ndarray]:
        t = np.arange(self.n) / self.n
        return tuple(np.meshgrid(t, t, indexing="ij"))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Spectral torus Laplacian (multiplier -4*pi^2*|k|^2).

        A real field has a Hermitian-symmetric spectrum, so the multiplier
        acts on the half spectrum of rfft2 and irfft2 returns the real
        result.  The mean is subtracted before transforming so constant
        fields map to exactly zero instead of FFT roundoff.
        """
        if f.shape != self.shape:
            raise ValueError(f"field shape {f.shape} does not match grid {self.shape}")
        g = f - f.mean()
        return np.fft.irfft2(_half_multiplier(self.n) * np.fft.rfft2(g), s=self.shape)


class PhiProfile:
    """Base for the built-in coupling-density profiles."""

    def sample(self, grid: TorusGrid) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantProfile(PhiProfile):
    level: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.level) and self.level > 0):
            raise ValueError(
                f"constant profile level must be finite and > 0, got {self.level}"
            )

    def sample(self, grid: TorusGrid) -> np.ndarray:
        return np.full(grid.shape, float(self.level))


@dataclass(frozen=True)
class CosineProfile(PhiProfile):
    """level + amplitude*cos(2*pi*x)*cos(2*pi*y); amplitude < level keeps
    it strictly positive."""

    level: float
    amplitude: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.level) and self.level > 0):
            raise ValueError(
                f"cosine profile level must be finite and > 0, got {self.level}"
            )
        if not (0 <= self.amplitude < self.level and math.isfinite(self.level + self.amplitude)):
            raise ValueError(
                f"cosine amplitude must satisfy 0 <= amplitude < level, with level + amplitude "
                f"finite, got amplitude={self.amplitude}, level={self.level}"
            )

    def sample(self, grid: TorusGrid) -> np.ndarray:
        c = np.cos(TWO_PI * (np.arange(grid.n) / grid.n))
        return self.level + np.outer(self.amplitude * c, c)


@dataclass(frozen=True)
class ZeroProfile(PhiProfile):
    def sample(self, grid: TorusGrid) -> np.ndarray:
        return np.zeros(grid.shape)


@dataclass(frozen=True, eq=False)
class VortexProblem:
    """Discretized problem data.

    Backgrounds carry the constant curvatures c1 = 2*pi*d1, c2 = 2*pi*d2;
    phi_sq is the sampled coupling density (pointwise |phi|^2 of a section
    in the background metrics, a nonnegative field).  A problem is built
    only from data that meets the trace condition and whose 2*pi-multiples
    (degrees, tau, tau_prime, sigma, gaps) are finite, so verdicts can print.
    """

    grid: TorusGrid
    d1: int
    d2: int
    tau: float
    tau_prime: float
    phi_sq: np.ndarray

    def __post_init__(self) -> None:
        _check_degrees(self.d1, self.d2)
        if self.phi_sq.shape != self.grid.shape:
            raise ValueError(
                f"phi_sq shape {self.phi_sq.shape} does not match grid {self.grid.shape}"
            )
        for name, value in (
            ("2*pi*d1", TWO_PI * self.d1), ("2*pi*d2", TWO_PI * self.d2),
            ("2*pi*(d1 - d2)", TWO_PI * (self.d1 - self.d2)),
            ("2*pi*sigma", TWO_PI * self.sigma), ("2*pi*tau", TWO_PI * self.tau),
            ("2*pi*tau_prime", TWO_PI * self.tau_prime),
            ("2*pi*(d1 - d2 - sigma)", _forcing(self)),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not np.isfinite(self.phi_sq).all():
            raise ValueError("phi_sq must be finite everywhere")
        if np.min(self.phi_sq) < 0:
            raise ConstraintViolationError("phi_sq must be nonnegative everywhere")
        # adding the two equations leaves lap(u1 + u2) = 2*pi*(tau + tau_prime
        # - d1 - d2), solvable on the torus only when the constant vanishes;
        # then u1 + u2 is constant (gauged to zero) and v = u1 - u2 carries
        # everything.  build_problem halves d1 + d2 +- sigma exactly, but the
        # two sums and tau + tau_prime here each round by eps/2 of their size,
        # so a valid pair misses d1 + d2 by up to 2*eps*max(|tau|, |tau_prime|),
        # which exceeds d1 + d2 itself once |sigma| passes about 1e16.
        # Written so that a NaN defect fails it.
        slack = TRACE_TOL + 2.0 * np.finfo(float).eps * max(abs(self.tau), abs(self.tau_prime))
        if not abs((self.tau + self.tau_prime) - (self.d1 + self.d2)) < slack:
            raise ConstraintViolationError(
                f"trace condition violated: tau + tau_prime = {self.tau + self.tau_prime!r} "
                f"but d1 + d2 = {self.d1 + self.d2}"
            )

    @property
    def sigma(self) -> float:
        return self.tau - self.tau_prime


def _check_degrees(d1: int, d2: int) -> None:
    """The degrees enter the equations as floats: c_i = 2*pi*d_i, the trace
    d1 + d2 and the gap d1 - d2.  Reject those that do not fit one."""
    for name, d in (("d1", d1), ("d2", d2), ("d1 + d2", d1 + d2), ("d1 - d2", d1 - d2)):
        try:
            float(d)
        except OverflowError:
            raise ValueError(f"{name} does not fit a float") from None


def build_problem(
    n: int,
    d1: int,
    d2: int,
    sigma: float,
    phi_profile: PhiProfile,
) -> VortexProblem:
    """Assemble a problem from sigma and a coupling profile.

    tau and tau_prime are recovered from the pair of linear relations
    tau + tau_prime = d1 + d2 (trace condition, rank-one case) and
    tau - tau_prime = sigma.
    """
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    sigma = float(sigma)
    _check_degrees(d1, d2)
    grid = TorusGrid(n)
    tau = 0.5 * (d1 + d2 + sigma)
    tp = 0.5 * (d1 + d2 - sigma)
    return VortexProblem(
        grid=grid, d1=d1, d2=d2, tau=tau, tau_prime=tp, phi_sq=phi_profile.sample(grid)
    )


@dataclass(frozen=True, eq=False)
class ResidualReport:
    res1: np.ndarray
    res2: np.ndarray
    sup: float
    l2: float


def residual(p: VortexProblem, u1: np.ndarray, u2: np.ndarray) -> ResidualReport:
    """Defect of the coupled equations at the metric pair (u1, u2)."""
    if u1.shape != p.grid.shape or u2.shape != p.grid.shape:
        raise ValueError(
            f"field shapes {u1.shape}, {u2.shape} do not match grid {p.grid.shape}"
        )
    coupling = _coupling(*_gauge(p, _forcing(p)), u1 - u2)
    res1 = TWO_PI * p.d1 - p.grid.laplacian(u1) + coupling - TWO_PI * p.tau
    res2 = TWO_PI * p.d2 - p.grid.laplacian(u2) - coupling - TWO_PI * p.tau_prime
    sup = float(max(np.abs(res1).max(), np.abs(res2).max()))
    # scaled by sup before squaring, so defects near 1e200 do not overflow
    scale = sup if 0.0 < sup < np.inf else 1.0
    l2 = scale * float(np.sqrt(np.mean((res1 / scale) ** 2 + (res2 / scale) ** 2)))
    return ResidualReport(res1, res2, sup, l2)


class SolveStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True, eq=False)
class VortexSolution:
    """Solver output.

    v = u1 - u2 is the field the solver solves for; the pair u1 = v/2,
    u2 = -v/2 and feasible (status is FEASIBLE) are derived from it.
    residual_sup is sup|G|/2, the sup norm of the pair residuals -G/2 and
    +G/2 at v, where Newton gated; residual(p, u1, u2) gives the fields
    and their l2 norm.  Infeasible comes only from a proof, zero coupling
    or the integral obstruction, which certificate names.
    Indeterminate means Newton stopped short of the gate above the
    threshold, and certificate says why it stopped and how far E fell.
    spectral_tail is 4*pi^2*(n/2)^2 times the largest |v_k| over the modes
    with max(|kx|, |ky|) >= n/2 - 1: below tol, the grid resolves v to
    the gate.
    """

    v: np.ndarray
    residual_sup: float
    iterations: int
    status: SolveStatus
    certificate: Optional[str] = None

    @property
    def u1(self) -> np.ndarray:
        return 0.5 * self.v

    @property
    def u2(self) -> np.ndarray:
        return -0.5 * self.v

    @property
    def feasible(self) -> bool:
        return self.status is SolveStatus.FEASIBLE

    @property
    def spectral_tail(self) -> float:
        return _tail(_amplitudes(self.v), self.v.shape[0])


def _newton_direction(
    grid: TorusGrid, diag: np.ndarray, G: np.ndarray
) -> Optional[np.ndarray]:
    """Solve (-lap + diag) delta = G by preconditioned CG.

    diag = 4*phi_sq*e^{2v} >= 0 with positive mean, so the operator is
    symmetric positive definite; the preconditioner M = -lap + mean(diag)
    is inverted spectrally, dividing the rfft2 half spectrum by its symbol.
    The operator is M + (diag - mean(diag)), so its product with the search
    direction p needs no Laplacian (Eisenstat, SIAM J. Sci. Stat. Comput.
    2 (1981) 1): p <- z + beta*p with M*z = r, hence s = M*p follows
    s <- r + beta*s, and q = s + (diag - mean(diag))*p.  Each iteration
    then costs two transforms, the rfft2/irfft2 pair of the preconditioner
    solve.  s carries rounding the way the recursive residual r does;
    Newton gates on a G it computes afresh, so no verdict rests on either.
    The loop runs on the n-by-n fields, from delta = 0, until
    |r| < 1e-10 |G| or 400 iterations.  It returns None for a non-finite
    direction.
    """
    dbar = float(diag.mean())
    symbol = dbar - _half_multiplier(grid.n)
    x = np.zeros_like(G)
    with np.errstate(all="ignore"):
        g_norm = np.linalg.norm(G)
        if g_norm == 0:
            return x
        stop = 1e-10 * float(g_norm)
        shift = diag - dbar
        r = G.copy()
        p, s = np.zeros_like(G), np.zeros_like(G)
        rho_prev = None
        for _ in range(400):
            if np.linalg.norm(r) < stop:
                break
            z = np.fft.irfft2(np.fft.rfft2(r) / symbol, s=grid.shape)
            rho = np.dot(r.ravel(), z.ravel())
            beta = 0.0 if rho_prev is None else rho / rho_prev
            p *= beta
            p += z
            s *= beta
            s += r
            # z is spent, and its buffer takes q
            q = np.multiply(shift, p, out=z)
            q += s
            alpha = rho / np.dot(p.ravel(), q.ravel())
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
    # a partially converged direction is still a descent direction; junk
    # directions are caught by the line search
    if not np.isfinite(x).all():
        return None
    return x


def solve(p: VortexProblem, tol: float = 1e-10, max_iter: int = 200) -> VortexSolution:
    """Decide the reduced scalar equation, by proof where one applies.

    Writes the scalar residual as G(v) = lap(v) - a - 2*phi_sq*e^{2v} with
    a = 2*pi*(d1 - d2 - sigma); the pair residuals are exactly -G/2 and
    +G/2.  The linear case phi_sq = 0 and the integral obstruction a >= 0
    are decided without iterating; every other problem goes to damped
    Newton, which tests its start against the gate even when max_iter = 0.

    Newton starts on the coarsest grid that resolves the problem (nested
    iteration: Briggs-Henson-McCormick, A Multigrid Tutorial, 2000, ch. 3).
    The levels are m = n/2^j, even and >= 16.  A field is resolved at m
    when _tail, the gate's bound on what the modes at and past the coarse
    grid's outer shell add to G, is below tol.  Newton starts from c0 on
    the coarsest m that resolves phi_sq, whose samples there are
    phi_sq[::n//m, ::n//m], or at n when no level does (band profiles and
    other non-smooth couplings).  Each coarse stop hands its v, zero-padded
    in the spectrum, to the next level: 2m while v is feasible at m but not
    resolved there, n otherwise, where a stop short of the gate goes on
    with the budget it left.  The gate at n decides every verdict.
    max_iter bounds the Newton steps of the whole solve, summed over all
    grids, and iterations reports that sum.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    proof = _obstruction(p, _forcing(p))
    if proof is not None:
        return proof
    n = m = p.grid.n
    while m % 4 == 0 and m // 2 >= 16:
        m //= 2
    if m < n:
        amp = _amplitudes(p.phi_sq)
        while m < n and _tail(amp, m) >= tol:
            m *= 2
    v, spent = None, 0
    while m < n:
        coarse = VortexProblem(TorusGrid(m), p.d1, p.d2, p.tau, p.tau_prime,
                               p.phi_sq[::n // m, ::n // m])
        sol = _newton(coarse, tol, max_iter, v, spent)
        m = 2 * m if sol.feasible and sol.spectral_tail >= tol else n
        v, spent = _pad(sol.v, m), sol.iterations
    return _newton(p, tol, max_iter, v, spent)


def _forcing(p: VortexProblem) -> float:
    """The constant a = 2*pi*(d1 - d2 - sigma) of the reduced equation."""
    return TWO_PI * (p.d1 - p.d2) - TWO_PI * p.sigma


def _obstruction(p: VortexProblem, a: float) -> Optional[VortexSolution]:
    """The verdicts that need no iteration, or None.

    With phi_sq = 0 the equation lap(v) = a is linear and solvable exactly
    when a = 0.  Otherwise phi_sq >= 0 is somewhere positive and the
    spectral Laplacian has mean exactly zero, so for every v
    mean(G(v)) = -a - 2*mean(phi_sq*e^{2v}) < 0 once a >= 0: the discrete
    system has no solution, whatever Newton would do with it.
    """
    if float(p.phi_sq.max()) == 0.0:
        # linear degenerate case: lap(v) = a is solvable on the torus only
        # for a = 0, and then v = 0 in the mean-zero gauge
        if a == 0.0:
            status, certificate = SolveStatus.FEASIBLE, None
        else:
            status, certificate = SolveStatus.INFEASIBLE, (
                "zero coupling: constant forcing has nonzero mean, linear problem unsolvable")
    elif a >= 0:
        status, certificate = SolveStatus.INFEASIBLE, (
            f"integral obstruction: 2*pi*(d1 - d2 - sigma) = {a:.6g} >= 0, but "
            "mean(lap v) = 0 and mean(2 phi_sq e^{2v}) > 0 for every v")
    else:
        return None
    # lap(0) = 0, so at v = 0 the pair residuals are +-(a/2 + phi_sq) in closed form
    sup = float(np.abs(0.5 * a + p.phi_sq).max())
    return VortexSolution(np.zeros(p.grid.shape), sup, 0, status, certificate)


def _gauge(p: VortexProblem, a: float) -> Tuple[float, np.ndarray]:
    """Newton's start c0 and the coupling psi = phi_sq*e^{2*c0} there.

    For a < 0 and a nonzero coupling e^{2*c0} = -a/(2*mean(phi_sq)) balances
    the integral budget; otherwise the gauge is (0, phi_sq), in which
    residual() evaluates its defect at a >= 0, where solve runs no Newton.
    psi is built from rho = phi_sq/max(phi_sq) and c0 from logs, so no
    coupling scale overflows them.  A constant phi_sq gives rho = 1, whose
    pairwise sum is exact, so psi = -a/2 exactly.
    """
    top = float(p.phi_sq.max())
    if a >= 0 or top == 0.0:
        return 0.0, p.phi_sq
    rho = p.phi_sq / top
    scale = -0.5 * a / float(rho.mean())
    return 0.5 * (math.log(scale) - math.log(top)), scale * rho


def _coupling(c0: float, psi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phi_sq*e^{2v} as psi*e^{2(v - c0)}, exponentiated only where psi > 0,
    so a vanishing coupling stays 0 however large v grows (never 0*inf)."""
    return psi * np.exp(2.0 * (v - c0), out=np.zeros_like(psi), where=psi > 0)


def _newton(
    p: VortexProblem,
    tol: float,
    max_iter: int,
    start: Optional[np.ndarray] = None,
    spent: int = 0,
) -> VortexSolution:
    """Damped Newton descent on the energy of the reduced scalar equation.

    E(v) = mean(v*(-lap v))/2 + a*mean(v) + mean(phi_sq*e^{2v}) has
    gradient -G(v) = -lap(v) + a + 2*phi_sq*e^{2v}, and its
    Hessian -lap + 4*phi_sq*e^{2v} _newton_direction inverts; each step
    backtracks on E until the Armijo condition holds.  solve calls it only
    for a < 0, where E is strictly convex and coercive, so this converges
    from any start (Boyd-Vandenberghe 2004, 9.5).  It starts from start,
    by default the constant c0 of _gauge, which balances the integral
    budget (the exact solution for a constant phi_sq), and gates on G at
    the v it returns.  solve passes as start the padded v of a coarser
    grid's stop, feasible or not, and as spent the steps taken there:
    max_iter bounds spent plus the steps taken here, and iterations and
    the certificate report that sum.

    The gate is sup|G| < tol, or sup|G| < 2*tol once the last step is below
    1e-9*(1 + sup|v|): a step that small only corrects the rounding of v,
    so the upper half of the gate waits for that floor.  Any other stop is
    indeterminate, with a certificate naming the reason and reporting the
    fall in E, mean(v) at the start and at the end, and the step count.
    """
    grid = p.grid
    a = _forcing(p)
    c0, psi = _gauge(p, a)

    def state(v):
        coupling = _coupling(c0, psi, v)
        return coupling, grid.laplacian(v) - a - 2.0 * coupling

    v = np.full(grid.shape, c0) if start is None else start
    mean0 = float(v.mean())
    coupling, G = state(v)
    last_step = math.inf
    fall = 0.0
    reason = "budget spent"

    # the gate is tested at each iterate up to the max_iter-th, the start too
    for iterations in range(spent, max_iter + 1):
        gsup = float(np.abs(G).max())
        if gsup < tol or (gsup < 2.0 * tol and last_step <= 1e-9 * (1.0 + np.abs(v).max())):
            return VortexSolution(v, 0.5 * gsup, iterations, SolveStatus.FEASIBLE)
        if iterations == max_iter:
            break

        delta = _newton_direction(grid, 4.0 * coupling, G)
        if delta is None:
            reason = "CG non-finite direction"
            break

        # E(v + alpha*delta) - E(v), expanded around v so that no two
        # nearly equal energies are subtracted; a step that overflows
        # gives inf or nan and is rejected
        slope = float(np.mean(G * delta))
        curvature = -float(np.mean(delta * grid.laplacian(delta)))
        alpha = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for _bt in range(9):
                t = 2.0 * alpha * delta
                change = alpha * (0.5 * alpha * curvature - slope) + float(
                    np.mean(coupling * (np.expm1(t) - t)))
                if change <= -1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                reason = "no Armijo decrease"
                break
        v = v + alpha * delta
        coupling, G = state(v)
        last_step = alpha * float(np.abs(delta).max())
        fall -= change

    certificate = (f"{reason}: E fell by {fall:.6g}, mean(v) went from {mean0:.6g} "
                   f"to {float(v.mean()):.6g} in {iterations} steps")
    return VortexSolution(v, 0.5 * gsup, iterations, SolveStatus.INDETERMINATE, certificate)


@dataclass(frozen=True)
class SweepRow:
    sigma: float
    residual_sup: float
    iterations: int
    status: SolveStatus

    @property
    def feasible(self) -> bool:
        return self.status is SolveStatus.FEASIBLE


def sweep_sigma(
    n: int,
    d1: int,
    d2: int,
    phi_profile: PhiProfile,
    sigmas: Sequence[float],
    tol: float = 1e-10,
    max_iter: int = 200,
) -> List[SweepRow]:
    """One solve per sigma, ascending.

    Each row keeps the solve's residual_sup, iterations and status, and
    reads feasible off status.  With a nonzero coupling the feasibility
    column is monotone by construction: a = 2*pi*(d1 - d2) - 2*pi*sigma
    does not increase with sigma, the integral obstruction says infeasible
    exactly when a >= 0, and Newton says only feasible or indeterminate.
    With a zero coupling only sigma = d1 - d2 is feasible.  Indeterminate
    solves are reported as a warning, never an exception: the table itself
    is the result.
    """
    sig = [float(s) for s in sigmas]
    if not all(math.isfinite(s) for s in sig):
        raise ValueError(f"sigmas must be finite, got {sig}")
    if sig != sorted(sig):
        raise ValueError("sigmas must be sorted ascending")
    rows: List[SweepRow] = []
    for s in sig:
        sol = solve(build_problem(n, d1, d2, s, phi_profile), tol=tol, max_iter=max_iter)
        rows.append(SweepRow(s, sol.residual_sup, sol.iterations, sol.status))
    if any(r.status is SolveStatus.INDETERMINATE for r in rows):
        warnings.warn(
            "sweep contains indeterminate verdicts",
            SweepWarning,
            stacklevel=2,
        )
    return rows


def write_fields_csv(path: str, p: VortexProblem, s: VortexSolution) -> None:
    """Row-major field snapshot with header x,y,u1,u2,res1,res2."""
    rep = residual(p, s.u1, s.u2)
    x, y = p.grid.coords()
    cols = [c.ravel() for c in (x, y, s.u1, s.u2, rep.res1, rep.res2)]
    np.savetxt(
        path, np.column_stack(cols), fmt="%.17g", delimiter=",",
        header="x,y,u1,u2,res1,res2", comments="",
    )


def summary_json(p: VortexProblem, s: VortexSolution) -> dict:
    """Summary record with the fixed key set used by the CLI and exports."""
    return {
        "sigma": p.sigma,
        "tau": p.tau,
        "tau_prime": p.tau_prime,
        "d1": p.d1,
        "d2": p.d2,
        "feasible": s.feasible,
        "residual_sup": s.residual_sup,
        "iterations": s.iterations,
        "status": s.status.value,
    }
