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
solve.

Nonexistence is proved for sigma <= d1 - d2: the spectral Laplacian has
mean exactly zero, so the mean of the reduced equation's defect is
-2*pi*(d1 - d2 - sigma) - 2*mean(phi_sq*e^{2v}) < 0 for every v, and no
iteration is run.  Above the threshold the reduced equation is the
Euler-Lagrange equation of a strictly convex, coercive energy
(Kazdan-Warner), so the discrete system has exactly one solution; Newton
descends that energy from the constant that balances the integral budget.
It ends feasible, or indeterminate when it stops short of the tolerance,
which is never conflated with infeasible.
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

# trace condition |tau + tau' - (d1+d2)| below this is treated as exact
TRACE_TOL = 1e-12

# Newton's divergence witness at a >= 0 gives up once sup|v| passes this;
# from v = 0 the iterates drift toward v = -infinity there
BLOWUP_SUP = 50.0

# floor for the Jacobian diagonal: during infeasible drifts e^{2v}
# underflows and would leave the linear solve singular on constants
DIAG_FLOOR = 1e-30


class SweepWarning(RuntimeWarning):
    """A sigma sweep whose feasibility pattern could not be certified."""


@lru_cache(maxsize=16)
def _laplacian_multiplier(n: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    mult = -4.0 * np.pi**2 * (k[:, None] ** 2 + k[None, :] ** 2)
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=16)
def _grid_coords(n: int) -> Tuple[np.ndarray, np.ndarray]:
    t = np.arange(n) / n
    x, y = np.meshgrid(t, t, indexing="ij")
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


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
        return _grid_coords(self.n)

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Spectral torus Laplacian (multiplier -4*pi^2*|k|^2).

        The mean is subtracted before transforming so constant fields map
        to exactly zero instead of FFT roundoff.
        """
        if f.shape != self.shape:
            raise ValueError(f"field shape {f.shape} does not match grid {self.shape}")
        g = f - f.mean()
        return np.fft.ifft2(_laplacian_multiplier(self.n) * np.fft.fft2(g)).real


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
        if not 0 <= self.amplitude < self.level:
            raise ValueError(
                f"cosine amplitude must satisfy 0 <= amplitude < level, "
                f"got amplitude={self.amplitude}, level={self.level}"
            )

    def sample(self, grid: TorusGrid) -> np.ndarray:
        x, y = grid.coords()
        return self.level + self.amplitude * np.cos(TWO_PI * x) * np.cos(TWO_PI * y)


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
    only from finite data that meets the trace condition.
    """

    grid: TorusGrid
    d1: int
    d2: int
    tau: float
    tau_prime: float
    phi_sq: np.ndarray

    def __post_init__(self) -> None:
        if self.phi_sq.shape != self.grid.shape:
            raise ValueError(
                f"phi_sq shape {self.phi_sq.shape} does not match grid {self.grid.shape}"
            )
        if not all(math.isfinite(x) for x in (self.tau, self.tau_prime, self.sigma)):
            raise ValueError(
                f"tau, tau_prime and sigma must be finite, got tau={self.tau}, "
                f"tau_prime={self.tau_prime}"
            )
        if not np.isfinite(self.phi_sq).all():
            raise ValueError("phi_sq must be finite everywhere")
        if np.min(self.phi_sq) < 0:
            raise ConstraintViolationError("phi_sq must be nonnegative everywhere")
        # adding the two equations leaves lap(u1 + u2) = 2*pi*(tau + tau_prime
        # - d1 - d2), solvable on the torus only when the constant vanishes;
        # then u1 + u2 is constant (gauged to zero) and v = u1 - u2 carries
        # everything.  Written so that a NaN defect fails it.
        if not abs((self.tau + self.tau_prime) - (self.d1 + self.d2)) < TRACE_TOL:
            raise ConstraintViolationError(
                f"trace condition violated: tau + tau_prime = {self.tau + self.tau_prime!r} "
                f"but d1 + d2 = {self.d1 + self.d2}"
            )

    @property
    def sigma(self) -> float:
        return self.tau - self.tau_prime


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
    coupling = p.phi_sq * np.exp(2.0 * (u1 - u2))
    res1 = TWO_PI * p.d1 - p.grid.laplacian(u1) + coupling - TWO_PI * p.tau
    res2 = TWO_PI * p.d2 - p.grid.laplacian(u2) - coupling - TWO_PI * p.tau_prime
    sup = float(max(np.abs(res1).max(), np.abs(res2).max()))
    # scaled by sup before squaring, so defects near 1e200 do not overflow
    scale = sup if 0.0 < sup < np.inf else 1.0
    l2 = scale * float(np.sqrt(np.mean((res1 / scale) ** 2 + (res2 / scale) ** 2)))
    return ResidualReport(res1=res1, res2=res2, sup=sup, l2=l2)


class SolveStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True, eq=False)
class VortexSolution:
    """Solver output.

    feasible mirrors status == FEASIBLE; certificate names the proof when
    infeasible (zero coupling or the integral obstruction; _newton run
    alone below the threshold names its divergence evidence instead).  It
    is never set for indeterminate, which means Newton ended above the
    threshold, where a solution exists, without meeting the gate.
    """

    u1: np.ndarray
    u2: np.ndarray
    residual_sup: float
    residual_l2: float
    iterations: int
    feasible: bool
    status: SolveStatus
    certificate: Optional[str] = None


def _newton_direction(
    grid: TorusGrid, diag: np.ndarray, G: np.ndarray
) -> Optional[np.ndarray]:
    """Solve (-lap + diag) delta = G by preconditioned CG.

    diag = 4*phi_sq*e^{2v} >= 0 with positive mean, so the operator is
    symmetric positive definite; the preconditioner inverts -lap + mean(diag)
    spectrally, which tracks the diagonal as it decays and keeps the
    conditioning bounded during infeasible drifts.  The loop runs on the
    n-by-n fields, from delta = 0, until |r| < 1e-10 |G| or 400 iterations.
    """
    mult = _laplacian_multiplier(grid.n)
    diag = np.maximum(diag, DIAG_FLOOR)
    dbar = float(diag.mean())
    x = np.zeros_like(G)
    with np.errstate(all="ignore"):
        g_norm = np.linalg.norm(G)
        if g_norm == 0:
            return x
        stop = 1e-10 * float(g_norm)
        r = G.copy()
        rho_prev = None
        for _ in range(400):
            if np.linalg.norm(r) < stop:
                break
            z = np.fft.ifft2(np.fft.fft2(r) / (-mult + dbar)).real
            rho = np.dot(r.ravel(), z.ravel())
            if rho_prev is None:
                p = z.copy()
            else:
                p *= rho / rho_prev
                p += z
            q = -grid.laplacian(p) + diag * p
            alpha = rho / np.dot(p.ravel(), q.ravel())
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
    # a partially converged direction is still a descent direction; junk
    # directions are caught by the line search
    if not np.isfinite(x).all():
        return None
    return x


def _package(
    p: VortexProblem,
    v: np.ndarray,
    iterations: int,
    status: SolveStatus,
    certificate: Optional[str],
) -> VortexSolution:
    u1 = 0.5 * v
    u2 = -0.5 * v
    rep = residual(p, u1, u2)
    return VortexSolution(
        u1=u1,
        u2=u2,
        residual_sup=rep.sup,
        residual_l2=rep.l2,
        iterations=iterations,
        feasible=status is SolveStatus.FEASIBLE,
        status=status,
        certificate=certificate,
    )


def solve(p: VortexProblem, tol: float = 1e-10, max_iter: int = 200) -> VortexSolution:
    """Decide the reduced scalar equation, by proof where one applies.

    Writes the scalar residual as G(v) = lap(v) - a - 2*phi_sq*e^{2v} with
    a = 2*pi*(d1 - d2 - sigma); the pair residuals are exactly -G/2 and
    +G/2.  The linear case phi_sq = 0 and the integral obstruction a >= 0
    are decided without iterating; every other problem goes to damped
    Newton.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    proof = _obstruction(p, _forcing(p))
    return proof if proof is not None else _newton(p, tol, max_iter)


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
    v = np.zeros(p.grid.shape)
    if float(p.phi_sq.max()) == 0.0:
        # linear degenerate case: lap(v) = a is solvable on the torus only
        # for a = 0, and then v = 0 in the mean-zero gauge
        if abs(a) < TRACE_TOL:
            return _package(p, v, 0, SolveStatus.FEASIBLE, None)
        return _package(
            p,
            v,
            0,
            SolveStatus.INFEASIBLE,
            "zero coupling: constant forcing has nonzero mean, linear problem unsolvable",
        )
    if a >= 0:
        return _package(
            p, v, 0, SolveStatus.INFEASIBLE,
            f"integral obstruction: 2*pi*(d1 - d2 - sigma) = {a:.6g} >= 0, but "
            "mean(lap v) = 0 and mean(2 phi_sq e^{2v}) > 0 for every v",
        )
    return None


def _newton(p: VortexProblem, tol: float, max_iter: int) -> VortexSolution:
    """Damped Newton descent on the energy of the reduced scalar equation.

    E(v) = mean(v*(-lap v))/2 + a*mean(v) + mean(phi_sq*e^{2v}) has
    gradient -G(v) = -lap(v) + a + 2*phi_sq*e^{2v}, and its
    Hessian -lap + 4*phi_sq*e^{2v} _newton_direction inverts; each step
    backtracks on E until the Armijo condition holds.  For a < 0, E is
    strictly convex and coercive, so this converges from any start
    (Boyd-Vandenberghe 2004, 9.5).  It starts at c0 = ln(-a/(2*mean(phi_sq)))/2,
    the constant that balances the integral budget and the exact solution
    for a constant phi_sq; a run that misses the gate is indeterminate.
    For a >= 0, E is unbounded below along the constants: the run from
    v = 0 is a divergence witness independent of the integral obstruction
    and ends on a norm blow-up or CG breakdown certificate.

    The convergence target is sup|G| < 2*tol.  Convergence also requires
    the last applied step to be tiny: near the solvability boundary the
    residual can dip below tolerance while the iterates still drift at
    unit speed toward v = -infinity, and the step gate keeps that from
    being declared a solution (the drift then runs into the blow-up
    certificate instead).
    """
    grid = p.grid
    phi = p.phi_sq
    a = _forcing(p)

    def state(v):
        coupling = phi * np.exp(2.0 * v)
        return coupling, grid.laplacian(v) - a - 2.0 * coupling

    c0 = 0.0
    if a < 0:
        # summed exactly, so a constant phi_sq balances to its exact solution
        mean_phi = math.fsum((phi / phi.size).ravel())
        c0 = 0.5 * (math.log(-0.5 * a) - math.log(mean_phi))
    v = np.full(grid.shape, c0)
    coupling, G = state(v)
    last_step: Optional[float] = None
    iterations = 0

    for _ in range(max_iter):
        gsup = float(np.abs(G).max())
        vsup = float(np.abs(v).max())

        if gsup < 2.0 * tol and (last_step is None or last_step <= 1e-6 * (1.0 + vsup)):
            return _package(p, v, iterations, SolveStatus.FEASIBLE, None)
        if a >= 0 and vsup > BLOWUP_SUP:
            return _package(
                p, v, iterations, SolveStatus.INFEASIBLE,
                f"norm blow-up: sup|v| = {vsup:.2f} exceeded {BLOWUP_SUP:g}",
            )

        delta = _newton_direction(grid, 4.0 * coupling, G)
        if delta is None:
            if a < 0:
                break
            return _package(
                p, v, iterations, SolveStatus.INFEASIBLE,
                "CG breakdown: linear solve produced a non-finite direction",
            )

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
                break
        v = v + alpha * delta
        coupling, G = state(v)
        last_step = alpha * float(np.abs(delta).max())
        iterations += 1

    return _package(p, v, iterations, SolveStatus.INDETERMINATE, None)


def integral_identity_check(p: VortexProblem, s: VortexSolution) -> float:
    """Defect of the integrated reduced equation at a feasible solution.

    Integrating lap(v) = 2*pi*(d1-d2-sigma) + 2*phi_sq*e^{2v} kills the
    left side, so quadrature(2*phi_sq*e^{2v}) must equal
    2*pi*(sigma - (d1-d2)); returns the absolute defect.
    """
    if not s.feasible:
        raise ConstraintViolationError(
            "integral identity is only meaningful for a feasible solution"
        )
    v = s.u1 - s.u2
    quad = float(np.mean(2.0 * p.phi_sq * np.exp(2.0 * v)))
    return abs(quad - TWO_PI * (p.sigma - (p.d1 - p.d2)))


@dataclass(frozen=True)
class SweepRow:
    sigma: float
    feasible: bool
    residual_sup: float
    iterations: int
    status: SolveStatus


def sweep_sigma(
    n: int,
    d1: int,
    d2: int,
    phi_profile: PhiProfile,
    sigmas: Sequence[float],
    tol: float = 1e-10,
    max_iter: int = 200,
) -> List[SweepRow]:
    """One solve per sigma, ascending; checks the feasibility switch.

    The feasibility column must flip monotonically from false to true at
    sigma = d1 - d2.  Indeterminate solves and monotonicity violations are
    reported as warnings, never exceptions: the table itself is the result.
    """
    sig = [float(s) for s in sigmas]
    if not all(math.isfinite(s) for s in sig):
        raise ValueError(f"sigmas must be finite, got {sig}")
    if sig != sorted(sig):
        raise ValueError("sigmas must be sorted ascending")
    rows: List[SweepRow] = []
    for s in sig:
        sol = solve(build_problem(n, d1, d2, s, phi_profile), tol=tol, max_iter=max_iter)
        rows.append(
            SweepRow(
                sigma=s,
                feasible=sol.feasible,
                residual_sup=sol.residual_sup,
                iterations=sol.iterations,
                status=sol.status,
            )
        )
    if any(r.status is SolveStatus.INDETERMINATE for r in rows):
        warnings.warn(
            "sweep contains indeterminate verdicts; feasibility monotonicity "
            "not verified",
            SweepWarning,
            stacklevel=2,
        )
    else:
        flags = [r.feasible for r in rows]
        if flags != sorted(flags):
            warnings.warn(
                "feasibility is not monotone in sigma; expected a single "
                "false-to-true switch",
                SweepWarning,
                stacklevel=2,
            )
    return rows


@dataclass(frozen=True, eq=False)
class DiagonalReport:
    """Componentwise solves of a diagonal (direct-sum) system.

    Behaves as a list of the component solutions; aggregate feasibility
    requires every component feasible.
    """

    solutions: List[VortexSolution]

    @property
    def failed_indices(self) -> List[int]:
        return [i for i, s in enumerate(self.solutions) if not s.feasible]

    @property
    def feasible(self) -> bool:
        return not self.failed_indices

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)

    def __getitem__(self, i):
        return self.solutions[i]


def solve_diagonal(
    problems: Sequence[VortexProblem],
    tol: float = 1e-10,
    max_iter: int = 200,
) -> DiagonalReport:
    """Independent solves of the components of a diagonal system."""
    return DiagonalReport([solve(p, tol=tol, max_iter=max_iter) for p in problems])


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
    }
