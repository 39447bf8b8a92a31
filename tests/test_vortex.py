import collections
import csv
import itertools
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import triplekit
from triplekit import (
    ConstantProfile,
    ConstraintViolationError,
    CosineProfile,
    PhiProfile,
    SolveStatus,
    SweepWarning,
    TorusGrid,
    VortexProblem,
    ZeroProfile,
    build_problem,
    residual,
    solve,
    summary_json,
    sweep_sigma,
    write_fields_csv,
)
from triplekit.vortex import TWO_PI, _newton, _newton_direction, _pad

from conftest import descent_witness, energy, identity_defect, smooth_field


class BandProfile(PhiProfile):
    """Nonnegative coupling that vanishes on most of the torus; stands in
    for a section with zeros (the d1 > d2 situation)."""

    def __init__(self, level=1.0):
        self.level = level

    def sample(self, grid):
        x, y = grid.coords()
        w = np.clip(np.cos(TWO_PI * x) * np.cos(TWO_PI * y) - 0.5, 0.0, None)
        return self.level * w * w


def test_grid_validation():
    assert TorusGrid(16).shape == (16, 16)
    for bad in (15, 17, 14, 0, -4):
        with pytest.raises(ValueError):
            TorusGrid(bad)


def test_profile_validation():
    with pytest.raises(ValueError):
        ConstantProfile(0.0)
    with pytest.raises(ValueError):
        ConstantProfile(-1.0)
    with pytest.raises(ValueError):
        CosineProfile(1.0, 1.0)
    with pytest.raises(ValueError):
        CosineProfile(1.0, -0.1)
    with pytest.raises(ValueError):
        CosineProfile(0.0, 0.0)
    with pytest.raises(ValueError, match="level \\+ amplitude finite"):
        CosineProfile(1e308, 9e307)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ConstantProfile(bad)
        with pytest.raises(ValueError):
            CosineProfile(bad, 0.5)
        with pytest.raises(ValueError):
            CosineProfile(1.0, bad)
    grid = TorusGrid(16)
    assert np.all(ZeroProfile().sample(grid) == 0.0)
    assert np.all(CosineProfile(2.0, 0.5).sample(grid) > 0.0)


def test_problem_validation():
    grid = TorusGrid(16)
    with pytest.raises(ValueError):
        VortexProblem(grid=grid, d1=0, d2=0, tau=0.0, tau_prime=0.0,
                      phi_sq=np.zeros((16, 32)))
    with pytest.raises(ConstraintViolationError):
        VortexProblem(grid=grid, d1=0, d2=0, tau=0.0, tau_prime=0.0,
                      phi_sq=np.full(grid.shape, -1.0))


def test_laplacian_eigenfunction():
    grid = TorusGrid(32)
    x, y = grid.coords()
    f = np.cos(TWO_PI * x)
    err = np.abs(grid.laplacian(f) + 4.0 * np.pi**2 * f).max()
    assert err < 1e-10
    g = np.cos(TWO_PI * (2 * x + 3 * y))
    err = np.abs(grid.laplacian(g) + 4.0 * np.pi**2 * 13 * g).max()
    assert err < 1e-9


def test_laplacian_kills_constants_exactly():
    grid = TorusGrid(64)
    assert np.abs(grid.laplacian(np.full(grid.shape, 3.7))).max() == 0.0


def test_laplacian_mean_zero_on_smooth_fields():
    rng = np.random.default_rng(101)
    for n in (32, 64):
        grid = TorusGrid(n)
        for _ in range(15):
            f = smooth_field(n, 5, 1.0, rng)
            assert abs(grid.laplacian(f).mean()) < 1e-13


def test_laplacian_matches_complex_fft_reference():
    # the grid's operator works on the rfft2 half spectrum; the reference
    # transforms the full spectrum with the complex fft2 and its own
    # multiplier.  Rounding in the high modes is scaled by max|k|^2 ~ n^2/2
    # against a smooth field's O(1) Laplacian, so that bound grows with n^2;
    # a white-noise field's Laplacian is itself dominated by those modes.
    rng = np.random.default_rng(17)
    for n in (16, 32, 64, 128, 256):
        grid = TorusGrid(n)
        k = np.fft.fftfreq(n, 1.0 / n)
        mult = -4.0 * np.pi**2 * (k[:, None] ** 2 + k[None, :] ** 2)
        smooth = [smooth_field(n, 5, 1.0, rng) + rng.uniform(-3.0, 3.0) for _ in range(3)]
        noise = [rng.standard_normal(grid.shape) for _ in range(3)]
        for fields, bound in ((smooth, 1e-16 * n**2), (noise, 1e-14)):
            for f in fields:
                ref = np.fft.ifft2(mult * np.fft.fft2(f - f.mean())).real
                rel = np.abs(grid.laplacian(f) - ref).max() / np.abs(ref).max()
                assert rel < bound, (n, rel, bound)


def test_laplacian_shape_check():
    grid = TorusGrid(32)
    with pytest.raises(ValueError):
        grid.laplacian(np.zeros((16, 16)))


def test_build_problem_parameters():
    p = build_problem(64, 1, 0, 2.0, ConstantProfile(1.0))
    assert (p.tau, p.tau_prime) == (1.5, -0.5)
    assert p.sigma == 2.0
    with pytest.raises(ValueError):
        build_problem(15, 0, 0, 1.0, ConstantProfile(1.0))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            build_problem(16, 0, 0, bad, ConstantProfile(1.0))


def test_residual_exact_zero_at_constant_solution():
    # 2*phi*e^0 = 2*pi*sigma with phi = pi, sigma = 1
    p = build_problem(64, 0, 0, 1.0, ConstantProfile(float(np.pi)))
    z = np.zeros(p.grid.shape)
    rep = residual(p, z, z)
    assert rep.sup == 0.0 and rep.l2 == 0.0


def test_residual_value_away_from_solution():
    # at v = 0 the defects are +-(level - pi*sigma): size pi for level pi
    # at sigma 2, and 1e200 (whose square overflows) for level 1e200
    for sigma, level in ((2.0, float(np.pi)), (-1.0, 1e200)):
        p = build_problem(64, 0, 0, sigma, ConstantProfile(level))
        z = np.zeros(p.grid.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = residual(p, z, z)
            s = solve(p)
        assert rep.l2 == pytest.approx(level * np.sqrt(2.0), rel=1e-15)
        assert rep.sup == pytest.approx(level, rel=1e-15)
        if sigma < 0:
            assert s.residual_sup == rep.sup


def test_residual_shift_invariance():
    # simultaneous constant rescaling of both metrics is a flat direction
    p = build_problem(32, 1, 0, 1.5, ConstantProfile(1.0))
    rng = np.random.default_rng(3)
    u1 = smooth_field(32, 2, 0.2, rng)
    u2 = smooth_field(32, 2, 0.2, rng)
    a = residual(p, u1, u2)
    b = residual(p, u1 + 0.7, u2 + 0.7)
    assert np.abs(a.res1 - b.res1).max() < 1e-10
    assert np.abs(a.res2 - b.res2).max() < 1e-10


def test_residual_small_amplitude_linearity():
    p = build_problem(32, 1, 0, 1.5, ConstantProfile(1.0))
    rng = np.random.default_rng(9)
    h = smooth_field(32, 2, 1e-4, rng)
    z = np.zeros_like(h)
    base = residual(p, z, z)
    one = residual(p, h, -h)
    two = residual(p, 2 * h, -2 * h)
    ratio = np.abs(two.res1 - base.res1).max() / np.abs(one.res1 - base.res1).max()
    assert ratio == pytest.approx(2.0, rel=1e-2)


def test_residual_shape_check():
    p = build_problem(32, 0, 0, 1.0, ConstantProfile(1.0))
    with pytest.raises(ValueError):
        residual(p, np.zeros((16, 16)), np.zeros((16, 16)))


def test_problem_rejects_broken_trace_and_non_finite_data():
    # unchecked, each of these reaches a verdict: the NaN taus an
    # "infeasible" with a CG breakdown, the infinite taus and the bad
    # phi_sq cells an "indeterminate" with a NaN residual
    grid = TorusGrid(16)
    ones = np.ones(grid.shape)
    # the trace check allows the rounding of tau and tau_prime, which grows
    # with their size, and no more
    for d1, d2, tau, tau_prime in ((0, 0, 0.5, -0.4), (1, 0, 0.5, -0.4),
                                   (0, 0, 1e17, -1e17 + 1e3)):
        with pytest.raises(ConstraintViolationError, match="trace condition"):
            VortexProblem(grid=grid, d1=d1, d2=d2, tau=tau, tau_prime=tau_prime, phi_sq=ones)
    nan, inf = float("nan"), float("inf")
    one_nan, one_inf = ones.copy(), ones.copy()
    one_nan[3, 5] = nan
    one_inf[3, 5] = inf
    for tau, tau_prime, phi_sq in (
        (nan, nan, ones),
        (inf, -inf, ones),
        (nan, 0.0, ones),
        (1.7e308, -1.7e308, ones),  # finite taus, but sigma = tau - tau' overflows
        (1.0, -1.0, one_nan),
        (1.0, -1.0, one_inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            VortexProblem(grid=grid, d1=0, d2=0, tau=tau, tau_prime=tau_prime, phi_sq=phi_sq)
    # degrees enter the equations as floats; unchecked, a degree of 10**400
    # makes build_problem raise OverflowError, which the CLI does not catch
    big = 10**400
    for d1, d2, name in (
        (big, 0, "d1"),
        (0, -big, "d2"),
        (10**308, 10**308, "d1 + d2"),
        (10**308, -(10**308), "d1 - d2"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{name} does not fit a float")):
            build_problem(16, d1, d2, 1.0, ConstantProfile(1.0))
        with pytest.raises(ValueError, match=re.escape(f"{name} does not fit a float")):
            VortexProblem(grid=grid, d1=d1, d2=d2, tau=0.0, tau_prime=0.0, phi_sq=ones)
    # constants that fit a float only before the factor 2*pi; unchecked, each
    # reaches a verdict whose residual is inf or NaN and cannot be printed
    big = 10**308
    for d1, d2, sigma, name in (
        (big, 0, 1.0, "2*pi*d1"),
        (0, -big, 1.0, "2*pi*d2"),
        (2 * 10**307, -2 * 10**307, 1.0, "2*pi*(d1 - d2)"),
        (0, 0, 1e308, "2*pi*sigma"),
        (0, 0, -1e308, "2*pi*sigma"),
        (0, 0, np.float64(1e308), "2*pi*sigma"),
        (-25 * 10**306, 0, 2.5e307, "2*pi*(d1 - d2 - sigma)"),
        (25 * 10**306, 0, -2.5e307, "2*pi*(d1 - d2 - sigma)"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"{name} must be finite")):
                build_problem(16, d1, d2, sigma, ConstantProfile(1.0))
    for tau, tau_prime, name in (
        (3e307, 2.5e307, "2*pi*tau"),
        (2.5e307, 3e307, "2*pi*tau_prime"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite")):
            VortexProblem(grid=grid, d1=0, d2=0, tau=tau, tau_prime=tau_prime, phi_sq=ones)


def test_trace_check_allows_the_rounding_of_a_large_sigma():
    # past |sigma| ~ 1e16 the halves of d1 + d2 +- sigma round d1 + d2
    # away; build_problem must accept what it built, and the verdicts then
    # follow the threshold sigma > d1 - d2
    for d1, d2, sigma, status in (
        (1, 0, 1e17, SolveStatus.FEASIBLE),
        (1, 0, -1e17, SolveStatus.INFEASIBLE),
        (1, 0, 1e20, SolveStatus.FEASIBLE),
        (-2, 5, -1e20, SolveStatus.INFEASIBLE),
    ):
        p = build_problem(16, d1, d2, sigma, ConstantProfile(1.0))
        assert p.tau + p.tau_prime != d1 + d2, sigma
        s = solve(p)
        assert s.status is status, (sigma, s.certificate)


def test_solve_constant_sigma_one_is_exact():
    p = build_problem(64, 0, 0, 1.0, ConstantProfile(float(np.pi)))
    s = solve(p)
    assert s.status is SolveStatus.FEASIBLE and s.feasible
    assert s.iterations == 0
    assert s.residual_sup == 0.0
    assert np.all(s.u1 == 0.0) and np.all(s.u2 == 0.0)


def test_solve_constant_sigma_two_closed_form():
    # 2*pi*e^{2v} = 2*pi*sigma  =>  v = (1/2) ln 2
    p = build_problem(64, 0, 0, 2.0, ConstantProfile(float(np.pi)))
    s = solve(p, tol=1e-12)
    assert s.feasible
    # Newton starts at the constant that balances the integral budget
    assert s.iterations == 0
    v = s.u1 - s.u2
    assert np.abs(v - 0.5 * np.log(2.0)).max() < 1e-12
    assert s.residual_sup < 1e-12
    # a zero budget still tests that start against the gate
    s = solve(build_problem(16, 0, 0, 2.0, ConstantProfile(float(np.pi))), max_iter=0)
    assert s.status is SolveStatus.FEASIBLE and s.iterations == 0
    assert s.certificate is None and s.residual_sup < 1e-15


def _obstructed(s):
    """Whether the solve ended on the integral obstruction, and did so at v = 0."""
    if not (s.certificate or "").startswith("integral obstruction:"):
        return False
    assert s.status is SolveStatus.INFEASIBLE and not s.feasible and s.iterations == 0
    return True


def test_solve_negative_sigma_diverges_with_certificate():
    p = build_problem(64, 0, 0, -0.5, ConstantProfile(float(np.pi)))
    s = solve(p)
    assert _obstructed(s)
    assert "2*pi*(d1 - d2 - sigma) = 3.14159 >= 0" in s.certificate
    # the obstruction is reported at v = 0: G = -a - 2*pi everywhere
    assert s.residual_sup == pytest.approx(0.5 * (0.5 * TWO_PI + TWO_PI), rel=1e-12)
    # at a = 0 that defect is phi_sq itself, however small next to 2*pi*d1
    s = solve(build_problem(16, 2, 1, 1.0, ConstantProfile(1e-50)))
    assert _obstructed(s) and s.residual_sup == 1e-50
    # the descent witness at a > 0: E is unbounded below along the constants
    assert _witness_energy(p) < -1e20


def test_solve_threshold_boundary_is_infeasible():
    # sigma = d1 - d2 exactly: the integral budget closes only as
    # v -> -infinity, so a descent must drift, not "converge"; E tends to
    # its infimum 0, which no field attains
    p = build_problem(64, 1, 0, 1.0, CosineProfile(3.14159, 1.5))
    assert _obstructed(solve(p))
    assert 0.0 <= _witness_energy(p) < 1e-12
    # one unit above, the same witness reaches the gate, at the v solve found
    p = build_problem(64, 1, 0, 2.0, CosineProfile(3.14159, 1.5))
    status, certificate, v = descent_witness(p)
    assert status is SolveStatus.FEASIBLE and certificate is None
    assert np.abs(v - solve(p).v).max() < 1e-9


_WITNESS_CERTIFICATE = re.compile(
    r"(budget spent|no Armijo decrease|non-finite direction): E fell by (\S+), "
    r"mean\(v\) went from 0 to (\S+) in (\d+) steps"
)


def _witness_energy(p):
    """Run the descent witness from v = 0 below the threshold, check that it
    ends indeterminate with a certificate that reports its own run, and
    return E at the field it returns."""
    status, certificate, v = descent_witness(p)
    assert status is SolveStatus.INDETERMINATE
    m = _WITNESS_CERTIFICATE.fullmatch(certificate or "")
    assert m is not None, certificate
    fall, end, steps = (float(g) for g in m.groups()[1:])
    assert 0 < steps <= 200
    assert end == pytest.approx(v.mean(), rel=1e-5)
    assert fall == pytest.approx(energy(p, np.zeros(p.grid.shape)) - energy(p, v), rel=1e-5)
    return energy(p, v)


def test_obstruction_fires_exactly_at_and_below_threshold():
    # the proof: with a = 2*pi*(d1 - d2 - sigma) >= 0, the mean of
    # G(v) = lap(v) - a - 2*phi_sq*e^{2v} is negative for every field v;
    # lap is recomputed here with numpy.fft, not the grid's operator.
    # Above the threshold every solve, at every coupling scale, is feasible.
    rng = np.random.default_rng(5)
    cases = itertools.product(
        (16, 32), range(3), range(3), range(3), (1e-50, 1e-8, 1.0, 1e8, 1e200)
    )
    for n, which_profile, which_sigma, _, scale in cases:
        d2 = int(rng.integers(-2, 3))
        d1 = d2 + int(rng.integers(-1, 3))
        gap = d1 - d2
        level = float(rng.uniform(0.05, 5.0)) * scale
        profile = (
            ConstantProfile(level),
            CosineProfile(level, float(rng.uniform(0.0, 0.99)) * level),
            BandProfile(scale),
        )[which_profile]
        sigma = (
            float(gap),
            gap - float(rng.uniform(0.01, 2.0)),
            gap + float(rng.uniform(0.05, 2.0)),
        )[which_sigma]
        p = build_problem(n, d1, d2, sigma, profile)
        s = solve(p)
        assert _obstructed(s) == (sigma <= gap), (n, d1, d2, sigma, profile)
        if sigma > gap:
            assert s.status is SolveStatus.FEASIBLE, (n, d1, d2, sigma, profile, s.status)
            # the reported residual is the one at the returned fields
            rep = residual(p, s.u1, s.u2)
            assert abs(s.residual_sup - rep.sup) <= 1e-13, (n, profile, s.residual_sup, rep.sup)
            continue
        if scale != 1.0:
            # at a = 0 a coupling of 1e-50 sinks below the rounding of mean(lap v)
            continue
        a = TWO_PI * (gap - sigma)
        k = np.fft.fftfreq(n, 1.0 / n)
        mult = -4.0 * np.pi**2 * (k[:, None] ** 2 + k[None, :] ** 2)
        for _ in range(3):
            v = smooth_field(n, 3, 1.0, rng) + rng.uniform(-3.0, 3.0)
            lap = np.fft.ifft2(mult * np.fft.fft2(v)).real
            G = lap - a - 2.0 * p.phi_sq * np.exp(2.0 * v)
            assert G.mean() < 0, (n, d1, d2, sigma, profile)


def test_solve_zero_profile_branches():
    good = build_problem(32, 0, 0, 0.0, ZeroProfile())
    s = solve(good)
    assert s.feasible and s.iterations == 0 and s.residual_sup == 0.0
    bad = build_problem(32, 0, 0, 1.0, ZeroProfile())
    s = solve(bad)
    assert s.status is SolveStatus.INFEASIBLE
    assert "zero coupling" in s.certificate
    # with no coupling there is no budget to balance: the pair residual at
    # v = 0 is -+pi*sigma, with no gauge taken from a zero phi_sq
    assert residual(bad, s.u1, s.u2).sup == pytest.approx(np.pi, rel=1e-15)
    # lap(v) = a has no solution for any a != 0, however small
    s = solve(build_problem(16, 0, 0, 1e-13, ZeroProfile()), tol=1e-15)
    assert s.status is SolveStatus.INFEASIBLE and "zero coupling" in s.certificate


def test_newton_takes_its_last_step_before_the_gate_accepts():
    # The gate accepts tol <= sup|G| < 2*tol only once the last step is at
    # the rounding floor of v.  Accepting it at once, the last solve below
    # stops a step early, where a full-spectrum Laplacian reads 2.01e-10 at
    # the returned v (4.7e-11 with the floor condition).  The first read
    # 2.1e-10 when the gate had no step condition, and the second and third
    # read 2.17e-10 and 2.06e-10 when Newton gated on a field other than the
    # v it returned (1.1e-10 now).  The last three are benchmark vortex-solve
    # ops.  CG dot products change with the number of BLAS threads, so each
    # child runs on one, as the benchmark does; the figures come from one
    # host, and another BLAS kernel may not reproduce them.
    code = (
        "import sys, numpy as np, triplekit\n"
        "n, d1, d2, level, amplitude, sigma = (float(x) for x in sys.argv[1:])\n"
        "n, d1, d2 = int(n), int(d1), int(d2)\n"
        "p = triplekit.build_problem(n, d1, d2, sigma, "
        "triplekit.CosineProfile(level, amplitude))\n"
        "s = triplekit.solve(p)\n"
        "k = np.fft.fftfreq(n, 1.0 / n)\n"
        "mult = -4.0 * np.pi**2 * (k[:, None] ** 2 + k[None, :] ** 2)\n"
        "lap = np.fft.ifft2(mult * np.fft.fft2(s.v - s.v.mean())).real\n"
        "G = lap - 2.0 * np.pi * (d1 - d2 - sigma) - 2.0 * p.phi_sq * np.exp(2.0 * s.v)\n"
        "print(s.status.value, float(np.abs(G).max()))\n"
    )
    src = os.path.dirname(os.path.dirname(triplekit.__file__))
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    for case in (
        (256, 0, 1, 1.926978608484802, 0.9130742747108787, 1.8098814180887728),
        (256, 3, 1, 1.087278416053936, 0.523212007580311, 4.751690735962962),
        (256, 2, 0, 1.0287417885733252, 0.4567741611272847, 4.849788451956121),
        (256, 1, 0, 3.2792722403023844, 1.9540671718371583, 3.1614739533856895),
    ):
        out = subprocess.run([sys.executable, "-c", code, *map(repr, case)],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=src, **threads))
        status, gsup = out.stdout.split()
        assert status == "feasible" and float(gsup) < 2e-10, (case, out.stdout)


def test_solve_band_vanishing_profile():
    # coupling vanishing on a region still admits solutions above the
    # threshold; diag = 4*phi_sq*e^{2v} has a positive mean, so the inner
    # operator -lap + diag is symmetric positive definite
    p = build_problem(64, 1, 0, 2.0, BandProfile())
    s = solve(p)
    assert s.feasible
    assert s.residual_sup < 1e-9
    assert identity_defect(p, s.v) < 1e-8
    below = solve(build_problem(64, 1, 0, 1.0, BandProfile()))
    assert below.status is SolveStatus.INFEASIBLE
    # at a large gap v - c0 passes 354 where the coupling vanishes, so
    # e^{2(v - c0)} overflows there; the coupling must stay 0 there, not
    # 0*inf = nan with a RuntimeWarning (an error in this suite)
    s = solve(build_problem(16, 3, 3, 111264.03933792631, BandProfile(2.226714405475406)),
              max_iter=20)
    assert np.isfinite(s.v).all() and math.isfinite(s.residual_sup), s.certificate
    assert s.status is SolveStatus.FEASIBLE or s.certificate.startswith("budget spent")


def test_integral_identity_values():
    p = build_problem(64, 0, 0, 1.0, ConstantProfile(float(np.pi)))
    s = solve(p)
    assert identity_defect(p, s.v) < 1e-10
    v = s.u1 - s.u2
    assert np.mean(2.0 * p.phi_sq * np.exp(2.0 * v)) == pytest.approx(
        TWO_PI, abs=1e-10
    )
    p = build_problem(64, 0, 0, 2.0, CosineProfile(float(np.pi), 0.5 * np.pi))
    s = solve(p)
    assert s.feasible
    assert identity_defect(p, s.v) < 1e-8


def test_jacobian_matches_forward_differences():
    # scalar residual G(v) read off the coupled system: res2 = G/2 in the
    # difference gauge, so G = 2*res2(v/2, -v/2)
    rng = np.random.default_rng(7)
    p = build_problem(32, 1, 0, 1.5, CosineProfile(2.0, 0.7))

    def G(field):
        return 2.0 * residual(p, 0.5 * field, -0.5 * field).res2

    eps = 1e-6
    for _ in range(10):
        v = smooth_field(32, 3, 0.3, rng)
        w = smooth_field(32, 3, 0.3, rng)
        fd = (G(v + eps * w) - G(v)) / eps
        analytic = p.grid.laplacian(w) - 4.0 * p.phi_sq * np.exp(2.0 * v) * w
        rel = np.abs(fd - analytic).max() / np.abs(analytic).max()
        assert rel < 1e-5


def test_grid_convergence_cosine():
    coarse = solve(build_problem(32, 0, 0, 2.0, CosineProfile(float(np.pi), 0.5)), tol=1e-12)
    fine = solve(build_problem(64, 0, 0, 2.0, CosineProfile(float(np.pi), 0.5)), tol=1e-12)
    vc = coarse.u1 - coarse.u2
    vf = fine.u1 - fine.u2
    assert np.abs(vc - vf[::2, ::2]).max() < 1e-6


def test_gradient_flow_decreases_moment_map_norm():
    # explicit flow u_i <- u_i - step*res_i; the step is stable for the
    # band-limited start (|k| <= 1 modes; the multiplier caps at 8*pi^2)
    rng = np.random.default_rng(424242)
    p = build_problem(16, 0, 0, 2.0, ConstantProfile(float(np.pi)))
    u1 = smooth_field(16, 1, 0.02, rng)
    u2 = smooth_field(16, 1, 0.02, rng)
    norms = [residual(p, u1, u2).l2]
    for _ in range(20):
        rep = residual(p, u1, u2)
        u1 = u1 - 1e-3 * rep.res1
        u2 = u2 - 1e-3 * rep.res2
        norms.append(residual(p, u1, u2).l2)
    gaps = [a - b for a, b in zip(norms, norms[1:])]
    assert min(gaps) > 0.01


def test_sweep_crosses_threshold():
    rows = sweep_sigma(32, 1, 0, CosineProfile(3.14159, 1.5), [0.5, 1.0, 1.5, 2.0])
    assert [r.feasible for r in rows] == [False, False, True, True]
    assert all(r.status is not SolveStatus.INDETERMINATE for r in rows)
    assert [r.sigma for r in rows] == [0.5, 1.0, 1.5, 2.0]
    for r in rows:
        if r.feasible:
            assert r.residual_sup < 1e-9


def test_sweep_rejects_unsorted():
    with pytest.raises(ValueError):
        sweep_sigma(32, 0, 0, ConstantProfile(1.0), [1.0, 0.5])
    with pytest.raises(ValueError, match="sigmas must be finite"):
        sweep_sigma(16, 0, 0, ConstantProfile(1.0), [1.0, float("nan"), 2.0])
    # a negative budget is an input error, even where no Newton step would run
    with pytest.raises(ValueError, match="max_iter must be >= 0"):
        sweep_sigma(16, 0, 0, ConstantProfile(1.0), [0.5, 1.0], max_iter=-1)


def test_sweep_warns_on_indeterminate():
    with pytest.warns(SweepWarning):
        rows = sweep_sigma(32, 0, 0, CosineProfile(3.14159, 1.5), [2.0], max_iter=1)
    assert rows[0].status is SolveStatus.INDETERMINATE
    assert not rows[0].feasible


def test_sweep_with_zero_coupling_is_feasible_only_at_the_threshold():
    # lap(v) = a is solvable only at a = 0, so the exact column is
    # infeasible, feasible, infeasible, with nothing to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error", SweepWarning)
        rows = sweep_sigma(16, 0, 0, ZeroProfile(), [-1.0, 0.0, 1.0])
    assert [r.status for r in rows] == [
        SolveStatus.INFEASIBLE, SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE
    ]


def test_solve_rejects_bad_tol_and_budget():
    p = build_problem(16, 0, 0, 1.5, ConstantProfile(1.0))
    with pytest.raises(ValueError, match="tol"):
        solve(p, tol=-1)
    with pytest.raises(ValueError, match="max_iter must be >= 0"):
        solve(p, max_iter=-1)
    with pytest.raises(TypeError):
        solve(p, tol="1e-10")


def test_solve_a_start_past_the_float_range_in_closed_form():
    # Newton's start e^{2*c0} = -a/(2*mean(phi_sq)) overflows a float for a
    # subnormal level, and sigma = 1e300 puts c0 near 346.  The coupling is
    # rho_hat*e^{2(v - c0)} with rho_hat = phi_sq/mean(phi_sq) and c0 formed
    # from logs, so a constant level is solved at its start,
    # v = ln(pi*sigma/level)/2.  sigma = 1e-310 makes |a| subnormal, and
    # 1/|a| past the float range must not turn the start's G into nan
    for level, sigma in ((1e-308, 2.0), (5e-324, 2.0), (1e-300, 2.0), (1.0, 1e300), (1.0, 1e-310)):
        p = build_problem(16, 0, 0, sigma, ConstantProfile(level))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = solve(p)
        assert s.status is SolveStatus.FEASIBLE and s.iterations == 0, (level, sigma)
        assert s.residual_sup == 0.0, (level, sigma, s.residual_sup)
        v = 0.5 * (math.log(np.pi * sigma) - math.log(level))
        assert np.abs(s.v - v).max() <= 1e-15 * abs(v), (level, sigma)


def test_solve_clears_the_rounding_floor_at_extreme_coupling_scales():
    # |c0| >> 1: sup|v| is near 230 and 58 here, so storing v in doubles
    # alone puts sup|G| at the returned v near 6.7e-10 and 3.2e-9, above
    # 2*tol however long Newton runs: the status says so, indeterminate with
    # the budget spent, and residual_sup is the residual at the returned v.
    # That residual stays below the rounding bound
    # eps*(max|mult|*sup|v| + |a| + sup 2*phi_sq*e^{2v}) of G
    for n, level in ((64, 1e200), (256, 1e-50)):
        p = build_problem(n, 0, 0, 2.0, CosineProfile(level, 0.9 * level))
        s = solve(p, max_iter=20)
        assert s.status is SolveStatus.INDETERMINATE and s.iterations == 20, (n, level)
        assert s.certificate.startswith("budget spent:"), (n, level, s.certificate)
        rep = residual(p, s.u1, s.u2)
        assert s.residual_sup == pytest.approx(rep.sup, abs=1e-13), (n, level, s.residual_sup)
        a = TWO_PI * (p.d1 - p.d2 - p.sigma)
        coupling = 2.0 * np.exp(np.log(p.phi_sq) + 2.0 * s.v)
        bound = np.finfo(float).eps * (
            8.0 * np.pi**2 * (n // 2) ** 2 * np.abs(s.v).max() + abs(a) + coupling.max()
        )
        assert rep.sup < bound, (n, level, rep.sup, bound)


def test_write_fields_csv(tmp_path):
    p = build_problem(16, 0, 0, 1.0, ConstantProfile(float(np.pi)))
    s = solve(p)
    out = tmp_path / "fields.csv"
    write_fields_csv(str(out), p, s)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "u1", "u2", "res1", "res2"]
    assert len(rows) == 1 + 16 * 16
    # row-major: second row is (x=0, y=1/16)
    assert float(rows[1][0]) == 0.0 and float(rows[1][1]) == 0.0
    assert float(rows[2][1]) == 1.0 / 16
    assert all(float(c) == 0.0 for c in rows[1][4:])
    # byte-for-byte the header plus one "%.17g" row per cell, row-major
    p = build_problem(16, 1, 0, 2.0, CosineProfile(2.0, 0.7))
    s = solve(p)
    write_fields_csv(str(out), p, s)
    rep = residual(p, s.u1, s.u2)
    x, y = p.grid.coords()
    cols = (x, y, s.u1, s.u2, rep.res1, rep.res2)
    expected = "x,y,u1,u2,res1,res2\n" + "".join(
        ",".join(f"{c[i, j]:.17g}" for c in cols) + "\n"
        for i in range(16)
        for j in range(16)
    )
    assert out.read_bytes() == expected.encode()


def test_summary_json_key_set():
    p = build_problem(16, 1, 0, 2.0, ConstantProfile(1.0))
    s = solve(p)
    d = summary_json(p, s)
    assert set(d) == {
        "sigma", "tau", "tau_prime", "d1", "d2", "feasible",
        "residual_sup", "iterations", "status",
    }
    # status is the last key, where the CLI once appended it
    assert list(d)[-1] == "status" and d["status"] == "feasible"
    assert d["sigma"] == 2.0 and d["d1"] == 1 and d["feasible"] is True


def _direction_diags(grid):
    """The operator diagonals the direction tests run on: decaying over
    eight decades, zero on half the torus (alone and scaled by 1e4, where
    the operator is dominated by its diagonal) and a positive cosine."""
    x, y = grid.coords()
    decaying = np.logspace(-8.0, 0.0, grid.n * grid.n).reshape(grid.shape)
    # zero where the coupling vanishes; a positive mean keeps the operator
    # definite on the constants
    vanishing = np.where(x < 0.5, 0.0, 1.0)
    cosine = 4.0 * (1.0 + 0.9 * np.cos(TWO_PI * x) * np.cos(TWO_PI * y))
    return {"decaying": decaying, "vanishing": vanishing,
            "vanishing*1e4": 1e4 * vanishing, "cosine": cosine}


def _dense_laplacian(grid):
    """Column-by-column matrix of delta -> lap(delta)."""
    n = grid.n
    L = np.empty((n * n, n * n))
    for k in range(n * n):
        e = np.zeros(n * n)
        e[k] = 1.0
        L[:, k] = grid.laplacian(e.reshape(n, n)).ravel()
    return L


def test_newton_direction_matches_dense_solve():
    # two sizes, so the Nyquist column of the half spectrum is exercised
    # twice; lam = 1/|a| scales the Laplacian, 1e-3 where the diagonal
    # dominates the operator and 1e3 where the Laplacian does.  The error is
    # at most cond(A) times the true relative residual, which is CG's 1e-10
    # stop plus the drift of its recursive residual (up to 7.3e-10 here):
    # at lam = 1e3 with the decaying diagonal cond(A) reaches 3.7e8
    rng = np.random.default_rng(31)
    for n in (16, 32):
        grid = TorusGrid(n)
        L = _dense_laplacian(grid)
        diags = _direction_diags(grid)
        for lam in (1.0, 1e-3, 1e3):
            for name, diag in diags.items():
                A = -lam * L + np.diag(diag.ravel())
                bound = 1e-8
                if lam != 1.0:
                    eig = np.linalg.eigvalsh(A)
                    bound = max(bound, 1e-9 * eig[-1] / eig[0])
                for _ in range(3):
                    G = rng.standard_normal(grid.shape)
                    ref = np.linalg.solve(A, G.ravel()).reshape(grid.shape)
                    got = _newton_direction(grid, lam, diag, G)
                    rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                    assert rel < bound, (n, lam, name, rel, bound)
        zero = np.zeros(grid.shape)
        assert np.all(_newton_direction(grid, 1.0, diags["decaying"], zero) == 0.0)


def test_newton_direction_makes_one_transform_pair_per_cg_iteration(monkeypatch):
    # the operator product comes from the preconditioner's recurrence, so
    # the preconditioner solve is the only rfft2/irfft2 pair of an
    # iteration and the Laplacian is never called; each iteration forms
    # two inner products (r.z and p.q), which gives the iteration count
    def refuse(*args, **kwargs):
        raise AssertionError("refused call")

    counts = dict.fromkeys(("rfft2", "irfft2", "dot"), 0)

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(np.fft, "rfft2")
    counted(np.fft, "irfft2")
    counted(np, "dot")
    monkeypatch.setattr(TorusGrid, "laplacian", refuse)
    grid = TorusGrid(32)
    rng = np.random.default_rng(17)
    # a constant diagonal is the preconditioner itself: one iteration
    cases = dict(_direction_diags(grid), constant=np.full(grid.shape, 2.0))
    for name, diag in cases.items():
        for key in counts:
            counts[key] = 0
        delta = _newton_direction(grid, 1.0, diag, rng.standard_normal(grid.shape))
        assert delta is not None and np.isfinite(delta).all(), name
        iterations = counts["dot"] // 2
        assert counts["dot"] == 2 * iterations and iterations >= 1, (name, counts)
        assert counts["rfft2"] == counts["irfft2"] == iterations, (name, counts)
        if name == "constant":
            assert iterations == 1, counts


def test_newton_direction_true_residual_at_large_n():
    # the true residual, recomputed with the grid's own Laplacian, and not
    # the recursive one CG stops on: rounding that drifts in the tracked
    # product M*p would show here, at sizes the dense test cannot reach
    rng = np.random.default_rng(29)
    for n in (64, 128):
        grid = TorusGrid(n)
        for name, diag in _direction_diags(grid).items():
            G = rng.standard_normal(grid.shape)
            delta = _newton_direction(grid, 1.0, diag, G)
            defect = G - (-grid.laplacian(delta) + diag * delta)
            rel = np.linalg.norm(defect) / np.linalg.norm(G)
            assert rel < 1e-9, (n, name, rel)


def test_pad_reproduces_the_coarse_samples():
    # the band-limited interpolant: the coarse samples at the shared nodes,
    # the coarse spectrum below m/2, nothing past it; (24, 48) has an even
    # m/2 and (16, 256) pads by 16 in each direction
    rng = np.random.default_rng(23)
    for m, n in ((16, 256), (32, 64), (24, 48)):
        f = rng.standard_normal((m, m))
        padded = _pad(f, n)
        assert padded.shape == (n, n)
        assert np.abs(padded[:: n // m, :: n // m] - f).max() < 1e-14, (m, n)
        coarse, fine = np.fft.fftshift(np.fft.fft2(f)) / m**2, np.fft.fftshift(np.fft.fft2(padded)) / n**2
        inner = slice(n // 2 - m // 2 + 1, n // 2 + m // 2)
        assert np.abs(fine[inner, inner] - coarse[1:, 1:]).max() < 1e-15, (m, n)
        kx = np.abs(np.fft.fftfreq(n, 1.0 / n))
        past = np.maximum(kx[:, None], kx[None, :]) > m // 2
        assert np.abs(np.fft.fft2(padded))[past].max() / n**2 < 1e-15, (m, n)


def _count_transforms(monkeypatch):
    """Count rfft2 and irfft2 calls by the grid size of their real array,
    and the grid size of each Newton direction."""
    counts = collections.Counter()
    directions = []

    def counted(name, fn, size):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name, size(args, out)] += 1
            return out
        monkeypatch.setattr(np.fft, name, wrapper)

    counted("rfft2", np.fft.rfft2, lambda args, out: args[0].shape[0])
    counted("irfft2", np.fft.irfft2, lambda args, out: out.shape[0])

    def direction(grid, lam, diag, G):
        directions.append(grid.n)
        return _newton_direction(grid, lam, diag, G)
    monkeypatch.setattr("triplekit.vortex._newton_direction", direction)
    return counts, directions


def test_solve_runs_newton_on_the_coarsest_grid_that_resolves_it(monkeypatch):
    counts, directions = _count_transforms(monkeypatch)
    # a cosine coupling is resolved at 16: every CG transform runs below n,
    # and at n one rfft2 reads phi_sq's spectrum, one irfft2 pads the coarse
    # v and one Laplacian pair gates it
    p = build_problem(256, 1, 0, 2.0, CosineProfile(2.0, 1.4))
    s = solve(p)
    assert s.feasible and s.iterations > 0 and directions, s.iterations
    assert max(directions) < 256 and min(directions) == 16, directions
    assert counts["rfft2", 256] == 2 and counts["irfft2", 256] == 2, counts
    assert sum(counts[k] for k in counts if k[1] < 256) >= 2 * len(directions), counts
    assert s.spectral_tail < 1e-10
    fine, _ = _newton(p, 1e-10, 200)
    assert fine.feasible
    assert np.abs(s.v - fine.v).max() < 1e-12 * (1.0 + np.abs(fine.v).max())
    # a band coupling has a kink, so no level resolves it: Newton runs at n
    # from c0, exactly as a fine-only solve
    counts.clear()
    directions.clear()
    p = build_problem(64, 1, 0, 2.0, BandProfile())
    s = solve(p)
    assert s.feasible and set(directions) == {64}
    assert {size for _, size in counts} == {64}, counts
    assert s.spectral_tail > 1e-10
    fine, _ = _newton(p, 1e-10, 200)
    assert s.v.tobytes() == fine.v.tobytes()
    assert (s.residual_sup, s.iterations, s.status, s.certificate) == (
        fine.residual_sup, fine.iterations, fine.status, fine.certificate)
    # resolution is read on phi_sq/mean(phi_sq), whatever its level: at 1e200
    # the tail of phi_sq at 16 is 7.2e186, and that of the ratio 6.4e-14
    directions.clear()
    p = build_problem(64, 0, 0, 2.0, CosineProfile(1e200, 9e199))
    s = solve(p, max_iter=20)
    assert s.iterations == 20 and directions[0] == 16, directions


def test_max_iter_bounds_the_steps_on_all_grids(monkeypatch):
    _, directions = _count_transforms(monkeypatch)
    for n in (32, 128):
        p = build_problem(n, 0, 0, 2.0, CosineProfile(3.14159, 1.5))
        # the starting constant balances the integral budget
        c0 = 0.5 * math.log(TWO_PI * (p.sigma - p.d1 + p.d2) / (2.0 * p.phi_sq.mean()))
        start = solve(p, max_iter=0)
        assert start.iterations == 0
        for max_iter in range(4):
            directions.clear()
            s = solve(p, max_iter=max_iter)
            assert s.iterations <= max_iter and len(directions) == s.iterations, (max_iter, directions)
            if s.certificate is not None:
                assert s.certificate.endswith(f" in {s.iterations} steps"), s.certificate
            if max_iter in (1, 2):
                # a budget spent on a coarse grid hands its padded v to n, and
                # the certificate reports the steps taken there: E fell from
                # the start at c0
                assert s.iterations == max_iter
                assert s.residual_sup < 0.1 * start.residual_sup, (n, max_iter, s.residual_sup)
                m = re.search(r"E fell by (\S+), mean\(v\) went from (\S+) to", s.certificate)
                assert m is not None, s.certificate
                fall, mean0 = (float(g) for g in m.groups())
                assert fall > 0 and mean0 == pytest.approx(c0, rel=1e-5), s.certificate
    directions.clear()
    s = solve(p)
    # the coarse grids take the steps, and they count
    assert s.feasible and len(directions) == s.iterations and 128 not in directions


def test_spectral_layer_runs_on_the_real_fft(monkeypatch):
    # with the complex 2-D transforms and the pair residual made to fail, a
    # feasible solve and a Newton direction still go through: the real FFT
    # carries them, and solve reports the defect of the G it gated on
    def refuse(*args, **kwargs):
        raise AssertionError("refused call")

    monkeypatch.setattr(np.fft, "fft2", refuse)
    monkeypatch.setattr(np.fft, "ifft2", refuse)
    monkeypatch.setattr("triplekit.vortex.residual", refuse)
    p = build_problem(64, 1, 0, 2.0, CosineProfile(3.14159, 1.5))
    s = solve(p)
    assert s.feasible and s.iterations > 0
    # u1 and u2 are derived from the v that was solved for, bit for bit
    assert (s.u1 - s.u2).tobytes() == s.v.tobytes()
    assert s.u2.tobytes() == (-s.u1).tobytes()
    grid = p.grid
    G = np.random.default_rng(3).standard_normal(grid.shape)
    delta = _newton_direction(grid, 1.0, np.full(grid.shape, 2.0), G)
    assert delta is not None and np.isfinite(delta).all()
    # the proofs run no transform at all
    monkeypatch.setattr(np.fft, "rfft2", refuse)
    monkeypatch.setattr(np.fft, "irfft2", refuse)
    assert _obstructed(solve(build_problem(64, 1, 0, 1.0, CosineProfile(3.14159, 1.5))))
    s = solve(build_problem(64, 0, 0, 0.0, ZeroProfile()))
    assert s.feasible and s.residual_sup == 0.0


def test_import_and_solve_do_not_load_scipy():
    # numpy stays out until a vortex name is used; scipy stays out for good
    code = (
        "import sys, triplekit\n"
        "print('numpy' in sys.modules)\n"
        "s = triplekit.solve(triplekit.build_problem("
        "16, 0, 0, 2.0, triplekit.ConstantProfile(3.14159)))\n"
        "assert s.feasible\n"
        "print('scipy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(triplekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split() == ["False", "False"]
