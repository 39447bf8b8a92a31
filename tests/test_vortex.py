import csv
import itertools
import os
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
    integral_identity_check,
    residual,
    solve,
    solve_diagonal,
    summary_json,
    sweep_sigma,
    write_fields_csv,
)
from triplekit.vortex import DIAG_FLOOR, TWO_PI, _newton, _newton_direction

from conftest import smooth_field


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
            assert s.residual_l2 == rep.l2 and s.residual_sup == rep.sup


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
    with pytest.raises(ConstraintViolationError, match="trace condition"):
        VortexProblem(grid=grid, d1=0, d2=0, tau=0.5, tau_prime=-0.4, phi_sq=ones)
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
    w = _newton(p, 1e-10, 200)
    assert w.status is SolveStatus.INFEASIBLE and not w.feasible
    assert w.certificate is not None and "blow-up" in w.certificate


def test_solve_threshold_boundary_is_infeasible():
    # sigma = d1 - d2 exactly: the integral budget closes only as
    # v -> -infinity, so Newton must diverge, not "converge"
    p = build_problem(64, 1, 0, 1.0, CosineProfile(3.14159, 1.5))
    assert _obstructed(solve(p))
    w = _newton(p, 1e-10, 200)
    assert w.status is SolveStatus.INFEASIBLE
    assert w.certificate is not None


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


def test_solve_band_vanishing_profile():
    # coupling vanishing on a region still admits solutions above the
    # threshold; the Jacobian floor keeps the inner solves nonsingular
    p = build_problem(64, 1, 0, 2.0, BandProfile())
    s = solve(p)
    assert s.feasible
    assert s.residual_sup < 1e-9
    assert integral_identity_check(p, s) < 1e-8
    below = solve(build_problem(64, 1, 0, 1.0, BandProfile()))
    assert below.status is SolveStatus.INFEASIBLE


def test_integral_identity_values():
    p = build_problem(64, 0, 0, 1.0, ConstantProfile(float(np.pi)))
    s = solve(p)
    assert integral_identity_check(p, s) < 1e-10
    v = s.u1 - s.u2
    assert np.mean(2.0 * p.phi_sq * np.exp(2.0 * v)) == pytest.approx(
        TWO_PI, abs=1e-10
    )
    p = build_problem(64, 0, 0, 2.0, CosineProfile(float(np.pi), 0.5 * np.pi))
    s = solve(p)
    assert s.feasible
    assert integral_identity_check(p, s) < 1e-8


def test_integral_identity_requires_feasible():
    p = build_problem(64, 0, 0, -0.5, ConstantProfile(float(np.pi)))
    s = solve(p)
    with pytest.raises(ConstraintViolationError):
        integral_identity_check(p, s)


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


def test_sweep_warns_on_indeterminate():
    with pytest.warns(SweepWarning):
        rows = sweep_sigma(32, 0, 0, CosineProfile(3.14159, 1.5), [2.0], max_iter=1)
    assert rows[0].status is SolveStatus.INDETERMINATE
    assert not rows[0].feasible


def test_solve_diagonal_all_feasible():
    rep = solve_diagonal(
        [
            build_problem(32, 0, 0, 1.5, ConstantProfile(1.0)),
            build_problem(32, 1, 0, 1.5, ConstantProfile(2.0)),
        ]
    )
    assert rep.feasible
    assert len(rep) == 2 and rep.failed_indices == []
    assert all(s.feasible for s in rep)


def test_solve_diagonal_collects_failures():
    rep = solve_diagonal(
        [
            build_problem(32, 0, 0, 1.5, ConstantProfile(1.0)),
            build_problem(32, 1, 0, 0.5, ConstantProfile(1.0)),
            build_problem(32, 1, 0, 1.5, ConstantProfile(1.0)),
        ]
    )
    assert not rep.feasible
    assert rep.failed_indices == [1]
    assert rep[0].feasible and not rep[1].feasible and rep[2].feasible
    assert rep[1].status is SolveStatus.INFEASIBLE


def test_solve_diagonal_propagates_programming_errors():
    # a problem that breaks the trace condition cannot be built, so every
    # error left is about the call itself and is raised, not filed per
    # component; a bad shared tol raises once
    problems = [build_problem(16, 0, 0, 1.5, ConstantProfile(1.0))] * 2
    with pytest.raises(ValueError, match="tol"):
        solve_diagonal(problems, tol=-1)
    with pytest.raises(TypeError):
        solve_diagonal(problems, tol="1e-10")


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
        "residual_sup", "iterations",
    }
    assert d["sigma"] == 2.0 and d["d1"] == 1 and d["feasible"] is True


def _dense_operator(grid, diag):
    """Column-by-column matrix of delta -> -lap(delta) + diag*delta."""
    n = grid.n
    A = np.empty((n * n, n * n))
    for k in range(n * n):
        e = np.zeros(n * n)
        e[k] = 1.0
        e = e.reshape(n, n)
        A[:, k] = (-grid.laplacian(e) + diag * e).ravel()
    return A


def test_newton_direction_matches_dense_solve():
    grid = TorusGrid(16)
    x, _ = grid.coords()
    rng = np.random.default_rng(31)
    decaying = np.logspace(-8.0, 0.0, 16 * 16).reshape(grid.shape)
    # zero on half the torus, as where the coupling vanishes: the floor
    # lifts those cells to DIAG_FLOOR; an all-floor diagonal would leave the
    # dense reference numerically singular (condition number ~1e32)
    floored = np.where(x < 0.5, 0.0, 1.0)
    for diag in (decaying, floored):
        A = _dense_operator(grid, np.maximum(diag, DIAG_FLOOR))
        for _ in range(3):
            G = rng.standard_normal(grid.shape)
            ref = np.linalg.solve(A, G.ravel()).reshape(grid.shape)
            got = _newton_direction(grid, diag, G)
            rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            assert rel < 1e-8
    zero = np.zeros(grid.shape)
    assert np.all(_newton_direction(grid, decaying, zero) == 0.0)


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
