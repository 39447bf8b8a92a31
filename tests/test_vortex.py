import csv
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
    reduce_to_scalar,
    residual,
    solve,
    solve_diagonal,
    summary_json,
    sweep_sigma,
    write_fields_csv,
)
from triplekit.vortex import DIAG_FLOOR, TWO_PI, _newton_direction

from conftest import smooth_field


class BandProfile(PhiProfile):
    """Nonnegative coupling that vanishes on most of the torus; stands in
    for a section with zeros (the d1 > d2 situation)."""

    def sample(self, grid):
        x, y = grid.coords()
        w = np.clip(np.cos(TWO_PI * x) * np.cos(TWO_PI * y) - 0.5, 0.0, None)
        return w * w


def test_grid_validation():
    assert TorusGrid(16).spacing == 1.0 / 16
    assert TorusGrid(64).cell_weight == 1.0 / 4096
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
            assert abs(grid.integrate(grid.laplacian(f))) < 1e-13


def test_laplacian_shape_check():
    grid = TorusGrid(32)
    with pytest.raises(ValueError):
        grid.laplacian(np.zeros((16, 16)))


def test_build_problem_parameters():
    p = build_problem(64, 1, 0, 2.0, ConstantProfile(1.0))
    assert (p.tau, p.tau_prime) == (1.5, -0.5)
    assert p.sigma == 2.0
    assert p.c1 == TWO_PI and p.c2 == 0.0
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
    p = build_problem(64, 0, 0, 2.0, ConstantProfile(float(np.pi)))
    z = np.zeros(p.grid.shape)
    assert residual(p, z, z).l2 == pytest.approx(np.pi * np.sqrt(2.0), abs=1e-14)
    assert residual(p, z, z).sup == pytest.approx(np.pi, abs=1e-14)


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


def test_reduce_to_scalar_rhs():
    p = build_problem(32, 1, 0, 2.0, ConstantProfile(0.5))
    red = reduce_to_scalar(p)
    assert np.all(red.difference_rhs == 1.0 - TWO_PI)
    # integral budget: mean rhs = 2*pi*(d1-d2-sigma) + 2*mean(phi)
    assert p.grid.integrate(red.difference_rhs) == pytest.approx(
        TWO_PI * (1 - 2.0) + 1.0, abs=1e-13
    )


def test_reduce_to_scalar_rejects_broken_trace():
    grid = TorusGrid(32)
    p = VortexProblem(grid=grid, d1=0, d2=0, tau=0.5, tau_prime=-0.4,
                      phi_sq=np.ones(grid.shape))
    with pytest.raises(ConstraintViolationError):
        reduce_to_scalar(p)
    with pytest.raises(ConstraintViolationError):
        solve(p)


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
    v = s.u1 - s.u2
    assert np.abs(v - 0.5 * np.log(2.0)).max() < 1e-12
    assert s.residual_sup < 1e-12


def test_solve_negative_sigma_diverges_with_certificate():
    p = build_problem(64, 0, 0, -0.5, ConstantProfile(float(np.pi)))
    s = solve(p)
    assert s.status is SolveStatus.INFEASIBLE and not s.feasible
    assert s.certificate is not None and "blow-up" in s.certificate


def test_solve_threshold_boundary_is_infeasible():
    # sigma = d1 - d2 exactly: the integral budget closes only as
    # v -> -infinity, so Newton must diverge, not "converge"
    p = build_problem(64, 1, 0, 1.0, CosineProfile(3.14159, 1.5))
    s = solve(p)
    assert s.status is SolveStatus.INFEASIBLE
    assert s.certificate is not None


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
    assert p.grid.integrate(2.0 * p.phi_sq * np.exp(2.0 * v)) == pytest.approx(
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
    assert len(rep) == 2 and rep.failed_indices == [] and rep.errors == []
    assert all(s.feasible for s in rep)


def test_solve_diagonal_collects_failures_and_errors():
    grid = TorusGrid(32)
    broken = VortexProblem(grid=grid, d1=0, d2=0, tau=0.6, tau_prime=-0.5,
                           phi_sq=np.ones(grid.shape))
    rep = solve_diagonal(
        [
            build_problem(32, 0, 0, 1.5, ConstantProfile(1.0)),
            broken,
            build_problem(32, 1, 0, 0.5, ConstantProfile(1.0)),
        ]
    )
    assert not rep.feasible
    assert rep.failed_indices == [1, 2]
    assert [i for i, _ in rep.errors] == [1]
    assert rep[1] is None
    assert rep[0].feasible and not rep[2].feasible


def test_solve_diagonal_propagates_programming_errors():
    # only ValueError (which covers InvariantError) is a component verdict;
    # a TypeError is a bug and must not be filed as a failed component
    grid = TorusGrid(16)
    garbled = VortexProblem(grid=grid, d1=0, d2=0, tau="1", tau_prime=0.0,
                            phi_sq=np.ones(grid.shape))
    with pytest.raises(TypeError):
        solve_diagonal([build_problem(16, 0, 0, 1.5, ConstantProfile(1.0)), garbled])


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
    code = (
        "import sys, triplekit\n"
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
    assert out.stdout.strip() == "False"
