"""Batch command line for the library.

One subcommand per operation family; JSON (default) or key/value CSV on
stdout.  Exact-arithmetic commands take rationals as 'p/q' strings only;
decimals are rejected so nothing silently leaves exact arithmetic.  The
vortex commands take ordinary floats and import the numeric module (and
numpy) only when they run.

Exit codes: 0 success; 1 for a negative but valid verdict (non-generic
parameter, infeasible or indeterminate solve, sweep with indeterminate rows);
2 for input errors, each with a message naming the violated precondition.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import re
import sys
import warnings
from fractions import Fraction
from typing import List, Optional

import click

from .chambers import (
    enumerate_walls,
    fibration_bound,
    is_generic,
    moduli_dimension,
    parameter_interval,
    sigma_interval,
    small_tau_window,
)
from .extensions import check_slope_equivalence, dual_parameter
from .invariants import (
    InvariantError,
    SubtripleInvariants,
    TripleInvariants,
    dual_invariants,
)
from .stability import mu_sigma, sigma_from_tau, tau_prime, theta_tau

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _parse_rational(text: str, label: str) -> Fraction:
    t = text.strip()
    if not _RATIONAL_RE.match(t):
        _fail(
            f"{label} must be an exact rational 'p/q' (or integer), got {text!r}; "
            "decimal input is rejected for exact-arithmetic commands"
        )
    return Fraction(t)


def _parse_ints(text: str, label: str, count: int) -> List[int]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != count:
        _fail(f"{label} must be {count} comma-separated integers, got {text!r}")
    try:
        return [int(s) for s in parts]
    except ValueError:
        _fail(f"{label} must contain integers only, got {text!r}")


def _parse_triple(text: str) -> TripleInvariants:
    return TripleInvariants(*_parse_ints(text, "--triple", 4))


def _parse_sub(text: str) -> SubtripleInvariants:
    return SubtripleInvariants(*_parse_ints(text, "--sub", 4))


def _parse_profile(text: str):
    from .vortex import ConstantProfile, CosineProfile, ZeroProfile

    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "zero" and len(parts) == 1:
            return ZeroProfile()
        if kind == "constant" and len(parts) == 2:
            return ConstantProfile(float(parts[1]))
        if kind == "cosine" and len(parts) == 3:
            return CosineProfile(float(parts[1]), float(parts[2]))
    except ValueError as exc:
        _fail(f"--profile {text!r}: {exc}")
    _fail(
        f"--profile must be 'constant:LEVEL', 'cosine:LEVEL:AMPLITUDE' or 'zero', "
        f"got {text!r}"
    )


def _rat(x: Fraction) -> str:
    return str(x)


def _interval_json(iv) -> list:
    return [_rat(iv.lower), None if iv.upper is None else _rat(iv.upper)]


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(payload, separators=(",", ":"), allow_nan=False))
        return
    # key,value lines; lists joined with ';'
    if not isinstance(payload, dict):
        payload = {"value": payload}
    for key, val in payload.items():
        if isinstance(val, list):
            val = ";".join("" if x is None else str(x) for x in val)
        click.echo(f"{key},{val}")


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InvariantError, ValueError) as exc:
            _fail(str(exc))

    return wrapper


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
    help="Output format.",
)


@click.group()
def main() -> None:
    """Exact stability arithmetic for bundle triples and a vortex solver."""


@main.command()
@click.option("--triple", required=True, help="r1,r2,d1,d2")
@click.option("--sub", required=True, help="r1',r2',d1',d2'")
@click.option("--tau", "tau_text", required=True, help="rational p/q")
@_format_option
@_guard
def theta(triple: str, sub: str, tau_text: str, fmt: str) -> None:
    """Destabilization functional of a subobject."""
    T = _parse_triple(triple)
    Tp = _parse_sub(sub)
    tau = _parse_rational(tau_text, "--tau")
    _emit({"theta": _rat(theta_tau(T, Tp, tau))}, fmt)


@main.command()
@click.option("--triple", required=True, help="r1,r2,d1,d2")
@click.option("--tau", "tau_text", default=None, help="rational p/q")
@click.option("--sigma", "sigma_text", default=None, help="rational p/q")
@_format_option
@_guard
def convert(triple: str, tau_text: Optional[str], sigma_text: Optional[str], fmt: str) -> None:
    """Convert between the tau and sigma parameters."""
    T = _parse_triple(triple)
    if (tau_text is None) == (sigma_text is None):
        _fail("convert needs exactly one of --tau or --sigma")
    if tau_text is not None:
        tau = _parse_rational(tau_text, "--tau")
    else:
        tau = mu_sigma(T, _parse_rational(sigma_text, "--sigma"))
    _emit(
        {
            "tau": _rat(tau),
            "tau_prime": _rat(tau_prime(T, tau)),
            "sigma": _rat(sigma_from_tau(T, tau)),
        },
        fmt,
    )


@main.command()
@click.option("--triple", required=True, help="r1,r2,d1,d2")
@click.option("--tau", "tau_text", default=None, help="also report slope thresholds at this tau")
@click.option("--genus", type=int, default=None, help="also report the fibration bound")
@_format_option
@_guard
def bounds(triple: str, tau_text: Optional[str], genus: Optional[int], fmt: str) -> None:
    """Admissible parameter intervals and related bounds."""
    T = _parse_triple(triple)
    payload = {
        "tau_interval": _interval_json(parameter_interval(T)),
        "sigma_interval": _interval_json(sigma_interval(T)),
        "small_tau_window": _rat(small_tau_window(T)),
    }
    if tau_text is not None:
        # a stable triple bounds subobject slopes above and quotient
        # slopes below by tau (first bundle) and tau' (second bundle)
        tau = _parse_rational(tau_text, "--tau")
        t, tp = _rat(tau), _rat(tau_prime(T, tau))
        payload["thresholds"] = {
            "sub_E1_bound": t,
            "sub_kernel_bound": tp,
            "quot_E2_bound": tp,
            "quot_E1_bound": t,
        }
    if genus is not None:
        payload["fibration_bound"] = fibration_bound(T, genus)
    _emit(payload, fmt)


@main.command()
@click.option("--triple", required=True, help="r1,r2,d1,d2")
@click.option("--window", type=int, required=True, help="degree window >= 1")
@_format_option
@_guard
def walls(triple: str, window: int, fmt: str) -> None:
    """Candidate wall values inside the admissible interval."""
    T = _parse_triple(triple)
    dec = enumerate_walls(T, window)
    _emit(
        {
            "interval": _interval_json(dec.interval),
            "walls": [_rat(w) for w in dec.walls],
        },
        fmt,
    )


@main.command()
@click.option("--triple", required=True, help="r1,r2,d1,d2")
@click.option("--tau", "tau_text", required=True, help="rational p/q")
@click.option("--window", type=int, required=True, help="degree window >= 1")
@_format_option
@_guard
def generic(triple: str, tau_text: str, window: int, fmt: str) -> None:
    """Whether tau avoids every candidate wall (exit 1 when it does not)."""
    T = _parse_triple(triple)
    tau = _parse_rational(tau_text, "--tau")
    ok = is_generic(T, tau, window)
    _emit({"tau": _rat(tau), "window": window, "generic": ok}, fmt)
    if not ok:
        sys.exit(1)


@main.command()
@click.option("--triple", required=True, help="r1,r2,d1,d2")
@click.option("--genus", type=int, required=True)
@_format_option
@_guard
def dimension(triple: str, genus: int, fmt: str) -> None:
    """Expected moduli dimension."""
    T = _parse_triple(triple)
    dim = moduli_dimension(T, genus)
    if fmt == "json":
        click.echo(json.dumps(dim))
    else:
        click.echo(f"dimension,{dim}")


@main.command()
@click.option("--triple", required=True, help="r1,r2,d1,d2")
@click.option("--tau", "tau_text", required=True, help="rational p/q")
@_format_option
@_guard
def dual(triple: str, tau_text: str, fmt: str) -> None:
    """Dual triple and the parameter value paired with tau."""
    T = _parse_triple(triple)
    tau = _parse_rational(tau_text, "--tau")
    Td = dual_invariants(T)
    _emit(
        {
            "dual_triple": [Td.r1, Td.r2, Td.d1, Td.d2],
            "dual_tau": _rat(dual_parameter(T, tau)),
            "sigma": _rat(sigma_from_tau(T, tau)),
        },
        fmt,
    )


@main.command(name="reduce-check")
@click.option("--triple", required=True, help="r1,r2,d1,d2")
@click.option("--sigma", "sigma_text", required=True, help="rational p/q, > 0")
@click.option("--sub", default=None, help="r1',r2',d1',d2' (omit to sample)")
@click.option("--samples", type=int, default=100, show_default=True,
              help="number of random subobjects when --sub is omitted")
@click.option("--seed", type=int, default=0, show_default=True)
@_format_option
@_guard
def reduce_check(
    triple: str, sigma_text: str, sub: Optional[str], samples: int, seed: int, fmt: str
) -> None:
    """Three-way slope equivalence check (exit 1 on any disagreement)."""
    T = _parse_triple(triple)
    sigma = _parse_rational(sigma_text, "--sigma")
    if sub is not None:
        rec = check_slope_equivalence(T, _parse_sub(sub), sigma)
        _emit(
            {
                "f_slope_test": rec.f_slope_test,
                "theta_test": rec.theta_test,
                "sigma_slope_test": rec.sigma_slope_test,
                "consistent": rec.consistent,
            },
            fmt,
        )
        if not rec.consistent:
            sys.exit(1)
        return
    if samples < 1:
        _fail("--samples must be >= 1")
    rng = random.Random(seed)
    checked = 0
    while checked < samples:
        r1p = rng.randint(0, T.r1)
        r2p = rng.randint(0, T.r2)
        if (r1p, r2p) == (0, 0):
            continue
        d1p = rng.randint(-10, 10) if r1p else 0
        d2p = rng.randint(-10, 10) if r2p else 0
        Tp = SubtripleInvariants(r1p, r2p, d1p, d2p)
        if Tp.equals_full(T):
            continue
        rec = check_slope_equivalence(T, Tp, sigma)
        if not rec.consistent:
            _emit({"samples": checked, "seed": seed, "all_consistent": False}, fmt)
            sys.exit(1)
        checked += 1
    _emit({"samples": samples, "seed": seed, "all_consistent": True}, fmt)


@main.command(name="vortex-solve")
@click.option("--n", type=int, default=64, show_default=True)
@click.option("--d1", type=int, required=True)
@click.option("--d2", type=int, required=True)
@click.option("--sigma", type=float, required=True)
@click.option("--profile", "profile_text", required=True,
              help="constant:LEVEL | cosine:LEVEL:AMPLITUDE | zero")
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--max-iter", type=int, default=200, show_default=True)
@click.option("--dump-fields", "dump_path", default=None,
              help="write x,y,u1,u2,res1,res2 CSV to this path")
@_format_option
@_guard
def vortex_solve(
    n: int, d1: int, d2: int, sigma: float, profile_text: str,
    tol: float, max_iter: int, dump_path: Optional[str], fmt: str,
) -> None:
    """Solve one vortex problem (exit 1 unless feasible)."""
    from .vortex import SolveStatus, build_problem, solve, summary_json, write_fields_csv

    prob = build_problem(n, d1, d2, sigma, _parse_profile(profile_text))
    sol = solve(prob, tol=tol, max_iter=max_iter)
    payload = summary_json(prob, sol)
    if dump_path is not None:
        write_fields_csv(dump_path, prob, sol)
    _emit(payload, fmt)
    if sol.status is not SolveStatus.FEASIBLE:
        if sol.certificate:
            click.echo(f"certificate: {sol.certificate}", err=True)
        sys.exit(1)


@main.command(name="vortex-sweep")
@click.option("--n", type=int, default=64, show_default=True)
@click.option("--d1", type=int, required=True)
@click.option("--d2", type=int, required=True)
@click.option("--sigmas", "sigmas_text", required=True,
              help="comma-separated, ascending")
@click.option("--profile", "profile_text", required=True,
              help="constant:LEVEL | cosine:LEVEL:AMPLITUDE | zero")
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--max-iter", type=int, default=200, show_default=True)
@_format_option
@_guard
def vortex_sweep(
    n: int, d1: int, d2: int, sigmas_text: str, profile_text: str,
    tol: float, max_iter: int, fmt: str,
) -> None:
    """Feasibility sweep over sigma values (exit 1 on indeterminate rows)."""
    from .vortex import SweepWarning, sweep_sigma

    try:
        sigmas = [float(s) for s in sigmas_text.split(",")]
    except ValueError:
        _fail(f"--sigmas must be comma-separated floats, got {sigmas_text!r}")
    profile = _parse_profile(profile_text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = sweep_sigma(n, d1, d2, profile, sigmas, tol=tol, max_iter=max_iter)
    records = [dict(dataclasses.asdict(r), status=r.status.value) for r in rows]
    if fmt == "json":
        click.echo(json.dumps(records, separators=(",", ":"), allow_nan=False))
    else:
        click.echo(",".join(records[0]))
        for rec in records:
            cells = (f"{v:.17g}" if isinstance(v, float) else str(v) for v in rec.values())
            click.echo(",".join(cells))
    sweep_issues = [w for w in caught if issubclass(w.category, SweepWarning)]
    if sweep_issues:
        for w in sweep_issues:
            click.echo(f"warning: {w.message}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
