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

import argparse
import json
import random
import re
import sys
import warnings
from fractions import Fraction
from typing import List, Optional

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
    SubtripleInvariants,
    TripleInvariants,
    dual_invariants,
)
from .stability import mu_sigma, sigma_from_tau, tau_prime, theta_tau

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _parse_rational(text: str, label: str) -> Fraction:
    t = text.strip()
    if not _RATIONAL_RE.match(t):
        raise ValueError(
            f"{label} must be an exact rational 'p/q' (or integer), got {text!r}; "
            "decimal input is rejected for exact-arithmetic commands"
        )
    return Fraction(t)


def _parse_ints(text: str, label: str, count: int) -> List[int]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != count:
        raise ValueError(f"{label} must be {count} comma-separated integers, got {text!r}")
    try:
        return [int(s) for s in parts]
    except ValueError:
        raise ValueError(f"{label} must contain integers only, got {text!r}")


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
        raise ValueError(f"--profile {text!r}: {exc}")
    raise ValueError(
        f"--profile must be 'constant:LEVEL', 'cosine:LEVEL:AMPLITUDE' or 'zero', "
        f"got {text!r}"
    )


def _interval_json(iv) -> list:
    return [str(iv.lower), None if iv.upper is None else str(iv.upper)]


def _csv_lines(payload: dict, prefix: str = ""):
    # key,value lines; lists joined with ';', nested keys joined with '.'
    for key, val in payload.items():
        if isinstance(val, dict):
            yield from _csv_lines(val, f"{prefix}{key}.")
            continue
        if isinstance(val, list):
            val = ";".join("" if x is None else str(x) for x in val)
        yield f"{prefix}{key},{val}"


def _emit(payload, fmt: str) -> None:
    # the JSON encoding is made in either format: it rejects inf and nan,
    # so a non-finite number exits 2 and is never printed as a verdict
    text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    if fmt == "json":
        print(text)
    elif isinstance(payload, list):
        # a list of records is a table: a header, then one row per record
        print(",".join(payload[0]))
        for rec in payload:
            print(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in rec.values()))
    else:
        for line in _csv_lines(payload):
            print(line)


# name -> (function, options); each option is (flag, add_argument keywords)
_COMMANDS = {}


def _command(name: str, *options):
    def register(fn):
        _COMMANDS[name] = (fn, options)
        return fn

    return register


_TRIPLE = ("--triple", dict(required=True, help="r1,r2,d1,d2"))
_TAU = ("--tau", dict(dest="tau_text", required=True, help="rational p/q"))
_WINDOW = ("--window", dict(type=int, required=True, help="degree window >= 1"))
_N = ("--n", dict(type=int, default=64, help="(default 64)"))
_D1 = ("--d1", dict(type=int, required=True))
_D2 = ("--d2", dict(type=int, required=True))
_PROFILE = ("--profile", dict(dest="profile_text", required=True,
                              help="constant:LEVEL | cosine:LEVEL:AMPLITUDE | zero"))
_TOL = ("--tol", dict(type=float, default=1e-10, help="(default 1e-10)"))
_MAX_ITER = ("--max-iter", dict(type=int, default=200, help="(default 200)"))
_FORMAT = ("--format", dict(dest="fmt", choices=["json", "csv"], default="json",
                            help="Output format."))
_HELP = ("--help", dict(action="help", help="Show this message and exit."))


def main(argv: Optional[List[str]] = None) -> None:
    """Exact stability arithmetic for bundle triples and a vortex solver."""
    parser = argparse.ArgumentParser(
        prog="triplekit", description=main.__doc__, add_help=False, allow_abbrev=False
    )
    parser.add_argument(_HELP[0], **_HELP[1])
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (fn, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                  add_help=False, allow_abbrev=False)
        for flag, kwargs in options + (_FORMAT, _HELP):
            sub.add_argument(flag, **kwargs)
    # every option takes one value: pass it as --opt=value, the form in
    # which argparse also reads values such as -3/2 or -1e-3 as values
    flags = {flag for _, options in _COMMANDS.values() for flag, _ in options + (_FORMAT,)}
    joined = []
    tokens = iter(sys.argv[1:] if argv is None else argv)
    for tok in tokens:
        value = next(tokens, None) if tok in flags else None
        joined.append(tok if value is None else f"{tok}={value}")
    args = vars(parser.parse_args(joined))
    fn = _COMMANDS[args.pop("command")][0]
    try:
        fn(**args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


@_command("theta", _TRIPLE, ("--sub", dict(required=True, help="r1',r2',d1',d2'")), _TAU)
def theta(triple: str, sub: str, tau_text: str, fmt: str) -> None:
    """Destabilization functional of a subobject."""
    T = _parse_triple(triple)
    Tp = _parse_sub(sub)
    tau = _parse_rational(tau_text, "--tau")
    _emit({"theta": str(theta_tau(T, Tp, tau))}, fmt)


@_command(
    "convert", _TRIPLE,
    ("--tau", dict(dest="tau_text", help="rational p/q")),
    ("--sigma", dict(dest="sigma_text", help="rational p/q")),
)
def convert(triple: str, tau_text: Optional[str], sigma_text: Optional[str], fmt: str) -> None:
    """Convert between the tau and sigma parameters."""
    T = _parse_triple(triple)
    if (tau_text is None) == (sigma_text is None):
        raise ValueError("convert needs exactly one of --tau or --sigma")
    if tau_text is not None:
        tau = _parse_rational(tau_text, "--tau")
    else:
        tau = mu_sigma(T, _parse_rational(sigma_text, "--sigma"))
    _emit(
        {
            "tau": str(tau),
            "tau_prime": str(tau_prime(T, tau)),
            "sigma": str(sigma_from_tau(T, tau)),
        },
        fmt,
    )


@_command(
    "bounds", _TRIPLE,
    ("--tau", dict(dest="tau_text", help="also report slope thresholds at this tau")),
    ("--genus", dict(type=int, help="also report the fibration bound")),
)
def bounds(triple: str, tau_text: Optional[str], genus: Optional[int], fmt: str) -> None:
    """Admissible parameter intervals and related bounds."""
    T = _parse_triple(triple)
    payload = {
        "tau_interval": _interval_json(parameter_interval(T)),
        "sigma_interval": _interval_json(sigma_interval(T)),
        "small_tau_window": str(small_tau_window(T)),
    }
    if tau_text is not None:
        # a stable triple bounds subobject slopes above and quotient
        # slopes below by tau (first bundle) and tau' (second bundle)
        tau = _parse_rational(tau_text, "--tau")
        t, tp = str(tau), str(tau_prime(T, tau))
        payload["thresholds"] = {
            "sub_E1_bound": t,
            "sub_kernel_bound": tp,
            "quot_E2_bound": tp,
            "quot_E1_bound": t,
        }
    if genus is not None:
        payload["fibration_bound"] = fibration_bound(T, genus)
    _emit(payload, fmt)


@_command("walls", _TRIPLE, _WINDOW)
def walls(triple: str, window: int, fmt: str) -> None:
    """Candidate wall values inside the admissible interval."""
    T = _parse_triple(triple)
    dec = enumerate_walls(T, window)
    _emit(
        {
            "interval": _interval_json(dec.interval),
            "walls": [str(w) for w in dec.walls],
        },
        fmt,
    )


@_command("generic", _TRIPLE, _TAU, _WINDOW)
def generic(triple: str, tau_text: str, window: int, fmt: str) -> None:
    """Whether tau avoids every candidate wall (exit 1 when it does not)."""
    T = _parse_triple(triple)
    tau = _parse_rational(tau_text, "--tau")
    ok = is_generic(T, tau, window)
    _emit({"tau": str(tau), "window": window, "generic": ok}, fmt)
    if not ok:
        sys.exit(1)


@_command("dimension", _TRIPLE, ("--genus", dict(type=int, required=True)))
def dimension(triple: str, genus: int, fmt: str) -> None:
    """Expected moduli dimension."""
    T = _parse_triple(triple)
    dim = moduli_dimension(T, genus)
    if fmt == "json":
        print(json.dumps(dim))
    else:
        print(f"dimension,{dim}")


@_command("dual", _TRIPLE, _TAU)
def dual(triple: str, tau_text: str, fmt: str) -> None:
    """Dual triple and the parameter value paired with tau."""
    T = _parse_triple(triple)
    tau = _parse_rational(tau_text, "--tau")
    Td = dual_invariants(T)
    _emit(
        {
            "dual_triple": [Td.r1, Td.r2, Td.d1, Td.d2],
            "dual_tau": str(dual_parameter(T, tau)),
            "sigma": str(sigma_from_tau(T, tau)),
        },
        fmt,
    )


@_command(
    "reduce-check", _TRIPLE,
    ("--sigma", dict(dest="sigma_text", required=True, help="rational p/q, > 0")),
    ("--sub", dict(help="r1',r2',d1',d2' (omit to sample)")),
    ("--samples", dict(type=int, default=100,
                       help="number of random subobjects when --sub is omitted (default 100)")),
    ("--seed", dict(type=int, default=0, help="(default 0)")),
)
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
        raise ValueError("--samples must be >= 1")
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


@_command(
    "vortex-solve", _N, _D1, _D2, ("--sigma", dict(type=float, required=True)),
    _PROFILE, _TOL, _MAX_ITER,
    ("--dump-fields", dict(dest="dump_path", help="write x,y,u1,u2,res1,res2 CSV to this path")),
)
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
        try:
            write_fields_csv(dump_path, prob, sol)
        except OSError as exc:
            raise ValueError(f"--dump-fields cannot be written: {exc}") from None
    _emit(payload, fmt)
    if sol.status is not SolveStatus.FEASIBLE:
        if sol.certificate:
            print(f"certificate: {sol.certificate}", file=sys.stderr)
        sys.exit(1)


@_command(
    "vortex-sweep", _N, _D1, _D2,
    ("--sigmas", dict(dest="sigmas_text", required=True, help="comma-separated, ascending")),
    _PROFILE, _TOL, _MAX_ITER,
)
def vortex_sweep(
    n: int, d1: int, d2: int, sigmas_text: str, profile_text: str,
    tol: float, max_iter: int, fmt: str,
) -> None:
    """Feasibility sweep over sigma values (exit 1 on indeterminate rows)."""
    from .vortex import SolveStatus, SweepWarning, sweep_sigma

    try:
        sigmas = [float(s) for s in sigmas_text.split(",")]
    except ValueError:
        raise ValueError(f"--sigmas must be comma-separated floats, got {sigmas_text!r}")
    profile = _parse_profile(profile_text)
    # the rows decide the exit; numpy's own warnings pass through
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SweepWarning)
        rows = sweep_sigma(n, d1, d2, profile, sigmas, tol=tol, max_iter=max_iter)
    _emit([{"sigma": r.sigma, "feasible": r.feasible, "residual_sup": r.residual_sup,
            "iterations": r.iterations, "status": r.status.value} for r in rows], fmt)
    if any(r.status is SolveStatus.INDETERMINATE for r in rows):
        print("warning: sweep contains indeterminate verdicts", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
