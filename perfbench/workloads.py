"""The four workloads: seeded inputs, one operation, and its checks.

Each workload builds a round of operations from a random.Random.  A run
draws fresh rounds from one seeded stream, so the same seed gives the same
inputs, and every round has the same make-up, so the share of known-fault
operations is the same in every run.  check() returns a list of problems
(empty when the output is right); corrupt() returns damaged copies of an
output, each of which check() must reject.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import oracle
from tracing import program_env

TOL = 1e-10


class Workload:
    name = ""
    min_ops = 1          # a run keeps going until it has at least this many
    tail_pct = 90        # highest percentile with >= 10 operations beyond it at min_ops
    trace_rounds = 1     # rounds in the traced run when this workload is named

    def __init__(self, tk, root):
        self.tk = tk
        self.root = root

    def make_round(self, rng):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError

    def corrupt(self, op, out):
        raise NotImplementedError

    def known_fault(self, op, problems):
        """True when problems are exactly a fault this benchmark counts as failed."""
        return False

    def warmup(self, ops):
        """Operations run before timing so lazy caches are filled; the
        first one is the warm-up of a setup_s probe, so its cost must not
        depend on the seed."""
        raise NotImplementedError


# ---- exact-chambers -----------------------------------------------------

def _candidates(r1, r2, d1, d2, W):
    """Number of (d1', d2') pairs enumerate_walls visits; its run time follows this."""
    total = 0
    for r1p in range(r1 + 1):
        for r2p in range(r2 + 1):
            if (r1p, r2p) in ((0, 0), (r1, r2)) or r2 * r1p == r1 * r2p:
                continue
            a = 1 if r1p == 0 else max(0, min(W, d1) + W + 1)
            b = 1 if r2p == 0 else max(0, min(W, d2) + W + 1)
            total += a * b
    return total


class ExactChambers(Workload):
    """One operation is one query about one triple.

    A round is a ladder of triples sized by how many candidates
    enumerate_walls visits: a geometric run below the median, a cluster
    of MID_RUNGS at the median size, a geometric run above it and a
    cluster of TOP_RUNGS at the largest size.  The clusters hold the
    median and the tail percentile, so both are estimated from many
    operations of one size instead of falling between two sizes, and
    the work in a round hardly depends on the seed.  The seed picks the
    ranks (1..8), degrees, window (2..60), taus and subobjects.
    """

    name = "exact-chambers"
    LOW, MID, HIGH = 100, 1100, 12500
    LOW_RUNGS, MID_RUNGS, HIGH_RUNGS, TOP_RUNGS = 8, 9, 5, 3
    N_TAUS, N_SUBS = 4, 6
    min_ops = 200
    tail_pct = 95
    trace_rounds = 2

    @classmethod
    def targets(cls):
        def ladder(a, b, k):
            return [a * (b / a) ** (i / k) for i in range(k)]
        return (ladder(cls.LOW, cls.MID, cls.LOW_RUNGS) + [cls.MID] * cls.MID_RUNGS
                + ladder(cls.MID, cls.HIGH, cls.HIGH_RUNGS + 1)[1:] + [cls.HIGH] * cls.TOP_RUNGS)

    def _triple(self, rng, target):
        while True:
            r1, r2 = rng.randint(1, 8), rng.randint(1, 8)
            d1, d2 = rng.randint(-20, 40), rng.randint(-40, 20)
            if d1 * r2 <= d2 * r1:       # mu1 > mu2 keeps the interval nonempty and sigma > 0
                continue
            W = min(range(2, 61), key=lambda w: abs(_candidates(r1, r2, d1, d2, w) - target))
            if abs(_candidates(r1, r2, d1, d2, W) / target - 1) <= 0.05:
                return (r1, r2, d1, d2), W

    def make_round(self, rng):
        ops = []
        for target in self.targets():
            T, W = self._triple(rng, target)
            r1, r2 = T[:2]
            walls = oracle.walls(*T, W)
            lower, upper = oracle.interval(*T)
            lo = Fraction(*lower)
            hi = Fraction(*upper) if upper else (walls[-1] if walls else lo) + 1
            points = [lo] + walls + [hi]
            on = rng.sample(walls, min(len(walls), self.N_TAUS // 2))
            off = []
            while len(on) + len(off) < self.N_TAUS:
                j = rng.randrange(len(points) - 1)
                off.append((points[j] + points[j + 1]) / 2)
            taus = on + off
            subs = []
            while len(subs) < self.N_SUBS:
                r1p, r2p = rng.randint(0, r1), rng.randint(0, r2)
                sub = (r1p, r2p, rng.randint(-W, W) if r1p else 0, rng.randint(-W, W) if r2p else 0)
                if (r1p, r2p) != (0, 0) and sub != T:
                    subs.append(sub)
            ops.append({"T": T, "W": W, "taus": taus, "subs": subs,
                        "sigmas": [oracle.sigma_of_tau(T, t) for t in taus],
                        "genus": rng.randint(0, 5), "walls": walls})
        rng.shuffle(ops)
        return ops

    def warmup(self, ops):
        return [min(ops, key=lambda op: _candidates(*op["T"], op["W"]))]

    def run(self, op):
        tk = self.tk
        T = tk.TripleInvariants(*op["T"])
        W = op["W"]
        dec = tk.enumerate_walls(T, W)
        generic = [tk.is_generic(T, tau, W) for tau in op["taus"]]
        per_sub = []
        for i, s in enumerate(op["subs"]):
            sub = tk.SubtripleInvariants(*s)
            tau, sigma = op["taus"][i % len(op["taus"])], op["sigmas"][i % len(op["taus"])]
            eq = tk.check_slope_equivalence(T, sub, sigma)
            per_sub.append((tk.theta_tau(T, sub, tau), tk.mu_sigma(sub, sigma),
                            tk.mu_sigma(T, sigma),
                            (eq.f_slope_test, eq.theta_test, eq.sigma_slope_test)))
        Td = tk.dual_invariants(T)
        return {"walls": list(dec.walls), "generic": generic, "per_sub": per_sub,
                "dim": tk.moduli_dimension(T, op["genus"]),
                "dual": (Td.r1, Td.r2, Td.d1, Td.d2),
                "dual_tau": tk.dual_parameter(T, op["taus"][0])}

    def check(self, op, out):
        T = op["T"]
        r1, r2, d1, d2 = T
        problems = []
        if out["walls"] != op["walls"]:
            problems.append(f"walls differ from the degree-sum enumeration for {T}, W={op['W']}")
        wallset = set(op["walls"])
        for tau, g in zip(op["taus"], out["generic"]):
            if g != (tau not in wallset):
                problems.append(f"is_generic({T}, {tau}) = {g}")
        for i, (s, (th, mus, mut, legs)) in enumerate(zip(op["subs"], out["per_sub"])):
            tau = op["taus"][i % len(op["taus"])]
            num = oracle.theta_numerator(T, s, tau)
            if (th > 0) - (th < 0) != (num > 0) - (num < 0) or th != oracle.theta_exact(T, s, tau):
                problems.append(f"theta_tau({T}, {s}, {tau}) = {th}")
            if mus - mut != th or mut != tau:
                problems.append(f"mu_sigma disagrees with theta for {T}, {s}")
            if legs != (num < 0,) * 3:
                problems.append(f"slope equivalence legs {legs} for {T}, {s}")
        if out["dim"] != oracle.dimension(T, op["genus"]) or out["dim"] != oracle.dimension(out["dual"], op["genus"]):
            problems.append(f"moduli_dimension({T}) = {out['dim']}")
        if out["dual"] != (r2, r1, -d2, -d1):
            problems.append(f"dual_invariants({T}) = {out['dual']}")
        if oracle.sigma_of_tau(out["dual"], out["dual_tau"]) != op["sigmas"][0]:
            problems.append(f"dual_parameter({T}) = {out['dual_tau']} does not keep sigma")
        return problems

    def corrupt(self, op, out):
        bad = []
        if out["walls"]:
            bad.append(dict(out, walls=out["walls"][1:]))
        bad.append(dict(out, generic=[not out["generic"][0]] + out["generic"][1:]))
        th, mus, mut, legs = out["per_sub"][0]
        bad.append(dict(out, per_sub=[(th + Fraction(1, 10**6), mus, mut, legs)] + out["per_sub"][1:]))
        return bad


# ---- vortex-solve -------------------------------------------------------

def _profile(tk, p):
    if p[0] == "constant":
        return tk.ConstantProfile(p[1])
    return tk.CosineProfile(p[1], p[2])


def _cosine(rng):
    level = rng.uniform(1.0, 4.0)
    return ("cosine", level, level * rng.uniform(0.2, 0.9))


class VortexSolve(Workload):
    """One operation is build_problem then solve at a feasible sigma.

    The grid size splits solve times into bands.  A round holds a constant
    and a cosine problem at n = 64, a constant and four cosine problems at
    n = 128 and two cosine problems at n = 256, so the median falls inside
    the n = 128 cosine cluster and the 90th percentile inside the n = 256
    one, while the n = 256 solves take most of the time.
    """

    name = "vortex-solve"
    MIX = ((64, "constant"), (64, "cosine"), (128, "constant")) + ((128, "cosine"),) * 4 + (
        (256, "cosine"),) * 2
    min_ops = 100
    tail_pct = 90
    trace_rounds = 2

    def make_round(self, rng):
        ops = []
        for n, kind in self.MIX:
            prof = ("constant", rng.uniform(0.5, 4.0)) if kind == "constant" else _cosine(rng)
            d2 = rng.randint(-1, 1)
            gap = rng.randint(-1, 2)
            ops.append({"n": n, "d1": d2 + gap, "d2": d2, "profile": prof,
                        "sigma": gap + rng.uniform(0.3, 3.0)})
        rng.shuffle(ops)
        return ops

    def warmup(self, ops):
        return [next(op for op in ops if op["n"] == n and op["profile"][0] == "constant")
                for n in (64, 128)] + [next(op for op in ops if op["n"] == 256)]

    def run(self, op):
        tk = self.tk
        p = tk.build_problem(op["n"], op["d1"], op["d2"], op["sigma"], _profile(tk, op["profile"]))
        s = tk.solve(p, tol=TOL)
        return {"status": s.status.value, "feasible": s.feasible, "v": s.u1 - s.u2,
                "iterations": s.iterations}

    def check(self, op, out):
        import numpy as np
        n, d1, d2, sigma, prof = op["n"], op["d1"], op["d2"], op["sigma"], op["profile"]
        if out["status"] != "feasible" or out["feasible"] is not True:
            return [f"status {out['status']} at feasible sigma for {op}"]
        problems = []
        v = out["v"]
        g = oracle.reduced_residual(n, d1, d2, sigma, prof, v)
        if not g < 2 * TOL:
            problems.append(f"reduced residual {g:.3e} >= 2 tol for {op}")
        idd = oracle.identity_defect(n, d1, d2, sigma, prof, v)
        if not idd < 2 * TOL:
            problems.append(f"integral identity defect {idd:.3e} for {op}")
        if prof[0] == "constant":
            exact = 0.5 * math.log(math.pi * (sigma - (d1 - d2)) / prof[1])
            err = float(np.abs(v - exact).max())
            if not err < 1e-9:
                problems.append(f"constant solution off the closed form by {err:.3e} for {op}")
        return problems

    def corrupt(self, op, out):
        v = out["v"].copy()
        v[0, 0] += 1e-6
        return [dict(out, v=v), dict(out, status="infeasible", feasible=False)]


# ---- vortex-threshold ---------------------------------------------------

class VortexThreshold(Workload):
    """One operation is one short sweep_sigma call straddling d1 - d2.

    Every sweep holds three sigmas below the boundary and one above, so
    three of its four solves are infeasible drifts.  Two sweeps per round
    use a constant profile and fixed inputs that include the boundary
    itself: there they hit the known indeterminate fault and count as
    failed.  The other sweeps use seeded cosine profiles at n = 16 and stop
    short of the boundary, where a cosine solve now and then drifts to
    v = -41 and reports "feasible" with residual_sup 1e-35; a verdict that
    depends on the seed cannot be a counted failure.
    """

    name = "vortex-threshold"
    FIXED = (
        {"n": 16, "d1": 0, "d2": 0, "profile": ("constant", 1.0), "sigmas": [-1.0, -0.05, 0.0, 0.5]},
        {"n": 32, "d1": 2, "d2": 1, "profile": ("constant", math.pi), "sigmas": [0.0, 0.9, 1.0, 1.5]},
    )
    SEEDED = (16,) * 8
    min_ops = 50
    tail_pct = 80
    trace_rounds = 1

    def __init__(self, tk, root):
        super().__init__(tk, root)
        # the rows are the result; the warning only repeats what check() finds
        warnings.simplefilter("ignore", tk.SweepWarning)

    def make_round(self, rng):
        ops = [dict(op, fixed=True) for op in self.FIXED]
        for n in self.SEEDED:
            d2 = rng.randint(-1, 1)
            gap = rng.randint(-1, 2)
            sigmas = [gap - rng.uniform(0.5, 1.5), gap - rng.uniform(0.15, 0.4),
                      gap - rng.uniform(0.02, 0.15), gap + rng.uniform(0.05, 1.0)]
            ops.append({"n": n, "d1": d2 + gap, "d2": d2, "profile": _cosine(rng),
                        "sigmas": sigmas, "fixed": False})
        rng.shuffle(ops)
        return ops

    def warmup(self, ops):
        return sorted((op for op in ops if op["fixed"]), key=lambda op: op["n"])

    def run(self, op):
        rows = self.tk.sweep_sigma(op["n"], op["d1"], op["d2"], _profile(self.tk, op["profile"]),
                                   op["sigmas"], tol=TOL)
        return [(r.sigma, r.feasible, r.residual_sup, r.status.value) for r in rows]

    def check(self, op, out):
        gap = op["d1"] - op["d2"]
        if [r[0] for r in out] != op["sigmas"]:
            return [f"rows do not match the sigmas of {op}"]
        problems = []
        for sigma, feasible, res, status in out:
            want = sigma > gap
            if status == "indeterminate":
                problems.append(f"indeterminate at sigma={sigma} (d1-d2={gap}) for {op['profile']}")
            elif feasible != want or status != ("feasible" if want else "infeasible"):
                problems.append(f"sigma={sigma}: feasible={feasible}, status={status}, d1-d2={gap}")
            if feasible and not res < 2 * TOL:
                problems.append(f"feasible row at sigma={sigma} has residual_sup {res:.3e}")
        return problems

    def known_fault(self, op, problems):
        # solve at sigma = d1 - d2 with a constant profile returns
        # indeterminate although the discrete system has no solution there
        gap = op["d1"] - op["d2"]
        return op["fixed"] and problems == [
            f"indeterminate at sigma={float(gap)} (d1-d2={gap}) for {op['profile']}"]

    def corrupt(self, op, out):
        last = out[-1]
        flipped = [(s, not f, r, "infeasible" if f else "feasible") for s, f, r, _ in out[:1]] + out[1:]
        return [out[:-1] + [(last[0], last[1], last[2] + 1e-6, last[3])], flipped, out[:-1]]


# ---- cli ----------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _rat(x):
    return str(Fraction(x))


def _matches(payload, want):
    """payload equals want, where a callable in want is a predicate on the value."""
    if callable(want):
        return want(payload)
    if isinstance(want, list):
        return isinstance(payload, list) and len(payload) == len(want) and all(
            _matches(p, w) for p, w in zip(payload, want))
    if isinstance(want, dict):
        return isinstance(payload, dict) and set(payload) == set(want) and all(
            _matches(payload[k], w) for k, w in want.items())
    return type(payload) is type(want) and payload == want


class Cli(Workload):
    """One operation is one `python -m triplekit <command>` process.

    A round is one call of each exact subcommand plus one vortex-solve and
    one vortex-sweep at n = 64.  The exact inputs are small, so every call
    is dominated by interpreter start and imports, as real CLI calls are.
    """

    name = "cli"
    min_ops = 40
    tail_pct = 75
    trace_rounds = 2
    EXACT = ("walls", "generic", "theta", "convert", "bounds", "dimension", "dual", "reduce-check")
    VORTEX = ("vortex-solve", "vortex-sweep")

    def __init__(self, tk, root):
        super().__init__(tk, root)
        self.env = program_env(root)
        self.max_rss_kb = 0

    def _triple(self, rng):
        while True:
            T = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(-6, 6), rng.randint(-6, 6))
            if T[2] * T[1] > T[3] * T[0]:
                return T

    def make_round(self, rng):
        ops = []
        for cmd in self.EXACT + self.VORTEX:
            T = self._triple(rng)
            W = rng.randint(2, 8)
            walls = oracle.walls(*T, W)
            lower, upper = oracle.interval(*T)
            lo = Fraction(*lower)
            hi = Fraction(*upper) if upper else lo + 2
            tau = rng.choice(walls) if walls and rng.random() < 0.5 else lo + (hi - lo) * Fraction(rng.randint(1, 99), 100)
            sigma = oracle.sigma_of_tau(T, tau)
            op = {"cmd": cmd, "T": T, "W": W, "tau": tau, "sigma": sigma, "walls": walls,
                  "genus": rng.randint(0, 4)}
            trip = ",".join(map(str, T))
            if cmd == "walls":
                args = ["--triple", trip, "--window", str(W)]
            elif cmd == "generic":
                args = ["--triple", trip, "--tau", _rat(tau), "--window", str(W)]
            elif cmd == "theta":
                r1p, r2p = rng.choice([(a, b) for a in range(T[0] + 1) for b in range(T[1] + 1)
                                       if (a, b) not in ((0, 0), (T[0], T[1]))])
                op["sub"] = (r1p, r2p, rng.randint(-6, 6) if r1p else 0, rng.randint(-6, 6) if r2p else 0)
                args = ["--triple", trip, "--sub", ",".join(map(str, op["sub"])), "--tau", _rat(tau)]
            elif cmd == "convert":
                args = ["--triple", trip, "--sigma", _rat(sigma)]
            elif cmd == "bounds":
                args = ["--triple", trip, "--tau", _rat(tau), "--genus", str(op["genus"])]
            elif cmd == "dimension":
                args = ["--triple", trip, "--genus", str(op["genus"])]
            elif cmd == "dual":
                args = ["--triple", trip, "--tau", _rat(tau)]
            elif cmd == "reduce-check":
                op["seed"] = rng.randint(0, 10**6)
                args = ["--triple", trip, "--sigma", _rat(sigma), "--samples", "50", "--seed", str(op["seed"])]
            elif cmd == "vortex-solve":
                d2 = rng.randint(-1, 1)
                op.update(d1=d2 + rng.randint(-1, 2), d2=d2, profile=_cosine(rng))
                op["vsigma"] = op["d1"] - d2 + rng.uniform(0.3, 3.0)
                lvl, amp = op["profile"][1:]
                args = ["--n", "64", "--d1", str(op["d1"]), "--d2", str(d2), "--sigma", repr(op["vsigma"]),
                        "--profile", f"cosine:{lvl!r}:{amp!r}"]
            else:
                d2 = rng.randint(-1, 1)
                gap = rng.randint(-1, 2)
                op.update(d1=d2 + gap, d2=d2, level=rng.uniform(0.5, 4.0))
                op["vsigmas"] = [gap - rng.uniform(0.5, 1.5), gap + rng.uniform(0.05, 1.0),
                                 gap + rng.uniform(1.0, 3.0)]
                args = ["--n", "64", "--d1", str(op["d1"]), "--d2", str(d2),
                        "--sigmas", ",".join(map(repr, op["vsigmas"])),
                        "--profile", f"constant:{op['level']!r}"]
            op["argv"] = [sys.executable, "-m", "triplekit", cmd] + args
            ops.append(op)
        rng.shuffle(ops)
        return ops

    def warmup(self, ops):
        return [next(op for op in ops if op["cmd"] in kinds) for kinds in (self.EXACT, self.VORTEX)]

    def run(self, op):
        proc = subprocess.Popen(op["argv"], cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out = proc.stdout.read()
            err = proc.stderr.read()
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return {"code": proc.returncode, "stdout": out, "stderr": err}

    def check(self, op, out):
        try:
            payload = strict_json(out["stdout"])
        except ValueError as exc:
            return [f"{op['cmd']}: stdout is not strict JSON ({exc}): {out['stdout']!r}"]
        want, code = self._expected(op)
        problems = []
        if out["code"] != code:
            problems.append(f"{op['cmd']}: exit {out['code']}, expected {code}; stderr {out['stderr']!r}")
        if not _matches(payload, want):
            problems.append(f"{op['cmd']} {op['argv'][4:]}: printed {payload}, expected {want}")
        return problems

    def _expected(self, op):
        """Own computation of the payload and the exit code.

        Fields that are not a closed-form value (small_tau_window,
        residual_sup, iterations) hold a predicate instead.
        """
        T, tau, sigma = op["T"], op["tau"], op["sigma"]
        r1, r2, d1, d2 = T
        lower, upper = oracle.interval(*T)
        lo, hi = Fraction(*lower), Fraction(*upper) if upper else None
        iv = [_rat(lo), None if hi is None else _rat(hi)]
        tau_p = Fraction(d1 + d2, r2) - Fraction(r1, r2) * tau
        cmd = op["cmd"]
        if cmd == "walls":
            return {"interval": iv, "walls": [_rat(w) for w in op["walls"]]}, 0
        if cmd == "generic":
            generic = tau not in set(op["walls"])
            return {"tau": _rat(tau), "window": op["W"], "generic": generic}, 0 if generic else 1
        if cmd == "theta":
            return {"theta": _rat(oracle.theta_exact(T, op["sub"], tau))}, 0
        if cmd == "convert":
            return {"tau": _rat(tau), "tau_prime": _rat(tau_p), "sigma": _rat(sigma)}, 0
        if cmd == "bounds":
            def window_ok(text):
                # the defining property: both chambers next to the endpoints are free
                eps = Fraction(text)
                return eps > 0 and not oracle.has_rational(lo, lo + eps, r1) and not \
                    oracle.has_rational(Fraction(d2, r2) - Fraction(r1, r2) * eps, Fraction(d2, r2), r2)
            return {"tau_interval": iv,
                    "sigma_interval": [_rat(oracle.sigma_of_tau(T, lo)),
                                       None if hi is None else _rat(oracle.sigma_of_tau(T, hi))],
                    "small_tau_window": window_ok,
                    "thresholds": {"sub_E1_bound": _rat(tau), "sub_kernel_bound": _rat(tau_p),
                                   "quot_E2_bound": _rat(tau_p), "quot_E1_bound": _rat(tau)},
                    "fibration_bound": r2 * d1 - r1 * d2 > r1 * r2 * (2 * op["genus"] - 2)}, 0
        if cmd == "dimension":
            return oracle.dimension(T, op["genus"]), 0
        if cmd == "dual":
            return {"dual_triple": [r2, r1, -d2, -d1], "dual_tau": _rat(-tau_p), "sigma": _rat(sigma)}, 0
        if cmd == "reduce-check":
            return {"samples": 50, "seed": op["seed"], "all_consistent": True}, 0
        small = lambda x: type(x) is float and 0 <= x < 2 * TOL    # noqa: E731
        count = lambda x: type(x) is int and x >= 0                # noqa: E731
        gap = op["d1"] - op["d2"]
        if cmd == "vortex-solve":
            s, D = op["vsigma"], op["d1"] + op["d2"]
            tau, tau_p = 0.5 * (D + s), 0.5 * (D - s)
            return {"sigma": tau - tau_p, "tau": tau, "tau_prime": tau_p, "d1": op["d1"],
                    "d2": op["d2"], "feasible": True, "status": "feasible",
                    "residual_sup": small, "iterations": count}, 0
        return [{"sigma": s, "feasible": s > gap, "status": "feasible" if s > gap else "infeasible",
                 "residual_sup": small if s > gap else (lambda x: type(x) is float),
                 "iterations": count} for s in op["vsigmas"]], 0

    def corrupt(self, op, out):
        payload = strict_json(out["stdout"])
        text = json.dumps(payload, separators=(",", ":"))
        bad = [dict(out, code=3 - out["code"] if out["code"] in (0, 1) else 0)]
        if isinstance(payload, dict) and payload.get("walls"):
            bad.append(dict(out, stdout=json.dumps(dict(payload, walls=payload["walls"][1:]))))
        if isinstance(payload, dict) and "sigma" in payload:
            s = payload["sigma"]
            s = s + 1e-6 if isinstance(s, float) else _rat(Fraction(s) + Fraction(1, 10**6))
            bad.append(dict(out, stdout=json.dumps(dict(payload, sigma=s))))
        if isinstance(payload, list):
            bad.append(dict(out, stdout=json.dumps([dict(payload[0], feasible=not payload[0]["feasible"])] + payload[1:])))
            bad.append(dict(out, stdout=text.replace(str(payload[0]["residual_sup"]), "NaN", 1)))
        return bad


WORKLOADS = {c.name: c for c in (ExactChambers, VortexSolve, VortexThreshold, Cli)}
