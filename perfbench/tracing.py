"""Spans around the calls into each triplekit layer, and the per-layer metrics.

A span records a name, a start, an end, its parent span and a few
attributes.  Spans are kept in memory and written out when the run ends.
Every public function of invariants, stability, chambers, extensions and
vortex is wrapped, and each module's binding of it is replaced, so a call
through `from .stability import theta_tau` in extensions is seen as well.
TorusGrid.laplacian is wrapped on the class, and the 2-D numpy.fft entry
points are wrapped so FFTs are counted whichever of them the solver uses.
The cli layer is measured from fresh interpreters instead.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import statistics
import subprocess
import sys
import time

LAYERS = ("invariants", "stability", "chambers", "extensions", "vortex")
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, attrs]
        self.stack = []
        self._undo = []

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                span[4] = after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import numpy as np
        mods = [m for k, m in sorted(sys.modules.items()) if k == "triplekit" or k.startswith("triplekit.")]
        for layer in LAYERS:
            mod = sys.modules[f"triplekit.{layer}"]
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                after = _solve_attrs if (layer, fname) == ("vortex", "solve") else None
                wrapper = self._wrap(f"{layer}.{fname}", fn, after)
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            self._patch(m, k, fn, wrapper)
        grid = sys.modules["triplekit.vortex"].TorusGrid
        self._patch(grid, "laplacian", grid.laplacian, self._wrap("vortex.laplacian", grid.laplacian))
        for fname in FFT_NAMES:
            fn = getattr(np.fft, fname)
            self._patch(np.fft, fname, fn, self._wrap("vortex.fft", fn, _fft_points(fname)))

    def _patch(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")

    def metrics(self):
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            rec = by_name.setdefault(name, {"calls": 0, "self": 0.0})
            rec["calls"] += 1
            rec["self"] += end - start - child_time[i]

        def calls(n):
            return by_name.get(n, {}).get("calls", 0)

        def self_ms(n):
            return 1e3 * by_name.get(n, {}).get("self", 0.0)

        def under(i, ancestor):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == ancestor:
                    return True
                p = spans[p][3]
            return False

        solves = [s for s in spans if s[0] == "vortex.solve"]
        fft = [s for s in spans if s[0] == "vortex.fft"]

        def p50_ms(status):
            d = [1e3 * (s[2] - s[1]) for s in solves if s[4]["status"] == status]
            return statistics.median(d) if d else 0.0

        return {
            "chambers.enumerate_walls.calls": (calls("chambers.enumerate_walls"), "count"),
            "chambers.enumerate_walls.self_ms": (self_ms("chambers.enumerate_walls"), "ms"),
            "chambers.is_generic.self_ms": (self_ms("chambers.is_generic"), "ms"),
            "chambers.is_generic.nested_enumerations": (
                sum(1 for i, s in enumerate(spans)
                    if s[0] == "chambers.enumerate_walls" and under(i, "chambers.is_generic")), "count"),
            "stability.theta_tau.calls": (calls("stability.theta_tau"), "count"),
            "stability.theta_tau.self_ms": (self_ms("stability.theta_tau"), "ms"),
            "stability.mu_sigma.self_ms": (self_ms("stability.mu_sigma"), "ms"),
            "extensions.check_slope_equivalence.self_ms": (self_ms("extensions.check_slope_equivalence"), "ms"),
            "invariants.self_ms": (sum(1e3 * r["self"] for n, r in by_name.items()
                                       if n.startswith("invariants.")), "ms"),
            "vortex.solve.calls": (len(solves), "count"),
            "vortex.solve.self_ms": (self_ms("vortex.solve"), "ms"),
            "vortex.solve.newton_iters": (sum(s[4]["iterations"] for s in solves), "count"),
            "vortex.solve.feasible_p50_ms": (p50_ms("feasible"), "ms"),
            "vortex.solve.infeasible_p50_ms": (p50_ms("infeasible"), "ms"),
            "vortex.sweep_sigma.self_ms": (self_ms("vortex.sweep_sigma"), "ms"),
            "vortex.laplacian.calls": (calls("vortex.laplacian"), "count"),
            "vortex.laplacian.self_ms": (self_ms("vortex.laplacian"), "ms"),
            "vortex.fft.calls": (len(fft), "count"),
            "vortex.fft.ms": (self_ms("vortex.fft"), "ms"),
            "vortex.fft.mpoints": (sum(s[4] for s in fft) / 1e6, "Mpoints"),
            "vortex.residual.self_ms": (self_ms("vortex.residual"), "ms"),
            "vortex.build_problem.self_ms": (self_ms("vortex.build_problem"), "ms"),
        }


def _solve_attrs(args, kwargs, result):
    return {"status": result.status.value, "iterations": result.iterations}


def _fft_points(fname):
    # grid points of the real-space array: the input of a forward
    # transform, the output of an inverse one
    if fname.startswith("i"):
        return lambda args, kwargs, result: result.shape[-1] * result.shape[-2]
    return lambda args, kwargs, result: args[0].shape[-1] * args[0].shape[-2]


# ---- cli layer ----------------------------------------------------------

def _median_ms(argv, env, cwd, samples, parse=None):
    values = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-500:]}")
        values.append(1e3 * elapsed if parse is None else parse(proc))
    return statistics.median(values)


def _vortex_import_ms(proc):
    # -X importtime lines: "import time: self [us] | cumulative | package";
    # absent when the command never imports triplekit.vortex
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+triplekit\.vortex$", line)
        if m:
            return int(m.group(1)) / 1e3
    return 0.0


def cli_layer(root, samples=5):
    """Interpreter start, `import triplekit` and the vortex share of an exact command."""
    env = program_env(root)
    py = sys.executable
    import_code = ("import time; t = time.perf_counter(); import triplekit; "
                   "print(time.perf_counter() - t)")
    return {
        "cli.interpreter_ms": (_median_ms([py, "-c", "pass"], env, root, samples), "ms"),
        "cli.import_ms": (_median_ms([py, "-c", import_code], env, root, samples,
                                     lambda p: 1e3 * float(p.stdout)), "ms"),
        "cli.import_vortex_ms": (_median_ms(
            [py, "-X", "importtime", "-m", "triplekit", "walls", "--triple", "2,1,2,0", "--window", "4"],
            env, root, samples, _vortex_import_ms), "ms"),
    }


def program_env(root):
    """Environment of a child interpreter that imports the checkout's triplekit."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
