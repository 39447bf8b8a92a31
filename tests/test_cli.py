import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import pytest

import triplekit
from triplekit.cli import main


class InProcessRunner:
    """Calls a CLI entry point in this process with stdout and stderr
    captured, and reports its exit code as a separate process would."""

    @staticmethod
    def invoke(entry, args):
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                entry(args)
            except SystemExit as exc:
                code = exc.code or 0
        return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                               output=out.getvalue() + err.getvalue())


@pytest.fixture()
def runner():
    return InProcessRunner()


def test_theta_command(runner):
    res = runner.invoke(main, ["theta", "--triple", "2,1,3,0", "--sub", "2,0,3,0", "--tau", "2"])
    assert res.exit_code == 0
    assert res.stdout == '{"theta":"-1/2"}\n'
    # a value that starts with '-' is a value, not a flag
    res = runner.invoke(main, ["theta", "--triple", "2,1,3,0", "--sub", "2,0,3,0", "--tau", "-3/2"])
    assert res.exit_code == 0
    assert res.stdout == '{"theta":"3"}\n'


def test_theta_rejects_decimal_tau(runner):
    res = runner.invoke(main, ["theta", "--triple", "2,1,3,0", "--sub", "2,0,3,0", "--tau", "1.5"])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")
    assert "exact rational" in res.stderr


def test_convert_from_sigma(runner):
    res = runner.invoke(main, ["convert", "--triple", "2,1,2,0", "--sigma", "2"])
    assert res.exit_code == 0
    assert res.stdout == '{"tau":"4/3","tau_prime":"-2/3","sigma":"2"}\n'
    res = runner.invoke(main, ["convert", "--triple", "2,1,2,0", "--sigma", "-2/3"])
    assert res.exit_code == 0
    assert res.stdout == '{"tau":"4/9","tau_prime":"10/9","sigma":"-2/3"}\n'


def test_convert_from_tau_csv(runner):
    res = runner.invoke(main, ["convert", "--triple", "2,1,2,0", "--tau", "4/3",
                               "--format", "csv"])
    assert res.exit_code == 0
    assert res.stdout == "tau,4/3\ntau_prime,-2/3\nsigma,2\n"


def test_convert_requires_exactly_one_parameter(runner):
    res = runner.invoke(main, ["convert", "--triple", "2,1,2,0"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["convert", "--triple", "2,1,2,0", "--tau", "1", "--sigma", "1"])
    assert res.exit_code == 2


def test_bounds_command(runner):
    res = runner.invoke(main, ["bounds", "--triple", "2,1,2,0"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload == {
        "tau_interval": ["1", "2"],
        "sigma_interval": ["1", "4"],
        "small_tau_window": "1/2",
    }
    res = runner.invoke(main, ["bounds", "--triple", "2,1,2,0", "--tau", "4/3", "--genus", "0"])
    payload = json.loads(res.stdout)
    assert payload["thresholds"] == {
        "sub_E1_bound": "4/3",
        "sub_kernel_bound": "-2/3",
        "quot_E2_bound": "-2/3",
        "quot_E1_bound": "4/3",
    }
    assert payload["fibration_bound"] is True
    # in CSV a nested record is flattened to one key,value line per field
    res = runner.invoke(main, ["bounds", "--triple", "2,1,2,0", "--tau", "4/3", "--genus", "0",
                               "--format", "csv"])
    assert res.exit_code == 0
    assert res.stdout == (
        "tau_interval,1;2\nsigma_interval,1;4\nsmall_tau_window,1/2\n"
        "thresholds.sub_E1_bound,4/3\nthresholds.sub_kernel_bound,-2/3\n"
        "thresholds.quot_E2_bound,-2/3\nthresholds.quot_E1_bound,4/3\n"
        "fibration_bound,True\n"
    )


def test_bounds_unbounded_interval_renders_null(runner):
    res = runner.invoke(main, ["bounds", "--triple", "1,1,5,3"])
    payload = json.loads(res.stdout)
    assert payload["tau_interval"] == ["5", None]
    assert payload["sigma_interval"] == ["2", None]


def test_walls_command_bytes(runner):
    res = runner.invoke(main, ["walls", "--triple", "2,1,2,0", "--window", "4"])
    assert res.exit_code == 0
    assert res.stdout == '{"interval":["1","2"],"walls":["3/2"]}\n'


def test_walls_csv(runner):
    res = runner.invoke(main, ["walls", "--triple", "2,1,2,0", "--window", "4",
                               "--format", "csv"])
    assert res.exit_code == 0
    assert res.stdout == "interval,1;2\nwalls,3/2\n"


def test_generic_exit_codes(runner):
    res = runner.invoke(main, ["generic", "--triple", "2,1,2,0", "--tau", "7/5",
                               "--window", "4"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["generic"] is True
    res = runner.invoke(main, ["generic", "--triple", "2,1,2,0", "--tau", "3/2",
                               "--window", "4"])
    assert res.exit_code == 1
    assert json.loads(res.stdout)["generic"] is False
    res = runner.invoke(main, ["generic", "--triple", "2,1,-1,-3", "--tau", "-1/4",
                               "--window", "3"])
    assert res.exit_code == 0
    assert res.stdout == '{"tau":"-1/4","window":3,"generic":true}\n'
    # outside the admissible interval is an input error, not a verdict
    res = runner.invoke(main, ["generic", "--triple", "2,1,2,0", "--tau", "3",
                               "--window", "4"])
    assert res.exit_code == 2


def test_dimension_command(runner):
    res = runner.invoke(main, ["dimension", "--triple", "2,1,2,0", "--genus", "2"])
    assert res.exit_code == 0
    assert res.stdout == "6\n"
    res = runner.invoke(main, ["dimension", "--triple", "2,1,2,0", "--genus", "2",
                               "--format", "csv"])
    assert res.stdout == "dimension,6\n"


def test_dual_command(runner):
    res = runner.invoke(main, ["dual", "--triple", "2,1,2,0", "--tau", "4/3"])
    assert res.exit_code == 0
    assert res.stdout == '{"dual_triple":[1,2,0,-2],"dual_tau":"2/3","sigma":"2"}\n'


def test_reduce_check_single_subobject(runner):
    res = runner.invoke(main, ["reduce-check", "--triple", "2,1,2,0", "--sigma", "2",
                               "--sub", "1,1,0,1"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["consistent"] is True
    assert payload["f_slope_test"] == payload["theta_test"] == payload["sigma_slope_test"]


def test_reduce_check_sampled_and_deterministic(runner):
    args = ["reduce-check", "--triple", "3,2,4,-1", "--sigma", "5/2",
            "--samples", "60", "--seed", "3"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout) == {"samples": 60, "seed": 3, "all_consistent": True}


def test_reduce_check_rejects_nonpositive_sigma(runner):
    res = runner.invoke(main, ["reduce-check", "--triple", "2,1,2,0", "--sigma", "0",
                               "--sub", "1,1,0,1"])
    assert res.exit_code == 2


def test_vortex_solve_feasible(runner):
    res = runner.invoke(main, ["vortex-solve", "--n", "32", "--d1", "0", "--d2", "0",
                               "--sigma", "1", "--profile", "constant:3.141592653589793"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["status"] == "feasible"
    assert payload["feasible"] is True
    assert payload["residual_sup"] == 0.0
    assert payload["tau"] == 0.5 and payload["tau_prime"] == -0.5
    # extreme coupling levels: the solutions sit near v = 51..58 and v = -229,
    # where a false "norm blow-up" once fired
    for profile in ("constant:1e-50", "cosine:1e-50:9e-51", "constant:1e200"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["vortex-solve", "--n", "16", "--d1", "0", "--d2", "0",
                                       "--sigma", "2", "--profile", profile])
        assert res.exit_code == 0, (profile, res.output)
        assert json.loads(res.stdout)["status"] == "feasible", profile
        assert res.stderr == "" and not caught, (profile, res.stderr, caught)
    # Newton's start e^{2*c0} overflows a float for the first two (they were
    # once rejected as input errors) and sits near e^692 for the third; the
    # fourth's tau and tau_prime round d1 + d2 = 1 away, which was once a
    # trace-condition input error; each constant level is solved at its start
    for d1, sigma, profile in (("0", "2", "constant:1e-308"), ("0", "2", "constant:5e-324"),
                               ("0", "1e300", "constant:1"), ("1", "1e17", "constant:1")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["vortex-solve", "--n", "16", "--d1", d1, "--d2", "0",
                                       "--sigma", sigma, "--profile", profile])
        assert res.exit_code == 0, (profile, res.output)
        payload = _strict_json(res.stdout)
        assert payload["status"] == "feasible" and payload["iterations"] == 0, payload
        assert payload["residual_sup"] == 0.0, payload
        assert res.stderr == "" and not caught, (profile, res.stderr, caught)


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, as a strict parser does."""
    def refuse(name):
        raise ValueError(f"non-finite {name} in JSON output")
    return json.loads(text, parse_constant=refuse)


def test_vortex_solve_subnormal_cosine_prints_a_finite_verdict(runner, tmp_path):
    # this coupling once overflowed mid-iteration: two numpy warnings, then
    # a non-JSON error (JSON) or a residual_sup,inf row (CSV)
    args = ["vortex-solve", "--n", "16", "--d1", "0", "--d2", "0", "--sigma", "2",
            "--profile", "cosine:3.5e-308:1e-308"]
    out = tmp_path / "fields.csv"
    for extra in (["--format", "json"], ["--format", "csv"], ["--dump-fields", str(out)]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, args + extra)
        assert res.exit_code == 0, (extra, res.output)
        assert res.stderr == "" and not caught, (extra, res.stderr, caught)
        if extra[1] == "csv":
            rows = dict(line.split(",", 1) for line in res.stdout.splitlines())
            assert rows["status"] == "feasible", rows
            assert float(rows["residual_sup"]) < 2e-10, rows
        else:
            payload = _strict_json(res.stdout)
            assert payload["status"] == "feasible" and payload["residual_sup"] < 2e-10, payload
    with open(out) as fh:
        assert fh.readline() == "x,y,u1,u2,res1,res2\n"
        values = [float(c) for line in fh for c in line.split(",")]
    assert len(values) == 6 * 16 * 16 and all(math.isfinite(x) for x in values)


def test_vortex_solve_infeasible_exit_and_certificate(runner):
    # the middle two sit on the threshold sigma = d1 - d2, where Newton once
    # ended indeterminate (constant) or with a false "feasible" (cosine); the
    # last was once a trace-condition input error, as tau and tau_prime
    # round d1 + d2 away
    for args in (
        ["--n", "32", "--d1", "0", "--d2", "0", "--sigma", "-0.5",
         "--profile", "constant:3.141592653589793"],
        ["--n", "16", "--d1", "0", "--d2", "0", "--sigma", "0", "--profile", "constant:1"],
        ["--n", "16", "--d1", "0", "--d2", "0", "--sigma", "-1e-3", "--profile", "constant:1"],
        ["--n", "16", "--d1", "0", "--d2", "-1", "--sigma", "1",
         "--profile", "cosine:2.058489233079848:0.9068762438404571"],
        ["--n", "16", "--d1", "1", "--d2", "0", "--sigma", "-1e17", "--profile", "constant:1"],
    ):
        res = runner.invoke(main, ["vortex-solve"] + args)
        assert res.exit_code == 1, args
        payload = json.loads(res.stdout)
        assert payload["status"] == "infeasible" and payload["iterations"] == 0, args
        assert res.stderr.startswith("certificate: integral obstruction:"), args


def test_vortex_solve_indeterminate_prints_why_it_stopped(runner):
    res = runner.invoke(main, ["vortex-solve", "--n", "32", "--d1", "0", "--d2", "0",
                               "--sigma", "2", "--profile", "cosine:3.14159:1.5",
                               "--max-iter", "1"])
    assert res.exit_code == 1
    payload = json.loads(res.stdout)
    assert payload["status"] == "indeterminate" and payload["iterations"] == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("certificate: budget spent: E fell by ")
    assert lines[0].endswith(" in 1 steps")


def test_vortex_solve_forcing_near_the_float_range_is_indeterminate(runner):
    # 2*pi*(d1 - d2 - sigma) = -1.26e308: G and the Newton operator once
    # overflowed here, with two RuntimeWarnings and then exit 2.  Newton
    # solves G/|a|, whose terms are of order one, but the absolute gate
    # cannot be met, since the rounding of G alone is eps*|a| = 2.8e292
    args = ["vortex-solve", "--n", "16", "--d1", "0", "--d2", "0", "--sigma", "2e307",
            "--profile", "cosine:1:0.9"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, args)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    assert res.exit_code == 1, res.output
    payload = _strict_json(res.stdout)
    assert payload["status"] == "indeterminate", payload
    assert math.isfinite(payload["residual_sup"]), payload
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("certificate: "), res.stderr


def test_vortex_solve_dump_fields(runner, tmp_path):
    out = tmp_path / "fields.csv"
    res = runner.invoke(main, ["vortex-solve", "--n", "16", "--d1", "0", "--d2", "0",
                               "--sigma", "1", "--profile", "constant:3.141592653589793",
                               "--dump-fields", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,u1,u2,res1,res2"
    assert len(lines) == 1 + 16 * 16


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_vortex_solve_dump_fields_unwritable_exits_two(runner, tmp_path, where):
    # a path that cannot be written is an input error, not a verdict: the
    # solve is feasible, and no JSON is printed
    path = tmp_path / "missing" / "fields.csv" if where == "missing directory" else tmp_path
    res = runner.invoke(main, ["vortex-solve", "--n", "16", "--d1", "0", "--d2", "0",
                               "--sigma", "2", "--profile", "constant:1",
                               "--dump-fields", str(path)])
    assert res.exit_code == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --dump-fields "), res.stderr


def test_vortex_solve_rejects_bad_grid_and_profile(runner):
    res = runner.invoke(main, ["vortex-solve", "--n", "15", "--d1", "0", "--d2", "0",
                               "--sigma", "1", "--profile", "constant:1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["vortex-solve", "--n", "32", "--d1", "0", "--d2", "0",
                               "--sigma", "1", "--profile", "gaussian:1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["vortex-solve", "--n", "32", "--d1", "0", "--d2", "0",
                               "--sigma", "1", "--profile", "cosine:1:2"])
    assert res.exit_code == 2
    # non-finite numbers, a cosine profile whose maximum overflows and a
    # tolerance <= 0 are input errors, not verdicts
    base = ["vortex-solve", "--n", "16", "--d1", "0", "--d2", "0"]
    for args in (
        ["--sigma", "nan", "--profile", "constant:1"],
        ["--sigma", "inf", "--profile", "constant:1"],
        ["--sigma", "1", "--profile", "constant:nan"],
        ["--sigma", "1", "--profile", "constant:inf"],
        ["--sigma", "1", "--profile", "cosine:nan:0.5"],
        ["--sigma", "1", "--profile", "cosine:1:nan"],
        ["--sigma", "2", "--profile", "cosine:1e308:9e307"],
        ["--sigma", "1", "--profile", "constant:3.141592653589793", "--tol", "-1"],
        ["--sigma", "1", "--profile", "constant:3.141592653589793", "--tol", "0"],
        ["--sigma", "1", "--profile", "constant:3.141592653589793", "--tol", "nan"],
        ["--sigma", "1", "--profile", "constant:3.141592653589793", "--tol", "inf"],
        ["--sigma", "2", "--profile", "constant:3.141592653589793", "--max-iter", "-7"],
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, base + args)
        assert res.exit_code == 2, args
        assert res.stdout == "", args
        assert not caught, (args, caught)
    # degrees too large for a float are input errors, not an OverflowError;
    # so are curvatures 2*pi*d and 2*pi*sigma that overflow, which once
    # printed a numpy warning and then a non-JSON error
    big = str(10**400)
    for d1, d2, sigma in (
        (big, "0", "1"),
        ("0", "-" + big, "1"),
        (str(10**308), str(-(10**308)), "1"),
        (str(10**308), "0", "1"),
        ("0", "0", "1e308"),
        ("0", "0", "-1e308"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["vortex-solve", "--n", "16", "--d1", d1, "--d2", d2,
                                       "--sigma", sigma, "--profile", "constant:1"])
        assert res.exit_code == 2, (d1, d2, sigma)
        assert res.stdout == "" and res.stderr.startswith("error: "), (d1, d2, sigma)
        assert "Warning" not in res.stderr and not caught, (d1, d2, sigma, caught)


def test_non_finite_output_is_an_error_in_both_formats(runner, monkeypatch):
    # a solve that reports a non-finite residual: no format may print it as
    # a verdict, from either vortex command
    import triplekit.vortex as vortex

    solve = vortex.solve
    for bad in (float("inf"), float("nan")):
        monkeypatch.setattr(vortex, "solve", lambda *args, **kwargs: dataclasses.replace(
            solve(*args, **kwargs), residual_sup=bad))
        for cmd, sigma in (("vortex-solve", ["--sigma", "2"]),
                           ("vortex-sweep", ["--sigmas", "1,2"])):
            for fmt in ("json", "csv"):
                res = runner.invoke(main, [cmd, "--n", "16", "--d1", "0", "--d2", "0"] + sigma
                                    + ["--profile", "constant:1", "--format", fmt])
                assert res.exit_code == 2, (bad, cmd, fmt)
                assert res.stdout == "", (bad, cmd, fmt)
                assert res.stderr.startswith("error: "), (bad, cmd, fmt, res.stderr)
                assert len(res.stderr.splitlines()) == 1, (bad, cmd, fmt, res.stderr)


def test_vortex_sweep_json(runner):
    res = runner.invoke(main, ["vortex-sweep", "--n", "32", "--d1", "0", "--d2", "0",
                               "--sigmas", "-0.5,0.5", "--profile", "constant:3.14159"])
    assert res.exit_code == 0
    rows = json.loads(res.stdout)
    assert [r["feasible"] for r in rows] == [False, True]
    assert [r["sigma"] for r in rows] == [-0.5, 0.5]
    assert list(rows[0]) == ["sigma", "feasible", "residual_sup", "iterations", "status"]


def test_vortex_sweep_csv(runner):
    res = runner.invoke(main, ["vortex-sweep", "--n", "32", "--d1", "1", "--d2", "0",
                               "--sigmas", "0.5,1.5", "--profile", "cosine:3.14159:1.5",
                               "--format", "csv"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "sigma,feasible,residual_sup,iterations,status"
    assert lines[1].startswith("0.5,False,") and lines[1].endswith(",infeasible")
    assert lines[2].startswith("1.5,True,") and lines[2].endswith(",feasible")


def test_vortex_sweep_warning_exits_one(runner):
    res = runner.invoke(main, ["vortex-sweep", "--n", "32", "--d1", "0", "--d2", "0",
                               "--sigmas", "2.0", "--profile", "cosine:3.14159:1.5",
                               "--max-iter", "1"])
    assert res.exit_code == 1
    assert json.loads(res.stdout)[0]["status"] == "indeterminate"
    assert res.stderr == "warning: sweep contains indeterminate verdicts\n"


def test_vortex_sweep_zero_coupling_exits_zero(runner):
    # lap(v) = a is solvable only at a = 0, not at a tiny a != 0 either:
    # that column is the exact answer, not a sweep warning
    res = runner.invoke(main, ["vortex-sweep", "--n", "16", "--d1", "0", "--d2", "0",
                               "--sigmas", "-1,0,1e-13,1", "--profile", "zero"])
    assert res.exit_code == 0
    rows = json.loads(res.stdout)
    assert [r["status"] for r in rows] == ["infeasible", "feasible", "infeasible", "infeasible"]
    assert res.stderr == ""


def test_vortex_sweep_rejects_unsorted_and_garbage(runner):
    res = runner.invoke(main, ["vortex-sweep", "--n", "32", "--d1", "0", "--d2", "0",
                               "--sigmas", "1.0,0.5", "--profile", "constant:1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["vortex-sweep", "--n", "32", "--d1", "0", "--d2", "0",
                               "--sigmas", "a,b", "--profile", "constant:1"])
    assert res.exit_code == 2
    for sigmas in ("1,nan,2", "nan", "1,inf", "-inf,1"):
        res = runner.invoke(main, ["vortex-sweep", "--n", "16", "--d1", "0", "--d2", "0",
                                   "--sigmas", sigmas, "--profile", "constant:1"])
        assert res.exit_code == 2, sigmas
        assert res.stdout == "", sigmas
    big = str(10**400)
    for d1, d2, sigmas in (
        (big, "0", "0.5,1"),
        ("0", "-" + big, "0.5,1"),
        (str(10**308), str(-(10**308)), "0.5,1"),
        (str(10**308), "0", "0.5,1"),
        ("0", "0", "1e308"),
        ("0", "0", "-1e308,1"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["vortex-sweep", "--n", "16", "--d1", d1, "--d2", d2,
                                       "--sigmas", sigmas, "--profile", "constant:1"])
        assert res.exit_code == 2, (d1, d2, sigmas)
        assert res.stdout == "" and res.stderr.startswith("error: "), (d1, d2, sigmas)
        assert "Warning" not in res.stderr and not caught, (d1, d2, sigmas, caught)
    # a negative budget is an input error, not a column of indeterminate rows
    res = runner.invoke(main, ["vortex-sweep", "--n", "16", "--d1", "0", "--d2", "0",
                               "--sigmas", "0.5,1", "--profile", "constant:1",
                               "--max-iter", "-1"])
    assert res.exit_code == 2
    assert res.stdout == "" and res.stderr.startswith("error: max_iter must be >= 0")


def test_exact_commands_do_not_import_numpy():
    code = (
        "import runpy, sys\n"
        "sys.argv = ['triplekit', 'walls', '--triple', '2,1,2,0', '--window', '4']\n"
        "try:\n"
        "    runpy.run_module('triplekit', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code\n"
        "print('numpy' in sys.modules, 'click' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(triplekit.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    lines = out.stdout.splitlines()
    assert json.loads(lines[0])["walls"]
    assert lines[-1] == "False False"


def test_grid_too_large_for_memory_exits_two():
    # a child capped at 2 GiB of address space cannot hold an n=40000 grid;
    # never run this uncapped
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(triplekit.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "triplekit", "vortex-solve", "--n", "40000", "--d1", "0",
         "--d2", "0", "--sigma", "2", "--profile", "constant:1"],
        capture_output=True, text=True, preexec_fn=cap, timeout=120,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    assert out.returncode == 2, out.stderr
    assert out.stdout == "" and out.stderr.startswith("error: ")


def test_malformed_triples_exit_two(runner):
    res = runner.invoke(main, ["dimension", "--triple", "2,1,2", "--genus", "1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["dimension", "--triple", "0,1,0,0", "--genus", "1"])
    assert res.exit_code == 2
    assert res.stderr == "error: both ranks must be >= 1, got (0, 1)\n"
    res = runner.invoke(main, ["theta", "--triple", "2,1,2,0", "--sub", "0,0,0,0",
                               "--tau", "1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["theta", "--triple", "2,1,2,0", "--sub", "1,0,2,1",
                               "--tau", "1"])
    assert res.exit_code == 2
