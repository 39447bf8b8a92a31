import json

import pytest
from click.testing import CliRunner

from triplekit.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_theta_command(runner):
    res = runner.invoke(main, ["theta", "--triple", "2,1,3,0", "--sub", "2,0,3,0", "--tau", "2"])
    assert res.exit_code == 0
    assert res.stdout == '{"theta":"-1/2"}\n'


def test_theta_rejects_decimal_tau(runner):
    res = runner.invoke(main, ["theta", "--triple", "2,1,3,0", "--sub", "2,0,3,0", "--tau", "1.5"])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")
    assert "exact rational" in res.stderr


def test_convert_from_sigma(runner):
    res = runner.invoke(main, ["convert", "--triple", "2,1,2,0", "--sigma", "2"])
    assert res.exit_code == 0
    assert res.stdout == '{"tau":"4/3","tau_prime":"-2/3","sigma":"2"}\n'


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
        "small_tau_window": "1/4",
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


def test_vortex_solve_infeasible_exit_and_certificate(runner):
    res = runner.invoke(main, ["vortex-solve", "--n", "32", "--d1", "0", "--d2", "0",
                               "--sigma", "-0.5", "--profile", "constant:3.141592653589793"])
    assert res.exit_code == 1
    assert json.loads(res.stdout)["status"] == "infeasible"
    assert res.stderr.startswith("certificate:")


def test_vortex_solve_dump_fields(runner, tmp_path):
    out = tmp_path / "fields.csv"
    res = runner.invoke(main, ["vortex-solve", "--n", "16", "--d1", "0", "--d2", "0",
                               "--sigma", "1", "--profile", "constant:3.141592653589793",
                               "--dump-fields", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,u1,u2,res1,res2"
    assert len(lines) == 1 + 16 * 16


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
    # non-finite numbers and a tolerance <= 0 are input errors, not verdicts
    base = ["vortex-solve", "--n", "16", "--d1", "0", "--d2", "0"]
    for args in (
        ["--sigma", "nan", "--profile", "constant:1"],
        ["--sigma", "inf", "--profile", "constant:1"],
        ["--sigma", "1", "--profile", "constant:nan"],
        ["--sigma", "1", "--profile", "constant:inf"],
        ["--sigma", "1", "--profile", "cosine:nan:0.5"],
        ["--sigma", "1", "--profile", "cosine:1:nan"],
        ["--sigma", "1", "--profile", "constant:3.141592653589793", "--tol", "-1"],
        ["--sigma", "1", "--profile", "constant:3.141592653589793", "--tol", "0"],
        ["--sigma", "1", "--profile", "constant:3.141592653589793", "--tol", "nan"],
        ["--sigma", "1", "--profile", "constant:3.141592653589793", "--tol", "inf"],
    ):
        res = runner.invoke(main, base + args)
        assert res.exit_code == 2, args
        assert res.stdout == "", args


def test_vortex_sweep_json(runner):
    res = runner.invoke(main, ["vortex-sweep", "--n", "32", "--d1", "0", "--d2", "0",
                               "--sigmas", "-0.5,0.5", "--profile", "constant:3.14159"])
    assert res.exit_code == 0
    rows = json.loads(res.stdout)
    assert [r["feasible"] for r in rows] == [False, True]
    assert [r["sigma"] for r in rows] == [-0.5, 0.5]
    assert {"sigma", "feasible", "residual_sup", "iterations", "status"} == set(rows[0])


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
    assert "warning:" in res.stderr


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
