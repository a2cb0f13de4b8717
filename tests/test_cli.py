"""Command-line behavior: printed values, exit codes, config merging,
deterministic artifacts, and the frozen golden files."""

import importlib
import json
import math
import pkgutil
import subprocess
import sys

import pytest

import dpnewton
from dpnewton import cli
from dpnewton.cli import main
from dpnewton.formats import load_mdp, save_mdp
from dpnewton.generators import random_mdp
from dpnewton.lookahead import LookaheadSpec, lookahead_policy
from dpnewton.mdp import bellman_operator, zero_values

from util import two_state_mdp, uniform_tree_mdp

NOMINAL_FLAGS = ["--a", "1", "--b", "2", "--q", "1", "--r", "0.5"]


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "dpnewton", *argv], capture_output=True, text=True
    )


def test_solve_prints_the_exact_closed_forms():
    proc = run_cli("riccati", "solve", *NOMINAL_FLAGS)
    assert proc.returncode == 0
    assert proc.stdout == "K*=1.1123724356957945\nL*=-0.4494897427831781\n"


def test_missing_mdp_file_is_a_validation_error():
    proc = run_cli("mdp", "solve", "--file", "missing.json")
    assert proc.returncode == 2
    assert "validation error" in proc.stderr


def test_unknown_flag_exits_2():
    proc = run_cli("riccati", "solve", *NOMINAL_FLAGS, "--gamma", "1")
    assert proc.returncode == 2


def test_config_document_supplies_parameters(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"a": 1, "b": 2, "q": 1, "r": 0.5}))
    assert main(["riccati", "solve", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("K*=1.1123724356957945")

    # a flag beats the config value
    assert main(["riccati", "solve", "--config", str(config), "--r", "1.0"]) == 0
    out = capsys.readouterr().out
    k = float(out.splitlines()[0].split("=")[1])
    assert k == pytest.approx((1.0 + math.sqrt(2.0)) / 2.0, rel=1e-12)


def test_config_rejects_unknown_fields(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"a": 1, "b": 2, "q": 1, "r": 0.5, "gamma": 2}))
    assert main(["riccati", "solve", "--config", str(config)]) == 2
    assert "gamma" in capsys.readouterr().err


def test_invalid_coefficient_exits_2(capsys):
    assert main(["riccati", "solve", "--a", "1", "--b", "0", "--q", "1", "--r", "0.5"]) == 2
    assert "validation error" in capsys.readouterr().err


def test_vi_non_convergence_exits_3(capsys):
    rc = main(["riccati", "vi", "--a", "1", "--b", "0.2", "--q", "0.1", "--r", "5",
               "--max-iters", "100"])
    assert rc == 3
    assert capsys.readouterr().err.count("residual") == 1


def test_vi_converges_and_reports_sweeps(capsys):
    assert main(["riccati", "vi", *NOMINAL_FLAGS]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0].split("=")[1]) == pytest.approx(1.1123724356957945, rel=1e-12)
    assert int(lines[1].split("=")[1]) <= 20


def test_stability_region_report(capsys):
    assert main(["riccati", "sweep-stability", "--a", "2", "--b", "1",
                 "--q", "1", "--r", "1"]) == 0
    assert capsys.readouterr().out == "threshold=1.0\nopen=true\n"


@pytest.mark.parametrize("argv", [
    ["--a", "2", "--b", "1e-200", "--q", "1", "--r", "1"],
    ["--a", "1e308", "--b", "1e-308", "--q", "1", "--r", "1"],
    ["--a", "2", "--b", "1e-160", "--q", "1", "--r", "1"],
])
def test_stability_region_out_of_range_is_a_validation_error(argv, capsys):
    assert main(["riccati", "sweep-stability", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: b*b leaves the double range at a=")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv, named", [
    (["riccati", "newton", *NOMINAL_FLAGS, "--start", "1", "--steps", "-1"], "steps"),
    (["adaptive", "ratio", *NOMINAL_FLAGS, "--halvings", "-2"], "halvings"),
])
def test_negative_counts_are_validation_errors(argv, named, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"validation error: {named}: value must be an integer >= 0, got '{argv[-1]}'\n"
    )


@pytest.mark.parametrize("states, message", [
    ("0", "n_states must be an integer >= 1, got 0"),
    ("-3", "states: value must be an integer >= 0, got '-3'"),
])
def test_mdp_random_needs_a_state(states, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^n_states must be an integer >= 1, got {states}$"):
        random_mdp(1, n_states=int(states))
    assert main(["mdp", "random", "--seed", "1", "--states", states,
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not (tmp_path / "mdp.json").exists()


def test_mdp_random_reach_termination_is_0_or_1(tmp_path, capsys):
    for flag in ("-1", "5", "2"):
        assert main(["mdp", "random", "--seed", "3", "--reach-termination", flag,
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: reach-termination: expected 0 or 1, got '{flag}'\n"
        )
    assert not (tmp_path / "mdp.json").exists()
    outputs = {}
    for flag in ("0", "1"):
        assert main(["mdp", "random", "--seed", "3", "--reach-termination", flag]) == 0
        outputs[flag] = capsys.readouterr().out
    assert outputs["0"] != outputs["1"]


def test_mdp_solve_round_trip(tmp_path, capsys):
    path = tmp_path / "two_state.json"
    save_mdp(two_state_mdp(), path)
    assert main(["mdp", "solve", "--file", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"] == pytest.approx([0.0, 2.0])
    assert doc["policy"] == [0, 0]

    out_dir = tmp_path / "out"
    assert main(["mdp", "solve", "--file", str(path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    on_disk = json.loads((out_dir / "solution.json").read_text())
    assert on_disk["policy"] == [0, 0]


def test_mdp_rollout_improves_the_exit_policy(tmp_path, capsys):
    path = tmp_path / "two_state.json"
    save_mdp(two_state_mdp(), path)
    assert main(["mdp", "rollout", "--file", str(path), "--base", "0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["policy"] == [0, 0]
    assert doc["values"] == pytest.approx([0.0, 2.0])


def test_mdp_lookahead_reports_the_leaf_count(tmp_path, capsys):
    path = tmp_path / "tree.json"
    save_mdp(uniform_tree_mdp(), path)
    assert main(["mdp", "lookahead", "--file", str(path), "--state", "1",
                 "--depth", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("control=")
    assert lines[2] == "leaves=216"


@pytest.mark.parametrize("argv, named", [
    (["rollout", "--base"], "base"),
    (["rollout", "--steps", "2", "--base"], "base"),
    (["lookahead", "--state", "1", "--rollout-steps", "1", "--base"], "base"),
    (["lookahead", "--state", "1", "--terminal"], "terminal"),
    (["lyapunov", "--values"], "values"),
])
def test_per_state_lists_of_the_wrong_length_exit_2(argv, named, tmp_path, capsys):
    model = random_mdp(1, n_states=3)
    path = tmp_path / "mdp.json"
    save_mdp(model, path)
    for length in (2, 4):
        items = [str(model.controls[x % 3][0]) if named == "base" else "0"
                 for x in range(length)]
        command = ["mdp", argv[0], "--file", str(path), *argv[1:], ",".join(items)]
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"validation error: {named}: expected 3 entries, got {length}\n"
        )


def test_deep_lookahead_equals_one_step_against_swept_terminal(tmp_path, capsys):
    # the search folds stage tables instead of recursing, so depths past the
    # interpreter's recursion limit finish, and a depth-l search is one step
    # against the terminal swept l-1 times by the Bellman operator
    assert main(["mdp", "random", "--seed", "11", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "mdp.json"
    model = load_mdp(path)
    for depth in (1200, 5000):
        terminal = zero_values(model)
        for _ in range(depth - 1):
            terminal = bellman_operator(model, terminal)
        want = lookahead_policy(model, LookaheadSpec(depth=1, terminal=terminal), 1)
        assert main(["mdp", "lookahead", "--file", str(path), "--state", "1",
                     "--depth", str(depth)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"control={want.control}"
        assert lines[1] == f"value={want.value!r}"


def test_unexpected_error_is_reported_on_one_line(monkeypatch, capsys):
    def boom(args, values):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_riccati_solve", boom)
    assert main(["riccati", "solve", *NOMINAL_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: boom second line")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err

    # arithmetic faults are defects too, not non-convergence
    def divide(args, values):
        return 1 / 0

    monkeypatch.setattr(cli, "_cmd_riccati_solve", divide)
    assert main(["riccati", "solve", *NOMINAL_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: ZeroDivisionError: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, named", [
    (["--a", "1", "--b", "1e-200", "--q", "1", "--r", "0.5"], "b*b"),
    (["--a", "1", "--b", "1e200", "--q", "1", "--r", "0.5"], "b*b"),
    (["--a", "1e200", "--b", "1", "--q", "1", "--r", "0.5"], "r - a*a*r - q*b*b"),
])
def test_riccati_out_of_range_is_a_validation_error(argv, named, capsys):
    assert main(["riccati", "solve", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {named} leaves the double range at a=")
    assert len(err.splitlines()) == 1
    assert "nan" not in err


@pytest.mark.parametrize("start", [[], ["--start", "inf"]])
def test_riccati_vi_out_of_range_is_a_validation_error(start, capsys):
    argv = ["--a", "1e200", "--b", "1", "--q", "1", "--r", "1", *start]
    assert main(["riccati", "vi", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "validation error: r - a*a*r - q*b*b leaves the double range"
        " at a=1e+200, b=1.0, q=1.0, r=1.0\n"
    )


def test_config_integer_beyond_the_double_range_names_the_field(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"a": 1' + "0" * 400 + ', "b": 1, "q": 1, "r": 0.5}')
    assert main(["riccati", "solve", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "validation error: a: int too large to convert to float\n"


@pytest.mark.parametrize("argv, config, field", [
    (["riccati", "solve"], {"a": True, "b": 2, "q": 1, "r": 0.5}, "a"),
    (["mdp", "random"], {"seed": 1, "discount": True}, "discount"),
    (["adaptive", "replan", *NOMINAL_FLAGS], {"schedule": "0:2:0.5", "x0": True}, "x0"),
    (["adaptive", "sweep", *NOMINAL_FLAGS], {"grid-b": [1, True]}, "grid-b"),
    (["mdp", "lookahead", "--state", "0"], {"terminal": [1, True]}, "terminal"),
])
def test_config_booleans_are_not_reals(argv, config, field, tmp_path, capsys):
    if argv[1] == "lookahead":
        save_mdp(two_state_mdp(), tmp_path / "mdp.json")
        config = {**config, "file": str(tmp_path / "mdp.json")}
    document = tmp_path / "cfg.json"
    document.write_text(json.dumps(config))
    assert main([*argv, "--config", str(document)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {field}: expected a number, got True\n"


def test_negative_reals_in_exponent_form_take_the_equals_form(capsys):
    rest = ["--b", "2", "--q", "1", "--r", "0.5"]
    assert main(["riccati", "solve", "--a=-1e-3", *rest]) == 0
    exponent_form = capsys.readouterr().out
    assert main(["riccati", "solve", "--a", "-0.001", *rest]) == 0
    assert exponent_form == capsys.readouterr().out
    assert main(["riccati", "vi", *NOMINAL_FLAGS, "--start=-inf"]) == 2
    assert capsys.readouterr().err == (
        "validation error: quadratic coefficient must be nonnegative, got -inf\n"
    )
    # argparse reads -1e-3 as an option name, not as a value
    with pytest.raises(SystemExit) as stop:
        main(["riccati", "solve", "--a", "-1e-3", *rest])
    assert stop.value.code == 2
    assert "argument --a: expected one argument" in capsys.readouterr().err


def test_values_that_start_with_a_dash_take_the_equals_form(capsys):
    argv = ["adaptive", "replan", *NOMINAL_FLAGS]
    assert main([*argv, "--schedule=-1:2:0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "validation error: schedule: value must be an integer >= 0, got '-1'\n"
    )
    # argparse reads -1:2:0.5 as an option name: a usage error, never exit 1
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--schedule", "-1:2:0.5"])
    assert stop.value.code == 2
    assert "argument --schedule: expected one argument" in capsys.readouterr().err


def test_grid_with_an_infinite_span_is_rejected(capsys):
    assert main(["adaptive", "sweep", *NOMINAL_FLAGS, "--grid-b", "0:inf:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: grid-b: ")
    assert "finite number of steps" in err


def test_newton_policy_cost_overflow_is_a_validation_error(capsys):
    rc = main(["riccati", "newton", "--a", "1e100", "--b", "1e-60", "--q", "1", "--r", "1",
               "--start", "1e221"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: the policy cost ")
    assert len(err.splitlines()) == 1


def test_pi_non_convergence_reports_the_residual_once(capsys):
    rc = main(["riccati", "pi", *NOMINAL_FLAGS, "--start-gain", "-0.5", "--max-iters", "1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("did not converge: ")
    assert err.count("residual") == 1


def test_mdp_solve_rejects_a_budget_no_run_can_meet(tmp_path, capsys):
    path = tmp_path / "mdp.json"
    save_mdp(two_state_mdp(), path)
    for flags, message in (
        (["--tol", "-1"], "tol must be a nonnegative real, got -1.0"),
        (["--max-iters", "-1"], "max-iters: value must be an integer >= 0, got '-1'"),
    ):
        assert main(["mdp", "solve", "--file", str(path), *flags]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
    assert main(["mdp", "solve", "--file", str(path), "--max-iters", "0"]) == 3
    assert "after 0 sweeps (residual 1.0)" in capsys.readouterr().err


def test_riccati_vi_budget_is_checked(capsys):
    for flags, message in (
        (["--tol", "-1"], "tol must be a nonnegative real, got -1.0"),
        (["--max-iters", "-1"], "max-iters: value must be an integer >= 0, got '-1'"),
    ):
        assert main(["riccati", "vi", *NOMINAL_FLAGS, *flags]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
    # no sweep allowed: the residual is the step the first sweep would take
    assert main(["riccati", "vi", *NOMINAL_FLAGS, "--max-iters", "0"]) == 3
    assert capsys.readouterr().err == (
        "did not converge: value iteration still moving after 0 sweeps (residual 1.0)\n"
    )


def test_riccati_solve_rejects_a_negative_tolerance(capsys):
    assert main(["riccati", "solve", *NOMINAL_FLAGS, "--tol", "-1"]) == 2
    assert capsys.readouterr().err == (
        "validation error: tol must be a nonnegative real, got -1.0\n"
    )


def test_riccati_pi_budget_is_checked(capsys):
    for flags, message in (
        (["--tol", "-1"], "tol must be a nonnegative real, got -1.0"),
        (["--max-iters", "-1"], "max-iters: value must be an integer >= 0, got '-1'"),
    ):
        assert main(["riccati", "pi", *NOMINAL_FLAGS, "--start-gain", "-0.5", *flags]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"


def test_malformed_mdp_reports_its_path_once(tmp_path, capsys):
    path = tmp_path / "leaky.json"
    path.write_text(json.dumps({
        "states": 2,
        "alpha": 1.0,
        "transitions": [
            [[{"p": 1.0, "next": 0, "cost": 0.0}]],
            [[{"p": 0.5, "next": 0, "cost": 1.0}]],
        ],
    }))
    assert main(["mdp", "solve", "--file", str(path)]) == 2
    assert capsys.readouterr().err == (
        "validation error: transitions[1][0]: probabilities sum to 0.5, not 1\n"
    )


def _from_digits(text):
    # int() refuses more than 4300 digits at once: rebuild the value in chunks
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_lookahead_prints_leaf_counts_of_any_size(tmp_path, capsys):
    # 6^5600 has 4358 digits, past the interpreter's default limit for
    # int-to-decimal conversion
    path = tmp_path / "tree.json"
    save_mdp(uniform_tree_mdp(), path)
    assert main(["mdp", "lookahead", "--file", str(path), "--state", "1",
                 "--depth", "5600", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    digits = lines[2].removeprefix("leaves=")
    assert len(digits) > 4300
    assert _from_digits(digits) == 6**5600
    doc = json.loads((tmp_path / "lookahead.json").read_text(), parse_int=str)
    assert doc["leaves"] == digits


def test_importing_the_cli_does_not_load_numpy():
    # Site hooks load modules of their own, which differ between machines:
    # only what the import adds to a bare interpreter's modules counts.
    heavy = ("numpy", "dataclasses", "inspect")
    probe = "import sys{}; print(sorted(m for m in {!r} if m in sys.modules))"
    loaded = {}
    for name, imports in (("bare", ""), ("cli", ", dpnewton.cli")):
        proc = subprocess.run([sys.executable, "-c", probe.format(imports, heavy)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded[name] = proc.stdout
    assert loaded["cli"] == loaded["bare"]


# every module but the command line (which exports nothing) and __main__
EXPORTING = ["dpnewton"] + [
    f"dpnewton.{module.name}" for module in pkgutil.iter_modules(dpnewton.__path__)
    if module.name not in ("__main__", "cli")
]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_mdp_lyapunov_verdicts(tmp_path, capsys):
    path = tmp_path / "two_state.json"
    save_mdp(two_state_mdp(), path)
    assert main(["mdp", "lyapunov", "--file", str(path), "--values", "0,2"]) == 0
    assert capsys.readouterr().out == "ok=true\nviolations=\n"
    assert main(["mdp", "lyapunov", "--file", str(path), "--values", "0,0"]) == 0
    assert capsys.readouterr().out == "ok=false\nviolations=1\n"


def test_mdp_random_is_seed_deterministic(tmp_path, capsys):
    first = tmp_path / "one"
    second = tmp_path / "two"
    assert main(["mdp", "random", "--seed", "11", "--out", str(first)]) == 0
    assert main(["mdp", "random", "--seed", "11", "--out", str(second)]) == 0
    capsys.readouterr()
    assert (first / "mdp.json").read_bytes() == (second / "mdp.json").read_bytes()
    assert main(["mdp", "random", "--seed", "12", "--out", str(second)]) == 0
    capsys.readouterr()
    assert (first / "mdp.json").read_bytes() != (second / "mdp.json").read_bytes()


def test_sweep_artifacts_are_bit_identical(tmp_path, capsys):
    first = tmp_path / "one"
    second = tmp_path / "two"
    argv = ["adaptive", "sweep", *NOMINAL_FLAGS, "--grid-b", "0.5:3.0:0.05"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    bytes_first = (first / "sweep.csv").read_bytes()
    assert bytes_first == (second / "sweep.csv").read_bytes()
    assert bytes_first.startswith(b"b,r,K_star,K_rollout,K_L\n")


def test_replan_single_mode_stdout(capsys):
    rc = main(["adaptive", "replan", *NOMINAL_FLAGS, "--schedule", "0:2:0.5,10:1:0.5",
               "--mode", "rollout_replan"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rollout_replan: total_cost=1.1123724356957947" in out
    assert "diverged=false" in out


def test_replan_rejects_bad_schedule(capsys):
    rc = main(["adaptive", "replan", *NOMINAL_FLAGS, "--schedule", "5:1:0.5"])
    assert rc == 2
    rc = main(["adaptive", "replan", *NOMINAL_FLAGS, "--schedule", "0:1"])
    assert rc == 2
    capsys.readouterr()


GOLDEN_COMMANDS = {
    "pi_iterates.csv": ["riccati", "pi", *NOMINAL_FLAGS, "--start-gain", "-0.5"],
    "sweep.csv": ["adaptive", "sweep", *NOMINAL_FLAGS, "--grid-b", "0.5:3.0:0.05"],
    "replan_totals.csv": ["adaptive", "replan", *NOMINAL_FLAGS,
                          "--schedule", "0:2:0.5,10:1:0.5", "--x0", "1", "--horizon", "40"],
    "trace_rollout_replan.csv": ["adaptive", "replan", *NOMINAL_FLAGS,
                                 "--schedule", "0:2:0.5,10:1:0.5", "--x0", "1",
                                 "--horizon", "40"],
    "ratios.csv": ["adaptive", "ratio", "--a", "1", "--b", "1", "--q", "1", "--r", "0.5"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_files_regenerate_bit_identically(name, tmp_path, capsys):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / name
    label, _, frozen = golden.read_bytes().partition(b"\n")
    assert label.startswith(b"# DERIVED ")
    assert main(GOLDEN_COMMANDS[name] + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / name).read_bytes() == frozen


# Each command writes one table or document, to stdout or to --out.
ONE_ARTIFACT = {
    "pi_iterates.csv": ["riccati", "pi", *NOMINAL_FLAGS, "--start-gain", "-0.5"],
    "newton_iterates.csv": ["riccati", "newton", *NOMINAL_FLAGS, "--start", "0.01",
                            "--steps", "4"],
    "solution.json": ["mdp", "solve", "--file", "MODEL"],
    "rollout.json": ["mdp", "rollout", "--file", "MODEL", "--base", "0,1"],
    "mdp.json": ["mdp", "random", "--seed", "11", "--states", "12"],
    "sweep.csv": ["adaptive", "sweep", *NOMINAL_FLAGS],
    "ratios.csv": ["adaptive", "ratio", *NOMINAL_FLAGS, "--halvings", "6"],
}


@pytest.mark.parametrize("name", sorted(ONE_ARTIFACT))
def test_stdout_matches_the_out_file(name, tmp_path, capsys):
    model = tmp_path / "two_state.json"
    save_mdp(two_state_mdp(), model)
    argv = [str(model) if arg == "MODEL" else arg for arg in ONE_ARTIFACT[name]]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    out_dir = tmp_path / "out"
    assert main(argv + ["--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == f"wrote {out_dir / name}\n"
    assert printed == (out_dir / name).read_bytes()
    assert printed.endswith(b"\n") and len(printed.splitlines()) > 1
