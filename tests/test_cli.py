"""Command-line behavior: printed values, exit codes, config merging,
deterministic artifacts, and the frozen golden files."""

import json
import math
import subprocess
import sys

import pytest

from dpnewton import cli
from dpnewton.cli import main
from dpnewton.formats import load_mdp, save_mdp
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
    def boom(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_riccati_solve", boom)
    assert main(["riccati", "solve", *NOMINAL_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: boom second line")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


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
    probe = "import sys, dpnewton.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
