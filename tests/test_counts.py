"""The one count rule: every integer input of the library, and every count
flag of the command line, is an int that is not a bool and is at least its
minimum, and a bad one is refused before any work is done."""

import argparse

import pytest

from dpnewton import adaptive, cli, generators, lookahead, lq, mdp
from dpnewton.formats import parse_real

from util import two_state_mdp

NOMINAL = lq.ScalarLQProblem(1.0, 2.0, 1.0, 0.5)
STABLE = lq.LinearGain.from_gain(NOMINAL, -0.5)
SCHEDULE = [(0, 2.0, 0.5)]

# name -> (parameter, minimum, a valid value, (module, function the call's
# work goes through), the call with the count under test)
SITES = {
    "spec-depth": ("depth", 1, 2, (lookahead, "_check_entries"),
                   lambda v: lookahead.LookaheadSpec(depth=v, terminal=[0.0, 0.0])),
    "spec-rollout_steps": ("rollout_steps", 0, 2, (lookahead, "_check_entries"),
                           lambda v: lookahead.LookaheadSpec(
                               depth=1, terminal=[0.0, 0.0], rollout_steps=v, base=[0, 0])),
    "lq-lookahead-depth": ("depth", 1, 2, (lq, "greedy_gain"),
                           lambda v: lq.lookahead_step(NOMINAL, 0.0, depth=v)),
    "lq-lookahead-rollout_steps": ("rollout_steps", 0, 2, (lq, "greedy_gain"),
                                   lambda v: lq.lookahead_step(
                                       NOMINAL, 0.0, rollout_steps=v, base=STABLE)),
    "mdp-vi-max_iters": ("max_iters", 0, 1000, (mdp, "bellman_operator"),
                         lambda v: mdp.value_iteration(two_state_mdp(), max_iters=v)),
    "mdp-pi-max_iters": ("max_iters", 0, 10, (mdp, "policy_evaluation"),
                         lambda v: mdp.policy_iteration(two_state_mdp(), [0, 0], max_iters=v)),
    "lq-vi-max_iters": ("max_iters", 0, 1000, (lq, "riccati_operator"),
                        lambda v: lq.value_iteration(NOMINAL, max_iters=v)),
    "lq-pi-max_iters": ("max_iters", 0, 100, (lq, "solve_riccati"),
                        lambda v: lq.policy_iteration(NOMINAL, STABLE, max_iters=v)),
    "rollout-horizon": ("horizon", 0, 2, (mdp, "policy_operator"),
                        lambda v: mdp.rollout_policy(two_state_mdp(), [0, 0], horizon=v)),
    "replan-horizon": ("horizon", 1, 5, (adaptive, "policy_cost"),
                       lambda v: adaptive.replan_simulation(
                           adaptive.NominalDesign.for_problem(NOMINAL), SCHEDULE, 1.0,
                           horizon=v)),
    "replan-schedule-time": ("schedule[0]: time", 0, 0, (adaptive, "policy_cost"),
                             lambda v: adaptive.replan_simulation(
                                 adaptive.NominalDesign.for_problem(NOMINAL), [(v, 2.0, 0.5)],
                                 1.0, horizon=5)),
    "lookahead-state": ("state", 1, 1, (lookahead, "nominal_outcome"),
                        lambda v: lookahead.lookahead_policy(
                            two_state_mdp(),
                            lookahead.LookaheadSpec(depth=1, terminal=[0.0, 0.0],
                                                    ce_mode="ce_all"),
                            v)),
    "random-n_states": ("n_states", 1, 3, (generators, "FiniteMDP"),
                        lambda v: generators.random_mdp(1, n_states=v)),
}


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("kind", ["bool", "float", "below_minimum"])
@pytest.mark.parametrize("parameter, minimum, valid, work, call", SITES.values(), ids=SITES.keys())
def test_every_library_count_is_checked_before_any_work(
    parameter, minimum, valid, work, call, kind, monkeypatch
):
    calls = _spy(monkeypatch, *work)
    call(valid)
    assert calls, "the spied function must do the call's work"
    calls.clear()
    bad = {"bool": True, "float": 2.5, "below_minimum": minimum - 1}[kind]
    with pytest.raises(ValueError) as err:
        call(bad)
    assert type(err.value) is ValueError
    assert str(err.value) == f"{parameter} must be an integer >= {minimum}, got {bad!r}"
    assert calls == []


def _leaf_commands(parser):
    """(argv prefix, options) of every command, found by walking the parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                opts = sub.get_default("opts")
                if opts is not None:
                    yield [name], opts
                for prefix, leaf_opts in _leaf_commands(sub):
                    yield [name, *prefix], leaf_opts


# a value each converter accepts, for the required options around the count
SAMPLES = {parse_real: "1", str: "unused", cli._count: "1", cli._counts: "0",
           cli._reals: "0", cli._schedule: "0:2:0.5"}


def test_every_cli_count_flag_names_itself(capsys):
    checked = []
    for prefix, opts in _leaf_commands(cli.build_parser()):
        for opt in opts:
            if opt.conv is not cli._count:
                continue
            required = [f"--{other.name}={SAMPLES[other.conv]}"
                        for other in opts if other.required and other is not opt]
            for raw in ("-1", "1.5"):
                assert cli.main([*prefix, *required, f"--{opt.name}={raw}"]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (
                    f"validation error: {opt.name}: value must be an integer >= 0, got '{raw}'\n"
                )
            checked.append(" ".join([*prefix, opt.name]))
    assert "mdp lookahead depth" in checked and "riccati newton steps" in checked
