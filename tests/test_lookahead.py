"""Tree-search lookahead: hand-enumerated values, branching counts, the
reduction of a deep search to a one-step search, and the certainty
equivalence modes."""

import math
import pickle

import pytest

from dpnewton.generators import random_mdp, random_policy, random_values
from dpnewton.lookahead import LookaheadSpec, lookahead_policy, nominal_outcome
from dpnewton.lq import ScalarLQProblem, lookahead_step
from dpnewton.mdp import (
    FiniteMDP,
    bellman_operator,
    greedy_policy,
    policy_operator,
    q_value,
    zero_values,
)

from util import lookahead_oracle, two_state_mdp, uniform_tree_mdp


BAD_SPECS = [
    ({"depth": 0}, "depth must be an integer >= 1, got 0"),
    ({"rollout_steps": -1}, "rollout_steps must be an integer >= 0, got -1"),
    # truncated rollout needs somebody to roll out
    ({"rollout_steps": 2}, "rollout_steps > 0 requires a base policy"),
    ({"ce_mode": "nominal"},
     "ce_mode must be one of ('exact', 'ce_after_first', 'ce_all'), got 'nominal'"),
    ({"terminal": [1.0, 0.0]}, "terminal[0]: the termination state is pinned to 0"),
    ({"terminal": (0.0, math.nan)}, "terminal[1]: entries are nonnegative reals, got nan"),
    # the fields are checked in order, the terminal entries last
    ({"depth": 0, "ce_mode": "nominal", "terminal": [1.0]},
     "depth must be an integer >= 1, got 0"),
    ({"ce_mode": "nominal", "terminal": [1.0]},
     "ce_mode must be one of ('exact', 'ce_after_first', 'ce_all'), got 'nominal'"),
]

SPEC = LookaheadSpec(depth=1, terminal=[0.0, 0.0])


def _spec_fields(changes):
    return {**SPEC._asdict(), **changes}


SPEC_CONSTRUCTORS = {
    "keywords": lambda changes: LookaheadSpec(**_spec_fields(changes)),
    "call": lambda changes: LookaheadSpec(*_spec_fields(changes).values()),
    "make": lambda changes: LookaheadSpec._make(_spec_fields(changes).values()),
    "replace": lambda changes: SPEC._replace(**changes),
}


@pytest.mark.parametrize("build", SPEC_CONSTRUCTORS.values(), ids=SPEC_CONSTRUCTORS.keys())
@pytest.mark.parametrize("changes, message", BAD_SPECS)
def test_every_spec_constructor_validates(build, changes, message):
    with pytest.raises(ValueError) as err:
        build(changes)
    assert str(err.value) == message
    # terminal and base are stored as tuples on every path
    built = build({"terminal": [0.0, 2.0], "rollout_steps": 1, "base": [0, 1]})
    assert type(built) is LookaheadSpec
    assert type(built.terminal) is tuple and built.terminal == (0.0, 2.0)
    assert type(built.base) is tuple and built.base == (0, 1)
    assert built == (1, (0.0, 2.0), 1, (0, 1), "exact")
    with pytest.raises(AttributeError):
        built.depth = 2
    assert pickle.loads(pickle.dumps(built)) == built
    assert hash(built) == hash(tuple(built))
    assert repr(built) == (
        "LookaheadSpec(depth=1, terminal=(0.0, 2.0), rollout_steps=1, base=(0, 1), "
        "ce_mode='exact')"
    )


def test_both_lookaheads_share_one_rule():
    # the counts of the (depth, rollout_steps, base) rule are covered with
    # every other count in test_counts.py
    fields = {"depth": 1, "rollout_steps": 2, "base": None}
    with pytest.raises(ValueError) as err:
        LookaheadSpec(terminal=[0.0, 0.0], **fields)
    assert str(err.value) == "rollout_steps > 0 requires a base policy"
    # the rule comes before the terminal coefficient, which NaN would fail
    problem = ScalarLQProblem(1.0, 2.0, 1.0, 0.5)
    with pytest.raises(ValueError) as err:
        lookahead_step(problem, math.nan, **fields)
    assert str(err.value) == "rollout_steps > 0 requires a base policy"
    # an LQ base must be a gain, checked before its stability is read
    with pytest.raises(ValueError) as err:
        lookahead_step(problem, math.nan, rollout_steps=1, base=[0])
    assert str(err.value) == "base must be a LinearGain, got [0]"


def test_call_validation():
    mdp = two_state_mdp()
    spec = LookaheadSpec(depth=1, terminal=[0.0, 0.0])
    with pytest.raises(ValueError):
        lookahead_policy(mdp, spec, 0)
    with pytest.raises(ValueError):
        lookahead_policy(mdp, spec, 2)
    with pytest.raises(ValueError):
        lookahead_policy(mdp, LookaheadSpec(depth=1, terminal=[0.0]), 1)
    with pytest.raises(ValueError):
        lookahead_policy(mdp, LookaheadSpec(depth=1, terminal=[1.0, 0.0]), 1)
    bad_base = LookaheadSpec(depth=1, terminal=[0.0, 0.0], rollout_steps=1, base=[0, 7])
    with pytest.raises(ValueError):
        lookahead_policy(mdp, bad_base, 1)
    short_base = LookaheadSpec(depth=1, terminal=[0.0, 0.0], rollout_steps=1, base=[0])
    with pytest.raises(ValueError):
        lookahead_policy(mdp, short_base, 1)


def test_spec_checks_its_terminal_once_and_keeps_a_copy():
    mdp = random_mdp(3, discount=0.9, n_states=300)
    good = random_values(4, mdp, 10.0)
    # a bad entry is reported when the spec is built, with the call's text
    for x, bad, text in ((0, 1.0, "terminal[0]: the termination state is pinned to 0"),
                         (17, math.nan, "terminal[17]: entries are nonnegative reals, got nan")):
        terminal = list(good)
        terminal[x] = bad
        with pytest.raises(ValueError) as err:
            LookaheadSpec(depth=2, terminal=terminal)
        assert str(err.value) == text
    # the spec holds tuples: changing the caller's lists changes no decision
    terminal, base = list(good), [c[0] for c in mdp.controls]
    spec = LookaheadSpec(depth=2, terminal=terminal, rollout_steps=1, base=base)
    before = [lookahead_policy(mdp, spec, x) for x in range(1, mdp.n_states)]
    terminal[1:] = [math.nan] * (mdp.n_states - 1)
    base[1:] = [-1] * (mdp.n_states - 1)
    assert [lookahead_policy(mdp, spec, x) for x in range(1, mdp.n_states)] == before
    # the length needs the model, so the call checks it
    for short in ([], good[:-1]):
        spec = LookaheadSpec(depth=2, terminal=short)
        with pytest.raises(ValueError) as err:
            lookahead_policy(mdp, spec, 1)
        assert str(err.value) == f"terminal: expected 300 entries, got {len(short)}"


def test_terminal_tables_name_their_first_bad_entry():
    mdp = random_mdp(3, discount=0.9, n_states=300)
    good = random_values(4, mdp, 10.0)
    for x, bad in ((299, math.nan), (40, -math.inf), (12, -0.5)):
        terminal = list(good)
        terminal[x] = bad
        with pytest.raises(ValueError) as err:
            lookahead_policy(mdp, LookaheadSpec(depth=2, terminal=terminal), 1)
        assert str(err.value) == f"terminal[{x}]: entries are nonnegative reals, got {bad!r}"
    # -0.0 and inf are accepted; depth 1 is the greedy step against them
    terminal = list(good)
    terminal[5], terminal[9] = -0.0, math.inf
    policy = greedy_policy(mdp, terminal)
    for x in (1, 5, 9, 299):
        choice = lookahead_policy(mdp, LookaheadSpec(depth=1, terminal=terminal), x)
        assert choice.control == policy[x]
        assert choice.value == q_value(mdp, terminal, x, policy[x])


def test_nominal_outcome_rule():
    mdp = FiniteMDP(1.0, [
        [[(1.0, 0, 0.0)]],
        [[(0.4, 0, 1.0), (0.6, 0, 2.0)], [(0.5, 0, 5.0), (0.5, 0, 7.0)]],
    ])
    assert nominal_outcome(mdp, 1, 0) == (0.6, 0, 2.0)
    # equal probabilities: the earlier outcome wins
    assert nominal_outcome(mdp, 1, 1) == (0.5, 0, 5.0)


def test_two_state_values_by_hand():
    # state 1: stay for 1 or quit for 3, alpha = 0.5, terminal estimate 0.
    # depth 2 paths from "stay": stay-stay 1 + .5*1 = 1.5, stay-quit 1 + .5*3;
    # from "quit" the chain is already done: 3.  Minimum 1.5 via stay.
    mdp = two_state_mdp()
    zero = zero_values(mdp)
    one = lookahead_policy(mdp, LookaheadSpec(depth=1, terminal=zero), 1)
    assert one == (0, 1.0, 2)
    two = lookahead_policy(mdp, LookaheadSpec(depth=2, terminal=zero), 1)
    assert two.control == 0
    assert two.value == 1.5
    # stay branch re-opens both controls, quit branch only the loop at 0
    assert two.leaves == 3
    # a deterministic model makes every CE mode exact
    for mode in ("ce_after_first", "ce_all"):
        assert lookahead_policy(
            mdp, LookaheadSpec(depth=2, terminal=zero, ce_mode=mode), 1
        ).value == 1.5


def test_leaf_counts_on_uniform_branching():
    # 2 controls x 3 outcomes everywhere and state 0 is never entered, so the
    # exact tree has (2*3)^depth leaves, first-stage-only expansion has
    # (2*3)*(2*1)^(depth-1), and full CE has 2^depth.  The counts are summed,
    # not walked, so a tree of 6^100 leaves is counted exactly.
    mdp = uniform_tree_mdp()
    zero = zero_values(mdp)
    counts = {
        mode: lookahead_policy(
            mdp, LookaheadSpec(depth=3, terminal=zero, ce_mode=mode), 1
        ).leaves
        for mode in ("exact", "ce_after_first", "ce_all")
    }
    assert counts == {"exact": 216, "ce_after_first": 24, "ce_all": 8}
    shallow = {
        mode: lookahead_policy(
            mdp, LookaheadSpec(depth=1, terminal=zero, ce_mode=mode), 1
        ).leaves
        for mode in ("exact", "ce_after_first", "ce_all")
    }
    assert shallow == {"exact": 6, "ce_after_first": 6, "ce_all": 2}
    deep = {
        mode: lookahead_policy(
            mdp, LookaheadSpec(depth=100, terminal=zero, ce_mode=mode), 1
        ).leaves
        for mode in ("exact", "ce_after_first", "ce_all")
    }
    assert deep == {"exact": 6**100, "ce_after_first": 6 * 2**99, "ce_all": 2**100}


def test_depth_one_is_bitwise_greedy():
    for seed in range(20):
        mdp = random_mdp(seed)
        values = random_values(seed + 1000, mdp, high=5.0)
        greedy = greedy_policy(mdp, values)
        for mode in ("exact", "ce_after_first"):
            spec = LookaheadSpec(depth=1, terminal=values, ce_mode=mode)
            for x in range(1, mdp.n_states):
                choice = lookahead_policy(mdp, spec, x)
                assert choice.control == greedy[x]
                assert choice.value == q_value(mdp, values, x, greedy[x])


def test_deep_search_equals_one_step_against_swept_terminal():
    # Backing the terminal estimate up depth-1 times with the exact Bellman
    # operator and then searching one step reproduces the deep search bit for
    # bit: each memoized stage forms the Bellman operator's sums in its order.
    det = two_state_mdp()
    for terminal in ([0.0, 0.0], [0.0, 2.7]):
        for depth in range(1, 6):
            swept = list(terminal)
            for _ in range(depth - 1):
                swept = bellman_operator(det, swept)
            deep = lookahead_policy(det, LookaheadSpec(depth=depth, terminal=terminal), 1)
            shallow = lookahead_policy(det, LookaheadSpec(depth=1, terminal=swept), 1)
            assert deep.control == shallow.control
            assert deep.value == shallow.value

    for seed in range(10):
        mdp = random_mdp(seed)
        terminal = random_values(seed + 2000, mdp, high=10.0)
        for depth in (3, 50, 200):
            swept = list(terminal)
            for _ in range(depth - 1):
                swept = bellman_operator(mdp, swept)
            for x in range(1, mdp.n_states):
                deep = lookahead_policy(mdp, LookaheadSpec(depth=depth, terminal=terminal), x)
                shallow = lookahead_policy(mdp, LookaheadSpec(depth=1, terminal=swept), x)
                assert deep.control == shallow.control
                assert deep.value == shallow.value


def test_truncated_rollout_folds_into_the_terminal():
    # m exact base sweeps at the leaves are the same thing as searching with
    # the m-times-swept terminal estimate.
    for seed in range(10):
        mdp = random_mdp(seed)
        base = random_policy(seed + 1, mdp)
        terminal = random_values(seed + 2, mdp, high=5.0)
        swept = list(terminal)
        for _ in range(3):
            swept = policy_operator(mdp, base, swept)
        for x in range(1, mdp.n_states):
            rolled = lookahead_policy(
                mdp,
                LookaheadSpec(depth=2, terminal=terminal, rollout_steps=3, base=base),
                x,
            )
            folded = lookahead_policy(mdp, LookaheadSpec(depth=2, terminal=swept), x)
            assert rolled.control == folded.control
            assert rolled.value == folded.value
            assert rolled.leaves == folded.leaves


def test_truncated_rollout_ce_walk_matches_exact_when_deterministic():
    # 1200 steps is deeper than Python's default recursion limit: the nominal
    # walk must be a loop.
    mdp = two_state_mdp()
    base = [0, 1]
    terminal = [0.0, 4.0]
    for depth, steps in ((1, 2), (2, 2), (1, 1200), (2, 1200)):
        exact = lookahead_policy(
            mdp,
            LookaheadSpec(depth=depth, terminal=terminal, rollout_steps=steps, base=base),
            1,
        )
        walked = lookahead_policy(
            mdp,
            LookaheadSpec(
                depth=depth,
                terminal=terminal,
                rollout_steps=steps,
                base=base,
                ce_mode="ce_after_first",
            ),
            1,
        )
        assert exact.value == walked.value
        assert exact.control == walked.control
    # spot check the folded leaf table by hand: two base sweeps send state 1
    # to cost 3 (quit) and the root then prefers stay: 1 + 0.5*3 = 2.5
    assert lookahead_policy(
        mdp, LookaheadSpec(depth=1, terminal=terminal, rollout_steps=2, base=base), 1
    ).value == 2.5


def test_ce_modes_diverge_in_the_documented_order():
    # Stage-1 disturbance: equal split between a noisy state 2 and a sure
    # state 3.  Exact search prices state 2 at its expectation 1; CE past the
    # first stage prices it at its nominal 0; full CE also collapses stage 1.
    mdp = FiniteMDP(1.0, [
        [[(1.0, 0, 0.0)]],
        [[(0.5, 2, 0.0), (0.5, 3, 0.0)]],
        [[(0.9, 0, 0.0), (0.1, 0, 10.0)]],
        [[(1.0, 0, 2.0)]],
    ])
    zero = zero_values(mdp)
    by_mode = {
        mode: lookahead_policy(
            mdp, LookaheadSpec(depth=2, terminal=zero, ce_mode=mode), 1
        ).value
        for mode in ("exact", "ce_after_first", "ce_all")
    }
    assert by_mode == {"exact": 1.5, "ce_after_first": 1.0, "ce_all": 0.0}


def test_full_ce_can_pick_the_risky_control():
    # Control 0 is bad in expectation (cost 40) but its nominal outcome is
    # free; control 1 surely costs 1.  Exact search and first-stage-exact CE
    # keep the safe control, full CE falls for the risky one.
    mdp = FiniteMDP(1.0, [
        [[(1.0, 0, 0.0)]],
        [[(0.6, 0, 0.0), (0.4, 0, 100.0)], [(1.0, 0, 1.0)]],
    ])
    zero = zero_values(mdp)
    assert lookahead_policy(mdp, LookaheadSpec(depth=1, terminal=zero), 1) == (1, 1.0, 3)
    assert lookahead_policy(
        mdp, LookaheadSpec(depth=1, terminal=zero, ce_mode="ce_after_first"), 1
    ).control == 1
    risky = lookahead_policy(mdp, LookaheadSpec(depth=1, terminal=zero, ce_mode="ce_all"), 1)
    assert risky == (0, 0.0, 2)


def test_search_is_deterministic():
    mdp = random_mdp(7)
    terminal = random_values(8, mdp, high=3.0)
    spec = LookaheadSpec(depth=3, terminal=terminal, ce_mode="ce_after_first")
    first = lookahead_policy(mdp, spec, 1)
    again = lookahead_policy(mdp, spec, 1)
    assert first == again


def test_search_matches_the_brute_force_oracle():
    # The oracle walks every leaf of the tree, so it checks the memoized
    # values and the summed leaf counts, including the nominal outcomes of
    # both the collapsed stages and the nominal rollout walk.
    for seed in range(10):
        mdp = random_mdp(seed)
        terminal = random_values(seed + 3000, mdp, high=5.0)
        base = random_policy(seed + 4000, mdp)
        for depth in range(1, 5):
            for mode in ("exact", "ce_after_first", "ce_all"):
                for steps in (0, 2):
                    spec = LookaheadSpec(depth=depth, terminal=terminal, rollout_steps=steps,
                                         base=base, ce_mode=mode)
                    for x in range(1, mdp.n_states):
                        want = lookahead_oracle(mdp, terminal, x, depth, mode, steps, base)
                        assert tuple(lookahead_policy(mdp, spec, x)) == want
    # stay (1 + 0.5*4) and quit (3) tie at the root: the lowest id wins
    tie = two_state_mdp()
    choice = lookahead_policy(tie, LookaheadSpec(depth=1, terminal=[0.0, 4.0]), 1)
    assert tuple(choice) == lookahead_oracle(tie, [0.0, 4.0], 1, 1) == (0, 3.0, 2)

