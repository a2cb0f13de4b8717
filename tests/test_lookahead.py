"""Tree-search lookahead: hand-enumerated values, branching counts, the
reduction of a deep search to a one-step search, and the certainty
equivalence modes."""

import pytest

from dpnewton.generators import random_mdp, random_policy, random_values
from dpnewton.lookahead import LookaheadSpec, lookahead_policy, nominal_outcome
from dpnewton.mdp import (
    FiniteMDP,
    bellman_operator,
    greedy_policy,
    policy_operator,
    q_value,
    zero_values,
)

from util import lookahead_oracle, two_state_mdp, uniform_tree_mdp


def test_spec_validation():
    with pytest.raises(ValueError):
        LookaheadSpec(depth=0, terminal=[0.0, 0.0])
    with pytest.raises(ValueError):
        LookaheadSpec(depth=1, terminal=[0.0, 0.0], rollout_steps=-1)
    # truncated rollout needs somebody to roll out
    with pytest.raises(ValueError):
        LookaheadSpec(depth=1, terminal=[0.0, 0.0], rollout_steps=2)
    with pytest.raises(ValueError):
        LookaheadSpec(depth=1, terminal=[0.0, 0.0], ce_mode="nominal")


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


def test_nominal_outcome_rule():
    mdp = FiniteMDP(1.0, [
        [[(1.0, 0, 0.0)]],
        [[(0.4, 0, 1.0), (0.6, 0, 2.0)], [(0.5, 0, 5.0), (0.5, 0, 7.0)]],
    ])
    assert nominal_outcome(mdp, 1, 0) == (0.6, 0, 2.0)
    # equal probabilities: the earlier outcome wins
    assert nominal_outcome(mdp, 1, 1) == (0.5, 0, 5.0)
    assert nominal_outcome(mdp, 1, 0, {(1, 0): 0}) == (0.4, 0, 1.0)
    with pytest.raises(ValueError):
        nominal_outcome(mdp, 1, 0, {(1, 0): 2})


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
    # keep the safe control, full CE falls for the risky one, and an override
    # pointing the nominal at the bad outcome restores the safe choice.
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
    overridden = lookahead_policy(
        mdp,
        LookaheadSpec(depth=1, terminal=zero, ce_mode="ce_all", nominal={(1, 0): 1}),
        1,
    )
    assert overridden == (1, 1.0, 2)


def test_search_is_deterministic():
    mdp = random_mdp(7)
    terminal = random_values(8, mdp, high=3.0)
    spec = LookaheadSpec(depth=3, terminal=terminal, ce_mode="ce_after_first")
    first = lookahead_policy(mdp, spec, 1)
    again = lookahead_policy(mdp, spec, 1)
    assert first == again


def test_search_matches_the_brute_force_oracle():
    # The oracle walks every leaf of the tree, so it checks the memoized
    # values and the summed leaf counts, including nominal overrides that
    # steer both the collapsed stages and the nominal rollout walk.
    for seed in range(10):
        mdp = random_mdp(seed)
        terminal = random_values(seed + 3000, mdp, high=5.0)
        base = random_policy(seed + 4000, mdp)
        overrides = {
            (x, u): len(mdp.outcomes(x, u)) - 1
            for x in range(1, mdp.n_states)
            for u in mdp.controls[x]
            if (x + u) % 2 == 0
        }
        for depth in range(1, 5):
            for mode in ("exact", "ce_after_first", "ce_all"):
                for steps in (0, 2):
                    for nominal in (None, overrides):
                        spec = LookaheadSpec(depth=depth, terminal=terminal, rollout_steps=steps,
                                             base=base, ce_mode=mode, nominal=nominal)
                        for x in range(1, mdp.n_states):
                            want = lookahead_oracle(mdp, terminal, x, depth, mode, steps,
                                                    base, nominal)
                            assert tuple(lookahead_policy(mdp, spec, x)) == want
    # stay (1 + 0.5*4) and quit (3) tie at the root: the lowest id wins
    tie = two_state_mdp()
    choice = lookahead_policy(tie, LookaheadSpec(depth=1, terminal=[0.0, 4.0]), 1)
    assert tuple(choice) == lookahead_oracle(tie, [0.0, 4.0], 1, 1) == (0, 3.0, 2)


def test_overrides_on_unvisited_pairs_are_ignored():
    # State 2 cannot be reached from state 1, so the search never looks up
    # the nominal outcome of (2, 1) and its out-of-range override stays
    # unread; the same override on the root pair under "ce_all" is read.
    mdp = FiniteMDP(0.5, [
        [[(1.0, 0, 0.0)]],
        [[(0.5, 1, 1.0), (0.5, 0, 2.0)], [(1.0, 0, 3.0)]],
        [[(1.0, 1, 1.0)], [(0.5, 2, 0.0), (0.5, 0, 4.0)]],
    ])
    terminal = [0.0, 1.0, 2.0]
    base = [0, 0, 1]
    for mode in ("exact", "ce_after_first", "ce_all"):
        for steps in (0, 2):
            plain = LookaheadSpec(depth=3, terminal=terminal, rollout_steps=steps, base=base,
                                  ce_mode=mode)
            unread = LookaheadSpec(depth=3, terminal=terminal, rollout_steps=steps, base=base,
                                   ce_mode=mode, nominal={(2, 1): 7})
            assert lookahead_policy(mdp, unread, 1) == lookahead_policy(mdp, plain, 1)
    at_root = LookaheadSpec(depth=3, terminal=terminal, ce_mode="ce_all", nominal={(1, 0): 7})
    with pytest.raises(ValueError):
        lookahead_policy(mdp, at_root, 1)
