"""The reference module on hand-checkable cases, and cross-checked against
dpnewton on seeded models.  Run with `python3 -m pytest perfbench`."""

import math

import pytest

import reference as ref


def two_state(alpha=0.5, stay=1.0, quit=3.0):
    """State 1 stays put for `stay` (control 0) or terminates for `quit` (control 1)."""
    return ref.Model(
        alpha,
        ((0,), (0, 1)),
        (
            (((1.0, 0, 0.0),),),
            (((1.0, 1, stay),), ((1.0, 0, quit),)),
        ),
    )


def uniform_tree(controls=2, outcomes=3, states=3):
    """Every nonterminal state has `controls` controls with `outcomes`
    outcomes each, none of them terminating, with unequal probabilities."""
    weights = [float(k + 1) for k in range(outcomes)]
    probs = [w / sum(weights) for w in weights]
    table = [(((1.0, 0, 0.0),),)]
    for x in range(1, states):
        table.append(tuple(
            tuple((probs[k], 1 + (x + u + k) % (states - 1), float(u + k)) for k in range(outcomes))
            for u in range(controls)
        ))
    return ref.Model(
        0.9, ((0,),) + tuple(tuple(range(controls)) for _ in range(1, states)), tuple(table)
    )


def test_two_state_q_values_and_residual():
    model = two_state()
    # staying forever costs 1 / (1 - 0.5) = 2 < 3, so J* = (0, 2)
    assert ref.q_table(model, [0.0, 2.0]) == [[0.0], [2.0, 3.0]]
    assert ref.bellman_residual(model, [0.0, 2.0]) == 0.0
    assert ref.bellman_residual(model, [0.0, 0.0]) == 1.0
    assert ref.improvement_gap(model, [0.0, 2.0], [0, 0]) == 0.0
    assert ref.improvement_gap(model, [0.0, 2.0], [0, 1]) == 1.0
    assert ref.policy_cost(model, [0, 0]) == [0.0, 2.0]
    assert ref.policy_cost(model, [0, 1]) == [0.0, 3.0]


def test_two_state_value_iteration_sweeps():
    # v_k(1) = 2 (1 - 2^-k): the step from v_k is 2^-k, first <= 1e-12 at k = 40
    assert ref.vi_sweeps(two_state(), 1e-12) == 40
    assert ref.vi_sweeps(two_state(), 1e-12, cap=39) is None


def test_two_state_lookahead_by_hand():
    model = two_state()
    zero = [0.0, 0.0]
    assert ref.lookahead(model, zero, 1, 1) == ref.Decision(0, 1.0, 2.0, 2, 3)
    # stay-stay 1 + .5 * 1 = 1.5 beats quit 3; the stay branch reopens both
    # controls (2 leaves), the quit branch only the loop at 0 (1 leaf)
    two = ref.lookahead(model, zero, 1, 2)
    assert (two.control, two.value, two.leaves) == (0, 1.5, 3)
    assert two.distinct == 1 + 2 + 2
    # deterministic outcomes: every CE mode is exact
    for mode in ("ce_after_first", "ce_all"):
        assert ref.lookahead(model, zero, 1, 2, mode)[:4] == two[:4]


def test_truncated_rollout_leaf_values():
    model = two_state()
    zero = [0.0, 0.0]
    # two steps of "stay" before the terminal: 1 + .5 * 1 = 1.5 at state 1
    for mode in ref.CE_MODES:
        one = ref.lookahead(model, zero, 1, 1, mode, rollout_steps=2, base=[0, 0])
        assert one.value == 1.0 + 0.5 * 1.5


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_uniform_tree_leaf_counts(depth):
    model = uniform_tree(controls=2, outcomes=3)
    zero = [0.0] * model.n_states
    for state in (1, 2):
        assert ref.lookahead(model, zero, state, depth).leaves == (2 * 3) ** depth
        assert ref.lookahead(model, zero, state, depth, "ce_after_first").leaves == (
            2 * 3 * 2 ** (depth - 1))
        assert ref.lookahead(model, zero, state, depth, "ce_all").leaves == 2 ** depth
    assert [size[0] for size in ref.tree_sizes(model, depth, "exact")] == [6 ** depth] * 2


def test_nominal_outcome_is_most_probable_lowest_index():
    model = ref.Model(
        1.0,
        ((0,), (0, 1)),
        ((((1.0, 0, 0.0),),),
         (((0.4, 0, 1.0), (0.6, 0, 2.0)), ((0.5, 0, 5.0), (0.5, 0, 7.0)))),
    )
    assert ref.nominal_slot(model, 1, 0) == 1
    assert ref.nominal_slot(model, 1, 1) == 0


def test_riccati_closed_forms():
    a, b, q, r = 1.0, 2.0, 1.0, 0.5
    K = ref.riccati_root(a, b, q, r)
    assert K == pytest.approx(1.1123724356957945, rel=1e-15)
    assert ref.riccati_map(a, b, q, r, K) == pytest.approx(K, rel=1e-15)
    L = ref.greedy_gain(a, b, q, r, K)
    assert L == pytest.approx(-0.4494897427831781, rel=1e-15)
    # the optimal gain's geometric series sums to K*
    assert ref.lq_policy_cost(a, b, q, r, L) == pytest.approx(K, rel=1e-14)
    # |a + b L| = 1 is unstable
    assert math.isinf(ref.lq_policy_cost(a, b, q, r, -1.0))


@pytest.mark.parametrize("seed", [11, 13, 21, 24])
def test_lookahead_agrees_with_dpnewton(seed):
    from dpnewton import generators, mdp
    from dpnewton.lookahead import LookaheadSpec, lookahead_policy

    model = generators.random_mdp(seed)
    plain = ref.Model.from_finite_mdp(model)
    values, _ = mdp.value_iteration(model)
    base = mdp.greedy_policy(model, values)
    for mode in ref.CE_MODES:
        spec = LookaheadSpec(depth=3, terminal=values, rollout_steps=2, base=base, ce_mode=mode)
        for x in range(1, model.n_states):
            got = lookahead_policy(model, spec, x)
            want = ref.lookahead(plain, values, x, 3, mode, 2, base)
            assert (got.control, got.value, got.leaves) == (want.control, want.value, want.leaves)
