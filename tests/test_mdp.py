"""Finite-MDP engine: worked example, exact-arithmetic properties, solvers.

The hand example has a termination state and one working state with a
cheap self-loop (cost 1) and an exit (cost 3).  At discount 0.5 the exit
is the overpriced option: staying forever costs 1/(1-0.5) = 2.
"""

import math
import random
import sys
import threading

import numpy as np
import pytest

from dpnewton.generators import random_mdp, random_policy, random_values
from dpnewton.mdp import (
    ConvergenceError,
    FiniteMDP,
    MDPValidationError,
    bellman_operator,
    greedy_policy,
    lyapunov_check,
    policy_evaluation,
    policy_is_stable,
    policy_iteration,
    policy_operator,
    q_value,
    rollout_policy,
    value_iteration,
    zero_values,
)
from dpnewton.mdp import _reaching, _recurrent_states
from util import (
    chain_classes_oracle,
    greedy_oracle,
    improvement_oracle,
    policy_evaluation_oracle,
    q_table_oracle,
    two_state_mdp,
    value_iteration_oracle,
)

STAY, QUIT = 0, 1


def test_validation_reports_first_offending_path():
    with pytest.raises(MDPValidationError) as err:
        FiniteMDP(0.5, [[[(0.5, 0, 0.0), (0.6, 0, 0.0)]]])
    assert "transitions[0][0]" in str(err.value)
    with pytest.raises(MDPValidationError) as err:
        FiniteMDP(0.5, [[[(1.0, 0, 0.0)]], [[(1.0, 5, 1.0)]]])
    assert err.value.path == "transitions[1][0][0].next"
    with pytest.raises(MDPValidationError) as err:
        FiniteMDP(0.5, [[[(1.0, 0, 0.0)]], [[(1.0, 0, -1.0)]]])
    assert err.value.path == "transitions[1][0][0].cost"
    with pytest.raises(MDPValidationError) as err:
        FiniteMDP(1.5, [[[(1.0, 0, 0.0)]]])
    assert err.value.path == "alpha"
    # every number is a real other than a bool, in the double range
    builds = {
        "alpha": lambda v: FiniteMDP(v, [[[(1.0, 0, 0.0)]]]),
        "transitions[1][0][0].p": lambda v: FiniteMDP(0.5, [[[(1.0, 0, 0.0)]], [[(v, 0, 1.0)]]]),
        "transitions[1][0][0].cost": lambda v: FiniteMDP(
            0.5, [[[(1.0, 0, 0.0)]], [[(1.0, 0, v)]]]
        ),
    }
    for bad, text in ((True, "expected a number, got True"),
                      ("1.0", "expected a number, got '1.0'"),
                      (10**400, "the number leaves the double range")):
        for path, build in builds.items():
            with pytest.raises(MDPValidationError) as err:
                build(bad)
            assert err.value.path == path and str(err.value) == f"{path}: {text}"
    # the termination state must stay put at no cost
    with pytest.raises(MDPValidationError):
        FiniteMDP(0.5, [[[(1.0, 0, 2.0)]]])
    with pytest.raises(MDPValidationError):
        FiniteMDP(0.5, [[[(1.0, 1, 0.0)]], [[(1.0, 0, 1.0)]]])
    # duplicate control ids
    with pytest.raises(MDPValidationError):
        FiniteMDP(
            0.5,
            [[[(1.0, 0, 0.0)]], [[(1.0, 0, 1.0)], [(1.0, 0, 2.0)]]],
            controls=[[0], [1, 1]],
        )


def test_controls_are_canonicalized_ascending():
    mdp = FiniteMDP(
        0.5,
        [[[(1.0, 0, 0.0)]], [[(1.0, 0, 3.0)], [(1.0, 1, 1.0)]]],
        controls=[[0], [7, 2]],
    )
    assert mdp.controls[1] == (2, 7)
    assert mdp.outcomes(1, 7)[0].cost == 3.0
    assert mdp.outcomes(1, 2)[0].cost == 1.0
    with pytest.raises(ValueError):
        mdp.outcomes(1, 0)


def test_bellman_operator_hand_values():
    mdp = two_state_mdp()
    assert bellman_operator(mdp, [0.0, 0.0]) == [0.0, 1.0]
    fixed = bellman_operator(mdp, [0.0, 2.0])
    assert fixed == [0.0, 2.0]  # J*(s) = min(1 + 0.5*2, 3) = 2
    # termination-only problem
    assert bellman_operator(FiniteMDP(0.5, [[[(1.0, 0, 0.0)]]]), [0.0]) == [0.0]
    # infinite estimates propagate through expectations, minimum survives
    assert q_value(mdp, [0.0, math.inf], 1, STAY) == math.inf
    assert bellman_operator(mdp, [0.0, math.inf]) == [0.0, 3.0]


def test_policy_operator_hand_values():
    mdp = two_state_mdp()
    go = [0, QUIT]
    assert policy_operator(mdp, go, [0.0, 0.0]) == [0.0, 3.0]
    stay = [0, STAY]
    j_stay = policy_evaluation(mdp, stay)
    assert policy_operator(mdp, stay, j_stay) == pytest.approx(j_stay)


def test_value_iteration_hand_example():
    mdp = two_state_mdp()
    values, sweeps = value_iteration(mdp, tol=1e-12)
    assert values[1] == pytest.approx(2.0, abs=1e-11)
    assert sweeps > 0
    # an exact start is recognized without any sweep
    again, sweeps = value_iteration(mdp, [0.0, 2.0], tol=1e-12)
    assert sweeps == 0 and again == [0.0, 2.0]
    with pytest.raises(ConvergenceError) as err:
        value_iteration(mdp, tol=1e-12, max_iters=1)
    assert err.value.residual > 0


def test_value_iteration_rejects_a_budget_no_run_can_meet():
    mdp = two_state_mdp()
    for kwargs, message in (
        ({"tol": -1.0}, "tol must be a nonnegative real, got -1.0"),
        ({"tol": math.nan}, "tol must be a nonnegative real, got nan"),
        ({"max_iters": -1}, "max_iters must be an integer >= 0, got -1"),
    ):
        with pytest.raises(ValueError) as err:
            value_iteration(mdp, **kwargs)
        assert str(err.value) == message
    # a zero budget still measures the start
    assert value_iteration(mdp, [0.0, 2.0], max_iters=0) == ([0.0, 2.0], 0)
    with pytest.raises(ConvergenceError, match="after 0 sweeps"):
        value_iteration(mdp, max_iters=0)


def test_policy_evaluation_hand_values():
    mdp = two_state_mdp()
    assert policy_evaluation(mdp, [0, QUIT]) == [0.0, 3.0]
    assert policy_evaluation(mdp, [0, STAY]) == pytest.approx([0.0, 2.0])
    # without discounting the self-loop at cost 1 never pays off
    undiscounted = two_state_mdp(alpha=1.0)
    assert policy_evaluation(undiscounted, [0, STAY]) == [0.0, math.inf]
    assert policy_evaluation(undiscounted, [0, QUIT]) == [0.0, 3.0]
    assert not policy_is_stable(undiscounted, [0, STAY])
    assert policy_is_stable(undiscounted, [0, QUIT])
    assert policy_is_stable(mdp, [0, STAY])  # discounting forgives loops


def test_policy_evaluation_zero_cost_recurrence_takes_least_fixed_point():
    # state 1 circles through state 2 for free forever; state 3 pays once
    # and then joins the free cycle
    mdp = FiniteMDP(
        1.0,
        [
            [[(1.0, 0, 0.0)]],
            [[(1.0, 2, 0.0)]],
            [[(1.0, 1, 0.0)]],
            [[(0.5, 1, 2.0), (0.5, 2, 4.0)]],
        ],
    )
    values = policy_evaluation(mdp, [0, 0, 0, 0])
    assert values == [0.0, 0.0, 0.0, 3.0]
    assert policy_is_stable(mdp, [0, 0, 0, 0])
    # iterating the policy sweep from zero converges to the same values
    j = zero_values(mdp)
    for _ in range(50):
        j = policy_operator(mdp, [0, 0, 0, 0], j)
    assert j == pytest.approx(values)


def test_policy_evaluation_mixed_infinite_states():
    # state 1 loops on itself at positive cost; state 2 escapes to t
    mdp = FiniteMDP(
        1.0,
        [
            [[(1.0, 0, 0.0)]],
            [[(0.5, 1, 1.0), (0.5, 0, 0.0)]],
            [[(1.0, 0, 2.0)]],
        ],
    )
    # the state-1 loop leaks to termination: J(1) = 0.5 (1 + J(1)) gives 1
    assert policy_evaluation(mdp, [0, 0, 0]) == pytest.approx([0.0, 1.0, 2.0])
    trapped = FiniteMDP(
        1.0,
        [
            [[(1.0, 0, 0.0)]],
            [[(1.0, 1, 1.0)]],
            [[(0.5, 1, 0.0), (0.5, 0, 0.0)]],
        ],
    )
    values = policy_evaluation(trapped, [0, 0, 0])
    assert values[1] == math.inf
    assert values[2] == math.inf  # reaches the bad loop with probability 1/2


def test_greedy_policy_hand_values():
    mdp = two_state_mdp()
    assert greedy_policy(mdp, [0.0, 0.0]) == [0, STAY]  # 1 < 3
    j_quit = policy_evaluation(mdp, [0, QUIT])
    # against the quitting policy's values, staying looks better: 1+0.5*3 < 3
    assert greedy_policy(mdp, j_quit) == [0, STAY]
    j_opt, _ = value_iteration(mdp, tol=1e-13)
    assert greedy_policy(mdp, j_opt) == [0, STAY]


def test_greedy_ties_take_lowest_control_id():
    mdp = FiniteMDP(
        0.5,
        [[[(1.0, 0, 0.0)]], [[(1.0, 0, 2.0)], [(1.0, 0, 2.0)]]],
    )
    assert greedy_policy(mdp, zero_values(mdp)) == [0, 0]
    # all-infinite column: still the lowest id
    loops = FiniteMDP(
        1.0,
        [[[(1.0, 0, 0.0)]], [[(1.0, 1, 1.0)], [(1.0, 1, 2.0)]]],
    )
    j = [0.0, math.inf]
    assert greedy_policy(loops, j) == [0, 0]
    # the same with gapped ids given out of order
    ragged = ragged_mdp()
    values = [0.0, 1.5, 0.25, 3.0, 2.0]
    q = q_table_oracle(ragged, values)
    assert q[0, 1] == q[0, 4] and q[1, 9] == q[1, 12] and q[4, 2] == q[4, 8]
    assert greedy_policy(ragged, values) == [1, 9, 0, 7, 2]
    assert greedy_policy(ragged, [0.0] + [math.inf] * 4) == [1, 3, 0, 7, 2]


def test_policy_iteration_hand_example():
    mdp = two_state_mdp()
    policy, values, rounds = policy_iteration(mdp, [0, QUIT])
    assert policy == [0, STAY]
    assert values == pytest.approx([0.0, 2.0])
    assert rounds == 2
    policy, values, rounds = policy_iteration(mdp, [0, STAY])
    assert policy == [0, STAY] and rounds == 1
    # an unstable undiscounted start is rejected
    with pytest.raises(ValueError):
        policy_iteration(two_state_mdp(alpha=1.0), [0, STAY])
    # a start that needs two rounds runs out of a budget of one; a negative
    # budget is invalid input, not a non-convergence
    with pytest.raises(ConvergenceError, match="did not settle in 1 rounds"):
        policy_iteration(mdp, [0, QUIT], max_iters=1)
    with pytest.raises(ValueError) as err:
        policy_iteration(mdp, [0, QUIT], max_iters=-1)
    assert type(err.value) is ValueError
    assert str(err.value) == "max_iters must be an integer >= 0, got -1"


def test_undiscounted_start_is_evaluated_once(monkeypatch):
    import dpnewton.mdp as mdp_module

    calls = []

    def counting(mdp, policy):
        calls.append(list(policy))
        return policy_evaluation(mdp, policy)

    monkeypatch.setattr(mdp_module, "policy_evaluation", counting)
    # the first controls of this model terminate: a stable start
    model = random_mdp(0, 1.0, reach_termination=True)
    _, _, rounds = policy_iteration(model, [c[0] for c in model.controls])
    assert rounds == 3
    assert len(calls) == rounds
    calls.clear()
    model = two_state_mdp(alpha=1.0)
    assert rollout_policy(model, [0, QUIT]) == [0, QUIT]
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(ValueError, match="stable"):
        rollout_policy(model, [0, STAY])
    assert len(calls) == 1


def test_value_iteration_sweeps_once_through_the_public_operator(monkeypatch):
    # perfbench's traced run times the mdp.bellman_operator span: one call
    # per solve, also when the start already converged or sweeps run out
    import dpnewton.mdp as mdp_module

    calls = []

    def counting(mdp, values):
        calls.append(list(values))
        return bellman_operator(mdp, values)

    monkeypatch.setattr(mdp_module, "bellman_operator", counting)
    model = random_mdp(3, 0.9)
    values, sweeps = value_iteration(model)
    assert sweeps > 1
    assert calls == [zero_values(model)]
    calls.clear()
    assert value_iteration(model, values, tol=1e-9) == (values, 0)
    assert calls == [values]
    calls.clear()
    with pytest.raises(ConvergenceError):
        value_iteration(model, max_iters=2)
    assert len(calls) == 1


def test_policy_iteration_matches_value_iteration_on_random_mdps():
    for seed in range(100):
        mdp = random_mdp(seed, discount=0.9)
        j_vi, _ = value_iteration(mdp, tol=1e-13)
        policy0 = greedy_policy(mdp, zero_values(mdp))
        policy, j_pi, _ = policy_iteration(mdp, policy0)
        assert np.allclose(j_pi, j_vi, rtol=1e-9, atol=1e-9)
        # the settled policy is greedy against its own values
        assert greedy_policy(mdp, j_pi) == policy


def test_policy_iteration_costs_never_increase():
    for seed in range(30):
        mdp = random_mdp(seed, discount=0.5)
        policy = random_policy(seed + 1000, mdp)
        previous = policy_evaluation(mdp, policy)
        for _ in range(20):
            improved = greedy_policy(mdp, previous)
            if improved == policy:
                break
            policy = improved
            current = policy_evaluation(mdp, policy)
            assert all(c <= p + 1e-9 for c, p in zip(current, previous))
            previous = current


def test_bellman_monotonicity_exact():
    rng = np.random.default_rng(99)
    pairs = 0
    while pairs < 1000:
        mdp = random_mdp(int(rng.integers(0, 2**32)), discount=0.9)
        low = random_values(int(rng.integers(0, 2**32)), mdp, 20.0)
        high = [
            v + (float(rng.uniform(0.0, 5.0)) if x else 0.0)
            for x, v in enumerate(low)
        ]
        swept_low = bellman_operator(mdp, low)
        swept_high = bellman_operator(mdp, high)
        # float addition and positive scaling are monotone, so no slack
        assert all(a <= b for a, b in zip(swept_low, swept_high))
        pairs += 1


def test_greedy_policy_is_exactly_consistent_with_bellman():
    for seed in range(50):
        mdp = random_mdp(seed, discount=0.9)
        values = random_values(seed + 7, mdp, 30.0)
        swept = bellman_operator(mdp, values)
        chosen = greedy_policy(mdp, values)
        backed = policy_operator(mdp, chosen, values)
        assert backed == swept  # same arithmetic path, bitwise equal


def test_rollout_policy_hand_example():
    mdp = two_state_mdp()
    assert rollout_policy(mdp, [0, QUIT]) == [0, STAY]
    assert rollout_policy(mdp, [0, STAY]) == [0, STAY]
    # truncated variants measure the base for a few sweeps from zero
    assert rollout_policy(mdp, [0, QUIT], horizon=1) == [0, STAY]
    assert rollout_policy(mdp, [0, QUIT], horizon=0) == [0, STAY]  # greedy on zeros
    with pytest.raises(ValueError):
        rollout_policy(two_state_mdp(alpha=1.0), [0, STAY])
    for horizon in (-1, 1.5, True):
        with pytest.raises(ValueError) as err:
            rollout_policy(mdp, [0, QUIT], horizon=horizon)
        assert str(err.value) == f"horizon must be an integer >= 0, got {horizon!r}"


def test_policy_length_is_checked_by_every_taker():
    # one check, in every function that takes a policy: too short, too long
    # and, under discounting too, an inadmissible control
    takers = {
        "policy_operator": lambda mdp, p: policy_operator(mdp, p, zero_values(mdp)),
        "policy_evaluation": policy_evaluation,
        "policy_is_stable": policy_is_stable,
        "policy_iteration": policy_iteration,
    }
    for alpha in (0.5, 1.0):
        mdp = two_state_mdp(alpha=alpha)
        for name, take in takers.items():
            for policy in ([0], [0, QUIT, QUIT]):
                with pytest.raises(ValueError) as err:
                    take(mdp, policy)
                assert str(err.value) == f"policy: expected 2 entries, got {len(policy)}", name
            with pytest.raises(ValueError, match="control 5 not admissible at state 1"):
                take(mdp, [0, 5])
        for horizon in (None, 0, 2):
            for base in ([0], [0, QUIT, QUIT]):
                with pytest.raises(ValueError) as err:
                    rollout_policy(mdp, base, horizon=horizon)
                assert str(err.value) == f"base: expected 2 entries, got {len(base)}"


def test_rollout_improves_on_random_mdps():
    improved_count = 0
    for seed in range(100):
        mdp = random_mdp(seed, discount=0.5 if seed % 2 else 0.9)
        base = random_policy(seed + 13, mdp)
        j_base = policy_evaluation(mdp, base)
        better = rollout_policy(mdp, base)
        j_better = policy_evaluation(mdp, better)
        assert all(b <= a + 1e-9 for b, a in zip(j_better, j_base))
        improved_count += any(
            b < a - 1e-9 for b, a in zip(j_better, j_base)
        )
    assert improved_count > 50  # improvement is typical, not incidental


def test_rollout_improves_undiscounted_with_terminating_base():
    for seed in range(25):
        mdp = random_mdp(seed, discount=1.0, reach_termination=True)
        base = [0] * mdp.n_states  # routes towards termination by construction
        assert policy_is_stable(mdp, base)
        j_base = policy_evaluation(mdp, base)
        better = rollout_policy(mdp, base)
        j_better = policy_evaluation(mdp, better)
        assert all(b <= a + 1e-9 for b, a in zip(j_better, j_base))


def test_lyapunov_check_hand_values():
    mdp = two_state_mdp()
    ok, bad = lyapunov_check(mdp, [0.0, 2.0])
    assert ok and bad == []
    j_stay = policy_evaluation(mdp, [0, STAY])
    ok, bad = lyapunov_check(mdp, j_stay)
    assert ok
    # the zero estimate undershoots wherever stage cost is positive
    ok, bad = lyapunov_check(mdp, [0.0, 0.0])
    assert not ok and bad == [1]
    with pytest.raises(ValueError):
        lyapunov_check(mdp, [0.0, math.inf])
    # a NaN tolerance would certify the failing zero estimate; neither it nor
    # a negative one is a tolerance
    for tol, shown in ((math.nan, "nan"), (-1.0, "-1.0")):
        with pytest.raises(ValueError) as err:
            lyapunov_check(mdp, [0.0, 0.0], tol=tol)
        assert str(err.value) == f"tol must be a nonnegative real, got {shown}"


def test_lyapunov_certificate_implies_stable_greedy_policy():
    for seed in range(40):
        mdp = random_mdp(seed, discount=1.0, reach_termination=True)
        base = [0] * mdp.n_states
        j_base = policy_evaluation(mdp, base)
        ok, _ = lyapunov_check(mdp, j_base)
        assert ok  # an exact policy cost always certifies itself
        improved = greedy_policy(mdp, j_base)
        assert policy_is_stable(mdp, improved)


def test_generator_is_deterministic():
    first = random_mdp(424242)
    second = random_mdp(424242)
    assert first.controls == second.controls
    assert first.transitions == second.transitions
    assert random_mdp(424243).transitions != first.transitions


def test_value_iteration_is_reproducible():
    mdp = random_mdp(7, discount=0.9)
    a, ka = value_iteration(mdp, tol=1e-12)
    b, kb = value_iteration(mdp, tol=1e-12)
    assert a == b and ka == kb


def ragged_mdp(alpha=0.9):
    """Control ids given out of order and with gaps, one to three outcomes
    per control, repeated successors, and controls with identical
    distributions (exact ties) at states 0, 1 and 4."""
    return FiniteMDP(
        alpha,
        [
            [[(1.0, 0, 0.0)], [(0.5, 0, 0.0), (0.5, 0, 0.0)]],
            [
                [(0.25, 2, 1.0), (0.25, 2, 1.0), (0.5, 3, 0.5)],
                [(1.0, 2, 5.0)],
                [(0.25, 2, 1.0), (0.25, 2, 1.0), (0.5, 3, 0.5)],
            ],
            [[(1.0, 4, 2.0)], [(0.2, 0, 3.0), (0.8, 1, 0.0)]],
            [[(0.6, 3, 1.0), (0.4, 0, 0.0)]],
            [[(1.0, 4, 0.0)], [(1.0, 4, 0.0)]],
        ],
        controls=[[4, 1], [9, 3, 12], [5, 0], [7], [8, 2]],
    )


def relabeled_random_mdp(seed, alpha=0.9, n_states=None):
    """random_mdp with each state's controls renamed to shuffled, gapped ids
    and, at about half the states, one distribution repeated under an extra
    id, which ties it exactly with the original."""
    base = random_mdp(seed, discount=alpha, n_states=n_states)
    rng = random.Random(seed)
    transitions, controls = [], []
    for per_state in base.transitions:
        rows = [list(dist) for dist in per_state]
        if rng.random() < 0.5:
            rows.append(rows[rng.randrange(len(rows))])
        transitions.append(rows)
        controls.append(rng.sample(range(60), len(rows)))
    return FiniteMDP(alpha, transitions, controls)


def kernel_cases():
    """(model, value table) pairs: finite, partly infinite and all-infinite
    estimates on the ragged model and on relabeled random models."""
    inf = math.inf
    hand = ragged_mdp()
    for values in (
        [0.0] * 5,
        [0.0, 1.5, 0.25, 3.0, 2.0],
        [0.0, 1.5, inf, 3.0, 2.0],
        [0.0, 1.5, 0.25, 3.0, inf],
        [0.0, inf, inf, inf, inf],
    ):
        yield hand, values
    for seed in range(40):
        mdp = relabeled_random_mdp(seed, n_states=None if seed % 4 else 30)
        values = random_values(seed + 5, mdp, 40.0)
        yield mdp, values
        yield mdp, [v if x % 3 else (0.0 if x == 0 else inf) for x, v in enumerate(values)]


def admissible_policies(mdp, seed):
    rng = random.Random(seed)
    yield [min(cs) for cs in mdp.controls]
    yield [max(cs) for cs in mdp.controls]
    yield [rng.choice(cs) for cs in mdp.controls]


def test_sweeps_match_the_scalar_oracle():
    for case, (mdp, values) in enumerate(kernel_cases()):
        q = q_table_oracle(mdp, values)
        minima = [min(q[x, u] for u in cs) for x, cs in enumerate(mdp.controls)]
        assert bellman_operator(mdp, values) == [0.0] + minima[1:]
        assert greedy_policy(mdp, values) == greedy_oracle(mdp, values)
        for policy in admissible_policies(mdp, case):
            swept = policy_operator(mdp, policy, values)
            assert swept == [0.0] + [q[x, policy[x]] for x in range(1, mdp.n_states)]


def test_improvement_keeps_the_incumbent_unless_strictly_beaten():
    for case, (mdp, values) in enumerate(kernel_cases()):
        for base in admissible_policies(mdp, case):
            for horizon in (0, 1, 3):
                reference = zero_values(mdp)
                for _ in range(horizon):
                    q = q_table_oracle(mdp, reference)
                    reference = [0.0] + [q[x, base[x]] for x in range(1, mdp.n_states)]
                improved = rollout_policy(mdp, base, horizon=horizon)
                assert improved == improvement_oracle(mdp, base, reference)
    # tied incumbents stay put, the tie-free state switches to the lowest id
    mdp = ragged_mdp()
    assert rollout_policy(mdp, [4, 12, 5, 7, 8], horizon=0) == [4, 12, 0, 7, 8]
    assert rollout_policy(mdp, [1, 3, 5, 7, 2], horizon=0) == [1, 9, 0, 7, 2]


def test_inadmissible_control_is_named():
    mdp = ragged_mdp()
    values = zero_values(mdp)
    bad = [1, 9, 6, 7, 2]
    message = "control 6 not admissible at state 2"
    with pytest.raises(ValueError, match=message):
        policy_operator(mdp, bad, values)
    with pytest.raises(ValueError, match=message):
        rollout_policy(mdp, bad, horizon=0)
    with pytest.raises(ValueError, match=message):
        policy_evaluation(mdp, bad)
    with pytest.raises(ValueError, match="control 0 not admissible at state 0"):
        rollout_policy(mdp, [0, 9, 5, 7, 2], horizon=0)


def test_chain_classes_with_several_closed_classes():
    # {1, 2} and {7} are free closed classes, {3, 4} a paying one; 5 and 6
    # can fall into it; 8 pays once into {7}; 9 leaks to termination
    mdp = FiniteMDP(
        1.0,
        [
            [[(1.0, 0, 0.0)]],
            [[(1.0, 2, 0.0)]],
            [[(1.0, 1, 0.0)]],
            [[(1.0, 4, 1.0)]],
            [[(1.0, 3, 0.0)]],
            [[(0.5, 1, 0.0), (0.5, 3, 0.0)]],
            [[(0.5, 5, 0.0), (0.5, 0, 0.0)]],
            [[(1.0, 7, 0.0)]],
            [[(0.5, 7, 2.0), (0.5, 0, 2.0)]],
            [[(0.5, 9, 1.0), (0.5, 0, 0.0)]],
        ],
    )
    policy = [0] * 10
    assert chain_classes_oracle(mdp, policy) == ({0, 1, 2, 3, 4, 7}, {3, 4, 5, 6})
    inf = math.inf
    assert policy_evaluation(mdp, policy) == [0.0, 0.0, 0.0, inf, inf, inf, inf, 0.0, 2.0, 1.0]
    assert not policy_is_stable(mdp, policy)


def test_chain_classes_match_the_per_state_search():
    for seed in range(120):
        mdp = random_mdp(seed, discount=1.0, n_states=(None, 12, 40)[seed % 3])
        policy = random_policy(seed + 7, mdp)
        recurrent, infinite = chain_classes_oracle(mdp, policy)
        edges = [mdp.outcomes(x, policy[x]) for x in range(mdp.n_states)]
        assert _recurrent_states(edges) == recurrent
        paying = [x for x in recurrent if any(o.cost > 0.0 for o in edges[x])]
        assert _reaching(edges, paying) == infinite
        values = policy_evaluation(mdp, policy)
        assert {x for x, v in enumerate(values) if v == math.inf} == infinite
        assert all(values[x] == 0.0 for x in recurrent - infinite)


def test_chain_classification_needs_no_recursion():
    # a 5000-state path into a paying self-loop: every state's cost is infinite
    n = 5000
    transitions = [[[(1.0, 0, 0.0)]]]
    transitions += [[[(1.0, x + 1, 0.0)]] for x in range(1, n - 1)]
    transitions.append([[(1.0, n - 1, 1.0)]])
    mdp = FiniteMDP(1.0, transitions)
    assert policy_evaluation(mdp, [0] * n) == [0.0] + [math.inf] * (n - 1)


def hexes(values):
    return [v.hex() for v in values]


def test_policy_operator_reads_the_kernel_bit_for_bit():
    for case, (mdp, values) in enumerate(kernel_cases()):
        q = q_table_oracle(mdp, values)
        for policy in admissible_policies(mdp, case):
            expected = [0.0] + [q[x, policy[x]] for x in range(1, mdp.n_states)]
            assert hexes(policy_operator(mdp, policy, values)) == hexes(expected)
            # the termination state's entry of the policy is never read
            unread = [None] + policy[1:]
            assert hexes(policy_operator(mdp, unread, values)) == hexes(expected)


def test_value_tables_name_their_first_bad_entry():
    mdp = random_mdp(3, discount=0.9, n_states=300)
    good = random_values(4, mdp, 10.0)
    inf, nan = math.inf, math.nan
    for entries, named in (
        ({299: nan}, 299),  # late NaN: the minimum alone would miss it
        ({150: -inf}, 150),
        ({7: -1.0, 200: nan}, 7),
        ({3: nan, 9: -2.0}, 3),
        ({5: inf, 6: -inf}, 6),  # the sum is NaN, the minimum -inf
    ):
        values = list(good)
        for x, v in entries.items():
            values[x] = v
        with pytest.raises(ValueError) as err:
            bellman_operator(mdp, values)
        assert str(err.value) == (
            f"values[{named}]: entries are nonnegative reals, got {values[named]!r}"
        )
    # -0.0 and inf are nonnegative reals
    values = list(good)
    values[0], values[5], values[9] = -0.0, -0.0, inf
    q = q_table_oracle(mdp, values)
    minima = [min(q[x, u] for u in cs) for x, cs in enumerate(mdp.controls)]
    assert hexes(bellman_operator(mdp, values)) == hexes([0.0] + minima[1:])


def vi_outcome(mdp, start, tol, max_iters):
    try:
        values, sweeps = value_iteration(mdp, start, tol=tol, max_iters=max_iters)
    except ConvergenceError as err:
        return None, err.residual.hex()
    return hexes(values), sweeps


def vi_oracle_outcome(mdp, start, tol, max_iters):
    values, sweeps = value_iteration_oracle(mdp, start, tol, max_iters)
    if values is None:
        return None, sweeps.hex()
    return hexes(values), sweeps


def test_value_iteration_matches_the_oracle_bit_for_bit():
    cases = [(random_mdp(seed, 0.99, n_states=300), None, 1e-12, 100_000) for seed in (1, 2)]
    for seed in range(60):
        for alpha in (0.5, 0.9):
            mdp = random_mdp(seed, alpha)
            start = random_values(seed + 1, mdp, 40.0)
            cases.append((mdp, None, 1e-12, 100_000))
            cases.append((mdp, [v if x % 3 else (0.0 if x == 0 else math.inf)
                                for x, v in enumerate(start)], 1e-10, 100_000))
            cases.append((mdp, start, 1e-3, 4))
        mdp = random_mdp(seed, 1.0, reach_termination=True)
        cases.append((mdp, None, 1e-12, 2000))
        cases.append((mdp, [0.0] + [math.inf] * (mdp.n_states - 1), 1e-12, 2000))
    ran_out = 0
    for mdp, start, tol, max_iters in cases:
        start = zero_values(mdp) if start is None else start
        got = vi_outcome(mdp, start, tol, max_iters)
        assert got == vi_oracle_outcome(mdp, start, tol, max_iters)
        ran_out += got[0] is None
    assert 0 < ran_out < len(cases)


def free_loops_mdp(seed, n_states):
    """random_mdp without discounting, every cost at every third state
    zeroed, so random policies close cost-free recurrent classes."""
    base = random_mdp(seed, 1.0, n_states=n_states)
    return FiniteMDP(1.0, [
        [[(p, nxt, 0.0 if x % 3 == 1 else cost) for p, nxt, cost in dist] for dist in per_state]
        for x, per_state in enumerate(base.transitions)
    ])


def test_policy_evaluation_matches_the_oracle_bit_for_bit():
    cases = []
    for seed in (1, 2):
        mdp = random_mdp(seed, 0.99, n_states=300)
        cases += [(mdp, random_policy(seed + k, mdp)) for k in (3, 4)]
    for seed in range(60):
        for alpha in (0.5, 0.9):
            mdp = random_mdp(seed, alpha, n_states=(None, 20)[seed % 2])
            cases += [(mdp, random_policy(seed + 3, mdp)), (mdp, [c[-1] for c in mdp.controls])]
        mdp = random_mdp(seed, 1.0, reach_termination=True)
        cases += [(mdp, [c[0] for c in mdp.controls]), (mdp, random_policy(seed + 5, mdp))]
        mdp = free_loops_mdp(seed, (8, 12, 40)[seed % 3])
        cases += [(mdp, random_policy(seed + 7, mdp)), (mdp, [c[0] for c in mdp.controls])]
    infinite = free = 0
    for mdp, policy in cases:
        values = policy_evaluation(mdp, policy)
        assert hexes(values) == hexes(policy_evaluation_oracle(mdp, policy))
        if mdp.discount == 1.0:
            recurrent, _ = chain_classes_oracle(mdp, policy)
            infinite += math.inf in values
            free += any(values[x] == 0.0 for x in recurrent - {0})
    assert infinite > 0 and free > 0


def test_policy_evaluation_refills_its_reused_matrix():
    # the spare matrix serves a 299-unknown solve, then 19, 299 again and
    # an undiscounted chain with fewer unknowns: each result is the oracle's,
    # whatever the buffer held from the call before
    big = random_mdp(1, 0.99, n_states=300)
    small = random_mdp(2, 0.9, n_states=20)
    partial = random_mdp(10, 1.0, n_states=300, reach_termination=True)
    partial_policy = random_policy(11, partial)
    recurrent, infinite = chain_classes_oracle(partial, partial_policy)
    assert 0 < 299 - len((recurrent | infinite) - {0}) < 299
    cases = [
        (big, random_policy(3, big)),
        (small, random_policy(4, small)),
        (big, random_policy(5, big)),
        (partial, partial_policy),
    ]
    for mdp, policy in cases:
        assert hexes(policy_evaluation(mdp, policy)) == hexes(
            policy_evaluation_oracle(mdp, policy)
        )


def test_policy_evaluation_threads_never_share_the_matrix():
    # numpy releases the GIL inside solve, so threads overlap there; three
    # threads, each solving its own 300-state model, outnumber the cores of
    # a desk machine
    jobs = []
    for seed in (21, 22, 23):
        mdp = random_mdp(seed, 0.99, n_states=300)
        jobs.append((mdp, random_policy(seed + 1, mdp)))
    wants = [hexes(policy_evaluation_oracle(mdp, policy)) for mdp, policy in jobs]
    got = [[] for _ in jobs]

    def work(k):
        for _ in range(20):
            got[k].append(hexes(policy_evaluation(*jobs[k])))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for results, want in zip(got, wants):
        assert results == [want] * 20
