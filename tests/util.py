"""Shared builders and independent oracle helpers for the test suite.

Oracle helpers intentionally re-derive quantities from raw formulas instead
of calling into the package, so the tests cross-check the implementation
rather than echo it.
"""

import math
from fractions import Fraction

from dpnewton.mdp import FiniteMDP


def lq_riccati_oracle(a, b, q, r, K):
    """F(K) straight from the defining expression."""
    return a * a * r * K / (r + b * b * K) + q


def lq_exact_residual_oracle(a, b, q, r, K):
    """|F(K) - K| / max(1, K) in exact rationals: every double is a
    Fraction exactly, so nothing here rounds, overflows or underflows."""
    a, b, q, r, K = (Fraction(v) for v in (a, b, q, r, K))
    return abs(a * a * r * K / (r + b * b * K) + q - K) / max(1, K)


def lq_derivative_oracle(a, b, q, r, K):
    """F'(K) straight from the defining expression."""
    return a * a * r * r / (r + b * b * K) ** 2


def lq_newton_oracle(a, b, q, r, K):
    """Solve the linearized fixed-point equation K' = F(K) + F'(K)(K' - K)."""
    f = lq_riccati_oracle(a, b, q, r, K)
    d = lq_derivative_oracle(a, b, q, r, K)
    return (f - d * K) / (1.0 - d)


def lq_policy_cost_oracle(a, b, q, r, L):
    """Cost coefficient of u = Lx by summing the geometric series."""
    closed = a + b * L
    if abs(closed) >= 1.0:
        return math.inf
    return (q + r * L * L) / (1.0 - closed * closed)


def lq_newton_ratio_slope_oracle(a, b, r, K_star):
    """g(K*) of the Newton bound step(K) - K* <= g(K*) (K - K*)^2 for K > K*.

    The cost-difference identity K_L - K* = (r + b^2 K*)(L - L*)^2 /
    (1 - (a + b L)^2) gives the greedy step's error ratio exactly as
    g(K) (K - K*) with g(K) = a^2 b^2 r^2 / ((r + b^2 K*)((r + b^2 K)^2 - a^2 r^2)),
    and g decreases in K."""
    s = r + b * b * K_star
    return a * a * b * b * r * r / (s * (s * s - a * a * r * r))


def two_state_mdp(alpha=0.5, stay_cost=1.0, quit_cost=3.0):
    """Termination state 0 plus one state with a cheap self-loop and an exit.

    Control 0 at state 1 stays put for stay_cost, control 1 moves to the
    termination state for quit_cost.
    """
    return FiniteMDP(
        alpha,
        [
            [[(1.0, 0, 0.0)]],
            [[(1.0, 1, stay_cost)], [(1.0, 0, quit_cost)]],
        ],
    )


def uniform_tree_mdp(alpha=0.9, n_states=3, n_controls=2, n_outcomes=3, seed=1234):
    """Every nonterminal state has the same control/outcome fan-out and the
    termination state is never entered, so lookahead trees have an exactly
    predictable leaf count."""
    import numpy as np

    rng = np.random.default_rng(seed)
    transitions = [[[(1.0, 0, 0.0)]]]
    for _ in range(1, n_states):
        per_control = []
        for _ in range(n_controls):
            succ = rng.integers(1, n_states, size=n_outcomes)
            weights = rng.random(n_outcomes) + 0.1
            probs = weights / weights.sum()
            costs = rng.integers(0, 101, size=n_outcomes) * 0.1
            per_control.append(
                [(float(p), int(s), float(c)) for p, s, c in zip(probs, succ, costs)]
            )
        transitions.append(per_control)
    return FiniteMDP(alpha, transitions)


def lookahead_oracle(mdp, terminal, state, depth, ce_mode="exact",
                     rollout_steps=0, base=None):
    """Brute-force expectimin search that walks every leaf of the tree.

    Returns (control, value, leaves).  "exact" expands every stage,
    "ce_after_first" only the first and "ce_all" none; a collapsed stage
    follows the most probable outcome (lowest index on ties).  Leaves read
    `terminal` after `rollout_steps` exact base-policy sweeps in "exact" mode
    and after a nominal walk of that many base steps in the CE modes.
    """
    alpha = mdp.discount

    def nominal_of(x, u):
        return max(mdp.outcomes(x, u), key=lambda o: o.p)

    table = list(terminal)
    if ce_mode == "exact":
        for _ in range(rollout_steps):
            swept = [0.0] * len(table)
            for x in range(1, len(table)):
                for p, nxt, cost in mdp.outcomes(x, base[x]):
                    swept[x] += p * (cost + alpha * table[nxt])
            table = swept

    def walk(x, steps):
        if steps == 0:
            return terminal[x]
        o = nominal_of(x, base[x])
        return o.cost + alpha * walk(o.next, steps - 1)

    def q(x, u, remaining, expand):
        if not expand:
            o = nominal_of(x, u)
            v, n = node(o.next, remaining - 1)
            return o.cost + alpha * v, n
        total, leaves = 0.0, 0
        for p, nxt, cost in mdp.outcomes(x, u):
            v, n = node(nxt, remaining - 1)
            total += p * (cost + alpha * v)
            leaves += n
        return total, leaves

    def node(x, remaining):
        if remaining == 0:
            return (table[x] if ce_mode == "exact" else walk(x, rollout_steps)), 1
        qs = [q(x, u, remaining, ce_mode == "exact") for u in mdp.controls[x]]
        return min(v for v, _ in qs), sum(n for _, n in qs)

    qs = [q(state, u, depth, ce_mode != "ce_all") for u in mdp.controls[state]]
    value = min(v for v, _ in qs)
    control = next(u for u, (v, _) in zip(mdp.controls[state], qs) if v == value)
    return control, value, sum(n for _, n in qs)


def q_table_oracle(mdp, values):
    """{(state, control): Q-value} for every admissible pair, one scalar sum
    per pair over the model's raw outcome lists."""
    alpha = mdp.discount
    table = {}
    for x, per_state in enumerate(mdp.transitions):
        for u, dist in zip(mdp.controls[x], per_state):
            total = 0.0
            for p, nxt, cost in dist:
                total += p * (cost + alpha * values[nxt])
            table[x, u] = total
    return table


def greedy_oracle(mdp, values):
    """Per state, the lowest control id whose Q-value is the minimum."""
    q = q_table_oracle(mdp, values)
    policy = []
    for x, controls in enumerate(mdp.controls):
        best = min(q[x, u] for u in controls)
        policy.append(min(u for u in controls if q[x, u] == best))
    return policy


def improvement_oracle(mdp, base, values):
    """Per state, base[x] unless some control's Q-value is strictly lower;
    then the lowest control id attaining the minimum."""
    q = q_table_oracle(mdp, values)
    policy = []
    for x, controls in enumerate(mdp.controls):
        best = min(q[x, u] for u in controls)
        if q[x, base[x]] == best:
            policy.append(base[x])
        else:
            policy.append(min(u for u in controls if q[x, u] == best))
    return policy


def chain_classes_oracle(mdp, policy):
    """(recurrent, infinite) state sets of a policy's closed loop, by
    definition: one search per state for the set it reaches.  A state is
    recurrent when every state it reaches reaches it back; its cost is
    infinite when it reaches a recurrent state with a positive-cost outcome."""
    n = mdp.n_states
    succ = [
        [nxt for _, nxt, _ in mdp.transitions[x][mdp.controls[x].index(policy[x])]]
        for x in range(n)
    ]
    reach = []
    for start in range(n):
        seen = {start}
        frontier = [start]
        while frontier:
            for y in succ[frontier.pop()]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        reach.append(seen)
    recurrent = {x for x in range(n) if all(x in reach[y] for y in reach[x])}
    paying = {
        x for x in recurrent
        if any(cost > 0.0 for _, _, cost in mdp.transitions[x][mdp.controls[x].index(policy[x])])
    }
    infinite = {x for x in range(n) if reach[x] & paying}
    return recurrent, infinite


def value_iteration_oracle(mdp, values0, tol, max_iters):
    """Value iteration by per-state minima over q_table_oracle, entry 0
    pinned.  Returns (values, sweeps) like value_iteration, or
    (None, residual) when max_iters sweeps leave the residual above tol.
    The residual is the largest |swept - values| over unequal entries, so
    matching infinities are skipped."""
    values = list(values0)
    for k in range(max_iters + 1):
        q = q_table_oracle(mdp, values)
        swept = [0.0] + [
            min(q[x, u] for u in mdp.controls[x]) for x in range(1, mdp.n_states)
        ]
        residual = max((abs(a - b) for a, b in zip(swept, values) if a != b), default=0.0)
        if residual <= tol:
            return values, k
        values = swept
    return None, residual


def policy_evaluation_oracle(mdp, policy):
    """A policy's exact cost from a linear system built one state at a time.

    Without discounting, chain_classes_oracle's infinite states read inf and
    its other recurrent states 0; the rest are solved for.  Each row starts
    from the identity and takes its outcomes in order: rhs gains p * cost,
    and the successor's column, if solved for, loses alpha * p."""
    import numpy as np

    n = mdp.n_states
    dists = [mdp.transitions[x][mdp.controls[x].index(policy[x])] for x in range(n)]
    values = [0.0] * n
    if mdp.discount < 1.0:
        unknown = list(range(1, n))
    else:
        recurrent, infinite = chain_classes_oracle(mdp, policy)
        for x in infinite:
            values[x] = math.inf
        unknown = [x for x in range(1, n) if x not in recurrent | infinite]
        if not unknown:
            return values
    index = {x: i for i, x in enumerate(unknown)}
    A = np.eye(len(unknown))
    rhs = np.zeros(len(unknown))
    for x in unknown:
        i = index[x]
        for p, nxt, cost in dists[x]:
            rhs[i] += p * cost
            if nxt in index:
                A[i, index[nxt]] -= mdp.discount * p
    for x, v in zip(unknown, np.linalg.solve(A, rhs)):
        values[x] = float(v)
    return values
