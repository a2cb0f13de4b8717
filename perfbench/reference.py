"""Independent reference computations that the benchmark checks outputs against.

Nothing here imports dpnewton: every quantity is re-derived from raw model
data (plain tuples) or from the closed forms, in the style of tests/util.py,
so a check compares the program with a second implementation instead of
echoing it.

A model is a `Model`: the discount `alpha`, the sorted control ids per state
and, per (state, control slot), the outcome tuples (p, next, cost).  State 0
is the cost-free absorbing termination state.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Sequence

import numpy as np

CE_MODES = ("exact", "ce_after_first", "ce_all")


class Model(NamedTuple):
    alpha: float
    controls: tuple[tuple[int, ...], ...]
    outcomes: tuple[tuple[tuple[tuple[float, int, float], ...], ...], ...]

    @property
    def n_states(self) -> int:
        return len(self.outcomes)

    @classmethod
    def from_finite_mdp(cls, model) -> "Model":
        """Copies the raw data out of a dpnewton FiniteMDP (attributes only)."""
        return cls(
            float(model.discount),
            tuple(tuple(int(u) for u in ids) for ids in model.controls),
            tuple(
                tuple(tuple((float(p), int(s), float(c)) for p, s, c in dist) for dist in per_state)
                for per_state in model.transitions
            ),
        )

    @classmethod
    def from_document(cls, path) -> "Model":
        """Reads the MDP interchange JSON document (docs/formats.md) directly."""
        with open(path) as fh:
            doc = json.load(fh)
        table = doc["transitions"]
        ids = doc.get("controls") or [list(range(len(per_state))) for per_state in table]
        controls, outcomes = [], []
        for cs, per_state in zip(ids, table):
            order = sorted(range(len(cs)), key=lambda i: cs[i])
            controls.append(tuple(int(cs[i]) for i in order))
            outcomes.append(
                tuple(
                    tuple((float(o["p"]), int(o["next"]), float(o["cost"])) for o in per_state[i])
                    for i in order
                )
            )
        return cls(float(doc["alpha"]), tuple(controls), tuple(outcomes))

    def slot(self, state: int, control: int) -> int:
        return self.controls[state].index(control)


def terms(model: Model) -> int:
    """Outcome entries summed over every (state, control): the work of one sweep."""
    return sum(len(dist) for per_state in model.outcomes for dist in per_state)


# ---------------------------------------------------------------- Q-values


def q_value(model: Model, values: Sequence[float], state: int, slot: int) -> float:
    """sum_k p_k (cost_k + alpha values[next_k]), summed left to right."""
    total = 0.0
    for p, nxt, cost in model.outcomes[state][slot]:
        total += p * (cost + model.alpha * values[nxt])
    return total


def q_table(model: Model, values: Sequence[float]) -> list[list[float]]:
    return [
        [q_value(model, values, x, i) for i in range(len(model.controls[x]))]
        for x in range(model.n_states)
    ]


def bellman_image(model: Model, values: Sequence[float]) -> list[float]:
    """(T values)(x) = min over controls of the Q-value; state 0 stays 0."""
    return [0.0] + [min(row) for row in q_table(model, values)[1:]]


def bellman_residual(model: Model, values: Sequence[float]) -> float:
    """sup over nonterminal states of |(T values)(x) - values(x)|."""
    image = bellman_image(model, values)
    return max((abs(image[x] - values[x]) for x in range(1, model.n_states)), default=0.0)


def improvement_gap(model: Model, values: Sequence[float], policy: Sequence[int]) -> float:
    """Largest amount by which some control beats the policy's control
    against `values`; <= 0 means no control is strictly better."""
    worst = -math.inf
    for x, row in enumerate(q_table(model, values)):
        if x == 0:
            continue
        worst = max(worst, row[model.slot(x, policy[x])] - min(row))
    return worst


def policy_cost(model: Model, policy: Sequence[int]) -> list[float]:
    """Exact cost of a policy under discount < 1: solve (I - alpha P) J = g."""
    if not model.alpha < 1.0:
        raise ValueError("the reference evaluates discounted models only")
    n = model.n_states
    A = np.eye(n)
    g = np.zeros(n)
    for x in range(1, n):
        for p, nxt, cost in model.outcomes[x][model.slot(x, policy[x])]:
            g[x] += p * cost
            A[x, nxt] -= model.alpha * p
    return [float(v) for v in np.linalg.solve(A, g)]


def vi_sweeps(model: Model, tol: float = 1e-12, cap: int = 100_000) -> int | None:
    """Sweeps value iteration from zero needs to meet `tol`, by a vectorized
    padded-array sweep (None past `cap`).  Summation order differs from a
    scalar loop, so the count can be off by one near the threshold; the
    benchmark uses it only to size its inputs, never to check outputs."""
    n = model.n_states
    width = max(len(per_state) for per_state in model.outcomes)
    depth = max(len(dist) for per_state in model.outcomes for dist in per_state)
    p = np.zeros((n, width, depth))
    nxt = np.zeros((n, width, depth), dtype=np.int64)
    cost = np.zeros((n, width, depth))
    invalid = np.ones((n, width), dtype=bool)
    for x, per_state in enumerate(model.outcomes):
        for i, dist in enumerate(per_state):
            invalid[x, i] = False
            for k, (pk, sk, ck) in enumerate(dist):
                p[x, i, k], nxt[x, i, k], cost[x, i, k] = pk, sk, ck
    values = np.zeros(n)
    for sweeps in range(cap + 1):
        q = (p * (cost + model.alpha * values[nxt])).sum(axis=2)
        q[invalid] = np.inf
        swept = q.min(axis=1)
        swept[0] = 0.0
        if np.max(np.abs(swept - values)) <= tol:
            return sweeps
        values = swept
    return None


# ---------------------------------------------------------------- lookahead


class Decision(NamedTuple):
    """Reference first-stage decision: the control, its backed-up value, the
    gap to the runner-up control (inf with one control), the exact leaf
    count of the exhaustive tree and the number of distinct (state,
    remaining) subproblems in it, the root included."""

    control: int
    value: float
    margin: float
    leaves: int
    distinct: int


def nominal_slot(model: Model, state: int, slot: int) -> int:
    """Index of the most probable outcome, lowest index on ties."""
    dist = model.outcomes[state][slot]
    best = 0
    for k in range(1, len(dist)):
        if dist[k][0] > dist[best][0]:
            best = k
    return best


def _children(model: Model, state: int, slot: int, expand: bool):
    dist = model.outcomes[state][slot]
    return dist if expand else (dist[nominal_slot(model, state, slot)],)


def _leaf_values(model, terminal, mode, rollout_steps, base) -> list[float]:
    """Value read at a depth-0 node after the truncated rollout of `base`:
    exact expectations in "exact" mode, nominal-outcome walks otherwise."""
    values = [float(v) for v in terminal]
    if rollout_steps == 0:
        return values
    n = model.n_states
    if mode == "exact":
        for _ in range(rollout_steps):
            values = [0.0] + [
                q_value(model, values, x, model.slot(x, base[x])) for x in range(1, n)
            ]
        return values
    walked = []
    for start in range(n):
        steps = []
        x = start
        for _ in range(rollout_steps):
            slot = model.slot(x, base[x])
            _, x, cost = model.outcomes[x][slot][nominal_slot(model, x, slot)]
            steps.append(cost)
        value = values[x]
        for cost in reversed(steps):
            value = cost + model.alpha * value
        walked.append(value)
    return walked


def _leaf_counter(model: Model, expand: bool):
    """count(x, remaining): leaves below a node, memoized across calls."""
    memo: dict[tuple[int, int], int] = {}

    def count(x: int, remaining: int) -> int:
        key = (x, remaining)
        if key not in memo:
            if remaining == 0:
                memo[key] = 1
            else:
                memo[key] = sum(
                    count(nxt, remaining - 1)
                    for slot in range(len(model.controls[x]))
                    for _, nxt, _ in _children(model, x, slot, expand)
                )
        return memo[key]

    return count


def _root_size(model, count, state, depth, mode) -> tuple[int, int]:
    """(leaves, distinct (state, remaining) pairs with the root) of one tree;
    the distinct pairs are the root plus the states reachable level by level."""
    root_expanded = mode != "ce_all"
    inner = mode == "exact"
    leaves = 0
    level = set()
    for slot in range(len(model.controls[state])):
        for _, nxt, _ in _children(model, state, slot, root_expanded):
            leaves += count(nxt, depth - 1)
            level.add(nxt)
    distinct = 1
    for _ in range(depth):
        distinct += len(level)
        level = {
            nxt
            for x in level
            for slot in range(len(model.controls[x]))
            for _, nxt, _ in _children(model, x, slot, inner)
        }
    return leaves, distinct


def lookahead(
    model: Model,
    terminal: Sequence[float],
    state: int,
    depth: int,
    mode: str = "exact",
    rollout_steps: int = 0,
    base: Sequence[int] | None = None,
) -> Decision:
    """Depth-`depth` expectimin decision by memoized recursion over (state,
    remaining).  "ce_after_first" expands only the first stage exactly and
    "ce_all" no stage; the collapsed stages follow the nominal outcome."""
    if mode not in CE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    leaf = _leaf_values(model, terminal, mode, rollout_steps, base)
    alpha = model.alpha
    inner = mode == "exact"
    memo: dict[tuple[int, int], float] = {}

    def value(x: int, remaining: int) -> float:
        key = (x, remaining)
        if key not in memo:
            if remaining == 0:
                memo[key] = leaf[x]
            else:
                best = math.inf
                for slot in range(len(model.controls[x])):
                    total = 0.0
                    for p, nxt, cost in _children(model, x, slot, inner):
                        if inner:
                            total += p * (cost + alpha * value(nxt, remaining - 1))
                        else:
                            total = cost + alpha * value(nxt, remaining - 1)
                    best = min(best, total)
                memo[key] = best
        return memo[key]

    root_expanded = mode != "ce_all"
    totals = []
    for slot in range(len(model.controls[state])):
        total = 0.0
        for p, nxt, cost in _children(model, state, slot, root_expanded):
            if root_expanded:
                total += p * (cost + alpha * value(nxt, depth - 1))
            else:
                total = cost + alpha * value(nxt, depth - 1)
        totals.append(total)
    order = sorted(range(len(totals)), key=lambda i: (totals[i], i))
    best = order[0]
    margin = totals[order[1]] - totals[best] if len(order) > 1 else math.inf
    leaves, distinct = _root_size(model, _leaf_counter(model, inner), state, depth, mode)
    return Decision(model.controls[state][best], totals[best], margin, leaves, distinct)


def tree_sizes(model: Model, depth: int, mode: str) -> list[tuple[int, int]]:
    """(leaves, distinct subproblems) of the decision at every nonterminal
    state; values play no part."""
    count = _leaf_counter(model, mode == "exact")
    return [_root_size(model, count, x, depth, mode) for x in range(1, model.n_states)]


# ---------------------------------------------------------------- scalar LQ


def riccati_map(a, b, q, r, K):
    """F(K) = a^2 r K / (r + b^2 K) + q straight from its definition."""
    return a * a * r * K / (r + b * b * K) + q


def riccati_root(a, b, q, r):
    """Positive root of b^2 K^2 + (r - a^2 r - q b^2) K - q r = 0, from the
    quadratic formula in its cancellation-free form."""
    A = b * b
    B = r - a * a * r - q * A
    disc = math.sqrt(B * B + 4.0 * A * q * r)
    return 2.0 * q * r / (B + disc) if B > 0.0 else (disc - B) / (2.0 * A)


def greedy_gain(a, b, q, r, K):
    """argmin_u q x^2 + r u^2 + K (a x + b u)^2 per unit x: -a b K / (r + b^2 K)."""
    return -a * b * K / (r + b * b * K)


def lq_policy_cost(a, b, q, r, L):
    """Cost coefficient of u = L x as the geometric series
    sum_k (a + b L)^(2k) (q + r L^2); inf when |a + b L| >= 1."""
    closed = a + b * L
    if abs(closed) >= 1.0:
        return math.inf
    return (q + r * L * L) / (1.0 - closed * closed)
