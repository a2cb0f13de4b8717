"""Multistep lookahead tree search over finite MDPs.

The controller picks the current control by minimizing, over an exhaustive
tree of the next `depth` stages, the accumulated stage costs plus a terminal
value estimate at the leaves.  Two refinements are supported:

* truncated rollout: before consulting the terminal estimate, each leaf is
  pushed `rollout_steps` further stages under a fixed base policy;
* certainty equivalence: stochastic branching is collapsed onto a single
  nominal outcome per (state, control), either everywhere ("ce_all") or
  everywhere past the exactly-expanded first stage ("ce_after_first").

Keeping the first stage exact preserves the character of the minimization;
"ce_all" is provided as the cheaper but cruder comparison baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .mdp import FiniteMDP, Outcome, _check_values, policy_operator

__all__ = [
    "CE_MODES",
    "LookaheadSpec",
    "LookaheadChoice",
    "nominal_outcome",
    "lookahead_policy",
]

CE_MODES = ("exact", "ce_after_first", "ce_all")


class LookaheadChoice(NamedTuple):
    """First-stage decision, its backed-up value, and the leaf count of the
    full tree the search is equivalent to.  The count is not the work done,
    which grows with the number of distinct (state, remaining) pairs."""

    control: int
    value: float
    leaves: int


@dataclass(frozen=True)
class LookaheadSpec:
    """Everything a lookahead controller needs besides the model and state.

    depth counts minimization stages (>= 1).  rollout_steps applies `base`
    that many times at every leaf before reading `terminal`; the steps are
    exact expectations in "exact" mode and nominal-outcome walks in the CE
    modes.  `nominal` optionally overrides the default most-probable nominal
    outcome with a chosen outcome index per (state, control).  Ties in the
    minimization always go to the lowest control id.
    """

    depth: int
    terminal: Sequence[float]
    rollout_steps: int = 0
    base: Sequence[int] | None = None
    ce_mode: str = "exact"
    nominal: Mapping[tuple[int, int], int] | None = None

    def __post_init__(self):
        if not isinstance(self.depth, int) or self.depth < 1:
            raise ValueError(f"depth must be an integer >= 1, got {self.depth!r}")
        if not isinstance(self.rollout_steps, int) or self.rollout_steps < 0:
            raise ValueError(
                f"rollout_steps must be an integer >= 0, got {self.rollout_steps!r}"
            )
        if self.rollout_steps > 0 and self.base is None:
            raise ValueError("rollout_steps > 0 requires a base policy")
        if self.ce_mode not in CE_MODES:
            raise ValueError(f"ce_mode must be one of {CE_MODES}, got {self.ce_mode!r}")


def nominal_outcome(
    mdp: FiniteMDP,
    state: int,
    control: int,
    overrides: Mapping[tuple[int, int], int] | None = None,
) -> Outcome:
    """The disturbance a certainty-equivalent controller plugs in.

    Defaults to the most probable outcome, lowest index on ties; an override
    names an explicit outcome index for one (state, control) pair.  Overrides
    for pairs the search never visits are ignored.
    """
    outs = mdp.outcomes(state, control)
    if overrides is not None and (state, control) in overrides:
        idx = overrides[(state, control)]
        if not isinstance(idx, int) or not 0 <= idx < len(outs):
            raise ValueError(
                f"nominal override for ({state}, {control}) must be an outcome "
                f"index in [0, {len(outs)}), got {idx!r}"
            )
        return outs[idx]
    best = 0
    for i in range(1, len(outs)):
        if outs[i].p > outs[best].p:
            best = i
    return outs[best]


def _leaf_evaluator(mdp: FiniteMDP, spec: LookaheadSpec):
    """Builds the function applied at depth-0 tree nodes."""
    terminal = spec.terminal
    steps = spec.rollout_steps
    if steps == 0:
        return lambda x: terminal[x]
    if spec.ce_mode == "exact":
        # Fold the m exact base-policy sweeps into a single table; each leaf
        # is then a lookup, not extra branching.
        values = list(terminal)
        for _ in range(steps):
            values = policy_operator(mdp, spec.base, values)
        return lambda x: values[x]

    alpha = mdp.discount

    def walk(x: int) -> float:
        # Forward along the nominal chain, then fold its costs back from the end.
        costs = []
        for _ in range(steps):
            out = nominal_outcome(mdp, x, spec.base[x], spec.nominal)
            costs.append(out.cost)
            x = out.next
        value = terminal[x]
        for cost in reversed(costs):
            value = cost + alpha * value
        return value

    return walk


def lookahead_policy(mdp: FiniteMDP, spec: LookaheadSpec, state: int) -> LookaheadChoice:
    """Exhaustive expectimin search of the next `spec.depth` stages.

    Returns the minimizing first-stage control (lowest id on ties), its
    backed-up value, and the full tree's leaf count, summed over subtrees
    memoized per (state, remaining) rather than walked.  With depth 1 and no
    rollout the choice coincides, bit for bit, with the greedy policy against
    `spec.terminal` in the "exact" and "ce_after_first" modes.
    """
    _check_values(mdp, spec.terminal, "terminal")
    if not 1 <= state < mdp.n_states:
        raise ValueError(f"state must be nonterminal (1..{mdp.n_states - 1}), got {state}")
    if spec.base is not None:
        if len(spec.base) != mdp.n_states:
            raise ValueError(
                f"base: expected {mdp.n_states} entries, got {len(spec.base)}"
            )
        for x in range(mdp.n_states):
            mdp.outcomes(x, spec.base[x])

    leaf = _leaf_evaluator(mdp, spec)
    alpha = mdp.discount
    expand_inner = spec.ce_mode == "exact"
    memo: dict[tuple[int, int], tuple[float, int, int]] = {}

    def stage(x: int, remaining: int, expand: bool) -> tuple[float, int, int]:
        # (value, leaves, minimizing control) of the subtree at x; memoized below the root.
        below = remaining - 1
        best = best_u = None
        leaves = 0
        for u in mdp.controls[x]:
            outs = mdp.outcomes(x, u) if expand else (
                nominal_outcome(mdp, x, u, spec.nominal),)
            total = 0.0
            for p, nxt, cost in outs:
                if below == 0:
                    value, count = leaf(nxt), 1
                elif (nxt, below) in memo:
                    value, count, _ = memo[nxt, below]
                else:
                    value, count, _ = memo[nxt, below] = stage(nxt, below, expand_inner)
                leaves += count
                if expand:
                    total += p * (cost + alpha * value)
                else:
                    total = cost + alpha * value
            if best_u is None or total < best:
                best, best_u = total, u
        return best, leaves, best_u

    # Only "ce_all" collapses the first stage onto the nominal outcome.
    value, leaves, control = stage(state, spec.depth, spec.ce_mode != "ce_all")
    return LookaheadChoice(control, value, leaves)
