"""Multistep lookahead tree search over finite MDPs.

The controller picks the current control by minimizing, over an exhaustive
tree of the next `depth` stages, the accumulated stage costs plus a terminal
value estimate at the leaves.  Two refinements are supported:

* truncated rollout: before consulting the terminal estimate, each leaf is
  pushed `rollout_steps` further stages under a fixed base policy;
* certainty equivalence: stochastic branching is collapsed onto the most
  probable outcome of each (state, control), either everywhere ("ce_all")
  or everywhere past the exactly-expanded first stage ("ce_after_first").

Keeping the first stage exact preserves the character of the minimization;
"ce_all" is provided as the cheaper but cruder comparison baseline.

The search is one greedy step against the terminal estimate backed up
through the later stages: a forward pass tables the states reachable at
each stage, and a backward pass folds the estimate through those tables.
Cost and memory grow with the reachable states per stage, not the tree.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import check_count, check_lookahead
from .mdp import FiniteMDP, Outcome, _check_entries, _policy_slots

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
    which grows with the number of states reachable at each stage."""

    control: int
    value: float
    leaves: int


class _SpecFields(NamedTuple):  # the defaults are LookaheadSpec.__new__'s
    depth: int
    terminal: tuple[float, ...]
    rollout_steps: int
    base: tuple[int, ...] | None
    ce_mode: str


class LookaheadSpec(_SpecFields):
    """Everything a lookahead controller needs besides the model and state.

    depth counts minimization stages (>= 1).  rollout_steps applies `base`
    that many times at every leaf before reading `terminal`; the steps are
    exact expectations in "exact" mode and nominal-outcome walks in the CE
    modes.  Ties in the minimization always go to the lowest control id.

    An immutable tuple whose every constructor (the call, _make and
    _replace) validates.  `terminal` and `base` are stored as tuples, so
    later changes to the caller's lists do not reach the spec, and the
    terminal entries are checked here once (entry 0 pinned to 0, every
    entry a nonnegative real).  What needs the model, the table lengths and
    the base controls' admissibility, is checked by lookahead_policy.
    """

    __slots__ = ()

    def __new__(cls, depth, terminal, rollout_steps=0, base=None, ce_mode="exact"):
        check_lookahead(depth, rollout_steps, base)
        if ce_mode not in CE_MODES:
            raise ValueError(f"ce_mode must be one of {CE_MODES}, got {ce_mode!r}")
        terminal = tuple(terminal)
        if base is not None:
            base = tuple(base)
        _check_entries(terminal, "terminal")
        return tuple.__new__(cls, (depth, terminal, rollout_steps, base, ce_mode))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def nominal_outcome(mdp: FiniteMDP, state: int, control: int) -> Outcome:
    """The disturbance a certainty-equivalent controller plugs in: the most
    probable outcome, lowest index on ties."""
    outs = mdp.outcomes(state, control)
    best = 0
    for i in range(1, len(outs)):
        if outs[i].p > outs[best].p:
            best = i
    return outs[best]


def lookahead_policy(mdp: FiniteMDP, spec: LookaheadSpec, state: int) -> LookaheadChoice:
    """Exhaustive expectimin search of the next `spec.depth` stages.

    Returns the minimizing first-stage control (lowest id on ties), its
    backed-up value, and the full tree's leaf count.  With depth 1 and no
    rollout the choice coincides, bit for bit, with the greedy policy
    against `spec.terminal` in the "exact" and "ce_after_first" modes.
    """
    depth, terminal, rollout_steps, base, ce_mode = spec
    if len(terminal) != mdp.n_states:
        raise ValueError(f"terminal: expected {mdp.n_states} entries, got {len(terminal)}")
    if check_count(state, "state", 1) >= mdp.n_states:
        raise ValueError(f"state must be nonterminal (1..{mdp.n_states - 1}), got {state}")
    if base is not None:
        _policy_slots(mdp, base, where="base")

    horizon = depth + rollout_steps
    # Forward: stages[k] maps each state reachable in k steps to its branches
    # [(control, ((p, next, cost), ...)), ...].  The first `depth` stages
    # branch on every control, the rollout stages on the base control only.
    # A collapsed stage keeps the nominal outcome alone, with p = 1.0; only
    # "ce_all" collapses the first stage.  A state's branches depend only on
    # the kind of stage, so each is built once per kind.
    kinds: dict[tuple[bool, bool], dict] = {}
    stages = []
    reach = {state: None}
    for k in range(horizon):
        expand = ce_mode == "exact" or (k == 0 and ce_mode != "ce_all")
        built = kinds.setdefault((k < depth, expand), {})
        stage = {}
        for x in reach:
            branches = built.get(x)
            if branches is None:
                controls = mdp.controls[x] if k < depth else (base[x],)
                if expand:
                    branches = [(u, mdp.outcomes(x, u)) for u in controls]
                else:
                    outs = [nominal_outcome(mdp, x, u) for u in controls]
                    branches = [(u, ((1.0, o.next, o.cost),)) for u, o in zip(controls, outs)]
                built[x] = branches
            stage[x] = branches
        stages.append(stage)
        if k + 1 < horizon:  # the last stage's successors read terminal
            reach = {nxt: None for branches in stage.values()
                     for _, outs in branches for _, nxt, _ in outs}

    # Backward: mdp._q_table's sum at every stage.  A collapsed branch adds
    # 1.0 * (cost + alpha * v) onto 0.0, which is cost + alpha * v bit for
    # bit since costs and values are nonnegative (up to the sign of a zero).
    # Leaf counts fold along the first `depth` stages, each state at stage
    # `depth` being one leaf.  Stage 0 holds only the root and is folded
    # last, so best, best_u and leaves end as the root's.
    alpha = mdp.discount
    values = terminal
    for k in range(horizon - 1, -1, -1):
        if k == depth - 1:
            counts = [1] * mdp.n_states
        counting = k < depth
        folded, tallies = {}, {}
        for x, branches in stages[k].items():
            best = best_u = None
            leaves = 0
            for u, outs in branches:
                total = 0.0
                for p, nxt, cost in outs:
                    total += p * (cost + alpha * values[nxt])
                    if counting:
                        leaves += counts[nxt]
                if best_u is None or total < best:
                    best, best_u = total, u
            folded[x], tallies[x] = best, leaves
        values, counts = folded, tallies
    return LookaheadChoice(best_u, best, leaves)
