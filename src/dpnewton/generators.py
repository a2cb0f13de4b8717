"""Seeded random instances for cross-checking the solvers.

Every draw comes from numpy's PCG64 stream (numpy.random.default_rng), so a
single 64-bit seed pins the full instance.  Sizes follow the desk-scale
test regime: 3..8 states, 2..4 controls per state, 1..3 outcomes per
control, costs on the grid {0.0, 0.1, ..., 10.0}.
"""

from __future__ import annotations

from .errors import check_count
from .mdp import FiniteMDP, zero_values

__all__ = ["random_mdp", "random_values", "random_policy"]


def random_mdp(
    seed: int,
    discount: float = 0.9,
    n_states: int | None = None,
    reach_termination: bool = False,
) -> FiniteMDP:
    """A random MDP drawn from the PCG64 stream of the given seed.

    With reach_termination, the first control of every nonterminal state
    routes one outcome to the termination state, so the all-zeros policy
    terminates with probability one (a stable base even without
    discounting).  An n_states that is not an integer >= 1 raises ValueError.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9)) if n_states is None else check_count(n_states, "n_states", 1)
    transitions: list[list[list[tuple[float, int, float]]]] = [[[(1.0, 0, 0.0)]]]
    for _x in range(1, n):
        n_controls = int(rng.integers(2, 5))
        per_state = []
        for u in range(n_controls):
            branch = int(rng.integers(1, 4))
            succ = [int(s) for s in rng.integers(0, n, size=branch)]
            if reach_termination and u == 0:
                succ[0] = 0
            weights = rng.random(branch) + 0.1
            probs = weights / weights.sum()
            costs = rng.integers(0, 101, size=branch) * 0.1
            per_state.append(
                [
                    (float(p), s, float(c))
                    for p, s, c in zip(probs, succ, costs)
                ]
            )
        transitions.append(per_state)
    return FiniteMDP(discount, transitions)


def random_values(seed: int, mdp: FiniteMDP, high: float) -> list[float]:
    """Random value estimate in [0, high] per state, termination pinned 0."""
    import numpy as np

    rng = np.random.default_rng(seed)
    values = zero_values(mdp)
    for x in range(1, mdp.n_states):
        values[x] = float(rng.uniform(0.0, high))
    return values


def random_policy(seed: int, mdp: FiniteMDP) -> list[int]:
    import numpy as np

    rng = np.random.default_rng(seed)
    return [
        mdp.controls[x][int(rng.integers(0, len(mdp.controls[x])))]
        for x in range(mdp.n_states)
    ]
