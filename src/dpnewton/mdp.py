"""Finite-state total/discounted cost MDPs with exact enumeration.

States are 0..n-1 and state 0 is the termination state: absorbing and
cost-free by construction.  Each state carries a list of admissible control
ids; each (state, control) pair carries a finite distribution over
(successor, cost) outcomes.  Every expectation below is an exact finite sum
over those outcomes; nothing is sampled.

Value functions are plain lists of floats indexed by state, entry 0 pinned
to 0.0, with math.inf allowed (the cost of an unstable policy).  Policies
are lists of control ids indexed by state.  Every routine is deterministic:
pure argmins break ties by lowest control id, and the improvement step
inside rollout and policy iteration keeps the current control unless a
strictly better one exists (see _improved_policy for why).
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Outcome",
    "FiniteMDP",
    "MDPValidationError",
    "ConvergenceError",
    "zero_values",
    "q_value",
    "bellman_operator",
    "policy_operator",
    "greedy_policy",
    "value_iteration",
    "policy_evaluation",
    "policy_iteration",
    "policy_is_stable",
    "rollout_policy",
    "lyapunov_check",
]


class MDPValidationError(ValueError):
    """Invalid MDP data; path points at the first offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations; residual is attached."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (residual {residual!r})")


class Outcome(NamedTuple):
    p: float
    next: int
    cost: float


PROB_TOL = 1e-12


class FiniteMDP:
    """Immutable finite MDP over states 0..n-1 with termination state 0.

    transitions[x] lists, one entry per admissible control, the outcome
    distributions [(p, next, cost), ...].  controls[x] gives the matching
    control ids; omit it for the usual 0..m-1 numbering.  Controls are
    stored sorted ascending with their distributions realigned, so position
    order and id order agree everywhere downstream.
    """

    def __init__(
        self,
        discount: float,
        transitions: Sequence[Sequence[Iterable[tuple]]],
        controls: Sequence[Sequence[int]] | None = None,
    ):
        if not isinstance(discount, (int, float)) or math.isnan(discount):
            raise MDPValidationError("alpha", f"discount must be a real, got {discount!r}")
        if not 0.0 < discount <= 1.0:
            raise MDPValidationError("alpha", f"discount must be in (0, 1], got {discount!r}")
        self.discount = float(discount)

        n = len(transitions)
        if n < 1:
            raise MDPValidationError("transitions", "at least the termination state is required")
        if controls is None:
            controls = [list(range(len(per_state))) for per_state in transitions]
        if len(controls) != n:
            raise MDPValidationError(
                "controls", f"expected {n} per-state entries, got {len(controls)}"
            )

        table: list[tuple[tuple[Outcome, ...], ...]] = []
        ids: list[tuple[int, ...]] = []
        for x, per_state in enumerate(transitions):
            per_state = list(per_state)
            cs = list(controls[x])
            if len(cs) != len(per_state):
                raise MDPValidationError(
                    f"controls[{x}]",
                    f"{len(cs)} control ids for {len(per_state)} distributions",
                )
            if not per_state:
                raise MDPValidationError(
                    f"controls[{x}]", "every state needs at least one control"
                )
            for i, u in enumerate(cs):
                # int first: the common case skips the slower ABC check
                if not isinstance(u, (int, numbers.Integral)) or isinstance(u, bool) or u < 0:
                    raise MDPValidationError(
                        f"controls[{x}][{i}]", f"control ids are nonnegative ints, got {u!r}"
                    )
            if len(set(cs)) != len(cs):
                raise MDPValidationError(f"controls[{x}]", "duplicate control id")
            order = sorted(range(len(cs)), key=lambda i: cs[i])
            state_rows: list[tuple[Outcome, ...]] = []
            for i in order:
                state_rows.append(
                    self._checked_distribution(x, cs[i], i, per_state[i], n)
                )
            ids.append(tuple(int(cs[i]) for i in order))
            table.append(tuple(state_rows))

        for ui, dist in enumerate(table[0]):
            for oi, out in enumerate(dist):
                if out.next != 0:
                    raise MDPValidationError(
                        f"transitions[0][{ui}][{oi}].next",
                        "the termination state must be absorbing",
                    )
                if out.cost != 0.0:
                    raise MDPValidationError(
                        f"transitions[0][{ui}][{oi}].cost",
                        "the termination state must be cost-free",
                    )

        self.controls: tuple[tuple[int, ...], ...] = tuple(ids)
        self.transitions: tuple[tuple[tuple[Outcome, ...], ...], ...] = tuple(table)
        self._position = [
            {u: i for i, u in enumerate(per_state)} for per_state in self.controls
        ]
        self._packed_arrays: _Packed | None = None

    @staticmethod
    def _checked_distribution(x, u, slot, raw, n) -> tuple[Outcome, ...]:
        here = f"transitions[{x}][{slot}]"
        rows = list(raw)
        if not rows:
            raise MDPValidationError(here, f"control {u} has no outcomes")
        outs = []
        total = 0.0
        for k, row in enumerate(rows):
            try:
                p, nxt, cost = row
            except (TypeError, ValueError):
                raise MDPValidationError(
                    f"{here}[{k}]", f"expected (p, next, cost), got {row!r}"
                ) from None
            p = float(p)
            cost = float(cost)
            if not math.isfinite(p) or p <= 0.0:
                raise MDPValidationError(
                    f"{here}[{k}].p", f"probabilities must be positive, got {p!r}"
                )
            if not isinstance(nxt, (int, numbers.Integral)) or isinstance(nxt, bool):
                raise MDPValidationError(
                    f"{here}[{k}].next", f"successor must be an int, got {nxt!r}"
                )
            if not 0 <= nxt < n:
                raise MDPValidationError(
                    f"{here}[{k}].next", f"successor {nxt} outside 0..{n - 1}"
                )
            if not math.isfinite(cost) or cost < 0.0:
                raise MDPValidationError(
                    f"{here}[{k}].cost", f"costs must be finite and nonnegative, got {cost!r}"
                )
            total += p
            outs.append(Outcome(p, int(nxt), cost))
        if abs(total - 1.0) > PROB_TOL:
            raise MDPValidationError(here, f"probabilities sum to {total!r}, not 1")
        return tuple(outs)

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def outcomes(self, state: int, control: int) -> tuple[Outcome, ...]:
        return self.transitions[state][self._slot(state, control)]

    def _slot(self, state: int, control: int) -> int:
        try:
            return self._position[state][control]
        except KeyError:
            raise ValueError(f"control {control} not admissible at state {state}") from None

    @property
    def _packed(self) -> _Packed:
        # Built on first use so that importing the package never loads numpy.
        # The slot is assigned in __init__ rather than by
        # functools.cached_property, whose later write to the instance
        # __dict__ slows every attribute read on the model.
        if self._packed_arrays is None:
            import numpy as np

            width = max(len(per_state) for per_state in self.controls)
            depth = max(len(dist) for per_state in self.transitions for dist in per_state)
            pad = [(0.0, 0, 0.0)] * depth
            rows = [
                [list(dist) + pad[len(dist):] for dist in per_state]
                + [pad] * (width - len(per_state))
                for per_state in self.transitions
            ]
            p, nxt, cost = np.array(rows, dtype=np.float64).transpose(3, 2, 0, 1).copy()
            ids = np.zeros((self.n_states, width), dtype=object)  # exact ints of any size
            start = np.full((self.n_states, width), math.inf)
            for x, per_state in enumerate(self.controls):
                ids[x, : len(per_state)] = per_state
                start[x, : len(per_state)] = 0.0
            self._packed_arrays = _Packed(p, nxt.astype(np.intp), cost, ids, start)
        return self._packed_arrays


class _Packed(NamedTuple):
    """A model's transitions as padded arrays indexed [outcome, state, slot].

    Slot i of state x holds control controls[x][i].  Padding entries have
    p = 0, next = 0 and cost = 0, so against a value table whose entry 0 is
    0 each adds exactly 0.0 to a Q-value.  `start` is the invalid-slot mask
    in additive form: the 0.0 a Q-value sum starts from where the slot holds
    a control, +inf past a state's last control.  The outcome axis comes
    first so that each outcome column is one contiguous (S, U) block."""

    p: np.ndarray
    next: np.ndarray
    cost: np.ndarray
    ids: np.ndarray
    start: np.ndarray


def zero_values(mdp: FiniteMDP) -> list[float]:
    return [0.0] * mdp.n_states


def _check_values(mdp: FiniteMDP, values: Sequence[float], where: str = "values"):
    if len(values) != mdp.n_states:
        raise ValueError(f"{where}: expected {mdp.n_states} entries, got {len(values)}")
    if values[0] != 0.0:
        raise ValueError(f"{where}[0]: the termination state is pinned to 0")
    for x, v in enumerate(values):
        if not v >= 0.0:  # also true for NaN
            raise ValueError(f"{where}[{x}]: entries are nonnegative reals, got {v!r}")


def q_value(mdp: FiniteMDP, values: Sequence[float], state: int, control: int) -> float:
    """Exact one-step cost of a control against a value estimate.

    Infinite continuation values propagate (every probability is positive,
    so no 0*inf can appear)."""
    alpha = mdp.discount
    total = 0.0
    for p, nxt, cost in mdp.outcomes(state, control):
        total += p * (cost + alpha * values[nxt])
    return total


def _q_table(mdp: FiniteMDP, values: Sequence[float]) -> np.ndarray:
    """Q-values of every (state, control slot) pair as an (S, U) array;
    slots past a state's last control read +inf.

    Repeats q_value's float operations one for one, so every entry equals
    q_value bit for bit: each term is p * (cost + alpha * v[next]) and the
    outcome columns are added left to right onto 0.0.  A reducing sum
    (np.sum, np.add.reduceat) would pair the terms differently."""
    import numpy as np

    packed = mdp._packed
    scaled = mdp.discount * np.asarray(values, dtype=np.float64)
    terms = packed.p * (packed.cost + scaled[packed.next])
    acc = packed.start + terms[0]
    for column in terms[1:]:
        acc += column
    return acc


def bellman_operator(mdp: FiniteMDP, values: Sequence[float]) -> list[float]:
    """One exact sweep of the optimality recursion; entry 0 stays 0."""
    _check_values(mdp, values)
    out = _q_table(mdp, values).min(axis=1)
    out[0] = 0.0
    return out.tolist()


def policy_operator(
    mdp: FiniteMDP, policy: Sequence[int], values: Sequence[float]
) -> list[float]:
    """One exact sweep for a fixed policy; entry 0 stays 0."""
    _check_values(mdp, values)
    out = [0.0] * mdp.n_states
    for x in range(1, mdp.n_states):
        out[x] = q_value(mdp, values, x, policy[x])
    return out


def greedy_policy(mdp: FiniteMDP, values: Sequence[float]) -> list[int]:
    """Pointwise minimizing controls, lowest id on ties (also when every
    control is infinitely bad)."""
    import numpy as np

    _check_values(mdp, values)
    # argmin takes the first minimal slot, and slots run in id order
    slots = _q_table(mdp, values).argmin(axis=1)
    return mdp._packed.ids[np.arange(mdp.n_states), slots].tolist()


def _improved_policy(
    mdp: FiniteMDP, base: Sequence[int], values: Sequence[float]
) -> list[int]:
    # Improvement step for rollout and policy iteration: a control is
    # replaced only when some alternative is strictly better under the
    # supplied values.  Plain argmin would flip between equally good
    # controls whose evaluations differ by rounding noise and policy
    # iteration would then cycle instead of terminating; keeping the
    # incumbent on ties removes that failure while staying deterministic
    # (switches go to the lowest strictly better control id).
    import numpy as np

    rows = np.arange(mdp.n_states)
    incumbent = np.array([mdp._slot(x, base[x]) for x in range(mdp.n_states)], dtype=np.intp)
    q = _q_table(mdp, values)
    chosen = np.where(q.min(axis=1) < q[rows, incumbent], q.argmin(axis=1), incumbent)
    return mdp._packed.ids[rows, chosen].tolist()


def _sup_diff(a: Sequence[float], b: Sequence[float]) -> float:
    worst = 0.0
    for x, y in zip(a, b):
        # equal entries are skipped, which also covers matching infinities
        if x != y and abs(x - y) > worst:
            worst = abs(x - y)
    return worst


def value_iteration(
    mdp: FiniteMDP,
    values0: Sequence[float] | None = None,
    tol: float = 1e-12,
    max_iters: int = 100_000,
) -> tuple[list[float], int]:
    """Iterate the optimality sweep until the sup-norm residual is at most
    tol; returns (values, sweeps applied).  A start that already meets the
    tolerance returns unchanged with a count of 0."""
    values = list(values0) if values0 is not None else zero_values(mdp)
    _check_values(mdp, values)
    residual = math.inf
    for k in range(max_iters + 1):
        swept = bellman_operator(mdp, values)
        residual = _sup_diff(swept, values)
        if residual <= tol:
            return values, k
        values = swept
    raise ConvergenceError(
        f"value iteration missed tol={tol} after {max_iters} sweeps", residual
    )


def _closed_loop(mdp: FiniteMDP, policy: Sequence[int]):
    return [mdp.outcomes(x, policy[x]) for x in range(mdp.n_states)]


def _recurrent_states(edges) -> set[int]:
    """States in closed (bottom) strongly connected classes of the closed
    loop: those that every state they reach can reach back.  One iterative
    pass of Tarjan's algorithm, linear in states plus outcomes."""
    n = len(edges)
    order = [-1] * n  # discovery index
    low = [0] * n
    root_of = [-1] * n  # root of each finished class; -1 while on the stack
    stack: list[int] = []
    recurrent: set[int] = set()
    found = 0
    for start in range(n):
        if order[start] >= 0:
            continue
        order[start] = low[start] = found
        found += 1
        stack.append(start)
        path = [(start, iter(edges[start]))]
        while path:
            x, outs = path[-1]
            for out in outs:
                y = out.next
                if order[y] < 0:
                    order[y] = low[y] = found
                    found += 1
                    stack.append(y)
                    path.append((y, iter(edges[y])))
                    break
                if root_of[y] < 0:
                    low[x] = min(low[x], order[y])
            else:
                path.pop()
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[x])
                if low[x] == order[x]:
                    members = []
                    while not members or members[-1] != x:
                        members.append(stack.pop())
                        root_of[members[-1]] = x
                    # every successor already belongs to a finished class
                    if all(root_of[out.next] == x for y in members for out in edges[y]):
                        recurrent.update(members)
    return recurrent


def _reaching(edges, targets) -> set[int]:
    """States from which the closed loop can reach some state in targets."""
    before: list[list[int]] = [[] for _ in edges]
    for x, outs in enumerate(edges):
        for out in outs:
            before[out.next].append(x)
    seen = set(targets)
    frontier = list(seen)
    while frontier:
        for x in before[frontier.pop()]:
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    return seen


def policy_evaluation(mdp: FiniteMDP, policy: Sequence[int]) -> list[float]:
    """Exact cost of a stationary policy via a linear solve.

    For discount < 1 the closed-loop system is solved outright.  For the
    undiscounted case the closed-loop chain is first classified: a state
    whose chain can settle into a recurrent class containing a positive-cost
    transition accumulates infinite cost; zero-cost recurrent classes take
    the least-fixed-point value 0 (what iterating from zero converges to);
    the remaining states see the chain leave them with probability one, and
    their restricted linear system is nonsingular.
    """
    import numpy as np

    n = mdp.n_states
    edges = _closed_loop(mdp, policy)
    if mdp.discount < 1.0:
        unknown = list(range(1, n))
    else:
        recurrent = _recurrent_states(edges)
        bad = [x for x in recurrent if any(out.cost > 0.0 for out in edges[x])]
        infinite = _reaching(edges, bad)
        values = [0.0] * n
        for x in infinite:
            values[x] = math.inf
        unknown = [
            x for x in range(1, n) if x not in infinite and x not in recurrent
        ]
        if not unknown:
            return values

    index = {x: i for i, x in enumerate(unknown)}
    m = len(unknown)
    A = np.eye(m)
    rhs = np.zeros(m)
    for x in unknown:
        i = index[x]
        for p, nxt, cost in edges[x]:
            rhs[i] += p * cost
            j = index.get(nxt)
            if j is not None:
                A[i, j] -= mdp.discount * p
    solved = np.linalg.solve(A, rhs)

    if mdp.discount < 1.0:
        values = [0.0] * n
    for x, v in zip(unknown, solved):
        values[x] = float(v)
    return values


def policy_is_stable(mdp: FiniteMDP, policy: Sequence[int]) -> bool:
    """Whether the policy's cost is finite from every state.

    Any policy is stable under a discount below 1.  Without discounting the
    policy is stable exactly when, from every state, the closed loop either
    reaches the termination state with probability one or can only settle
    into cost-free recurrent behavior."""
    if mdp.discount < 1.0:
        return True
    return not any(math.isinf(v) for v in policy_evaluation(mdp, policy))


def policy_iteration(
    mdp: FiniteMDP, policy0: Sequence[int], max_iters: int = 1000
) -> tuple[list[int], list[float], int]:
    """Exact policy iteration: evaluate, improve, repeat until the
    improvement step returns its own argument.  Returns (policy, its exact
    cost, rounds used).  Controls change only on strict improvement, so a
    finite MDP always settles.  An undiscounted start must be stable."""
    policy = list(policy0)
    if mdp.discount == 1.0 and not policy_is_stable(mdp, policy):
        raise ValueError("policy iteration without discounting needs a stable start")
    for rounds in range(1, max_iters + 1):
        values = policy_evaluation(mdp, policy)
        improved = _improved_policy(mdp, policy, values)
        if improved == policy:
            return policy, values, rounds
        policy = improved
    raise ConvergenceError(
        f"policy iteration did not settle in {max_iters} rounds", math.inf
    )


def rollout_policy(
    mdp: FiniteMDP, base: Sequence[int], horizon: int | None = None
) -> list[int]:
    """Greedy one-step improvement of a base policy.

    With horizon None the base is evaluated exactly (one full policy-
    iteration step).  A finite horizon applies that many sweeps of the base
    policy to the all-zero estimate instead, the truncated-rollout choice
    of terminal value used throughout this package.  Base controls are kept
    unless strictly improved, so an already greedy base is a fixed point
    even when another control ties it to the last bit."""
    if mdp.discount == 1.0 and not policy_is_stable(mdp, base):
        raise ValueError("rollout without discounting needs a stable base policy")
    if horizon is None:
        reference = policy_evaluation(mdp, base)
    else:
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        reference = zero_values(mdp)
        for _ in range(horizon):
            reference = policy_operator(mdp, base, reference)
    return _improved_policy(mdp, base, reference)


def lyapunov_check(
    mdp: FiniteMDP, values: Sequence[float], tol: float = 1e-12
) -> tuple[bool, list[int]]:
    """Check the certificate J >= TJ pointwise (within tol).

    A finite estimate passing this check makes the greedy policy built on
    it stable; the second element lists every violating state."""
    _check_values(mdp, values)
    for x, v in enumerate(values):
        if math.isinf(v):
            raise ValueError(f"values[{x}]: the certificate must be finite")
    swept = bellman_operator(mdp, values)
    violations = [
        x for x in range(mdp.n_states) if swept[x] > values[x] + tol
    ]
    return not violations, violations
