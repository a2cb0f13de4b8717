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

from .errors import ConvergenceError, MDPValidationError, check_budget, check_count

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


class Outcome(NamedTuple):
    p: float
    next: int
    cost: float


PROB_TOL = 1e-12


def _real(x, where: str) -> float:
    """x as a float: a real number other than a bool, in the double range."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise MDPValidationError(where, f"expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise MDPValidationError(where, "the number leaves the double range") from None


class FiniteMDP:
    """Immutable finite MDP over states 0..n-1 with termination state 0.

    transitions[x] lists, one entry per admissible control, the outcome
    distributions [(p, next, cost), ...].  controls[x] gives the matching
    control ids; omit it for the usual 0..m-1 numbering.  Controls are
    stored sorted ascending with their distributions realigned, so position
    order and id order agree everywhere downstream.

    The discount, every probability and every cost must be a real number
    (not a bool) that a double can hold.  The first violation of any rule
    raises MDPValidationError naming its path, e.g. "transitions[1][0][2].p",
    where the slot is the control's position in the caller's list.
    """

    def __init__(
        self,
        discount: float,
        transitions: Sequence[Sequence[Iterable[tuple]]],
        controls: Sequence[Sequence[int]] | None = None,
    ):
        alpha = _real(discount, "alpha")
        if not 0.0 < alpha <= 1.0:  # also true for NaN
            raise MDPValidationError("alpha", f"discount must be in (0, 1], got {discount!r}")
        self.discount = alpha

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
            if type(p) is not float:  # the common case skips the call
                p = _real(p, f"{here}[{k}].p")
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
            if type(cost) is not float:
                cost = _real(cost, f"{here}[{k}].cost")
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
            p, nxt, cost = np.array(rows, dtype=np.float64).transpose(3, 2, 1, 0).copy()
            ids = np.zeros((width, self.n_states), dtype=object)  # exact ints of any size
            start = np.full((width, self.n_states), math.inf)
            for x, per_state in enumerate(self.controls):
                ids[: len(per_state), x] = per_state
                start[: len(per_state), x] = 0.0
            self._packed_arrays = _Packed(p, nxt.astype(np.intp), cost, ids, start)
        return self._packed_arrays


class _Packed(NamedTuple):
    """A model's transitions as padded arrays indexed [outcome, slot, state];
    `ids` and `start` are indexed [slot, state].

    Slot i of state x holds control controls[x][i].  Padding entries have
    p = 0, next = 0 and cost = 0, so against a value table whose entry 0 is
    0 each adds exactly 0.0 to a Q-value.  `start` is the invalid-slot mask
    in additive form: the 0.0 a Q-value sum starts from where the slot holds
    a control, +inf past a state's last control.  The outcome axis comes
    first so that each outcome column is one contiguous (U, S) block, and
    the state axis comes last so that a minimum over the few slots runs
    across whole rows of states rather than along a 2-4 wide axis."""

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
    _check_entries(values, where)


def _check_entries(values: Sequence[float], where: str):
    """The checks of a value table that need no model: entry 0 pinned to 0
    and every entry a nonnegative real.  An empty table passes, so that the
    model's length check reports it."""
    if len(values) and values[0] != 0.0:
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
    """Q-values of every (control slot, state) pair as a (U, S) array;
    slots past a state's last control read +inf.

    Repeats q_value's float operations one for one, so every entry equals
    q_value bit for bit: each term is p * (cost + alpha * v[next]) and the
    outcome columns are added left to right onto 0.0.  A reducing sum
    (np.sum, np.add.reduceat) would pair the terms differently.  Every
    entry is +0.0 or more, since the sum starts from +0.0, so a minimum
    over slots never has to choose between zeros of opposite sign."""
    import numpy as np

    packed = mdp._packed
    scaled = mdp.discount * np.asarray(values, dtype=np.float64)
    terms = packed.p * (packed.cost + scaled[packed.next])
    acc = packed.start + terms[0]
    for column in terms[1:]:
        acc += column
    return acc


def _sweep(mdp: FiniteMDP, values: Sequence[float]) -> np.ndarray:
    """The optimality sweep as an array, on a table already checked."""
    out = _q_table(mdp, values).min(axis=0)
    out[0] = 0.0
    return out


def bellman_operator(mdp: FiniteMDP, values: Sequence[float]) -> list[float]:
    """One exact sweep of the optimality recursion; entry 0 stays 0."""
    _check_values(mdp, values)
    return _sweep(mdp, values).tolist()


def _policy_slots(
    mdp: FiniteMDP, policy: Sequence[int], first: int = 0, where: str = "policy"
) -> list[int]:
    """Slot of policy[x] at every state x from `first` on; the states before
    `first` take slot 0 and their entries of the policy are not read.  A
    policy of the wrong length raises ValueError naming `where`, an
    inadmissible control one naming the first such state."""
    if len(policy) != mdp.n_states:
        raise ValueError(f"{where}: expected {mdp.n_states} entries, got {len(policy)}")
    return [0] * first + [mdp._slot(x, policy[x]) for x in range(first, mdp.n_states)]


def policy_operator(
    mdp: FiniteMDP, policy: Sequence[int], values: Sequence[float]
) -> list[float]:
    """One exact sweep for a fixed policy; entry 0 stays 0 and policy[0] is
    not read."""
    import numpy as np

    _check_values(mdp, values)
    slots = _policy_slots(mdp, policy, first=1)
    out = _q_table(mdp, values)[slots, np.arange(mdp.n_states)]
    out[0] = 0.0
    return out.tolist()


def greedy_policy(mdp: FiniteMDP, values: Sequence[float]) -> list[int]:
    """Pointwise minimizing controls, lowest id on ties (also when every
    control is infinitely bad)."""
    import numpy as np

    _check_values(mdp, values)
    # argmin takes the first minimal slot, and slots run in id order
    slots = _q_table(mdp, values).argmin(axis=0)
    return mdp._packed.ids[slots, np.arange(mdp.n_states)].tolist()


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
    incumbent = np.array(_policy_slots(mdp, base), dtype=np.intp)
    q = _q_table(mdp, values)
    chosen = np.where(q.min(axis=0) < q[incumbent, rows], q.argmin(axis=0), incumbent)
    return mdp._packed.ids[chosen, rows].tolist()


def value_iteration(
    mdp: FiniteMDP,
    values0: Sequence[float] | None = None,
    tol: float = 1e-12,
    max_iters: int = 100_000,
) -> tuple[list[float], int]:
    """Iterate the optimality sweep until the sup-norm residual is at most
    tol; returns (values, sweeps applied).  A start that already meets the
    tolerance returns unchanged with a count of 0.

    The first sweep is bellman_operator's, which validates the start; later
    sweeps run on a float64 array, and a sweep of a valid table is valid.
    The residual is the largest |swept - values| over unequal entries, so
    matching infinities count as converged.  A negative tol or a max_iters
    that is not a count raises ValueError."""
    import numpy as np

    check_budget(tol, max_iters)
    start = list(values0) if values0 is not None else zero_values(mdp)
    # the public call also gives perfbench's mdp.bellman_operator span its sample
    swept = np.array(bellman_operator(mdp, start))
    values = np.asarray(start, dtype=np.float64)
    for k in range(max_iters + 1):
        if k:
            swept = _sweep(mdp, values)
        gaps = np.subtract(swept, values, out=np.zeros(len(values)), where=swept != values)
        residual = float(np.abs(gaps).max())
        if residual <= tol:
            return (values.tolist() if k else start), k
        values = swept
    raise ConvergenceError(
        f"value iteration missed tol={tol} after {max_iters} sweeps", residual
    )


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


# At most one float64 buffer for policy_evaluation's matrix.  A call takes it
# with one pop, so threads never share it, and puts it back after the solve.
_spare_matrix: list[np.ndarray] = []


def policy_evaluation(mdp: FiniteMDP, policy: Sequence[int]) -> list[float]:
    """Exact cost of a stationary policy via a linear solve.

    For discount < 1 the closed-loop system is solved outright.  For the
    undiscounted case the closed-loop chain is first classified: a state
    whose chain can settle into a recurrent class containing a positive-cost
    transition accumulates infinite cost; zero-cost recurrent classes take
    the least-fixed-point value 0 (what iterating from zero converges to);
    the remaining states see the chain leave them with probability one, and
    their restricted linear system is nonsingular.

    The system is built from the packed arrays one outcome column at a time,
    in outcome order: rhs gains p * cost, and the matrix loses alpha * p at
    the successor's column where the successor is unknown.  Within a column
    each row appears once, so every entry takes the same float operations in
    the same order as a per-state loop over the outcomes.  The matrix lives
    in a module-level spare buffer that is refilled from the identity on
    every call: it saves the allocation and its page faults, never a value.
    """
    import numpy as np

    n = mdp.n_states
    slots = _policy_slots(mdp, policy)
    if mdp.discount < 1.0:
        unknown = list(range(1, n))
    else:
        edges = [mdp.transitions[x][s] for x, s in enumerate(slots)]
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

    m = len(unknown)
    i = np.arange(m)
    column = np.full(n, -1, dtype=np.intp)  # unknown state -> its index
    column[unknown] = i
    packed = mdp._packed
    rows = np.array(unknown, dtype=np.intp)
    at = (slice(None), np.asarray(slots, dtype=np.intp)[rows], rows)
    try:
        buffer = _spare_matrix.pop()
    except IndexError:
        buffer = np.empty(0)
    if buffer.size < m * m:
        buffer = np.empty(m * m)
    A = buffer[: m * m].reshape(m, m)
    A.fill(0.0)
    A[i, i] = 1.0
    rhs = np.zeros(m)
    # padding outcomes have p = 0, cost = 0 and lead to state 0, which is
    # never unknown: they add 0.0 to rhs and leave A alone
    for p, nxt, cost in zip(packed.p[at], packed.next[at], packed.cost[at]):
        rhs += p * cost
        j = column[nxt]
        live = j >= 0
        A[i[live], j[live]] -= mdp.discount * p[live]
    solved = np.linalg.solve(A, rhs)
    _spare_matrix[:] = [buffer]

    if mdp.discount < 1.0:
        return [0.0] + solved.tolist()
    for x, v in zip(unknown, solved.tolist()):
        values[x] = v
    return values


def _unstable(mdp: FiniteMDP, values: Sequence[float]) -> bool:
    """Whether a policy's exact values show it unstable: only without
    discounting can a cost be infinite."""
    return mdp.discount == 1.0 and any(math.isinf(v) for v in values)


def policy_is_stable(mdp: FiniteMDP, policy: Sequence[int]) -> bool:
    """Whether the policy's cost is finite from every state.

    Any valid policy is stable under a discount below 1.  Without
    discounting the policy is stable exactly when, from every state, the
    closed loop either reaches the termination state with probability one
    or can only settle into cost-free recurrent behavior."""
    if mdp.discount < 1.0:
        _policy_slots(mdp, policy)
        return True
    return not _unstable(mdp, policy_evaluation(mdp, policy))


def policy_iteration(
    mdp: FiniteMDP, policy0: Sequence[int], max_iters: int = 1000
) -> tuple[list[int], list[float], int]:
    """Exact policy iteration: evaluate, improve, repeat until the
    improvement step returns its own argument.  Returns (policy, its exact
    cost, rounds used).  Controls change only on strict improvement, so a
    finite MDP always settles.  An undiscounted start must be stable, and a
    max_iters that is not a count raises ValueError."""
    check_budget(max_iters=max_iters)
    policy = list(policy0)
    values = policy_evaluation(mdp, policy)
    if _unstable(mdp, values):
        raise ValueError("policy iteration without discounting needs a stable start")
    for rounds in range(1, max_iters + 1):
        improved = _improved_policy(mdp, policy, values)
        if improved == policy:
            return policy, values, rounds
        policy = improved
        values = policy_evaluation(mdp, policy)
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
    _policy_slots(mdp, base, where="base")
    if horizon is None:
        reference = policy_evaluation(mdp, base)
        stable = not _unstable(mdp, reference)
    else:
        check_count(horizon, "horizon")
        stable = policy_is_stable(mdp, base)
    if not stable:
        raise ValueError("rollout without discounting needs a stable base policy")
    if horizon is not None:
        reference = zero_values(mdp)
        for _ in range(horizon):
            reference = policy_operator(mdp, base, reference)
    return _improved_policy(mdp, base, reference)


def lyapunov_check(
    mdp: FiniteMDP, values: Sequence[float], tol: float = 1e-12
) -> tuple[bool, list[int]]:
    """Check the certificate J >= TJ pointwise (within tol).

    A finite estimate passing this check makes the greedy policy built on
    it stable; the second element lists every violating state.  A NaN tol,
    which would certify any estimate, or a negative one raises ValueError."""
    check_budget(tol)
    _check_values(mdp, values)
    for x, v in enumerate(values):
        if math.isinf(v):
            raise ValueError(f"values[{x}]: the certificate must be finite")
    swept = bellman_operator(mdp, values)
    violations = [
        x for x in range(mdp.n_states) if swept[x] > values[x] + tol
    ]
    return not violations, violations
