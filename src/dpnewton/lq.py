"""Exact analysis of the undiscounted scalar linear-quadratic problem.

The plant is x[k+1] = a x[k] + b u[k] with stage cost q x[k]^2 + r u[k]^2
(b != 0, q > 0, r > 0, no discounting).  Quadratic value functions K x^2
turn the Bellman equation into a one-dimensional Riccati fixed-point
equation

    K = F(K) = a^2 r K / (r + b^2 K) + q,

and linear policies u = L x turn the policy equation into the affine map

    F_L(K) = (a + b L)^2 K + q + r L^2.

F is concave and increasing, F_L is the tangent line of F at the point
where L is the greedy gain, and the cost of a stable linear policy is the
fixed point of its F_L.  One greedy step from a quadratic guess therefore
lands exactly on the Newton iterate for solving K = F(K); rollout, lookahead
and policy iteration are all built out of that one move.

Everything here is closed form in double precision.  An unstable closed
loop has infinite cost, represented by math.inf and kept out of arithmetic
that could produce NaNs.  A finite answer that the double range cannot
hold raises a ValueError naming the quantity that left it.

Inputs are checked once, where they enter a public function; each formula
(F, F', the greedy gain, a linear policy's cost) lives in one unchecked
float kernel that the public functions share.  The value types are
immutable named tuples.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import ConvergenceError, check_budget, check_lookahead

__all__ = [
    "ScalarLQProblem",
    "LinearGain",
    "NewtonStepResult",
    "StabilityRegion",
    "riccati_operator",
    "riccati_derivative",
    "policy_operator",
    "solve_riccati",
    "greedy_gain",
    "policy_cost",
    "value_iteration",
    "newton_step",
    "lookahead_step",
    "stability_region",
    "rollout",
    "policy_iteration",
]


class _Coefficients(NamedTuple):
    a: float
    b: float
    q: float
    r: float


def _reject_problem(a, b, q, r):
    """Raise for the first entry that ScalarLQProblem's test refused."""
    for name, v in (("a", a), ("b", b), ("q", q), ("r", r)):
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{name} must be a finite real, got {v!r}")
    if b == 0:
        raise ValueError("b must be nonzero (the control must act on the state)")
    if q <= 0:
        raise ValueError("q must be positive")
    raise ValueError("r must be positive")


class ScalarLQProblem(_Coefficients):
    """Coefficients (a, b, q, r) of a scalar LQ problem.

    An immutable tuple whose every constructor (the call, _make and
    _replace) checks that the entries are finite reals, b != 0, q > 0 and
    r > 0, in that order.
    """

    __slots__ = ()

    def __new__(cls, a, b, q, r):
        real, finite = (int, float), math.isfinite
        if not (
            isinstance(a, real) and isinstance(b, real)
            and isinstance(q, real) and isinstance(r, real)
            and finite(a) and finite(b) and finite(q) and finite(r)
            and b != 0 and q > 0 and r > 0
        ):
            _reject_problem(a, b, q, r)
        return tuple.__new__(cls, (a, b, q, r))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class LinearGain(NamedTuple):
    """Linear feedback u = gain * x together with its closed-loop coefficient.

    closed_loop is a + b*gain for the problem the gain was built against.
    Stability is strict: |closed_loop| = 1 accumulates infinite cost and
    counts as unstable.  An immutable tuple.
    """

    gain: float
    closed_loop: float

    @property
    def stable(self) -> bool:
        return abs(self.closed_loop) < 1.0

    @classmethod
    def from_gain(cls, problem: ScalarLQProblem, gain: float) -> "LinearGain":
        g = float(gain)
        if not math.isfinite(g):
            raise ValueError(f"gain must be finite, got {g!r}")
        return cls(g, problem.a + problem.b * g)


class NewtonStepResult(NamedTuple):
    """Outcome of one greedy linearization: where it started, what it chose.

    effective_start is the quadratic coefficient the greedy minimization was
    taken at, gain the resulting policy, cost its exact infinite-horizon
    coefficient (math.inf when the closed loop is not strictly stable).  An
    immutable tuple.
    """

    effective_start: float
    gain: LinearGain
    cost: float


class StabilityRegion(NamedTuple):
    """Set of quadratic coefficients whose greedy policy is stable.

    When open is True the region is the open interval (threshold, inf);
    otherwise every K >= 0 qualifies (and threshold is 0).  An immutable
    tuple.
    """

    threshold: float
    open: bool

    def contains(self, coefficient: float) -> bool:
        if self.open:
            return coefficient > self.threshold
        return coefficient >= 0.0


# Float kernels: they check nothing, so a caller passes a finite K >= 0 it
# has already validated.  The public functions check their inputs once and
# then call these; policy_cost has nothing to check and is its own kernel.


def _riccati_map(p: ScalarLQProblem, K: float) -> float:
    """F(K) = a^2 r K / (r + b^2 K) + q."""
    a, b, q, r = p
    return a * a * r * K / (r + b * b * K) + q


def _riccati_slope(p: ScalarLQProblem, K: float) -> float:
    """F'(K) = (a r / (r + b^2 K))^2."""
    a, b, _, r = p
    s = r + b * b * K
    return (a * r / s) ** 2


def _greedy(p: ScalarLQProblem, K: float) -> LinearGain:
    """Greedy gain -a b K / s and its closed loop a r / s, s = r + b^2 K."""
    a, b, _, r = p
    s = r + b * b * K
    return LinearGain(-a * b * K / s, a * r / s)


def _check_coefficient(K: float) -> float:
    K = float(K)
    if math.isnan(K) or K < 0.0:
        raise ValueError(f"quadratic coefficient must be nonnegative, got {K!r}")
    return K


def _check_finite_coefficient(K: float) -> float:
    K = float(K)
    if not 0.0 <= K < math.inf:
        _check_coefficient(K)  # raises for NaN and negative K
        raise ValueError("quadratic coefficient must be finite here")
    return K


def riccati_operator(problem: ScalarLQProblem, K: float) -> float:
    """One exact value-iteration sweep: F(K) = a^2 r K / (r + b^2 K) + q.

    K = +inf is accepted and returns the finite limit a^2 r / b^2 + q,
    which is what an infinitely pessimistic terminal estimate contracts to
    after a single sweep.
    """
    K = _check_coefficient(K)
    p = problem
    if math.isinf(K):
        return p.a * p.a * p.r / (p.b * p.b) + p.q
    return _riccati_map(p, K)


def riccati_derivative(problem: ScalarLQProblem, K: float) -> float:
    """Slope of F at K: F'(K) = a^2 r^2 / (r + b^2 K)^2, in (0, a^2]."""
    return _riccati_slope(problem, _check_finite_coefficient(K))


def policy_operator(problem: ScalarLQProblem, gain: LinearGain, K: float) -> float:
    """One sweep for a fixed linear policy: F_L(K) = (a+bL)^2 K + q + r L^2."""
    K = _check_finite_coefficient(K)
    p = problem
    return gain.closed_loop ** 2 * K + p.q + p.r * gain.gain ** 2


_MIN_NORMAL = sys.float_info.min


def _out_of_range(quantity: str, p: ScalarLQProblem) -> ValueError:
    return ValueError(
        f"{quantity} leaves the double range at a={p.a!r}, b={p.b!r}, q={p.q!r}, r={p.r!r}"
    )


def _first_out_of_range(A: float, B: float, C: float, D: float) -> str | None:
    """First quantity of solve_riccati's quadratic outside the double range.

    b*b, q*r and the discriminant are nonzero in exact arithmetic, so a
    zero or subnormal value has lost its precision; the linear coefficient
    may vanish and can only overflow.
    """
    checks = (
        ("b*b", not _MIN_NORMAL <= A < math.inf),
        ("r - a*a*r - q*b*b", math.isinf(B)),
        ("q*r", not _MIN_NORMAL <= -C < math.inf),
        ("(r - a*a*r - q*b*b)^2 + 4*b*b*q*r", not _MIN_NORMAL <= D < math.inf),
    )
    return next((name for name, out in checks if out), None)


def _exact_residual(p: ScalarLQProblem, K: float) -> float:
    """F(K) - K in exact rationals, rounded once: inf when F(K) is out of range."""
    from fractions import Fraction

    a, b, q, r, k = (Fraction(v) for v in (p.a, p.b, p.q, p.r, K))
    try:
        return float(a * a * r * k / (r + b * b * k) + q - k)
    except OverflowError:
        return math.inf


def solve_riccati(problem: ScalarLQProblem, tol: float = 1e-12) -> float:
    """Unique positive fixed point of F.

    Eliminating the denominator turns K = F(K) into the quadratic
    b^2 K^2 + (r - a^2 r - q b^2) K - q r = 0, whose constant term is
    negative, so exactly one root is positive.  The root is taken in the
    cancellation-free branch of the quadratic formula and then polished
    with a couple of Newton steps on K - F(K), which pins the result to
    the same fixed point the step operators converge to.

    Coefficients whose solve leaves the double range raise a ValueError
    naming the quantity that did: b*b, a coefficient or the discriminant
    of the quadratic, the root K* or F(K*).  Where F itself overflows, the
    final residual is taken in exact rationals.  A residual above tol
    otherwise raises ConvergenceError; a negative tol raises ValueError.
    """
    check_budget(tol)
    p = problem
    a, b, q, r = p
    A = b * b
    B = r - a * a * r - q * A
    C = -q * r
    D = B * B - 4.0 * A * C
    disc = math.sqrt(D)
    if B > 0.0:
        K = 2.0 * C / (-B - disc)
    elif A == 0.0:
        raise _out_of_range("b*b", p)
    else:
        K = (disc - B) / (2.0 * A)
    if not math.isfinite(K):
        raise _out_of_range(_first_out_of_range(A, B, C, D) or "the root K*", p)
    # K is finite and >= 0 from here on: the kernels need no checks
    for _ in range(3):
        residual = _riccati_map(p, K) - K
        slope = _riccati_slope(p, K)
        if slope == 1.0:
            break  # F'(K) rounds to 1: the Newton step is undefined
        refined = K + residual / (1.0 - slope)
        if not math.isfinite(refined) or refined <= 0.0 or refined == K:
            break  # residual is still F(K) - K at the kept K
        K = refined
    else:
        residual = _riccati_map(p, K) - K
    if not (math.isfinite(residual) and A >= _MIN_NORMAL and math.isfinite(A * K)):
        # F's own arithmetic left the double range
        residual = _exact_residual(p, K)
    if abs(residual) > tol * max(1.0, K):
        lost = _first_out_of_range(A, B, C, D)
        if lost is None and math.isinf(residual):
            lost = "F(K*)"
        if lost is not None:
            raise _out_of_range(lost, p)
        raise ConvergenceError(f"Riccati solve missed tol={tol} at K={K!r}", abs(residual))
    return K


def greedy_gain(problem: ScalarLQProblem, K: float) -> LinearGain:
    """Minimizing gain against the quadratic estimate K x^2.

    L = -a b K / (r + b^2 K), with closed loop a + b L = a r / (r + b^2 K)
    computed in that product form to dodge the cancellation in a + bL.
    At K = +inf the finite limit -a/b (deadbeat, closed loop 0) is returned.
    """
    K = _check_coefficient(K)
    p = problem
    if math.isinf(K):
        return LinearGain(-p.a / p.b, 0.0)
    return _greedy(p, K)


def policy_cost(problem: ScalarLQProblem, gain: LinearGain) -> float:
    """Exact cost coefficient of a linear policy.

    The fixed point of F_L: (q + r L^2) / (1 - (a+bL)^2) when the closed
    loop is strictly stable, math.inf otherwise (|a+bL| = 1 included).  A
    stable gain whose finite cost overflows raises a ValueError.  A gain
    needs no check, so this is also the kernel the other solvers call.
    """
    L, closed_loop = gain
    if not abs(closed_loop) < 1.0:
        return math.inf
    _, _, q, r = problem
    try:
        cost = (q + r * L ** 2) / (1.0 - closed_loop ** 2)
    except OverflowError:
        cost = math.inf
    if cost == math.inf:
        raise ValueError(f"the policy cost of the stable gain {L!r} leaves the double range")
    return cost


def value_iteration(
    problem: ScalarLQProblem, K0: float = 0.0, tol: float = 1e-12, max_iters: int = 100_000
) -> list[float]:
    """Iterates [K0, F(K0), F^2(K0), ...] up to the first sweep that moves K
    by at most tol * max(1, |F(K)|); that sweep is included.

    K0 = +inf is accepted.  The sequence is monotone (direction set by the
    sign of K0 - K*) and converges to the fixed point at the geometric rate
    F'(K*).  Running out of sweeps raises ConvergenceError whose residual is
    the last step taken, or |F(K0) - K0| when max_iters is 0.  A sweep whose
    step is NaN has left the double range (0*inf or inf - inf inside F) and
    raises the ValueError that solve_riccati gives for the problem, or one
    naming F(K) if solve_riccati stays in range.
    """
    check_budget(tol, max_iters)
    out = [_check_coefficient(K0)]
    for _ in range(max_iters):
        K = riccati_operator(problem, out[-1])
        out.append(K)
        step = abs(K - out[-2])
        if math.isnan(step):
            solve_riccati(problem)  # raises the ValueError naming the quantity
            raise _out_of_range("F(K)", problem)
        if step <= tol * max(1.0, abs(K)):
            return out
    last = out[-2] if len(out) > 1 else riccati_operator(problem, out[0])
    raise ConvergenceError(
        f"value iteration still moving after {max_iters} sweeps", abs(out[-1] - last)
    )


def newton_step(problem: ScalarLQProblem, K: float) -> NewtonStepResult:
    """Greedy gain at K and its exact cost.

    Because F_L for the greedy L is the tangent of F at K, the returned
    cost solves the linearized fixed-point equation
    K' = F(K) + F'(K) (K' - K): this is literally the Newton iterate for
    K = F(K), infinite when K sits outside the stability region.
    """
    K = _check_finite_coefficient(K)
    gain = _greedy(problem, K)
    return NewtonStepResult(K, gain, policy_cost(problem, gain))


def lookahead_step(
    problem: ScalarLQProblem,
    K_terminal: float,
    depth: int = 1,
    rollout_steps: int = 0,
    base: LinearGain | None = None,
) -> NewtonStepResult:
    """Multistep lookahead with an optional truncated-rollout tail.

    The terminal estimate is first pushed through rollout_steps sweeps of
    the base policy's F_L, then depth-1 sweeps of F; the greedy step is
    taken at the resulting effective start, so the whole construction is a
    Newton step from F^(depth-1)(F_base^rollout_steps(K_terminal)).
    """
    check_lookahead(depth, rollout_steps, base)
    if base is not None and not isinstance(base, LinearGain):
        raise ValueError(f"base must be a LinearGain, got {base!r}")
    if rollout_steps > 0 and not base.stable:
        raise ValueError(
            "truncated rollout needs a stable base policy "
            f"(closed loop {base.closed_loop!r})"
        )
    K = _check_finite_coefficient(K_terminal)
    for _ in range(rollout_steps):
        K = policy_operator(problem, base, K)
    for _ in range(depth - 1):
        K = riccati_operator(problem, K)
    # not newton_step: K is +inf when F_L overflowed on the last rollout sweep
    gain = greedy_gain(problem, K)
    return NewtonStepResult(K, gain, policy_cost(problem, gain))


def stability_region(problem: ScalarLQProblem) -> StabilityRegion:
    """Coefficients whose greedy policy is strictly stable.

    The greedy closed loop is a r / (r + b^2 K), so |a| < 1 makes every
    K >= 0 safe, while |a| >= 1 requires K strictly above
    K_S = r (|a| - 1) / b^2 (the point where F'(K_S) = 1; the boundary
    itself has closed loop on the unit circle and is excluded).  A b*b or
    K_S outside the double range raises a ValueError naming it.
    """
    p = problem
    if abs(p.a) < 1.0:
        return StabilityRegion(0.0, False)
    A = p.b * p.b
    if not _MIN_NORMAL <= A < math.inf:
        raise _out_of_range("b*b", p)
    threshold = p.r * (abs(p.a) - 1.0) / A
    if not math.isfinite(threshold):
        raise _out_of_range("the threshold K_S", p)
    return StabilityRegion(max(0.0, threshold), True)


def rollout(problem: ScalarLQProblem, base: LinearGain) -> NewtonStepResult:
    """Greedy one-step improvement of a stable linear policy.

    Evaluates the base exactly and takes the Newton step from its cost;
    the result can never cost more than the base.  An unstable base has no
    finite evaluation and is rejected.
    """
    if not base.stable:
        raise ValueError(
            f"rollout requires a stable base policy (closed loop {base.closed_loop!r})"
        )
    # a NaN gain prices a stable closed loop at NaN, which newton_step rejects
    return newton_step(problem, policy_cost(problem, base))


def policy_iteration(
    problem: ScalarLQProblem,
    start: LinearGain,
    tol: float = 1e-12,
    max_iters: int = 100,
) -> list[tuple[LinearGain, float]]:
    """Exact policy iteration from a stable linear policy.

    Alternates exact evaluation with the greedy step and returns the list
    of (gain, cost) pairs up to and including the first iterate whose cost
    is within tol of the optimal coefficient and whose gain is within tol
    of the optimal gain.  Each step is a Newton step at the previous cost,
    so the error is squared down and the loop ends after a handful of
    rounds (the gain trails the cost by one squaring, hence the second
    condition).
    """
    check_budget(tol, max_iters)
    if not start.stable:
        raise ValueError("policy iteration must start from a stable policy")
    K_opt = solve_riccati(problem)
    L_opt = _greedy(problem, K_opt)
    gain = start
    iterates: list[tuple[LinearGain, float]] = []
    for _ in range(max_iters):
        cost = policy_cost(problem, gain)
        iterates.append((gain, cost))
        if abs(cost - K_opt) <= tol and abs(gain.gain - L_opt.gain) <= tol:
            return iterates
        gain = greedy_gain(problem, cost)  # cost is inf if rounding lost stability
    last = iterates[-1][1] if iterates else policy_cost(problem, start)
    raise ConvergenceError(
        f"policy iteration failed to reach tol={tol} within {max_iters} rounds",
        abs(last - K_opt),
    )

