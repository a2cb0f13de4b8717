"""Adaptive control by rollout when the plant drifts away from the design.

A controller is designed once, for a nominal scalar LQ problem, and the true
coefficients (b, r) then change under it.  Three experiments quantify what
rollout buys in that situation:

* robustness sweep: the quadratic cost of (optimal, rollout, fixed gain)
  across a grid of true coefficients, the fixed gain never re-tuned;
* replanning simulation: a closed-loop run under a piecewise-constant
  parameter schedule, replanning per mode at every switch;
* ratio decay: the distance-contraction factor of the one-step greedy map
  near its fixed point, which shrinks linearly with the distance itself.

Parameter changes are assumed known the moment they happen; estimating them
is a separate concern and no estimator lives here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import check_count
from .lq import (
    LinearGain,
    ScalarLQProblem,
    greedy_gain,
    newton_step,
    policy_cost,
    rollout,
    solve_riccati,
    stability_region,
)

__all__ = [
    "MODES",
    "NominalDesign",
    "SweepPoint",
    "ReplanTrace",
    "default_b_grid",
    "default_r_grid",
    "robustness_sweep",
    "replan_simulation",
    "superlinear_ratios",
]

MODES = ("fixed_base", "rollout_replan", "oracle_reoptimize")

DIVERGENCE_LIMIT = 1e12


class _DesignFields(NamedTuple):
    nominal: ScalarLQProblem
    fixed_gain: LinearGain


class NominalDesign(_DesignFields):
    """A problem together with the gain that is optimal for it.

    The gain is frozen at design time; experiments then apply it to other
    problems.  An immutable tuple whose every constructor (the call, _make
    and _replace) rejects a gain that is not optimal for the nominal
    problem to 1e-12, a NaN gain included.
    """

    __slots__ = ()

    def __new__(cls, nominal: ScalarLQProblem, fixed_gain: LinearGain):
        best = greedy_gain(nominal, solve_riccati(nominal))
        if not abs(fixed_gain.gain - best.gain) <= 1e-12 * max(1.0, abs(best.gain)):
            raise ValueError(
                f"fixed_gain {fixed_gain.gain!r} is not optimal for the "
                f"nominal problem (expected {best.gain!r})"
            )
        return tuple.__new__(cls, (nominal, fixed_gain))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def for_problem(cls, problem: ScalarLQProblem) -> "NominalDesign":
        return cls(problem, greedy_gain(problem, solve_riccati(problem)))


class SweepPoint(NamedTuple):
    """One grid point of the robustness sweep, in output column order."""

    b: float
    r: float
    K_star: float
    K_rollout: float
    K_L: float


def default_b_grid() -> tuple[float, ...]:
    """Gain-coefficient axis of the documented sweep: 0.5 to 3.0, step 0.05."""
    return tuple(0.5 + i * 0.05 for i in range(51))


def default_r_grid() -> tuple[float, ...]:
    """Control-weight axis of the documented sweep: 0.1 to 2.0, step 0.05."""
    return tuple(0.1 + i * 0.05 for i in range(39))


def robustness_sweep(design, b_grid, r_grid) -> list[SweepPoint]:
    """Optimal, rollout, and fixed-gain cost coefficients over a (b, r) grid.

    The fixed gain keeps its design value while the true problem takes each
    grid value; its closed loop is re-derived under the true b, once per b
    row since it does not depend on r.  Where that closed loop is unstable
    both the fixed-gain cost and its rollout cost are +inf; elsewhere the
    rollout prices the fixed gain once, as its effective start.  Points are
    emitted b-major in input order.
    """
    b_grid = [float(b) for b in b_grid]
    r_grid = [float(r) for r in r_grid]
    if not b_grid or not r_grid:
        raise ValueError("sweep grids must be nonempty")
    a, q = design.nominal.a, design.nominal.q
    rows = []
    for b in b_grid:
        base = None
        for r in r_grid:
            p = ScalarLQProblem(a, b, q, r)
            optimal = solve_riccati(p)
            if base is None:  # a + b*L is the same for every r of the row
                base = LinearGain.from_gain(p, design.fixed_gain.gain)
            if base.stable:
                step = rollout(p, base)
                cost_fixed, cost_rollout = step.effective_start, step.cost
            else:
                cost_fixed = cost_rollout = math.inf
            rows.append(SweepPoint(b, r, optimal, cost_rollout, cost_fixed))
    return rows


class ReplanTrace(NamedTuple):
    """A closed-loop run, recorded step by step.

    states holds x_0..x_T, the other per-step tuples hold entries 0..T-1;
    T < horizon only when the run tripped the divergence limit.  tail_bound
    is the active controller's quadratic coefficient times the final state
    squared, an upper bound on the cost ignored by truncating the horizon.
    An immutable tuple.
    """

    mode: str
    schedule: tuple[tuple[int, float, float], ...]
    states: tuple[float, ...]
    controls: tuple[float, ...]
    stage_costs: tuple[float, ...]
    params: tuple[tuple[float, float], ...]
    gains: tuple[float, ...]
    total_cost: float
    tail_bound: float
    diverged: bool


def _normalized_schedule(design, schedule):
    entries = []
    for i, entry in enumerate(schedule):
        try:
            time, b, r = entry
        except (TypeError, ValueError):
            raise ValueError(f"schedule[{i}]: expected a (time, b, r) triple") from None
        check_count(time, f"schedule[{i}]: time")
        # constructing the problem validates b and r
        ScalarLQProblem(design.nominal.a, float(b), design.nominal.q, float(r))
        entries.append((time, float(b), float(r)))
    if not entries:
        raise ValueError("schedule must be nonempty")
    if entries[0][0] != 0:
        raise ValueError("schedule must cover time 0 with its first entry")
    for i in range(1, len(entries)):
        if entries[i][0] <= entries[i - 1][0]:
            raise ValueError("schedule times must be strictly increasing")
    return tuple(entries)


def _segment_gain(design, problem, mode) -> float:
    if mode == "fixed_base":
        return design.fixed_gain.gain
    if mode == "oracle_reoptimize":
        return greedy_gain(problem, solve_riccati(problem)).gain
    # rollout against the designed gain as base.  An unstable base prices
    # itself at +inf, and the greedy step against +inf is the deadbeat gain,
    # so replanning recovers even after a destabilizing parameter flip.
    base = LinearGain.from_gain(problem, design.fixed_gain.gain)
    return greedy_gain(problem, policy_cost(problem, base)).gain


def replan_simulation(design, schedule, x0, horizon=40, mode="rollout_replan") -> ReplanTrace:
    """Simulate the closed loop under a piecewise-constant (b, r) schedule.

    schedule entries are (time, b, r), strictly increasing times starting at
    0; the entry with the largest time <= k is active at step k.  The
    controller gain is recomputed at every switch according to mode:

      fixed_base        keep the designed gain, never replan
      rollout_replan    greedy step against the designed gain's current cost
      oracle_reoptimize exact optimal gain of the current problem

    Costs accumulate undiscounted.  A state beyond the divergence limit ends
    the run with diverged=True and an infinite tail bound, not an exception.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    check_count(horizon, "horizon", 1)
    x0 = float(x0)
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0!r}")
    entries = _normalized_schedule(design, schedule)

    a, q = design.nominal.a, design.nominal.q
    x = x0
    states = [x0]
    controls: list[float] = []
    stage_costs: list[float] = []
    params: list[tuple[float, float]] = []
    gains: list[float] = []
    total = 0.0
    seg = -1
    problem = None
    gain = math.nan
    b = r = math.nan
    diverged = False
    for k in range(horizon):
        while seg + 1 < len(entries) and entries[seg + 1][0] <= k:
            seg += 1
            _, b, r = entries[seg]
            problem = ScalarLQProblem(a, b, q, r)
            gain = _segment_gain(design, problem, mode)
        u = gain * x
        cost = q * x * x + r * u * u
        total += cost
        controls.append(u)
        stage_costs.append(cost)
        params.append((b, r))
        gains.append(gain)
        x = a * x + b * u
        states.append(x)
        if abs(x) > DIVERGENCE_LIMIT:
            diverged = True
            break

    if diverged:
        tail = math.inf
    else:
        tail = policy_cost(problem, LinearGain.from_gain(problem, gain)) * x * x
    return ReplanTrace(
        mode=mode,
        schedule=entries,
        states=tuple(states),
        controls=tuple(controls),
        stage_costs=tuple(stage_costs),
        params=tuple(params),
        gains=tuple(gains),
        total_cost=total,
        tail_bound=tail,
        diverged=diverged,
    )


def superlinear_ratios(problem: ScalarLQProblem, k_grid=None):
    """Contraction ratios (step(K) - K_opt)/(K - K_opt) of the greedy map.

    Defaults to the geometric grid K_opt + 2^-i for i = 0..19.  Returns
    (points, skipped): points is a list of (K, ratio) for grid values inside
    the stability region, skipped lists the values outside it.  The exact
    fixed point is rejected (0/0).

    Above the fixed point the ratios obey the Newton bound: for K > K_opt,
    0 < ratio <= g * (K - K_opt) with
    g = a^2 b^2 r^2 / ((r + b^2 K_opt) ((r + b^2 K_opt)^2 - a^2 r^2)),
    up to the rounding of step(K) - K_opt, a few ulps of K_opt divided by
    K - K_opt.  They shrink linearly with the distance, but they need not
    decrease monotonically.
    """
    opt = solve_riccati(problem)
    region = stability_region(problem)
    if k_grid is None:
        k_grid = [opt + 2.0 ** (-i) for i in range(20)]
    points: list[tuple[float, float]] = []
    skipped: list[float] = []
    for K in k_grid:
        K = float(K)
        if K == opt:
            raise ValueError("the ratio is undefined at the fixed point itself")
        if K < 0.0 or not region.contains(K):
            skipped.append(K)
            continue
        stepped = newton_step(problem, K)
        points.append((K, (stepped.cost - opt) / (K - opt)))
    return points, skipped
