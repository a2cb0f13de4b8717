"""Worked examples for the scalar LQ core.

Expected values come from independent closed forms: fixed points from the
quadratic formula, policy costs from the geometric series, Newton iterates
from the linearized equation. Derived decimals were computed with those
oracles and frozen here.
"""

import math
import pickle
import re

import pytest

from dpnewton.errors import ConvergenceError
from dpnewton.lq import (
    LinearGain,
    NewtonStepResult,
    ScalarLQProblem,
    StabilityRegion,
    greedy_gain,
    lookahead_step,
    newton_step,
    policy_cost,
    policy_iteration,
    policy_operator,
    riccati_operator,
    rollout,
    solve_riccati,
    stability_region,
    value_iteration,
)
from util import lq_exact_residual_oracle, lq_newton_oracle, lq_policy_cost_oracle

NOMINAL = ScalarLQProblem(1.0, 2.0, 1.0, 0.5)
# Fixed point of K = 0.5 K/(0.5+4K) + 1, i.e. 8K^2 - 8K - 1 = 0.
NOMINAL_K = (2.0 + math.sqrt(6.0)) / 4.0
NOMINAL_L = -(2.0 + math.sqrt(6.0)) / (5.0 + 2.0 * math.sqrt(6.0))

UNIT_B = ScalarLQProblem(1.0, 1.0, 1.0, 0.5)
# Fixed point of K = 0.5 K/(0.5+K) + 1, i.e. K^2 - K - 0.5 = 0.
UNIT_B_K = (1.0 + math.sqrt(3.0)) / 2.0


def test_problem_validation():
    with pytest.raises(ValueError):
        ScalarLQProblem(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ScalarLQProblem(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ScalarLQProblem(1.0, 1.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        ScalarLQProblem(math.inf, 1.0, 1.0, 1.0)


BAD_COEFFICIENTS = [
    ((1.0, 0.0, 1.0, 1.0), "b must be nonzero (the control must act on the state)"),
    ((1.0, -0.0, 1.0, 1.0), "b must be nonzero (the control must act on the state)"),
    ((1.0, 1.0, 0.0, 1.0), "q must be positive"),
    ((1.0, 1.0, -1.0, 1.0), "q must be positive"),
    ((1.0, 1.0, 1.0, 0.0), "r must be positive"),
    ((1.0, 1.0, 1.0, -2.0), "r must be positive"),
    ((math.inf, 1.0, 1.0, 1.0), "a must be a finite real, got inf"),
    ((1.0, math.nan, 1.0, 1.0), "b must be a finite real, got nan"),
    ((1.0, 1.0, -math.inf, 1.0), "q must be a finite real, got -inf"),
    ((1.0, 1.0, 1.0, "0.5"), "r must be a finite real, got '0.5'"),
    # every entry is tested for a finite real first, in a, b, q, r order
    ((1.0, 0.0, 0.0, math.nan), "r must be a finite real, got nan"),
    ((1.0, 0.0, 0.0, 0.0), "b must be nonzero (the control must act on the state)"),
    ((1.0, 1.0, 0.0, 0.0), "q must be positive"),
]

CONSTRUCTORS = {
    "call": lambda c: ScalarLQProblem(*c),
    "keywords": lambda c: ScalarLQProblem(**dict(zip("abqr", c))),
    "make": lambda c: ScalarLQProblem._make(c),
    "replace": lambda c: NOMINAL._replace(**dict(zip("abqr", c))),
}


@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
@pytest.mark.parametrize("coefficients, message", BAD_COEFFICIENTS)
def test_every_problem_constructor_validates(build, coefficients, message):
    with pytest.raises(ValueError) as err:
        build(coefficients)
    assert str(err.value) == message
    built = build((1.0, 2.0, 1.0, 0.5))
    assert type(built) is ScalarLQProblem and built == NOMINAL


def test_value_types_are_immutable_tuples():
    gain = LinearGain(0.5, 0.25)
    step = NewtonStepResult(1.0, gain, 2.0)
    region = StabilityRegion(0.0, False)
    for value, field in ((NOMINAL, "b"), (gain, "gain"), (step, "cost"), (region, "open")):
        with pytest.raises(AttributeError):
            setattr(value, field, 3.0)
        with pytest.raises(AttributeError):
            value.extra = 1.0
        assert getattr(value, field) != 3.0
    assert repr(NOMINAL) == "ScalarLQProblem(a=1.0, b=2.0, q=1.0, r=0.5)"
    assert repr(step) == (
        "NewtonStepResult(effective_start=1.0, "
        "gain=LinearGain(gain=0.5, closed_loop=0.25), cost=2.0)"
    )
    assert repr(region) == "StabilityRegion(threshold=0.0, open=False)"
    twin = ScalarLQProblem(1.0, 2.0, 1.0, 0.5)
    assert twin is not NOMINAL and twin == NOMINAL and hash(twin) == hash(NOMINAL)
    assert LinearGain(0.5, 0.25) == gain and hash(LinearGain(0.5, 0.25)) == hash(gain)
    assert pickle.loads(pickle.dumps(NOMINAL)) == NOMINAL


def test_stability_is_strict():
    assert not LinearGain(0.0, 1.0).stable
    assert not LinearGain(0.0, -1.0).stable
    assert not LinearGain(0.0, math.nan).stable
    assert LinearGain(0.0, math.nextafter(1.0, 0.0)).stable
    assert LinearGain(0.0, -math.nextafter(1.0, 0.0)).stable


def test_riccati_operator_values():
    assert riccati_operator(NOMINAL, 0.0) == 1.0  # F(0) = q
    assert riccati_operator(NOMINAL, 1.0) == pytest.approx(0.5 / 4.5 + 1.0, rel=1e-15)
    # the operator accepts an infinite estimate and returns its finite limit
    assert riccati_operator(NOMINAL, math.inf) == pytest.approx(
        0.5 / 4.0 + 1.0, rel=1e-15
    )
    with pytest.raises(ValueError):
        riccati_operator(NOMINAL, -0.5)


def test_policy_operator_values():
    # deadbeat gain L = -a/b: closed loop 0, so F_L(K) = q + r L^2
    dead = LinearGain.from_gain(NOMINAL, -0.5)
    assert dead.closed_loop == 0.0
    assert policy_operator(NOMINAL, dead, 7.0) == pytest.approx(1.125, rel=1e-15)
    # the optimal gain fixes the optimal coefficient
    opt = LinearGain.from_gain(NOMINAL, NOMINAL_L)
    assert policy_operator(NOMINAL, opt, NOMINAL_K) == pytest.approx(
        NOMINAL_K, rel=1e-14
    )
    # L = 0: pure plant, F_0(K) = a^2 K + q
    idle = LinearGain.from_gain(NOMINAL, 0.0)
    assert policy_operator(NOMINAL, idle, 1.0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        policy_operator(NOMINAL, idle, math.inf)


def test_solve_riccati_closed_forms():
    assert solve_riccati(NOMINAL) == pytest.approx(NOMINAL_K, rel=1e-14)
    assert solve_riccati(UNIT_B) == pytest.approx(UNIT_B_K, rel=1e-14)
    # a = 0 collapses F to the constant q
    assert solve_riccati(ScalarLQProblem(0.0, 1.0, 3.0, 1.0)) == pytest.approx(
        3.0, rel=1e-14
    )


def test_solve_riccati_residual_across_extreme_b():
    for b in (1e-3, 0.2, 1.0, 37.0, 1e3):
        for a in (-2.0, -1.0, 0.3, 1.0, 2.0):
            p = ScalarLQProblem(a, b, 0.7, 2.3)
            K = solve_riccati(p)
            assert abs(riccati_operator(p, K) - K) <= 1e-12 * max(1.0, K)


def test_solve_riccati_where_the_newton_slope_rounds_to_one():
    # K* = 1e-150 makes F'(K*) = 1 in double precision, so the polish has no
    # Newton step to take and the closed-form root must stand on its own
    p = ScalarLQProblem(1.0, 1.0, 1e-300, 1.0)
    K = solve_riccati(p)
    assert lq_exact_residual_oracle(p.a, p.b, p.q, p.r, K) <= 1e-12


def test_non_convergence_raises_with_a_finite_residual():
    p = ScalarLQProblem(1.0, 0.7, 0.5, 1.0)
    with pytest.raises(ConvergenceError) as err:
        solve_riccati(p, tol=0.0)
    assert 0.0 < err.value.residual < 1e-15
    assert str(err.value).count("residual") == 1
    with pytest.raises(ConvergenceError) as err:
        policy_iteration(NOMINAL, LinearGain.from_gain(NOMINAL, -0.5), max_iters=1)
    assert math.isfinite(err.value.residual) and err.value.residual > 1e-12
    assert str(err.value).count("residual") == 1


def test_a_budget_no_run_can_meet_is_invalid():
    start = LinearGain.from_gain(NOMINAL, -0.5)
    for call, message in (
        (lambda: solve_riccati(NOMINAL, tol=-1e-12), "tol must be a nonnegative real, got -1e-12"),
        (lambda: solve_riccati(NOMINAL, tol=math.nan), "tol must be a nonnegative real, got nan"),
        (lambda: policy_iteration(NOMINAL, start, tol=-1.0),
         "tol must be a nonnegative real, got -1.0"),
        (lambda: policy_iteration(NOMINAL, start, max_iters=-1),
         "max_iters must be an integer >= 0, got -1"),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    # a zero budget is a valid request that cannot converge
    with pytest.raises(ConvergenceError):
        policy_iteration(NOMINAL, start, max_iters=0)


def test_policy_cost_overflow_is_a_value_error():
    # both gains are stable, so an infinite cost would claim the opposite
    steep = ScalarLQProblem(1e100, 1e-60, 1.0, 1.0)
    heavy = ScalarLQProblem(1e100, 1e-50, 1.0, 1e10)
    for p, gain in ((steep, -1e160), (heavy, -1e150)):
        base = LinearGain.from_gain(p, gain)
        assert base.stable
        with pytest.raises(ValueError, match="policy cost"):
            policy_cost(p, base)


def test_greedy_gain_values():
    g = greedy_gain(NOMINAL, NOMINAL_K)
    assert g.gain == pytest.approx(NOMINAL_L, rel=1e-14)
    assert g.stable
    assert greedy_gain(NOMINAL, 0.0).gain == 0.0
    # marginally stable greedy loop: a=2, b=1, r=1, K=1 gives closed loop 1
    marginal = greedy_gain(ScalarLQProblem(2.0, 1.0, 1.0, 1.0), 1.0)
    assert marginal.gain == pytest.approx(-1.0, rel=1e-15)
    assert marginal.closed_loop == pytest.approx(1.0, rel=1e-15)
    assert not marginal.stable
    # documented limit at an infinite estimate: deadbeat
    dead = greedy_gain(NOMINAL, math.inf)
    assert dead.gain == -0.5 and dead.closed_loop == 0.0


def test_greedy_gain_closed_loop_identity():
    # a + b L must match a r/(r + b^2 K); both forms are carried to 1e-14
    for K in (0.0, 0.3, 1.0, 5.0, 42.0):
        for p in (NOMINAL, UNIT_B, ScalarLQProblem(-1.7, 0.4, 2.0, 3.0)):
            g = greedy_gain(p, K)
            direct = p.a + p.b * g.gain
            assert abs(direct - g.closed_loop) <= 1e-14 * max(1.0, abs(direct))


def test_policy_cost_values():
    assert policy_cost(NOMINAL, LinearGain.from_gain(NOMINAL, -0.5)) == pytest.approx(
        1.125, rel=1e-15
    )
    assert policy_cost(NOMINAL, LinearGain.from_gain(NOMINAL, NOMINAL_L)) == pytest.approx(
        NOMINAL_K, rel=1e-13
    )
    # closed loop exactly 1: infinite cost, no exception
    assert policy_cost(NOMINAL, LinearGain.from_gain(NOMINAL, 0.0)) == math.inf
    assert policy_cost(
        ScalarLQProblem(1.5, 1.0, 1.0, 1.0), LinearGain.from_gain(ScalarLQProblem(1.5, 1.0, 1.0, 1.0), -0.5)
    ) == math.inf


def test_value_iterate_prefix():
    seq = value_iteration(NOMINAL, 0.0)[:4]
    assert seq[0] == 0.0
    assert seq[1] == 1.0
    assert seq[2] == pytest.approx(1.1111111111111112, rel=1e-15)
    assert seq[3] == pytest.approx(1.1123595505617978, rel=1e-15)
    # one sweep of the a = 0 problem lands on q immediately
    flat = value_iteration(ScalarLQProblem(0.0, 1.0, 3.0, 1.0), 7.0)[:2]
    assert flat == [7.0, 3.0]


def test_value_iterate_monotone_both_sides():
    up = value_iteration(NOMINAL, 0.0)[:51]
    down = value_iteration(NOMINAL, 10.0)[:51]
    slack = 4e-16 * max(1.0, NOMINAL_K)
    assert all(b >= a - slack for a, b in zip(up, up[1:]))
    assert all(b <= a + slack for a, b in zip(down, down[1:]))
    assert up[-1] == pytest.approx(NOMINAL_K, abs=1e-12)
    assert down[-1] == pytest.approx(NOMINAL_K, abs=1e-12)


def test_value_iteration_stopping_rule_and_budget():
    # the sweep that moves K by at most tol * max(1, |F(K)|) ends the run
    # and is counted
    assert value_iteration(ScalarLQProblem(0.0, 1.0, 3.0, 1.0), 7.0) == [7.0, 3.0, 3.0]
    from_inf = value_iteration(NOMINAL, math.inf)
    assert from_inf[:2] == [math.inf, riccati_operator(NOMINAL, math.inf)]
    assert from_inf[-1] == pytest.approx(NOMINAL_K, rel=1e-12)
    # out of sweeps: the residual is the last step, or |F(K0) - K0| with none
    for max_iters, residual in ((0, 1.0), (1, 1.0), (2, 1.0 / 9.0)):
        with pytest.raises(ConvergenceError) as err:
            value_iteration(NOMINAL, 0.0, tol=0.0, max_iters=max_iters)
        assert err.value.residual == pytest.approx(residual, rel=1e-15)
        assert str(err.value).startswith(
            f"value iteration still moving after {max_iters} sweeps (residual "
        )
    # the budget is checked before the start value
    with pytest.raises(ValueError, match="^tol must be"):
        value_iteration(NOMINAL, -1.0, tol=-1.0)
    with pytest.raises(ValueError, match="^quadratic coefficient must be nonnegative"):
        value_iteration(NOMINAL, -1.0, max_iters=0)


def test_value_iteration_out_of_the_double_range_names_the_quantity():
    # a*a overflows: from 0 the first sweep is 0*inf, from inf every sweep
    # is inf and the step inf - inf; both name what solve_riccati names
    problem = ScalarLQProblem(1e200, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError) as solved:
        solve_riccati(problem)
    assert str(solved.value).startswith("r - a*a*r - q*b*b leaves the double range at a=")
    for start in (0.0, math.inf):
        with pytest.raises(ValueError) as err:
            value_iteration(problem, start)
        assert str(err.value) == str(solved.value)


def test_newton_step_examples():
    # at the fixed point the step stays put
    at_opt = newton_step(NOMINAL, NOMINAL_K)
    assert at_opt.cost == pytest.approx(NOMINAL_K, rel=1e-13)
    # K = 0 gives the idle gain, closed loop a = 1: infinite cost
    at_zero = newton_step(NOMINAL, 0.0)
    assert at_zero.gain.gain == 0.0
    assert at_zero.gain.closed_loop == 1.0
    assert at_zero.cost == math.inf
    # frozen derived point used by the adaptive experiments: K = 1.579796
    res = newton_step(UNIT_B, 1.579796)
    assert res.gain.gain == pytest.approx(-0.7595918061194463, rel=1e-12)
    assert res.cost == pytest.approx(1.3675276185239804, rel=1e-12)
    # ... and the step agrees with the linearized-equation oracle
    assert res.cost == pytest.approx(
        lq_newton_oracle(1.0, 1.0, 1.0, 0.5, 1.579796), rel=1e-12
    )


def test_lookahead_step_composition():
    # depth 2 from a zero terminal estimate starts the Newton step at F(0) = q
    deeper = lookahead_step(NOMINAL, 0.0, depth=2)
    assert deeper.effective_start == pytest.approx(1.0, rel=1e-15)
    assert math.isfinite(deeper.cost)
    # depth 1 from the same terminal estimate is outside the region
    assert lookahead_step(NOMINAL, 0.0, depth=1).cost == math.inf
    # four base sweeps then the greedy step: finite as well
    base = greedy_gain(NOMINAL, NOMINAL_K)
    trunc = lookahead_step(NOMINAL, 0.0, depth=1, rollout_steps=4, base=base)
    expected = 0.0
    for _ in range(4):
        expected = base.closed_loop ** 2 * expected + 1.0 + 0.5 * base.gain ** 2
    assert trunc.effective_start == pytest.approx(expected, rel=1e-13)
    assert math.isfinite(trunc.cost)
    with pytest.raises(ValueError):
        lookahead_step(NOMINAL, 0.0, depth=0)
    with pytest.raises(ValueError):
        lookahead_step(NOMINAL, 0.0, rollout_steps=2)  # no base supplied
    # an unstable base is reported before the terminal coefficient
    unstable = LinearGain.from_gain(NOMINAL, 0.0)
    with pytest.raises(ValueError, match="^truncated rollout needs a stable base policy"):
        lookahead_step(NOMINAL, math.nan, rollout_steps=2, base=unstable)
    # no rollout reads no base
    assert lookahead_step(NOMINAL, 1.0, base=unstable) == lookahead_step(NOMINAL, 1.0)


def test_stability_region_examples():
    # solve F'(K) = 1 for a=2,b=1,q=1,r=1: 4/(1+K)^2 = 1 so K = 1
    region = stability_region(ScalarLQProblem(2.0, 1.0, 1.0, 1.0))
    assert region.threshold == pytest.approx(1.0, rel=1e-15)
    assert region.open
    assert not region.contains(1.0) and region.contains(1.0 + 1e-9)
    # |a| < 1: everything is safe including K = 0
    region = stability_region(ScalarLQProblem(0.5, 1.0, 1.0, 1.0))
    assert region.threshold == 0.0 and not region.open
    assert region.contains(0.0)
    # |a| = 1: threshold 0 but the boundary is excluded
    region = stability_region(NOMINAL)
    assert region.threshold == 0.0 and region.open
    assert not region.contains(0.0)
    assert newton_step(NOMINAL, 0.0).cost == math.inf
    assert math.isfinite(newton_step(NOMINAL, 1e-6).cost)


def test_stability_region_out_of_the_double_range_names_the_quantity():
    for a, b, r, named in (
        (2.0, 1e-200, 1.0, "b*b"),      # b*b underflows to zero
        (1e308, 1e-308, 1.0, "b*b"),
        (2.0, 1e-160, 1.0, "b*b"),      # subnormal b*b: the threshold read inf
        (1e300, 1.0, 1e300, "the threshold K_S"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(named)} leaves the double range"):
            stability_region(ScalarLQProblem(a, b, 1.0, r))


def test_rollout_examples():
    # rollout of the optimal gain is a fixed point
    opt = greedy_gain(NOMINAL, solve_riccati(NOMINAL))
    res = rollout(NOMINAL, opt)
    assert res.gain.gain == pytest.approx(NOMINAL_L, rel=1e-12)
    assert res.cost == pytest.approx(NOMINAL_K, rel=1e-12)
    # frozen derived chain at b = 1 with the nominal design's truncated gain
    base = LinearGain.from_gain(UNIT_B, -0.4494897)
    res = rollout(UNIT_B, base)
    k_base = lq_policy_cost_oracle(1.0, 1.0, 1.0, 0.5, -0.4494897)
    assert k_base == pytest.approx(1.5797959762966491, rel=1e-12)
    assert res.effective_start == pytest.approx(k_base, rel=1e-12)
    assert res.cost == pytest.approx(1.367527618227185, rel=1e-12)
    assert UNIT_B_K <= res.cost <= k_base
    # deadbeat base: evaluation is q + r L^2, then one greedy step
    dead = LinearGain.from_gain(NOMINAL, -0.5)
    res = rollout(NOMINAL, dead)
    assert res.effective_start == pytest.approx(1.125, rel=1e-14)
    # unstable base is rejected outright
    with pytest.raises(ValueError):
        rollout(NOMINAL, LinearGain.from_gain(NOMINAL, 0.0))


def test_policy_iteration_examples():
    opt = greedy_gain(NOMINAL, solve_riccati(NOMINAL))
    single = policy_iteration(NOMINAL, opt, tol=1e-12)
    assert len(single) == 1
    iterates = policy_iteration(NOMINAL, LinearGain.from_gain(NOMINAL, -0.5), tol=1e-12)
    assert len(iterates) <= 6
    costs = [cost for _, cost in iterates]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert costs[-1] == pytest.approx(NOMINAL_K, abs=1e-12)
    assert iterates[-1][0].gain == pytest.approx(NOMINAL_L, abs=1e-12)
    # monotone descent from a conservative start on the b = 1 problem
    iterates = policy_iteration(UNIT_B, LinearGain.from_gain(UNIT_B, -0.9), tol=1e-12)
    costs = [cost for _, cost in iterates]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert costs[-1] == pytest.approx(UNIT_B_K, abs=1e-12)
    with pytest.raises(ValueError):
        policy_iteration(NOMINAL, LinearGain.from_gain(NOMINAL, 0.0))


def double_newton(p, K):
    """Two chained Newton steps: the greedy gain at K, then its rollout."""
    return rollout(p, greedy_gain(p, K))


def test_double_newton_examples():
    # idempotent at the fixed point
    assert double_newton(NOMINAL, NOMINAL_K).cost == pytest.approx(
        NOMINAL_K, rel=1e-12
    )
    # from a pessimistic start the pair beats the single step, and at
    # K = 5 it also beats two-step lookahead (near the boundary it need
    # not: the first step overshoots while a plain sweep jumps to ~q)
    two = double_newton(NOMINAL, 5.0)
    assert two.cost <= newton_step(NOMINAL, 5.0).cost + 1e-12
    assert two.cost <= lookahead_step(NOMINAL, 5.0, depth=2).cost + 1e-12
    assert two.cost == pytest.approx(1.1123728709589547, rel=1e-12)
    # just inside the open region: still finite, still an improvement
    near = double_newton(NOMINAL, 0.01)
    assert math.isfinite(near.cost)
    assert near.cost == pytest.approx(1.1210048517860116, rel=1e-12)
    assert near.cost <= newton_step(NOMINAL, 0.01).cost + 1e-12
    # K = 0 sits on the (excluded) boundary for the nominal problem
    with pytest.raises(ValueError):
        double_newton(NOMINAL, 0.0)


def test_rollout_rejects_the_nan_cost_of_a_nan_gain():
    # -a b K and r + b^2 K both overflow at K = 1e300: the greedy gain is
    # NaN while its closed loop a r / s is 0, so the rollout prices NaN
    p = ScalarLQProblem(1.0, 1e10, 1.0, 1.0)
    first = greedy_gain(p, 1e300)
    assert math.isnan(first.gain) and first.stable
    for step in (lambda: double_newton(p, 1e300), lambda: rollout(p, first)):
        with pytest.raises(ValueError) as err:
            step()
        assert str(err.value) == "quadratic coefficient must be nonnegative, got nan"
