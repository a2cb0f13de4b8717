"""Adaptive-control experiments: robustness sweep, replanning, ratio decay.

Frozen decimals come from an independent closed-form chain (quadratic
formula, tangent-line fixed points, hand-stepped simulations) evaluated
outside this package.
"""

import math
import random

import pytest

from dpnewton.adaptive import (
    MODES,
    NominalDesign,
    ReplanTrace,
    SweepPoint,
    default_b_grid,
    default_r_grid,
    replan_simulation,
    robustness_sweep,
    superlinear_ratios,
)
from dpnewton.lq import LinearGain, ScalarLQProblem, policy_cost, rollout, solve_riccati

from util import lq_newton_ratio_slope_oracle

NOMINAL = ScalarLQProblem(1.0, 2.0, 1.0, 0.5)
NOMINAL_K = 1.1123724356957945  # (2 + sqrt 6)/4
FIXED_GAIN = -0.4494897427831781


@pytest.fixture(scope="module")
def design():
    return NominalDesign.for_problem(NOMINAL)


DESIGN_CONSTRUCTORS = {
    "call": lambda gain: NominalDesign(NOMINAL, gain),
    "keywords": lambda gain: NominalDesign(nominal=NOMINAL, fixed_gain=gain),
    "make": lambda gain: NominalDesign._make((NOMINAL, gain)),
    "replace": lambda gain: NominalDesign.for_problem(NOMINAL)._replace(fixed_gain=gain),
}


@pytest.mark.parametrize("build", DESIGN_CONSTRUCTORS.values(), ids=DESIGN_CONSTRUCTORS.keys())
@pytest.mark.parametrize("gain", [-0.4, math.nan, math.inf, -math.inf])
def test_every_design_constructor_demands_the_optimal_gain(build, gain, design):
    with pytest.raises(ValueError) as err:
        build(LinearGain(gain, NOMINAL.a + NOMINAL.b * gain))
    assert str(err.value) == (
        f"fixed_gain {gain!r} is not optimal for the nominal problem "
        f"(expected {FIXED_GAIN!r})"
    )
    built = build(design.fixed_gain)
    assert type(built) is NominalDesign and built == design


def test_design_demands_the_optimal_gain(design):
    assert design.fixed_gain.gain == pytest.approx(FIXED_GAIN, abs=1e-15)
    with pytest.raises(ValueError):
        NominalDesign(NOMINAL, LinearGain.from_gain(NOMINAL, -0.4))
    with pytest.raises(AttributeError):
        design.fixed_gain = LinearGain(-0.4, 0.2)
    assert repr(design) == (
        "NominalDesign(nominal=ScalarLQProblem(a=1.0, b=2.0, q=1.0, r=0.5), "
        f"fixed_gain={design.fixed_gain!r})"
    )


def test_sweep_nominal_point_coincides(design):
    (point,) = robustness_sweep(design, [2.0], [0.5])
    assert point.K_star == pytest.approx(NOMINAL_K, rel=1e-12)
    assert point.K_rollout == pytest.approx(point.K_star, rel=1e-12)
    assert point.K_L == pytest.approx(point.K_star, rel=1e-12)


def test_sweep_detuned_point_frozen_values(design):
    (point,) = robustness_sweep(design, [1.0], [0.5])
    # (1 + sqrt 3)/2, then the fixed-gain cost and one greedy improvement
    assert point.K_star == pytest.approx(1.3660254037844386, rel=1e-12)
    assert point.K_rollout == pytest.approx(1.367527617235709, rel=1e-12)
    assert point.K_L == pytest.approx(1.579795897113271, rel=1e-12)


def test_sweep_unstable_point_encodes_infinity(design):
    # |1 + 5 * fixed_gain| = 1.247 >= 1: the designed gain cannot hold b=5
    (point,) = robustness_sweep(design, [5.0], [0.5])
    assert math.isfinite(point.K_star)
    assert point.K_L == math.inf
    assert point.K_rollout == math.inf


def test_sweep_ordering_and_layout_on_default_grids(design):
    by_b = robustness_sweep(design, default_b_grid(), [0.5])
    by_r = robustness_sweep(design, [2.0], default_r_grid())
    assert len(by_b) == 51 and len(by_r) == 39
    assert [p.b for p in by_b] == sorted(p.b for p in by_b)
    for point in by_b + by_r:
        assert math.isfinite(point.K_star)
        if math.isfinite(point.K_L):
            assert point.K_star <= point.K_rollout + 1e-9
            assert point.K_rollout <= point.K_L + 1e-9
        else:
            assert point.K_rollout == math.inf
    # both default panels stay inside the stable envelope of the fixed gain
    assert all(math.isfinite(p.K_L) for p in by_b + by_r)


def test_sweep_rejects_empty_grids(design):
    with pytest.raises(ValueError):
        robustness_sweep(design, [], [0.5])
    with pytest.raises(ValueError):
        robustness_sweep(design, [2.0], [])


def test_sweep_calls_the_traced_functions_once_per_point(design, monkeypatch):
    # perfbench's traced run times the lq.solve_riccati and lq.rollout spans:
    # one solve per grid point, one rollout per point with a stable base
    import dpnewton.adaptive as adaptive_module

    calls = {"solve": 0, "rollout": 0}

    def counting_solve(p, *args, **kwargs):
        calls["solve"] += 1
        return solve_riccati(p, *args, **kwargs)

    def counting_rollout(p, base):
        calls["rollout"] += 1
        return rollout(p, base)

    monkeypatch.setattr(adaptive_module, "solve_riccati", counting_solve)
    monkeypatch.setattr(adaptive_module, "rollout", counting_rollout)
    # the fixed gain holds b = 0.5 and 1.0 but not b = 5.0 or -1.0
    points = robustness_sweep(design, [0.5, 5.0, 1.0, -1.0], [0.3, 0.5, 2.0])
    assert calls == {"solve": 12, "rollout": 6}
    assert sum(math.isfinite(p.K_L) for p in points) == 6


def _sweep_cases():
    rng = random.Random(2024)
    for _ in range(4):
        nominal = ScalarLQProblem(
            rng.uniform(-1.5, 1.5), rng.choice((-1, 1)) * rng.uniform(0.5, 3.0),
            rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0),
        )
        b_grid = [nominal.b * s for s in (0.3, 1.0, 2.5, -1.0)]
        b_grid += [rng.uniform(-6.0, 6.0) for _ in range(6)]
        r_grid = [1e-300, nominal.r] + [10.0 ** rng.uniform(-300, 100) for _ in range(6)]
        yield nominal, b_grid, r_grid
    # K* = 1e300 at (1e-150, 1e300): F(K*) overflows and the solve's final
    # residual is taken in exact rationals; K_L is 2e299 at (2, 1e300)
    yield NOMINAL, [1e-150, 2.0, -1.0], [1.0, 1e300]


def test_sweep_points_equal_the_public_per_point_functions():
    unstable = 0
    for nominal, b_grid, r_grid in _sweep_cases():
        design = NominalDesign.for_problem(nominal)
        points = robustness_sweep(design, b_grid, r_grid)
        assert [(p.b, p.r) for p in points] == [(b, r) for b in b_grid for r in r_grid]
        for point in points:
            p = ScalarLQProblem(nominal.a, point.b, nominal.q, point.r)
            base = LinearGain.from_gain(p, design.fixed_gain.gain)
            if base.stable:
                want = (policy_cost(p, base), rollout(p, base).cost)
            else:
                unstable += 1
                want = (math.inf, math.inf)
            got = (point.K_L, point.K_rollout)
            assert point.K_star.hex() == solve_riccati(p).hex()
            assert [v.hex() for v in got] == [v.hex() for v in want]
    assert unstable > 0


@pytest.mark.parametrize("b_grid, r_grid, message", [
    ([2.0, 0.0], [0.5], "b must be nonzero (the control must act on the state)"),
    ([2.0, math.nan], [0.5], "b must be a finite real, got nan"),
    ([2.0], [0.5, 0.0], "r must be positive"),
    ([2.0], [0.5, -1.0], "r must be positive"),
    ([2.0], [0.5, math.inf], "r must be a finite real, got inf"),
    # b-major: (2, inf) comes before (0, 0.5)
    ([2.0, 0.0], [0.5, math.inf], "r must be a finite real, got inf"),
])
def test_sweep_rejects_the_first_bad_point_in_b_major_order(design, b_grid, r_grid, message):
    with pytest.raises(ValueError) as err:
        robustness_sweep(design, b_grid, r_grid)
    assert str(err.value) == message


GOLDEN_SCHEDULE = [(0, 2.0, 0.5), (10, 1.0, 0.5)]
EARLY_SCHEDULE = [(0, 2.0, 0.5), (1, 1.0, 0.5)]


def test_replan_constant_schedule_modes_coincide(design):
    traces = {
        mode: replan_simulation(design, [(0, 2.0, 0.5)], 1.0, horizon=40, mode=mode)
        for mode in MODES
    }
    reference = traces["fixed_base"]
    assert reference.total_cost == pytest.approx(NOMINAL_K, rel=1e-12)
    for trace in traces.values():
        assert not trace.diverged
        assert trace.total_cost == pytest.approx(reference.total_cost, rel=1e-12)
        for x, x_ref in zip(trace.states, reference.states):
            assert x == pytest.approx(x_ref, rel=1e-12, abs=1e-300)


def test_replan_golden_schedule(design):
    traces = {
        mode: replan_simulation(design, GOLDEN_SCHEDULE, 1.0, horizon=40, mode=mode)
        for mode in MODES
    }
    oracle = traces["oracle_reoptimize"].total_cost
    rollout = traces["rollout_replan"].total_cost
    fixed = traces["fixed_base"].total_cost
    assert oracle == pytest.approx(1.1123724356957947, rel=1e-12)
    # dominance at tolerance; at this switch time the post-switch state is
    # ~1e-10 and all three totals agree to the last bit
    assert oracle <= rollout + 1e-9
    assert rollout <= fixed + 1e-9
    assert abs(rollout - oracle) <= 0.002 * oracle
    for trace in traces.values():
        assert not trace.diverged
        assert 0.0 <= trace.tail_bound < 1e-30
        assert len(trace.states) == 41
        assert len(trace.stage_costs) == 40


def test_replan_early_switch_shows_strict_ordering(design):
    traces = {
        mode: replan_simulation(design, EARLY_SCHEDULE, 1.0, horizon=40, mode=mode)
        for mode in MODES
    }
    oracle = traces["oracle_reoptimize"].total_cost
    rollout = traces["rollout_replan"].total_cost
    fixed = traces["fixed_base"].total_cost
    assert oracle == pytest.approx(1.1149610008465047, rel=1e-12)
    assert rollout == pytest.approx(1.114976331151599, rel=1e-12)
    assert fixed == pytest.approx(1.1171425595857976, rel=1e-12)
    assert rollout - oracle > 1e-6
    assert fixed - rollout > 1e-4
    assert abs(rollout - oracle) <= 0.002 * oracle


def test_replan_trace_is_exactly_replayable(design):
    trace = replan_simulation(design, EARLY_SCHEDULE, 1.0, horizon=25, mode="rollout_replan")
    a = NOMINAL.a
    for k, (u, (b, _r)) in enumerate(zip(trace.controls, trace.params)):
        assert trace.states[k + 1] == a * trace.states[k] + b * u
        assert u == trace.gains[k] * trace.states[k]
    assert trace.total_cost == pytest.approx(sum(trace.stage_costs), rel=1e-15)
    assert trace.stage_costs[3] == pytest.approx(
        NOMINAL.q * trace.states[3] ** 2 + 0.5 * trace.controls[3] ** 2, rel=1e-15
    )


def test_replan_divergence_is_recorded_not_raised(design):
    schedule = [(0, 2.0, 0.5), (10, -2.0, 0.5)]
    fixed = replan_simulation(design, schedule, 1.0, horizon=200, mode="fixed_base")
    assert fixed.diverged
    assert len(fixed.stage_costs) == 89
    assert abs(fixed.states[-1]) > 1e12
    assert fixed.tail_bound == math.inf

    replanned = replan_simulation(design, schedule, 1.0, horizon=200, mode="rollout_replan")
    assert not replanned.diverged
    # the designed gain prices itself at +inf under b=-2, so the greedy step
    # falls back to the deadbeat gain and parks the state at the origin
    assert replanned.gains[10] == 0.5
    assert replanned.states[11] == 0.0
    assert replanned.total_cost == pytest.approx(1.1123724356957947, rel=1e-12)
    assert replanned.tail_bound == 0.0

    oracle = replan_simulation(design, schedule, 1.0, horizon=200, mode="oracle_reoptimize")
    assert not oracle.diverged


def test_replan_validation(design):
    good = [(0, 2.0, 0.5)]
    with pytest.raises(ValueError):
        replan_simulation(design, [], 1.0)
    with pytest.raises(ValueError):
        replan_simulation(design, [(1, 2.0, 0.5)], 1.0)
    with pytest.raises(ValueError):
        replan_simulation(design, [(0, 2.0, 0.5), (0, 1.0, 0.5)], 1.0)
    with pytest.raises(ValueError):
        replan_simulation(design, [(0, 0.0, 0.5)], 1.0)
    with pytest.raises(ValueError):
        replan_simulation(design, [(0, 2.0)], 1.0)
    with pytest.raises(ValueError):
        replan_simulation(design, good, math.inf)
    with pytest.raises(ValueError):
        replan_simulation(design, good, 1.0, horizon=0)
    with pytest.raises(ValueError):
        replan_simulation(design, good, 1.0, mode="estimate")


PERTURBED = ScalarLQProblem(1.0, 1.0, 1.0, 0.5)


def test_ratio_decay_on_the_geometric_grid():
    points, skipped = superlinear_ratios(PERTURBED)
    assert skipped == []
    assert len(points) == 20
    ratios = [r for _, r in points]
    assert all(r > 0 for r in ratios)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    # distance 1 from the fixed point: well conditioned, frozen
    assert ratios[0] == pytest.approx(0.016822311252396, rel=1e-9)
    # halving the distance roughly halves the ratio; the factor converges
    # to 2 from below as the map linearizes
    for i in range(19):
        assert 1.3 < ratios[i] / ratios[i + 1] < 2.1
    for i in range(4, 19):
        assert 1.9 < ratios[i] / ratios[i + 1] < 2.1
    assert 5e-8 < ratios[-1] < 1.2e-7


# step(K) - K* is rounded to within a few ulps of K*; the ratio divides that
# by K - K*.  Seeds 1-20 need at most 1.08 ulps.
RATIO_ULPS = 4


@pytest.mark.parametrize("seed", range(1, 21))
def test_ratios_obey_the_newton_bound(seed):
    # the nominal problem of the lq_adaptive benchmark workload at this seed;
    # at seed 9 the ratios are not monotone, but they keep to the bound
    rng = random.Random(f"lq_adaptive/{seed}")
    a, b = rng.uniform(0.8, 1.2), rng.uniform(1.5, 2.5)
    q, r = rng.uniform(0.5, 1.5), rng.uniform(0.3, 0.7)
    problem = ScalarLQProblem(a, b, q, r)
    k_opt = solve_riccati(problem)
    slope = lq_newton_ratio_slope_oracle(a, b, r, k_opt)
    points, skipped = superlinear_ratios(problem)
    assert skipped == [] and len(points) == 20
    for K, ratio in points:
        d = K - k_opt
        assert 0.0 < ratio <= slope * d + RATIO_ULPS * math.ulp(k_opt) / d, K


def test_ratio_shrinks_with_the_distance():
    k_opt = 1.3660254037844386
    points, _ = superlinear_ratios(PERTURBED, [k_opt + 1.0, k_opt + 0.01])
    far, near = points[0][1], points[1][1]
    assert far / near > 30
    assert far / near == pytest.approx(41.0526067299, rel=1e-6)


def test_ratio_guards():
    with pytest.raises(ValueError):
        superlinear_ratios(PERTURBED, [1.3660254037844386])
    # unstable plant: coefficients below the stability threshold are skipped
    open_region = ScalarLQProblem(2.0, 1.0, 1.0, 1.0)
    points, skipped = superlinear_ratios(open_region, [0.5, 2.0 + math.sqrt(5.0) + 1.0])
    assert skipped == [0.5]
    assert len(points) == 1 and points[0][1] > 0
