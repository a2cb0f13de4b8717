"""Structural invariants of the scalar LQ machinery on seeded grids."""

import math

import numpy as np
import pytest

from dpnewton.errors import ConvergenceError
from dpnewton.lq import (
    LinearGain,
    ScalarLQProblem,
    greedy_gain,
    lookahead_step,
    newton_step,
    policy_cost,
    policy_operator,
    riccati_derivative,
    riccati_operator,
    rollout,
    solve_riccati,
    stability_region,
    value_iteration,
)
from util import lq_exact_residual_oracle, lq_newton_oracle


def random_problems(seed, count, a_low=-2.0, a_high=2.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(
            ScalarLQProblem(
                float(rng.uniform(a_low, a_high)),
                float(rng.uniform(0.2, 3.0)),
                float(rng.uniform(0.1, 5.0)),
                float(rng.uniform(0.1, 5.0)),
            )
        )
    return out


def sample_inside_region(problem, rng):
    """A coefficient comfortably inside the stability region (not boundary-
    hugging, so downstream divisions stay well conditioned)."""
    K_opt = solve_riccati(problem)
    region = stability_region(problem)
    offset = region.threshold if region.open else 0.0
    return offset + (0.1 + 10.0 * float(rng.random())) * max(1.0, K_opt)


def test_policy_operator_is_upper_envelope_with_tangency():
    problems = [
        ScalarLQProblem(1.0, 2.0, 1.0, 0.5),
        ScalarLQProblem(-1.3, 0.7, 2.0, 1.5),
        ScalarLQProblem(2.0, 1.0, 1.0, 1.0),
    ]
    rng = np.random.default_rng(7)
    gains = rng.uniform(-5.0, 5.0, size=1000)
    grid = [k / 10.0 for k in range(101)]
    for p in problems:
        for K in grid:
            f = riccati_operator(p, K)
            for L in gains:
                fl = policy_operator(p, LinearGain.from_gain(p, float(L)), K)
                assert f <= fl + 1e-12 * max(1.0, abs(fl))
            tangent = greedy_gain(p, K)
            touched = policy_operator(p, tangent, K)
            assert abs(touched - f) <= 1e-12 * max(1.0, abs(f))
            slope = tangent.closed_loop ** 2
            assert abs(slope - riccati_derivative(p, K)) <= 1e-12 * max(1.0, slope)


def test_newton_step_matches_derivative_based_iterate():
    rng = np.random.default_rng(11)
    for p in random_problems(11, 1000):
        K = sample_inside_region(p, rng)
        stepped = newton_step(p, K)
        assert stepped.gain.stable
        oracle = lq_newton_oracle(p.a, p.b, p.q, p.r, K)
        assert abs(stepped.cost - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_newton_iteration_converges_quadratically():
    for p in random_problems(23, 300):
        K_opt = solve_riccati(p)
        scale = max(1.0, K_opt)
        K = 10.0 * K_opt
        errors = [abs(K - K_opt)]
        for _ in range(10):
            K = newton_step(p, K).cost
            errors.append(abs(K - K_opt))
            if errors[-1] <= 1e-12:
                break
        assert errors[-1] <= 1e-12, f"no convergence within 10 steps for {p}"
        # the error is squared each round; ratios are read off only while
        # the previous error sits safely above the rounding floor
        ratios = [
            nxt / prev ** 2
            for prev, nxt in zip(errors, errors[1:])
            if 1e-5 * scale < prev < 0.5 * scale
        ]
        assert all(r < 10.0 for r in ratios), (p, ratios)


def test_value_iteration_converges_on_declared_set():
    # problems picked with a healthy contraction modulus so 200 sweeps
    # reach 1e-10 from either side
    problems = [
        ScalarLQProblem(1.0, 2.0, 1.0, 0.5),
        ScalarLQProblem(1.0, 1.0, 1.0, 0.5),
        ScalarLQProblem(2.0, 1.0, 1.0, 1.0),
        ScalarLQProblem(-2.0, 1.5, 0.5, 2.0),
        ScalarLQProblem(-1.0, 0.8, 3.0, 1.0),
        ScalarLQProblem(0.0, 1.0, 3.0, 1.0),
        ScalarLQProblem(0.9, 3.0, 0.1, 5.0),
        ScalarLQProblem(1.7, 2.2, 4.0, 0.3),
    ]
    for p in problems:
        K_opt = solve_riccati(p)
        assert riccati_derivative(p, K_opt) < 0.9
        for K0 in (0.0, K_opt / 3.0, 10.0 * K_opt):
            seq = value_iteration(p, K0)[:201]
            assert abs(seq[-1] - K_opt) <= 1e-10
            slack = 4e-15 * max(1.0, K_opt)
            if K0 <= K_opt:
                assert all(b >= a - slack for a, b in zip(seq, seq[1:]))
            else:
                assert all(b <= a + slack for a, b in zip(seq, seq[1:]))


def test_rollout_never_hurts_the_base():
    # bases are sampled stable by construction: pick the closed loop in
    # (-1, 1) and back out the gain
    rng = np.random.default_rng(37)
    for p in random_problems(37, 400):
        closed = float(rng.uniform(-0.999, 0.999))
        base = LinearGain.from_gain(p, (closed - p.a) / p.b)
        assert base.stable
        K_base = policy_cost(p, base)
        improved = rollout(p, base)
        K_opt = solve_riccati(p)
        assert K_opt <= improved.cost + 1e-9 * max(1.0, K_opt)
        assert improved.cost <= K_base + 1e-9 * max(1.0, K_base)


def test_lookahead_depth_threshold_is_monotone():
    rng = np.random.default_rng(53)
    for p in random_problems(53, 60, a_low=1.05, a_high=2.0):
        region = stability_region(p)
        for K0 in (0.0, region.threshold / 2.0, 2.0 * region.threshold + 1.0):
            finite = [
                math.isfinite(lookahead_step(p, K0, depth=ell).cost)
                for ell in range(1, 65)
            ]
            assert any(finite), f"no stabilizing depth within 64 for {p}"
            first = finite.index(True)
            assert all(finite[first:]), "stability must persist once reached"
            if region.contains(K0):
                assert first == 0
        _ = rng  # seed retained for future extensions


def test_stability_region_matches_newton_boundary():
    for p in random_problems(61, 60, a_low=-2.0, a_high=2.0):
        region = stability_region(p)
        scale = max(1.0, region.threshold)
        offsets = [1e-6 * scale, 1e-3 * scale, 0.1 * scale, scale]
        probes = [region.threshold + d for d in offsets]
        if region.open and region.threshold > 0.0:
            probes += [region.threshold - d for d in offsets if region.threshold - d >= 0.0]
        elif not region.open:
            probes.append(0.0)
        for K in probes:
            finite = math.isfinite(newton_step(p, K).cost)
            assert finite == region.contains(K), (p, K)


RANGE_QUANTITIES = {
    "b*b", "r - a*a*r - q*b*b", "q*r", "(r - a*a*r - q*b*b)^2 + 4*b*b*q*r",
    "the root K*", "F(K*)",
}


def test_solve_riccati_answers_or_names_the_quantity_out_of_range():
    # log-uniform coefficients over 10^+-150 (random signs for a and b):
    # every draw returns a K* that the exact-rational residual confirms, or a
    # ValueError naming what left the double range
    rng = np.random.default_rng(71)
    solved, named = 0, set()
    for _ in range(2400):
        a, b, q, r = (float(m) for m in 10.0 ** rng.uniform(-150.0, 150.0, size=4))
        a *= float(rng.choice([-1.0, 1.0]))
        b *= float(rng.choice([-1.0, 1.0]))
        try:
            K = solve_riccati(ScalarLQProblem(a, b, q, r))
        except ConvergenceError as err:
            pytest.fail(f"ConvergenceError at {(a, b, q, r)}: {err}")
        except ValueError as err:
            message = str(err)
            assert "nan" not in message, message
            quantity, sep, _ = message.partition(" leaves the double range at ")
            assert sep and quantity in RANGE_QUANTITIES, message
            named.add(quantity)
            continue
        assert math.isfinite(K) and K > 0.0, (a, b, q, r, K)
        assert lq_exact_residual_oracle(a, b, q, r, K) <= 1e-12, (a, b, q, r, K)
        solved += 1
    assert solved >= 800
    assert len(named) >= 3
