"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; under a plain run they appear in captured output on failure.  Every
tolerance is pinned in the assertion itself.
"""

import math
import pathlib
import subprocess
import sys

import numpy as np

from dpnewton import adaptive, generators, lq, mdp
from dpnewton.cli import main as cli_main
from dpnewton.lookahead import LookaheadSpec, lookahead_policy

from util import q_table_oracle, random_problems, sample_inside_region, uniform_tree_mdp


def _report(number: int, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


def test_criterion_01_closed_forms_and_vi():
    proc = subprocess.run(
        [sys.executable, "-m", "dpnewton", "riccati", "solve",
         "--a", "1", "--b", "2", "--q", "1", "--r", "0.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    printed = dict(line.split("=") for line in proc.stdout.splitlines())
    k_expected = (2.0 + math.sqrt(6.0)) / 4.0
    l_expected = -(2.0 + math.sqrt(6.0)) / (5.0 + 2.0 * math.sqrt(6.0))
    k_ok = abs(float(printed["K*"]) - k_expected) <= 1e-12 * abs(k_expected)
    l_ok = abs(float(printed["L*"]) - l_expected) <= 1e-12 * abs(l_expected)

    p = lq.ScalarLQProblem(1.0, 2.0, 1.0, 0.5)
    k = 0.0
    sweeps = None
    for i in range(1, 201):
        k = lq.riccati_operator(p, k)
        if abs(k - k_expected) <= 1e-10:
            sweeps = i
            break
    _report(1, k_ok and l_ok and sweeps is not None,
            f"K*, L* to 1e-12; VI within 1e-10 after {sweeps} sweeps")


def test_criterion_02_policy_step_is_the_derivative_step():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for p in random_problems(101, 1000):
        k = sample_inside_region(p, rng)
        stepped = lq.newton_step(p, k).cost
        f = lq.riccati_operator(p, k)
        d = lq.riccati_derivative(p, k)
        tangent = (f - d * k) / (1.0 - d)
        err = abs(stepped - tangent) / max(1.0, abs(tangent))
        worst = max(worst, err)
        assert err <= 1e-12
    _report(2, worst <= 1e-12, f"1000 problems, max relative gap {worst:.3e}")


def test_criterion_03_quadratic_convergence():
    worst_steps = 0
    worst_ratio = 0.0
    for p in random_problems(101, 1000):
        k_opt = lq.solve_riccati(p)
        k = 10.0 * k_opt
        scale = max(1.0, k_opt)
        steps = 0
        while abs(k - k_opt) > 1e-12 and steps < 11:
            prev_err = abs(k - k_opt)
            k = lq.newton_step(p, k).cost
            steps += 1
            err = abs(k - k_opt)
            # ratio sampled away from the round-off floor only
            if 1e-5 * scale < prev_err < 0.5 * scale:
                worst_ratio = max(worst_ratio, err / prev_err**2)
        assert steps <= 10, f"{p} took {steps} steps"
        worst_steps = max(worst_steps, steps)
    _report(3, worst_steps <= 10 and worst_ratio < 10.0,
            f"max steps {worst_steps}, max quadratic ratio {worst_ratio:.3f}")


def test_criterion_04_lower_envelope_and_tangency():
    rng = np.random.default_rng(4)
    checked = 0
    for p in random_problems(202, 200):
        scale = max(1.0, abs(p.a) ** 2 * p.r / p.b**2 + p.q)
        for k in [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
            f = lq.riccati_operator(p, k)
            for gain in rng.uniform(-4.0, 4.0, size=25):
                f_lin = lq.policy_operator(p, lq.LinearGain.from_gain(p, float(gain)), k)
                assert f <= f_lin + 1e-12 * max(scale, abs(f_lin))
            best = lq.greedy_gain(p, k)
            f_best = lq.policy_operator(p, best, k)
            assert abs(f - f_best) <= 1e-12 * max(1.0, abs(f))
            slope = lq.riccati_derivative(p, k)
            assert abs(slope - best.closed_loop**2) <= 1e-12 * max(1.0, slope)
            checked += 1
    _report(4, True, f"{checked} tangency points, 35000 envelope samples")


def test_criterion_05_robustness_sweep_ordering():
    design = adaptive.NominalDesign.for_problem(lq.ScalarLQProblem(1.0, 2.0, 1.0, 0.5))
    points = adaptive.robustness_sweep(design, adaptive.default_b_grid(), [0.5])
    points += adaptive.robustness_sweep(design, [2.0], adaptive.default_r_grid())
    finite = 0
    for point in points:
        if math.isfinite(point.K_L):
            assert point.K_star <= point.K_rollout + 1e-9, point
            assert point.K_rollout <= point.K_L + 1e-9, point
            finite += 1
        else:
            assert point.K_rollout == math.inf, point
    _report(5, True, f"{finite}/{len(points)} finite grid points ordered at 1e-9")


def test_criterion_06_stability_thresholds():
    rng = np.random.default_rng(66)
    worst_depth = 0
    problems = []
    while len(problems) < 50:
        a = float(rng.uniform(1.0, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        if abs(a) <= 1.0:
            continue
        problems.append(lq.ScalarLQProblem(
            a, float(rng.uniform(0.2, 3.0)),
            float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 5.0)),
        ))
    for p in problems:
        finite = [math.isfinite(lq.lookahead_step(p, 0.0, depth=depth).cost)
                  for depth in range(1, 65)]
        assert any(finite), f"{p} never stabilized by depth 64"
        first = finite.index(True)
        assert all(finite[first:]), f"{p} lost stability after depth {first + 1}"
        worst_depth = max(worst_depth, first + 1)

        region = lq.stability_region(p)
        scale = max(1.0, region.threshold)
        for offset in (1e-6, 1e-3, 0.1, 1.0):
            above = region.threshold + offset * scale
            assert math.isfinite(lq.newton_step(p, above).cost)
            below = region.threshold - offset * scale
            if below >= 0.0:
                assert not math.isfinite(lq.newton_step(p, below).cost)
    _report(6, True, f"50 problems, worst stabilizing depth {worst_depth} <= 64")


def test_criterion_07_rollout_improvement_and_pi():
    improved = 0
    for index in range(100):
        alpha = 0.5 if index % 2 == 0 else 0.9
        model = generators.random_mdp(7000 + index, discount=alpha)
        base = generators.random_policy(8000 + index, model)
        j_base = mdp.policy_evaluation(model, base)
        better = mdp.rollout_policy(model, base)
        j_better = mdp.policy_evaluation(model, better)
        for x in range(model.n_states):
            assert j_better[x] <= j_base[x] + 1e-9
        improved += 1

        # policy iteration must be repeated rollout, step for step
        chain = [list(base)]
        while True:
            nxt = mdp.rollout_policy(model, chain[-1])
            if nxt == chain[-1]:
                break
            chain.append(nxt)
        policy, _, rounds = mdp.policy_iteration(model, base)
        assert policy == chain[-1]
        assert rounds == len(chain)
    _report(7, improved == 100, f"{improved} base policies improved pointwise at 1e-9")


def test_criterion_08_long_lookahead_becomes_optimal():
    # The exact depth-d tree control equals the greedy control against the
    # (d-1)-times swept terminal (reduction verified in the lookahead suite),
    # which makes depth-200 searches affordable.
    worst = 0
    for index in range(25):
        model = generators.random_mdp(9100 + index, discount=0.9)
        max_cost = max(
            (o.cost for x in range(model.n_states) for u in model.controls[x]
             for o in model.outcomes(x, u)),
            default=0.0,
        )
        guess = generators.random_values(9200 + index, model,
                                         high=2.0 * max_cost / (1.0 - 0.9))
        policy0 = [model.controls[x][0] for x in range(model.n_states)]
        _, j_star, _ = mdp.policy_iteration(model, policy0)
        q = q_table_oracle(model, j_star)
        optimal = [
            {u for u in model.controls[x] if q[x, u] <= j_star[x] + 1e-9}
            for x in range(model.n_states)
        ]

        swept = list(guess)
        last_bad = 0
        good_seen = False
        for depth in range(1, 201):
            choice = mdp.greedy_policy(model, swept)
            ok = all(choice[x] in optimal[x] for x in range(1, model.n_states))
            if ok:
                good_seen = True
            else:
                last_bad = depth
            swept = mdp.bellman_operator(model, swept)
        assert good_seen and last_bad < 200, f"mdp {index} never settled"
        worst = max(worst, last_bad + 1)
    _report(8, True, f"25 models, worst optimality threshold depth {worst} <= 200")


def test_criterion_09_certainty_equivalence():
    for index in range(25):
        model = generators.random_mdp(9300 + index, discount=0.9)
        guess = generators.random_values(9400 + index, model, high=10.0)
        greedy = mdp.greedy_policy(model, guess)
        spec = LookaheadSpec(depth=1, terminal=guess, ce_mode="ce_after_first")
        for x in range(1, model.n_states):
            assert lookahead_policy(model, spec, x).control == greedy[x]

    tree = uniform_tree_mdp()
    zeros = mdp.zero_values(tree)
    exact = lookahead_policy(tree, LookaheadSpec(depth=3, terminal=zeros), 1).leaves
    reduced = lookahead_policy(
        tree, LookaheadSpec(depth=3, terminal=zeros, ce_mode="ce_after_first"), 1
    ).leaves
    _report(9, exact == 216 and reduced == 24,
            f"greedy match on 25 models; leaves {exact} -> {reduced}")


GOLDEN_COMMANDS = {
    "pi_iterates.csv": ["riccati", "pi", "--a", "1", "--b", "2", "--q", "1",
                        "--r", "0.5", "--start-gain", "-0.5"],
    "sweep.csv": ["adaptive", "sweep", "--a", "1", "--b", "2", "--q", "1",
                  "--r", "0.5", "--grid-b", "0.5:3.0:0.05"],
    "replan_totals.csv": ["adaptive", "replan", "--a", "1", "--b", "2", "--q", "1",
                          "--r", "0.5", "--schedule", "0:2:0.5,10:1:0.5",
                          "--x0", "1", "--horizon", "40"],
    "trace_rollout_replan.csv": ["adaptive", "replan", "--a", "1", "--b", "2",
                                 "--q", "1", "--r", "0.5",
                                 "--schedule", "0:2:0.5,10:1:0.5",
                                 "--x0", "1", "--horizon", "40"],
    "ratios.csv": ["adaptive", "ratio", "--a", "1", "--b", "1", "--q", "1",
                   "--r", "0.5"],
}


def test_criterion_10_golden_files_are_labeled_and_frozen(tmp_path, capsys):
    golden_dir = pathlib.Path(__file__).parent / "golden"
    names = sorted(f.name for f in golden_dir.glob("*.csv"))
    assert names == sorted(GOLDEN_COMMANDS)
    fresh = 0
    for name, argv in GOLDEN_COMMANDS.items():
        label, _, frozen = (golden_dir / name).read_bytes().partition(b"\n")
        assert label.startswith(b"# DERIVED "), name
        out_dir = tmp_path / name.replace(".csv", "")
        assert cli_main(argv + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / name).read_bytes() == frozen, name
        fresh += 1
    with capsys.disabled():
        _report(10, fresh == len(GOLDEN_COMMANDS),
                f"{fresh} DERIVED golden files regenerate bit-identically")
