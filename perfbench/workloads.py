"""The benchmark's four workloads.

Each workload turns a seed into a fixed input set (`setup`), runs one
operation over that whole set (`run`, the only timed code, which calls
dpnewton and nothing else) and checks an operation's outputs against the
reference module or against properties the method must have (`check`,
which returns the list of violated checks).  Every operation of a run does
the same work, and the inputs of different seeds are sized to the same work
budget, so operation times compare across seeds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from dpnewton import adaptive, cli, generators, lq, mdp
from dpnewton import lookahead as la

import reference as ref

ROOT = Path(__file__).resolve().parent.parent


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _scale(values) -> float:
    return max([1.0] + [abs(v) for v in values if math.isfinite(v)])


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def child_env() -> dict:
    """The environment of a child interpreter that imports the checkout's dpnewton."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def interpreter_costs(probes: int, env=None, cwd=None) -> tuple[float, float]:
    """Median seconds a fresh interpreter takes to start and exit, and the
    median extra seconds it spends on `import dpnewton.cli` (which imports
    numpy and every dpnewton module).  Bare and importing starts alternate,
    so a slow stretch of the machine weighs on both alike."""
    env = child_env() if env is None else env

    def wall(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                       timeout=60)
        return time.perf_counter() - start

    bare, imported = [], []
    for _ in range(probes):
        bare.append(wall("pass"))
        imported.append(wall("import dpnewton.cli"))
    start = statistics.median(bare)
    return start, statistics.median(imported) - start


class Workload:
    name = ""

    def setup(self, seed: int, quick: bool):
        raise NotImplementedError

    def run(self, state):
        raise NotImplementedError

    def check(self, state, outputs) -> list[str]:
        raise NotImplementedError

    def describe(self, state) -> dict:
        """Make-up of the inputs, for the report."""
        return {}

    def layer_counts(self, state) -> dict[str, tuple[float, str]]:
        """Per-operation counts the benchmark derives from its inputs."""
        return {}

    def probe(self, state, tracer) -> dict[str, tuple[float, str]]:
        """Extra per-layer measurements for a traced run."""
        return {}

    def trace_targets(self) -> list:
        """(owner, attribute, span namer) of the workload's own calls to trace."""
        return []

    def close(self, state) -> None:
        pass


# ------------------------------------------------------------- mdp_offline

# Value iteration sweeps of a seeded random_mdp vary from about 70 to over
# 2,000 with the seed, so a fixed number of models would make operation
# times depend on the seed.  The input set is instead the PICK of CANDIDATES
# models drawn from the seed's stream whose value-iteration work (sweeps x
# outcome terms, sized by the reference) comes closest to BUDGET.  Every seed
# draws all CANDIDATES, so set-up work and peak memory do not depend on how
# soon a seed's draws happen to fit.

VI_TOL = 1e-12
# Rounding allowance of a check, relative to the largest value involved: far
# above double rounding of these sums and solves, far below any real error.
CHECK_REL = 1e-9


@dataclass
class OfflineState:
    models: list  # (FiniteMDP, reference Model, policy-iteration start, rollout base)
    undiscounted: object
    undiscounted_ref: ref.Model
    undiscounted_start: list
    work: int


class MdpOffline(Workload):
    name = "mdp_offline"

    N_STATES, PICK, BUDGET, SWEEP_CAP, CANDIDATES = 300, 3, 1_000_000, 1_000, 12
    QUICK = (20, 2, 3_000, 1_000, 4)

    def setup(self, seed, quick):
        n, pick, budget, cap, candidates = (
            self.QUICK if quick else
            (self.N_STATES, self.PICK, self.BUDGET, self.SWEEP_CAP, self.CANDIDATES)
        )
        rng = _rng(self.name, seed)
        pool = []
        chosen, miss = (), math.inf
        for _ in range(candidates):
            model = generators.random_mdp(rng.randrange(2**32), discount=0.99, n_states=n)
            plain = ref.Model.from_finite_mdp(model)
            sweeps = ref.vi_sweeps(plain, VI_TOL, cap)
            if sweeps is None:
                continue
            newest = (sweeps * ref.terms(plain), model, plain)
            for others in itertools.combinations(pool, pick - 1):
                combo = others + (newest,)
                off = abs(sum(c[0] for c in combo) - budget)
                if off < miss:
                    chosen, miss = combo, off
            pool.append(newest)
        models = [
            (model, plain,
             generators.random_policy(rng.randrange(2**32), model),
             generators.random_policy(rng.randrange(2**32), model))
            for _, model, plain in chosen
        ]
        undiscounted = generators.random_mdp(
            rng.randrange(2**32), discount=1.0, n_states=n, reach_termination=True
        )
        # reach_termination routes control 0 to termination: a stable start
        start = [undiscounted.controls[x][0] for x in range(undiscounted.n_states)]
        return OfflineState(
            models, undiscounted, ref.Model.from_finite_mdp(undiscounted), start,
            sum(c[0] for c in chosen),
        )

    def run(self, state):
        out = []
        for model, _, start, base in state.models:
            values, sweeps = mdp.value_iteration(model, tol=VI_TOL)
            greedy = mdp.greedy_policy(model, values)
            policy, costs, rounds = mdp.policy_iteration(model, start)
            rolled = mdp.rollout_policy(model, base)
            spec = la.LookaheadSpec(depth=2, terminal=values)
            shallow = [la.lookahead_policy(model, spec, x) for x in range(1, model.n_states)]
            out.append((values, sweeps, greedy, policy, costs, rounds, rolled, shallow))
        policy, costs, rounds = mdp.policy_iteration(state.undiscounted, state.undiscounted_start)
        return out, (policy, costs, rounds)

    def check(self, state, outputs):
        bad = []
        per_model, (u_policy, u_costs, u_rounds) = outputs
        for i, ((_, plain, _, base), result) in enumerate(zip(state.models, per_model)):
            values, sweeps, greedy, policy, costs, rounds, rolled, shallow = result
            slack = CHECK_REL * _scale(values + costs)
            alpha = plain.alpha
            if ref.bellman_residual(plain, values) > VI_TOL + slack:
                bad.append(f"model {i}: value-iteration Bellman residual above tolerance")
            if ref.improvement_gap(plain, values, greedy) > slack:
                bad.append(f"model {i}: greedy policy is not greedy")
            if ref.bellman_residual(plain, costs) > slack:
                bad.append(f"model {i}: policy-iteration Bellman residual above tolerance")
            swept = ref.bellman_image(plain, values)
            if max(abs(a - b) for a, b in zip(swept, costs)) > alpha * VI_TOL / (1 - alpha) + slack:
                bad.append(f"model {i}: value and policy iteration disagree beyond alpha*tol/(1-alpha)")
            if ref.improvement_gap(plain, costs, policy) > slack:
                bad.append(f"model {i}: a control beats the policy-iteration policy")
            base_cost = ref.policy_cost(plain, base)
            rolled_cost = ref.policy_cost(plain, rolled)
            if any(r > b + slack for r, b in zip(rolled_cost, base_cost)):
                bad.append(f"model {i}: rollout costs more than its base somewhere")
            for x, choice in enumerate(shallow, start=1):
                want = ref.lookahead(plain, values, x, 2)
                if choice.leaves != want.leaves or abs(choice.value - want.value) > slack or (
                    want.margin > slack and choice.control != want.control
                ):
                    bad.append(f"model {i}: depth-2 lookahead at state {x} differs from the reference")
                    break
        u_slack = CHECK_REL * _scale(u_costs)
        if ref.bellman_residual(state.undiscounted_ref, u_costs) > u_slack:
            bad.append("undiscounted: policy-iteration Bellman residual above tolerance")
        if ref.improvement_gap(state.undiscounted_ref, u_costs, u_policy) > u_slack:
            bad.append("undiscounted: a control beats the policy-iteration policy")
        return bad

    def describe(self, state):
        return {
            "discounted_models": [
                {"states": m.n_states, "alpha": m.discount, "outcome_terms": ref.terms(p)}
                for m, p, _, _ in state.models
            ],
            "undiscounted_states": state.undiscounted.n_states,
            "vi_work_units": state.work,
        }


# ------------------------------------------------------------ lookahead_play

# Models are drawn from the seed's stream and each joins the input set at
# depth 6, else depth 5, if its trees fit both the remaining budget and the
# per-model cap, until the set is within 1% of BUDGET.  The budget is in
# exact-mode leaves; a CE leaf costs about CE_WEIGHT exact leaves because
# every CE node looks up a nominal outcome.  Tree sizes of random models
# span three orders of magnitude and no count predicts a model's time to
# better than about 15%, so the cap keeps every model a small share of the
# set and those errors average out over the many models of a set.

MODES = ("exact", "ce_after_first", "ce_all")
ROLLOUT_STEPS = 2
CE_WEIGHT = 5


@dataclass
class PlayState:
    models: list  # (FiniteMDP, reference Model, depth, terminal values, base policy, specs)
    units: int
    leaves: int
    distinct: int


class LookaheadPlay(Workload):
    name = "lookahead_play"

    BUDGET, MODEL_SHARE, MAX_CANDIDATES = 250_000, 25, 2_000
    QUICK_BUDGET = 3_000

    def setup(self, seed, quick):
        budget = self.QUICK_BUDGET if quick else self.BUDGET
        rng = _rng(self.name, seed)
        remaining = budget
        picked = []
        leaves = distinct = 0
        for _ in range(self.MAX_CANDIDATES):
            if remaining < budget // 100:
                break
            model = generators.random_mdp(rng.randrange(2**32))
            plain = ref.Model.from_finite_mdp(model)
            for depth in (6, 5):
                sizes = {
                    mode: ref.tree_sizes(plain, depth, mode)
                    for mode in MODES
                }
                units = sum(l for l, _ in sizes["exact"]) + CE_WEIGHT * sum(
                    l for mode in MODES[1:] for l, _ in sizes[mode]
                )
                if units <= min(remaining, budget // self.MODEL_SHARE):
                    remaining -= units
                    leaves += sum(l for mode in MODES for l, _ in sizes[mode])
                    distinct += sum(d for mode in MODES for _, d in sizes[mode])
                    picked.append((model, plain, depth))
                    break
        models = []
        for model, plain, depth in picked:
            values, _ = mdp.value_iteration(model)
            base = mdp.greedy_policy(model, values)
            specs = [
                la.LookaheadSpec(depth=depth, terminal=values, rollout_steps=ROLLOUT_STEPS,
                                 base=base, ce_mode=mode)
                for mode in MODES
            ]
            models.append((model, plain, depth, values, base, specs))
        return PlayState(models, budget - remaining, leaves, distinct)

    def run(self, state):
        return [
            [la.lookahead_policy(model, spec, x) for x in range(1, model.n_states)]
            for model, _, _, _, _, specs in state.models
            for spec in specs
        ]

    def check(self, state, outputs):
        bad = []
        decisions = iter(outputs)
        for i, (_, plain, depth, values, base, specs) in enumerate(state.models):
            slack = CHECK_REL * _scale(values)
            for spec in specs:
                for x, choice in enumerate(next(decisions), start=1):
                    want = ref.lookahead(plain, values, x, depth, spec.ce_mode, ROLLOUT_STEPS, base)
                    if choice.leaves != want.leaves:
                        bad.append(f"model {i} {spec.ce_mode} state {x}: {choice.leaves} leaves, "
                                   f"reference {want.leaves}")
                    if abs(choice.value - want.value) > slack:
                        bad.append(f"model {i} {spec.ce_mode} state {x}: value off the reference")
                    if want.margin > slack and choice.control != want.control:
                        bad.append(f"model {i} {spec.ce_mode} state {x}: control off the reference")
        return bad

    def describe(self, state):
        return {
            "models": [
                {"states": m.n_states, "depth": depth} for m, _, depth, _, _, _ in state.models
            ],
            "modes": list(MODES),
            "rollout_steps": ROLLOUT_STEPS,
            "work_units": state.units,
        }

    def layer_counts(self, state):
        return {
            "lookahead.leaves": (state.leaves, "count"),
            "lookahead.distinct_subproblems": (state.distinct, "count"),
            "lookahead.useful_ratio": (state.distinct / state.leaves, "ratio"),
        }


# --------------------------------------------------------------- lq_adaptive

GRID = 70
HORIZON = 300
LQ_REL = 1e-12


@dataclass
class AdaptiveState:
    nominal: lq.ScalarLQProblem
    design: adaptive.NominalDesign
    b_grid: list
    r_grid: list
    schedule: list
    horizon: int
    start: lq.LinearGain


class LqAdaptive(Workload):
    name = "lq_adaptive"

    def setup(self, seed, quick):
        rng = _rng(self.name, seed)
        a, b = rng.uniform(0.8, 1.2), rng.uniform(1.5, 2.5)
        q, r = rng.uniform(0.5, 1.5), rng.uniform(0.3, 0.7)
        nominal = lq.ScalarLQProblem(a, b, q, r)
        grid = 4 if quick else GRID
        # the same relative grid, 0.5x to 1.5x the nominal b and r, for every seed
        b_grid = [b * (0.5 + i / (grid - 1)) for i in range(grid)]
        r_grid = [r * (0.5 + i / (grid - 1)) for i in range(grid)]
        horizon = 20 if quick else HORIZON
        times = sorted(rng.sample(range(1, horizon), 9))
        schedule = [(0, b, r)] + [
            (t, b * rng.uniform(0.6, 1.4), r * rng.uniform(0.6, 1.4)) for t in times
        ]
        # a stable start: closed loop a + b L drawn inside (-0.9, 0.9)
        start = lq.LinearGain.from_gain(nominal, (rng.uniform(-0.9, 0.9) - a) / b)
        return AdaptiveState(
            nominal, adaptive.NominalDesign.for_problem(nominal), b_grid, r_grid, schedule,
            horizon, start,
        )

    def run(self, state):
        sweep = adaptive.robustness_sweep(state.design, state.b_grid, state.r_grid)
        traces = [
            adaptive.replan_simulation(state.design, state.schedule, 1.0, horizon=state.horizon,
                                       mode=mode)
            for mode in adaptive.MODES
        ]
        ratios = adaptive.superlinear_ratios(state.nominal)
        iterates = lq.policy_iteration(state.nominal, state.start)
        return sweep, traces, ratios, iterates

    def check(self, state, outputs):
        bad = []
        sweep, traces, (points, skipped), iterates = outputs
        p = state.nominal
        L = state.design.fixed_gain.gain
        if len(sweep) != len(state.b_grid) * len(state.r_grid):
            bad.append("sweep: wrong number of grid points")
        for pt in sweep:
            where = f"sweep at b={pt.b!r} r={pt.r!r}"
            if not _close(ref.riccati_map(p.a, pt.b, p.q, pt.r, pt.K_star), pt.K_star, LQ_REL):
                bad.append(f"{where}: F(K*) != K*")
            want_KL = ref.lq_policy_cost(p.a, pt.b, p.q, pt.r, L)
            if math.isinf(want_KL):
                if not (math.isinf(pt.K_L) and math.isinf(pt.K_rollout)):
                    bad.append(f"{where}: unstable fixed gain priced finite")
                continue
            if not _close(pt.K_L, want_KL, LQ_REL):
                bad.append(f"{where}: K_L differs from the geometric series")
            tol = CHECK_REL * max(1.0, pt.K_L)
            if not (pt.K_star <= pt.K_rollout + tol and pt.K_rollout <= pt.K_L + tol):
                bad.append(f"{where}: K* <= K_rollout <= K_L violated")
            if len(bad) > 10:
                break
        for trace in traces:
            total = 0.0
            for k, u in enumerate(trace.controls):
                b, r = trace.params[k]
                x = trace.states[k]
                total += p.q * x * x + r * u * u
            if not _close(total, trace.total_cost, LQ_REL) or trace.diverged:
                bad.append(f"replan {trace.mode}: total differs from the summed stage costs")
        ratios = [ratio for _, ratio in points]
        if skipped or not ratios or any(v <= 0 for v in ratios) or any(
            later >= earlier for earlier, later in zip(ratios, ratios[1:])
        ):
            bad.append("ratios: not positive and strictly decreasing")
        k_star = ref.riccati_root(p.a, p.b, p.q, p.r)
        costs = [cost for _, cost in iterates]
        if any(later > earlier * (1 + LQ_REL) for earlier, later in zip(costs, costs[1:])):
            bad.append("policy iteration: costs increase")
        if not _close(costs[-1], k_star, 1e-11):
            bad.append("policy iteration: does not end at K*")
        return bad

    def describe(self, state):
        p = state.nominal
        return {
            "nominal": {"a": p.a, "b": p.b, "q": p.q, "r": p.r},
            "grid_points": len(state.b_grid) * len(state.r_grid),
            "schedule_segments": len(state.schedule),
            "replan_modes": list(adaptive.MODES),
        }


# ------------------------------------------------------------- cli_artifacts

MDP_STATES = 600
PROBES = 5


@dataclass
class Command:
    label: str  # "riccati-pi", ...: family and command
    argv: list
    out: Path
    expected: dict  # file name -> golden bytes


@dataclass
class CliState:
    workdir: Path
    env: dict
    commands: list
    riccati: tuple


def _label(argv) -> str:
    return f"{argv[0]}-{argv[1]}"


class CliArtifacts(Workload):
    name = "cli_artifacts"

    def setup(self, seed, quick):
        rng = _rng(self.name, seed)
        workdir = ROOT / "perfbench" / "_work" / f"{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        env = child_env()
        golden: dict[str, dict] = {}
        for path in sorted((ROOT / "tests" / "golden").glob("*.csv")):
            label, _, body = path.read_bytes().partition(b"\n")
            if not label.startswith(b"# DERIVED "):
                raise ValueError(f"{path.name}: no DERIVED label line")
            golden.setdefault(label[len(b"# DERIVED "):].decode(), {})[path.name] = body
        commands = []
        for i, (line, files) in enumerate(golden.items()):
            argv = line.split()
            commands.append(Command(_label(argv), argv + ["--out", str(workdir / f"g{i}")],
                                    workdir / f"g{i}", files))
        a, b, q, r = (rng.uniform(0.5, 1.5), rng.uniform(0.5, 3.0),
                      rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0))
        ric = ["riccati", "solve", "--a", repr(a), "--b", repr(b), "--q", repr(q), "--r", repr(r)]
        commands.append(Command(_label(ric), ric, workdir, {}))
        model_dir, solve_dir = workdir / "model", workdir / "solve"
        gen = ["mdp", "random", "--seed", str(rng.randrange(2**32)),
               "--states", str(40 if quick else MDP_STATES), "--discount", "0.5",
               "--out", str(model_dir)]
        commands.append(Command(_label(gen), gen, model_dir, {}))
        solve = ["mdp", "solve", "--file", str(model_dir / "mdp.json"), "--out", str(solve_dir)]
        commands.append(Command(_label(solve), solve, solve_dir, {}))
        return CliState(workdir, env, commands, (a, b, q, r))

    def _child(self, state, argv):
        return subprocess.run(
            [sys.executable, "-m", "dpnewton", *argv], env=state.env, cwd=state.workdir,
            capture_output=True, timeout=120,
        )

    def trace_targets(self):
        return [(type(self), "_child", lambda args: f"cli.child.{_label(args[2])}")]

    def run(self, state):
        results = []
        for command in state.commands:
            done = self._child(state, command.argv)
            files = {}
            if command.label == "mdp-solve" and done.returncode == 0:
                files["solution.json"] = (command.out / "solution.json").read_bytes()
            for name in command.expected:
                path = command.out / name
                files[name] = path.read_bytes() if path.exists() else None
            results.append((command.label, done.returncode, done.stdout, files))
        return results

    def check(self, state, outputs):
        bad = []
        for command, (label, code, stdout, files) in zip(state.commands, outputs):
            if code != 0:
                bad.append(f"{label}: exit {code}")
                continue
            for name, body in command.expected.items():
                if files.get(name) != body:
                    bad.append(f"{label}: {name} differs from tests/golden")
            if label == "riccati-solve":
                a, b, q, r = state.riccati
                fields = dict(line.split("=", 1) for line in stdout.decode().split())
                K = float(fields["K*"])
                if not _close(ref.riccati_map(a, b, q, r, K), K, LQ_REL):
                    bad.append("riccati-solve: F(K*) != K*")
                if not _close(float(fields["L*"]), ref.greedy_gain(a, b, q, r, K), LQ_REL):
                    bad.append("riccati-solve: L* is not the greedy gain at K*")
            if label == "mdp-solve":
                plain = ref.Model.from_document(state.commands[-2].out / "mdp.json")
                solution = json.loads(files["solution.json"])
                values = [float(v) for v in solution["values"]]
                slack = CHECK_REL * _scale(values)
                if ref.bellman_residual(plain, values) > VI_TOL + slack:
                    bad.append("mdp-solve: Bellman residual above tolerance")
                if ref.improvement_gap(plain, values, solution["policy"]) > slack:
                    bad.append("mdp-solve: policy is not greedy")
        return bad

    def describe(self, state):
        return {"commands": [" ".join(c.argv[:2]) for c in state.commands],
                "mdp_states": int(state.commands[-2].argv[5])}

    def probe(self, state, tracer):
        """Bare interpreter start, the import of dpnewton.cli, and every
        command once more in-process through cli.main with formats traced."""
        start, imported = interpreter_costs(PROBES, state.env, state.workdir)
        sink = io.StringIO()
        for command in state.commands:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = tracer.call(f"cli.main.{command.label}", cli.main, list(command.argv))
            if code != 0:
                raise RuntimeError(f"in-process {command.label} exited {code}")
        return {
            "cli.python_start_ms": (start * 1e3, "ms"),
            "cli.import_ms": (imported * 1e3, "ms"),
        }

    def close(self, state):
        shutil.rmtree(state.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (MdpOffline(), LookaheadPlay(), LqAdaptive(), CliArtifacts())}
