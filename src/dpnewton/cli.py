"""Command-line front end.

Three command families expose the library: `riccati` for the scalar
linear-quadratic core, `mdp` for the finite-state engine, `adaptive` for the
replanning experiments.  Every command accepts its parameters as flags, as a
JSON config document (flags win), or a mix.  Outputs are deterministic: CSV
tables carry a header row and 17-significant-digit reals, scalar prints use
the shortest round-trip form, infinities are spelled `inf`.

Exit codes, each for one family of exceptions mapped in `main`:
0 success; 2 invalid input, any ValueError (MDPValidationError and
malformed JSON included) or OSError, whose message names the first
offending field or quantity; 3 non-convergence, a ConvergenceError, whose
message carries the residual once; 1 anything else: a result that violated
an in-process invariant check, or an unexpected exception (one line).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import adaptive, formats, generators, lq, mdp
from .errors import ConvergenceError, check_count
from .formats import parse_real
from .lookahead import CE_MODES, LookaheadSpec, lookahead_policy

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _count(raw) -> int:
    """A JSON integer or a flag's decimal digits; every count flag is >= 0."""
    return check_count(int(raw) if isinstance(raw, str) and raw.isdecimal() else raw, "value")


def _flag(raw) -> int:
    if str(raw) not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {raw!r}")
    return int(raw)


def _items(raw) -> list:
    """A JSON list as it stands, or the parts of a comma-separated string."""
    return raw if isinstance(raw, (list, tuple)) else str(raw).split(",")


def _reals(raw) -> list[float]:
    return [parse_real(v) for v in _items(raw)]


def _counts(raw) -> list[int]:
    return [_count(v) for v in _items(raw)]


def _grid(raw) -> list[float]:
    """Either `lo:hi:step` (inclusive endpoints) or a comma list of values."""
    if isinstance(raw, (list, tuple)) or ":" not in str(raw):
        return _reals(raw)
    text = str(raw)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:step, got {text!r}")
    lo, hi, step = (parse_real(p) for p in parts)
    if step <= 0 or hi < lo:
        raise ValueError(f"grid {text!r} must have step > 0 and hi >= lo")
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise ValueError(f"grid {text!r} must span a finite number of steps")
    count = int(math.floor(span + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def _schedule(raw) -> list[tuple[int, float, float]]:
    """Comma-separated `time:b:r` triples, or a list of [time, b, r]."""
    entries = []
    for item in _items(raw):
        if not isinstance(raw, (list, tuple)):
            bits = item.split(":")
            if len(bits) != 3:
                raise ValueError(f"schedule entry must be time:b:r, got {item!r}")
            item = bits
        time, b, r = item
        entries.append((_count(time), parse_real(b), parse_real(r)))
    return entries


class _Opt:
    def __init__(self, name, conv, default=None, required=False, help=""):
        self.name = name
        self.dest = name.replace("-", "_")
        self.conv = conv
        self.default = default
        self.required = required
        self.help = help


def _add_command(sub, name, opts, handler, help=""):
    cmd = sub.add_parser(name, help=help)
    for opt in opts:
        cmd.add_argument(f"--{opt.name}", dest=opt.dest, default=None, help=opt.help)
    cmd.add_argument("--config", default=None, help="JSON document of parameters; flags win")
    cmd.add_argument("--out", default=None, help="directory for output files")
    cmd.set_defaults(handler=handler, opts=opts)
    return cmd


def _settle(args) -> dict:
    """Resolve each option: flag beats config beats default."""
    config = {}
    if args.config is not None:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config: the document must be a JSON object")
        known = {opt.name for opt in args.opts} | {opt.dest for opt in args.opts}
        for key in config:
            if key not in known:
                raise ValueError(f"config: unknown field {key!r}")
    values = {}
    for opt in args.opts:
        raw = getattr(args, opt.dest)
        if raw is None:
            raw = config.get(opt.name, config.get(opt.dest))
        if raw is None:
            if opt.required:
                raise ValueError(f"{opt.name}: required parameter missing")
            values[opt.dest] = opt.default
            continue
        try:
            values[opt.dest] = opt.conv(raw)
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"{opt.name}: {err}") from None
    return values


def _emit(args, filename, write) -> None:
    """Hand `write` the standard output, or the file `filename` under --out."""
    if args.out is None:
        write(sys.stdout)
        return
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / filename
    write(path)
    print(f"wrote {path}")


def _emit_csv(args, filename, header, rows):
    _emit(args, filename, lambda out: formats.write_csv(out, header, rows))


def _emit_json(args, filename, payload):
    _emit(args, filename, lambda out: formats.dump_json(payload, out))


_PROBLEM_OPTS = [
    _Opt("a", parse_real, required=True, help="plant coefficient"),
    _Opt("b", parse_real, required=True, help="control coefficient (nonzero)"),
    _Opt("q", parse_real, required=True, help="state cost weight (> 0)"),
    _Opt("r", parse_real, required=True, help="control cost weight (> 0)"),
]


def _problem(values) -> lq.ScalarLQProblem:
    return lq.ScalarLQProblem(values["a"], values["b"], values["q"], values["r"])


def _cmd_riccati_solve(args, values) -> int:
    p = _problem(values)
    k_opt = lq.solve_riccati(p, tol=values["tol"])
    gain = lq.greedy_gain(p, k_opt)
    print(f"K*={k_opt!r}")
    print(f"L*={gain.gain!r}")
    if args.out is not None:
        _emit_json(args, "solution.json", {"K_star": k_opt, "L_star": gain.gain})
    return EXIT_OK


def _cmd_riccati_vi(args, values) -> int:
    iterates = lq.value_iteration(
        _problem(values), values["start"], values["tol"], values["max_iters"]
    )
    print(f"K={iterates[-1]!r}")
    print(f"sweeps={len(iterates) - 1}")
    if args.out is not None:
        _emit_csv(args, "vi_iterates.csv", ["step", "K"], enumerate(iterates))
    return EXIT_OK


def _cmd_riccati_pi(args, values) -> int:
    p = _problem(values)
    start = lq.LinearGain.from_gain(p, values["start_gain"])
    iterates = lq.policy_iteration(p, start, tol=values["tol"], max_iters=values["max_iters"])
    rows = [
        (step, gain.gain, cost)
        for step, (gain, cost) in enumerate(iterates, start=1)
    ]
    _emit_csv(args, "pi_iterates.csv", ["step", "gain", "cost"], rows)
    return EXIT_OK


def _cmd_riccati_newton(args, values) -> int:
    p = _problem(values)
    k = values["start"]
    rows = []
    for step in range(1, values["steps"] + 1):
        result = lq.newton_step(p, k)
        rows.append((step, result.gain.gain, result.cost))
        k = result.cost
        if not math.isfinite(k):
            break
    _emit_csv(args, "newton_iterates.csv", ["step", "gain", "cost"], rows)
    return EXIT_OK


def _cmd_riccati_sweep_stability(args, values) -> int:
    region = lq.stability_region(_problem(values))
    print(f"threshold={region.threshold!r}")
    print(f"open={'true' if region.open else 'false'}")
    return EXIT_OK


def _cmd_mdp_solve(args, values) -> int:
    model = formats.load_mdp(values["file"])
    solution, sweeps = mdp.value_iteration(model, tol=values["tol"], max_iters=values["max_iters"])
    policy = mdp.greedy_policy(model, solution)
    _emit_json(args, "solution.json", {"values": solution, "policy": policy, "sweeps": sweeps})
    return EXIT_OK


def _cmd_mdp_rollout(args, values) -> int:
    model = formats.load_mdp(values["file"])
    base = values["base"]
    improved = mdp.rollout_policy(model, base, horizon=values["steps"])
    payload = {"policy": improved, "values": mdp.policy_evaluation(model, improved)}
    _emit_json(args, "rollout.json", payload)
    return EXIT_OK


def _cmd_mdp_lookahead(args, values) -> int:
    model = formats.load_mdp(values["file"])
    terminal = values["terminal"]
    if terminal is None:
        terminal = mdp.zero_values(model)
    spec = LookaheadSpec(
        depth=values["depth"],
        terminal=terminal,
        rollout_steps=values["rollout_steps"],
        base=values["base"],
        ce_mode=values["ce_mode"],
    )
    choice = lookahead_policy(model, spec, values["state"])
    # A deep search's leaf count can pass the int-to-decimal limit of Python
    # 3.10.7+.  The limit guards parsing untrusted text, not printing a
    # computed count, so it is lifted for this output alone.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        print(f"control={choice.control}")
        print(f"value={choice.value!r}")
        print(f"leaves={choice.leaves}")
        if args.out is not None:
            _emit_json(args, "lookahead.json", dict(choice._asdict()))
    finally:
        set_limit(limit)
    return EXIT_OK


def _cmd_mdp_lyapunov(args, values) -> int:
    model = formats.load_mdp(values["file"])
    ok, violations = mdp.lyapunov_check(model, values["values"])
    print(f"ok={'true' if ok else 'false'}")
    print("violations=" + ",".join(str(x) for x in violations))
    return EXIT_OK


def _cmd_mdp_random(args, values) -> int:
    model = generators.random_mdp(
        values["seed"],
        discount=values["discount"],
        n_states=values["states"],
        reach_termination=bool(values["reach_termination"]),
    )
    _emit(args, "mdp.json", lambda out: formats.save_mdp(model, out))
    return EXIT_OK


def _cmd_adaptive_sweep(args, values) -> int:
    nominal = _problem(values)
    design = adaptive.NominalDesign.for_problem(nominal)
    grid_b, grid_r = values["grid_b"], values["grid_r"]
    if grid_b is None and grid_r is None:
        points = adaptive.robustness_sweep(design, adaptive.default_b_grid(), [nominal.r])
        points += adaptive.robustness_sweep(design, [nominal.b], adaptive.default_r_grid())
    else:
        points = adaptive.robustness_sweep(
            design,
            grid_b if grid_b is not None else [nominal.b],
            grid_r if grid_r is not None else [nominal.r],
        )
    _emit_csv(args, "sweep.csv", ["b", "r", "K_star", "K_rollout", "K_L"], points)
    for point in points:
        if math.isfinite(point.K_L) and not (
            point.K_star <= point.K_rollout + 1e-9
            and point.K_rollout <= point.K_L + 1e-9
        ):
            print(
                f"ordering violated at b={point.b!r} r={point.r!r}: "
                f"{point.K_star!r} {point.K_rollout!r} {point.K_L!r}",
                file=sys.stderr,
            )
            return EXIT_INVARIANT
    return EXIT_OK


def _cmd_adaptive_replan(args, values) -> int:
    if values["mode"] != "all" and values["mode"] not in adaptive.MODES:
        raise ValueError(f"mode: must be one of {adaptive.MODES + ('all',)}")
    design = adaptive.NominalDesign.for_problem(_problem(values))
    modes = adaptive.MODES if values["mode"] == "all" else (values["mode"],)
    totals = []
    for mode in modes:
        trace = adaptive.replan_simulation(
            design, values["schedule"], values["x0"], horizon=values["horizon"], mode=mode
        )
        rows = [
            (k, trace.params[k][0], trace.params[k][1], mode,
             trace.states[k], trace.controls[k], trace.stage_costs[k])
            for k in range(len(trace.stage_costs))
        ]
        _emit_csv(args, f"trace_{mode}.csv", ["k", "b", "r", "mode", "x", "u", "stage_cost"], rows)
        totals.append((mode, trace.total_cost, trace.tail_bound,
                       "true" if trace.diverged else "false"))
    if len(modes) > 1:
        _emit_csv(args, "replan_totals.csv", ["mode", "total_cost", "tail_bound", "diverged"], totals)
    for mode, total, tail, diverged in totals:
        print(f"{mode}: total_cost={total!r} tail_bound={tail!r} diverged={diverged}")
    return EXIT_OK


def _cmd_adaptive_ratio(args, values) -> int:
    problem = _problem(values)
    grid = None
    if values["halvings"] is not None:
        k_opt = lq.solve_riccati(problem)
        grid = [k_opt + 2.0 ** (-i) for i in range(values["halvings"])]
    points, skipped = adaptive.superlinear_ratios(problem, grid)
    _emit_csv(args, "ratios.csv", ["K", "ratio"], points)
    if skipped:
        print(
            "skipped outside the stability region: "
            + ",".join(repr(k) for k in skipped),
            file=sys.stderr,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpnewton",
        description="Exact dynamic-programming laboratory: scalar LQ analysis, "
        "finite MDP solvers, lookahead search, adaptive replanning experiments.",
    )
    families = parser.add_subparsers(dest="family", required=True)

    ric = families.add_parser("riccati", help="scalar linear-quadratic commands")
    ric_sub = ric.add_subparsers(dest="command", required=True)
    _add_command(ric_sub, "solve", _PROBLEM_OPTS + [
        _Opt("tol", parse_real, default=1e-12, help="fixed-point residual tolerance"),
    ], _cmd_riccati_solve, help="optimal coefficient and gain")
    _add_command(ric_sub, "vi", _PROBLEM_OPTS + [
        _Opt("start", parse_real, default=0.0, help="initial coefficient"),
        _Opt("tol", parse_real, default=1e-12),
        _Opt("max-iters", _count, default=100_000),
    ], _cmd_riccati_vi, help="value iteration on the coefficient")
    _add_command(ric_sub, "pi", _PROBLEM_OPTS + [
        _Opt("start-gain", parse_real, required=True, help="stable initial gain"),
        _Opt("tol", parse_real, default=1e-12),
        _Opt("max-iters", _count, default=100),
    ], _cmd_riccati_pi, help="policy iteration table")
    _add_command(ric_sub, "newton", _PROBLEM_OPTS + [
        _Opt("start", parse_real, required=True, help="initial coefficient"),
        _Opt("steps", _count, default=1),
    ], _cmd_riccati_newton, help="greedy-step iterates")
    _add_command(ric_sub, "sweep-stability", _PROBLEM_OPTS,
                 _cmd_riccati_sweep_stability, help="stability region of the greedy step")

    mdp_family = families.add_parser("mdp", help="finite MDP commands")
    mdp_sub = mdp_family.add_subparsers(dest="command", required=True)
    _FILE = _Opt("file", str, required=True, help="MDP interchange document")
    _add_command(mdp_sub, "solve", [
        _FILE,
        _Opt("tol", parse_real, default=1e-12),
        _Opt("max-iters", _count, default=100_000),
    ], _cmd_mdp_solve, help="optimal values and policy by value iteration")
    _add_command(mdp_sub, "rollout", [
        _FILE,
        _Opt("base", _counts, required=True, help="base policy, comma-separated controls"),
        _Opt("steps", _count, default=None, help="truncated evaluation sweeps (default exact)"),
    ], _cmd_mdp_rollout, help="one rollout improvement of a base policy")
    _add_command(mdp_sub, "lookahead", [
        _FILE,
        _Opt("state", _count, required=True),
        _Opt("depth", _count, default=1),
        _Opt("rollout-steps", _count, default=0),
        _Opt("base", _counts, default=None),
        _Opt("ce-mode", str, default="exact", help="|".join(CE_MODES)),
        _Opt("terminal", _reals, default=None, help="terminal values, default zeros"),
    ], _cmd_mdp_lookahead, help="tree-search control at one state")
    _add_command(mdp_sub, "lyapunov", [
        _FILE,
        _Opt("values", _reals, required=True),
    ], _cmd_mdp_lyapunov, help="pointwise descent certificate check")
    _add_command(mdp_sub, "random", [
        _Opt("seed", _count, required=True),
        _Opt("discount", parse_real, default=0.9),
        _Opt("states", _count, default=None),
        _Opt("reach-termination", _flag, default=0, help="0 or 1; 1 forces a path to termination"),
    ], _cmd_mdp_random, help="write a seeded random instance")

    ada = families.add_parser("adaptive", help="replanning experiments")
    ada_sub = ada.add_subparsers(dest="command", required=True)
    _add_command(ada_sub, "sweep", _PROBLEM_OPTS + [
        _Opt("grid-b", _grid, default=None, help="lo:hi:step or comma list"),
        _Opt("grid-r", _grid, default=None, help="lo:hi:step or comma list"),
    ], _cmd_adaptive_sweep, help="robustness sweep around the nominal design")
    _add_command(ada_sub, "replan", _PROBLEM_OPTS + [
        _Opt("schedule", _schedule, required=True, help="time:b:r, comma-separated"),
        _Opt("x0", parse_real, default=1.0),
        _Opt("horizon", _count, default=40),
        _Opt("mode", str, default="all", help="|".join(adaptive.MODES + ("all",))),
    ], _cmd_adaptive_replan, help="closed-loop simulation under a parameter schedule")
    _add_command(ada_sub, "ratio", _PROBLEM_OPTS + [
        _Opt("halvings", _count, default=None, help="geometric grid size (default 20)"),
    ], _cmd_adaptive_ratio, help="contraction ratios near the fixed point")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, _settle(args))
    except ConvergenceError as err:
        print(f"did not converge: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except json.JSONDecodeError as err:
        print(f"validation error: malformed JSON: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as err:
        # Any other failure is a defect or a limit of the program, not of the
        # input: report it on one line instead of a traceback.
        summary = " ".join(str(err).split())
        print(f"internal error: {type(err).__name__}: {summary}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
