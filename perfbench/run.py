#!/usr/bin/env python3
"""Seeded benchmark of dpnewton: off-line training, on-line play, the scalar
Riccati/adaptive experiments and whole CLI runs.

Run from the root of a dpnewton checkout:

    python3 perfbench/run.py --workload mdp_offline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload lq_adaptive --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --quick          # every workload at toy sizes, outputs and schema only

A run prices dpnewton's imports in fresh interpreters and sets up its
workload several times (`setup_s` is the import cost plus the median set-up,
which ends with one warm-up operation), then repeats one operation over the seed's whole input set until `--seconds` have
passed, checking every operation's outputs.  It prints every metric with its
unit, writes a JSON report to perfbench/results/, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  `--trace 1` reports the
per-layer metrics instead, from spans recorded around dpnewton's public
functions (see tracing.py), and the tracing overhead.
"""

import os

# One BLAS thread, set before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed (at most SETUP_MOST times); setup_s takes the median, so a cheap
# set-up is sampled often enough to be steady.
SETUP_REPEATS, SETUP_SECONDS, SETUP_MOST = 3, 1.0, 25
# Fresh interpreters started, bare and importing dpnewton.cli, to price the imports.
IMPORT_PROBES = 5
# A traced phase stops early once this many spans are held in memory.
SPAN_CAP = 200_000

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit; LAYER_NOTES says what each one measures.
PER_LAYER = {
    "mdp.bellman_operator.ms": "ms",
    "mdp.greedy_policy.ms": "ms",
    "mdp.value_iteration.ms": "ms",
    "mdp.value_iteration.sweeps": "count",
    "mdp.policy_evaluation.discounted.ms": "ms",
    "mdp.policy_evaluation.undiscounted.ms": "ms",
    "mdp.policy_iteration.ms": "ms",
    "mdp.policy_iteration.rounds": "count",
    "mdp.rollout_policy.ms": "ms",
    "mdp.FiniteMDP.build_ms": "ms",
    "lookahead.decision.exact.ms": "ms",
    "lookahead.decision.ce_after_first.ms": "ms",
    "lookahead.decision.ce_all.ms": "ms",
    "lookahead.leaves": "count",
    "lookahead.distinct_subproblems": "count",
    "lookahead.useful_ratio": "ratio",
    "lookahead.shallow.ms": "ms",
    "lq.solve_riccati.us": "us",
    "lq.rollout.us": "us",
    "lq.policy_iteration.us": "us",
    "adaptive.robustness_sweep.us_per_point": "us",
    "adaptive.replan_simulation.us_per_step": "us",
    "adaptive.superlinear_ratios.us_per_point": "us",
    "generators.random_mdp.ms": "ms",
    "formats.save_mdp.ms": "ms",
    "formats.load_mdp.ms": "ms",
    "formats.write_csv.ms": "ms",
    "formats.write_csv.bytes": "B",
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.riccati-pi.ms": "ms",
    "cli.main.adaptive-ratio.ms": "ms",
    "cli.main.adaptive-replan.ms": "ms",
    "cli.main.adaptive-sweep.ms": "ms",
    "cli.main.riccati-solve.ms": "ms",
    "cli.main.mdp-random.ms": "ms",
    "cli.main.mdp-solve.ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="mdp_offline, lookahead_play, lq_adaptive or cli_artifacts")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload (or --workload) at toy sizes; checks outputs and "
                             "the report schema, not timings")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    return args


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports kB


# ------------------------------------------------------------------ running


class Checker:
    """Counts an operation as failed when it raises or when its outputs fail
    the workload's checks; outputs equal to ones already verified pass
    without recomputing the reference."""

    def __init__(self, workload, state):
        self.workload, self.state = workload, state
        self.verified = []
        self.failures: list[str] = []
        self.wrong = 0

    def accept(self, outputs) -> bool:
        if any(outputs == seen for seen in self.verified):
            return True
        bad = self.workload.check(self.state, outputs)
        if bad:
            self.wrong += 1
            self.failures.extend(bad[:5])
            return False
        self.verified.append(outputs)
        return True


def attempt(workload, state, checker, failures):
    """One operation: its duration in seconds and whether it succeeded."""
    start = time.perf_counter()
    try:
        outputs = workload.run(state)
    except Exception:
        failures.append(traceback.format_exc(limit=3))
        return time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    return elapsed, checker.accept(outputs)


def set_up(workload, seed, quick, repeats, seconds=0.0, most=1):
    """Input generation, solves and one warm-up operation, `repeats` times
    and then until `seconds` have passed, at most `most` times; returns the
    last state, its checker and the time of each repeat."""
    times = []
    state = None
    while len(times) < repeats or (sum(times) < seconds and len(times) < most):
        if state is not None:
            workload.close(state)
        start = time.perf_counter()
        state = workload.setup(seed, quick)
        outputs = workload.run(state)
        times.append(time.perf_counter() - start)
    checker = Checker(workload, state)
    if not checker.accept(outputs):
        raise RuntimeError(f"{workload.name}: warm-up outputs fail their checks: {checker.failures}")
    return state, checker, times


def measure(workload, state, checker, seconds, tracer=None):
    """Whole operations until `seconds` have passed (at least one)."""
    durations, failed, errors = [], 0, []
    gc.collect()
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op = len(durations)
        elapsed, ok = attempt(workload, state, checker, errors)
        durations.append(elapsed)
        failed += not ok
        if time.perf_counter() >= deadline:
            break
        if tracer is not None and len(tracer.spans) > SPAN_CAP:
            break
    return durations, failed, errors


def timing_metrics(durations):
    metrics = {
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": statistics.median(durations) * 1e3,
    }
    # the highest percentile with at least ten samples beyond it
    p90 = statistics.quantiles(durations, n=10)[-1] * 1e3 if len(durations) >= 100 else None
    return metrics, p90


# ------------------------------------------------------------------ tracing


def layer_metrics(tracer, counts):
    """The per-layer metrics from the spans of a traced pass over every workload."""
    from tracing import COUNT, END, NAME, OP, START, WORKLOAD

    # (workload, span name, in set-up) -> [ns, calls, summed count]
    totals: dict[tuple, list] = {}
    # (workload, span name) -> {operation id: summed count}
    per_op: dict[tuple, dict] = {}
    for span in tracer.spans:
        setup = span[OP] == "setup"
        entry = totals.setdefault((span[WORKLOAD], span[NAME], setup), [0, 0, 0])
        entry[0] += span[END] - span[START]
        entry[1] += 1
        if span[COUNT] is not None:
            entry[2] += span[COUNT]
            if not setup:
                ops = per_op.setdefault((span[WORKLOAD], span[NAME]), {})
                ops[span[OP]] = ops.get(span[OP], 0) + span[COUNT]

    def per_call(workloads, name, scale, setup=False):
        # mean time per call, nanoseconds times `scale`
        ns = calls = 0
        for workload in workloads:
            entry = totals.get((workload, name, setup), (0, 0, 0))
            ns, calls = ns + entry[0], calls + entry[1]
        return ns / calls * scale if calls else None

    def per_unit(workload, name):
        # microseconds per counted unit (grid point, simulated step)
        ns, _, units = totals.get((workload, name, False), (0, 0, 0))
        return ns / units / 1e3 if units else None

    def count_per_op(workload, name):
        ops = per_op.get((workload, name))
        return statistics.median_low(ops.values()) if ops else None

    MS, US = 1e-6, 1e-3
    values = {}
    for name in ("bellman_operator", "greedy_policy", "value_iteration",
                 "policy_evaluation.discounted", "policy_evaluation.undiscounted",
                 "policy_iteration", "rollout_policy"):
        values[f"mdp.{name}.ms"] = per_call(["mdp_offline"], f"mdp.{name}", MS)
    values["mdp.value_iteration.sweeps"] = count_per_op("mdp_offline", "mdp.value_iteration")
    values["mdp.policy_iteration.rounds"] = count_per_op("mdp_offline", "mdp.policy_iteration")
    values["mdp.FiniteMDP.build_ms"] = per_call(["mdp_offline"], "mdp.FiniteMDP.build", MS, True)
    for mode in ("exact", "ce_after_first", "ce_all"):
        values[f"lookahead.decision.{mode}.ms"] = per_call(
            ["lookahead_play"], f"lookahead.decision.{mode}", MS)
    values["lookahead.shallow.ms"] = per_call(["mdp_offline"], "lookahead.shallow", MS)
    for name in ("solve_riccati", "rollout", "policy_iteration"):
        values[f"lq.{name}.us"] = per_call(["lq_adaptive"], f"lq.{name}", US)
    values["adaptive.robustness_sweep.us_per_point"] = per_unit(
        "lq_adaptive", "adaptive.robustness_sweep")
    values["adaptive.replan_simulation.us_per_step"] = per_unit(
        "lq_adaptive", "adaptive.replan_simulation")
    values["adaptive.superlinear_ratios.us_per_point"] = per_unit(
        "lq_adaptive", "adaptive.superlinear_ratios")
    values["generators.random_mdp.ms"] = per_call(
        ["mdp_offline", "lookahead_play"], "generators.random_mdp", MS, True)
    for name in ("save_mdp", "load_mdp", "write_csv"):
        values[f"formats.{name}.ms"] = per_call(["cli_artifacts"], f"formats.{name}", MS)
    values["formats.write_csv.bytes"] = count_per_op("cli_artifacts", "formats.write_csv")
    for name in PER_LAYER:
        if name.startswith("cli.main."):
            values[name] = per_call(["cli_artifacts"], name[: -len(".ms")], MS)
    for name, (value, _) in counts.items():
        values[name] = value
    return values


def traced_pass(tracer, workload, seed, quick, seconds):
    """Traced set-up and operations of one workload; returns the ops and the
    probe measurements."""
    tracer.workload, tracer.op = workload.name, "setup"
    state, checker, _ = set_up(workload, seed, quick, 1)
    durations, failed, errors = measure(workload, state, checker, seconds, tracer)
    extra = dict(workload.layer_counts(state))
    tracer.op = "probe"
    extra.update(workload.probe(state, tracer))
    workload.close(state)
    return durations, failed, errors, checker, extra


# ------------------------------------------------------------------ report


def build_report(args, workload, state, runs, metrics, units, correct, attempted, failed, extra):
    import numpy

    return {
        "benchmark": "perfbench",
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "environment": {
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine(),
        },
        "inputs": workload.describe(state),
        "operations": runs,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        **extra,
    }


REPORT_KEYS = {"benchmark", "workload", "seed", "seconds", "trace", "quick", "environment",
               "inputs", "operations", "correct", "attempted", "failed", "metrics"}


def schema_errors(report) -> list[str]:
    """What is missing or malformed in a report."""
    errors = [f"missing key {key}" for key in sorted(REPORT_KEYS - set(report))]
    expected = PER_LAYER if report.get("trace") else END_TO_END
    metrics = report.get("metrics", {})
    for name, unit in expected.items():
        entry = metrics.get(name)
        if not isinstance(entry, dict) or entry.get("unit") != unit:
            errors.append(f"metric {name}: missing or wrong unit")
        elif not isinstance(entry.get("value"), (int, float)) or entry["value"] != entry["value"]:
            errors.append(f"metric {name}: value is not a number")
    if set(metrics) - set(expected):
        errors.append(f"unexpected metrics {sorted(set(metrics) - set(expected))}")
    for key in ("attempted", "failed"):
        if not isinstance(report.get(key), int):
            errors.append(f"{key} is not an integer")
    if not report.get("attempted", 0) >= 1:
        errors.append("no operation attempted")
    for key, workloads in report.get("operations", {}).items():
        if not {"attempted", "failed"} <= set(workloads):
            errors.append(f"operations[{key}] lacks attempted/failed")
    return errors


def run_one(args, workloads, workload):
    """One benchmark run of `workload`; returns its report."""
    import tracing
    from workloads import interpreter_costs

    if args.quick:
        state, checker, setup_times = set_up(workload, args.seed, True, 1)
    else:
        state, checker, setup_times = set_up(
            workload, args.seed, False, SETUP_REPEATS, SETUP_SECONDS, SETUP_MOST)
    try:
        if args.trace:
            half = args.seconds / 2
            plain, plain_failed, errors = measure(workload, state, checker, half)
            tracer = tracing.Tracer()
            tracer.install()
            for other in workloads.values():
                for owner, attr, namer in other.trace_targets():
                    tracer.wrap(owner, attr, namer)
            try:
                passes = {}
                for other in [workload] + [w for w in workloads.values() if w is not workload]:
                    passes[other.name] = traced_pass(
                        tracer, other, args.seed, args.quick, half if other is workload else 0)
            finally:
                tracer.uninstall()
            counts = {}
            for durations, _, _, _, extra in passes.values():
                counts.update(extra)
            values = layer_metrics(tracer, counts)
            traced = passes[workload.name][0]
            values["trace.overhead_pct"] = (
                (len(plain) / sum(plain) - len(traced) / sum(traced)) / (len(plain) / sum(plain)) * 100)
            missing = [name for name in PER_LAYER if values.get(name) is None]
            if missing:
                raise RuntimeError(f"traced run measured no {missing}")
            metrics = {name: values[name] for name in PER_LAYER}
            runs = {workload.name + ":untraced": {"attempted": len(plain), "failed": plain_failed}}
            for name, (durations, failed, errs, _, _) in passes.items():
                runs[name + ":traced"] = {"attempted": len(durations), "failed": failed}
                errors += errs
            attempted = len(plain) + len(traced)
            failed = plain_failed + passes[workload.name][1]
            wrong = checker.wrong + sum(p[3].wrong for p in passes.values())
            failures = checker.failures + [f for p in passes.values() for f in p[3].failures]
            self_ms = {}
            for (wl, op, layer), ns in tracer.self_times().items():
                if op in ("setup", "probe"):
                    continue
                ops = len(passes[wl][0])
                self_ms.setdefault(wl, {})
                self_ms[wl][layer] = self_ms[wl].get(layer, 0.0) + ns / 1e6 / ops
            for wl, layers in self_ms.items():
                total = statistics.fmean(passes[wl][0]) * 1e3
                layers["(outside any span)"] = total - sum(layers.values())
            extra = {"self_ms_per_op": self_ms, "layer_notes": LAYER_NOTES}
            RESULTS.mkdir(exist_ok=True)
            spans_path = RESULTS / f"{workload.name}-seed{args.seed}-spans.json"
            tracer.write(spans_path)
            extra["spans_file"] = str(spans_path.relative_to(ROOT))
            units = PER_LAYER
        else:
            durations, failed, errors = measure(workload, state, checker, args.seconds)
            metrics, p90 = timing_metrics(durations)
            who = resource.RUSAGE_CHILDREN if workload.name == "cli_artifacts" else resource.RUSAGE_SELF
            rss = peak_rss_mb(who)
            # after the RSS reading, so that no probe interpreter counts as a cli_artifacts child
            _, import_s = interpreter_costs(1 if args.quick else IMPORT_PROBES)
            metrics["setup_s"] = import_s + statistics.median(setup_times)
            metrics["peak_rss_mb"] = rss
            attempted = len(durations)
            runs = {workload.name: {"attempted": attempted, "failed": failed}}
            wrong, failures = checker.wrong, checker.failures
            extra = {
                "samples": attempted,
                "op_p90_ms": p90,
                "setup_repeats_s": setup_times,
                "import_s": import_s,
            }
            units = END_TO_END
        extra["errors"] = errors[:5]
        extra["check_failures"] = failures[:20]
        return build_report(args, workload, state, runs, metrics, units,
                            wrong == 0, attempted, failed, extra)
    finally:
        workload.close(state)


LAYER_NOTES = {
    "*.ms, *.us": "mean time per call, from spans around the public function",
    "*.us_per_point, *.us_per_step": "span time divided by grid points or simulated steps",
    "mdp.value_iteration.sweeps, mdp.policy_iteration.rounds": "per mdp_offline operation",
    "lookahead.leaves, lookahead.distinct_subproblems": "per lookahead_play operation, "
    "all three CE modes; distinct counts (state, remaining) pairs incl. each root",
    "lookahead.useful_ratio": "distinct_subproblems / leaves",
    "formats.write_csv.bytes": "bytes written per cli_artifacts in-process cycle",
    "generators.random_mdp.ms, mdp.FiniteMDP.build_ms": "per call during set-up",
    "trace.overhead_pct": "(untraced - traced) / untraced ops_per_s on the run's workload",
}


def print_report(report):
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"rev={report['environment']['git_rev'][:12]} python={report['environment']['python']} "
          f"numpy={report['environment']['numpy']} nproc={report['environment']['nproc']} "
          f"blas_threads={report['environment']['blas_threads']}")
    for key, counts in report["operations"].items():
        print(f"  operations {key}: attempted={counts['attempted']} failed={counts['failed']}")
    for name, entry in report["metrics"].items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")
    if report.get("op_p90_ms") is not None:
        print(f"  op_p90_ms = {report['op_p90_ms']!r} ms ({report['samples']} samples)")
    for wl, layers in report.get("self_ms_per_op", {}).items():
        shares = ", ".join(f"{layer} {ms:.3f}" for layer, ms in sorted(layers.items()))
        print(f"  self ms per op on {wl}: {shares}")
    for line in report.get("check_failures", []) + report.get("errors", []):
        print(f"  ! {line.strip()}")


def write_report(report):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dpnewton" / "__init__.py").is_file():
        print(f"perfbench: no dpnewton sources under {src}; run it from a dpnewton checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    import workloads as wl

    if args.workload is not None and args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    if not args.quick:
        report = run_one(args, wl.WORKLOADS, wl.WORKLOADS[args.workload])
        write_report(report)
        print_report(report)
        problems = schema_errors(report)
        if problems:
            print(f"perfbench: malformed report: {problems}", file=sys.stderr)
            return 1
        print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0

    # quick mode: toy sizes; one traced run covers every workload's layers
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    ok = True
    for trace, name in [(0, name) for name in names] + [(1, names[0])]:
        sub = argparse.Namespace(**{**vars(args), "trace": trace, "workload": name,
                                    "seconds": min(args.seconds, 0.2)})
        report = run_one(sub, wl.WORKLOADS, wl.WORKLOADS[name])
        problems = schema_errors(report)
        passed = report["correct"] and report["failed"] == 0 and not problems
        ok &= passed
        print(f"quick {name} trace={trace}: {'ok' if passed else 'FAILED'} "
              f"attempted={report['attempted']} failed={report['failed']} "
              f"correct={report['correct']} {problems or ''}")
    print(json.dumps({"quick": True, "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
