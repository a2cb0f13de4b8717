"""Spans around calls into dpnewton's public functions, recorded from outside.

`Tracer.install()` replaces each function listed in TARGETS, in every
dpnewton module that binds it, with a wrapper that records a span: name,
start, end, parent span, workload and operation id, plus an optional count
(sweeps, rounds, leaves, bytes).  `uninstall()` puts the originals back, so
untraced phases run the program untouched.  Spans stay in memory until
`write()` at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_now = time.perf_counter_ns


def _named(name):
    return lambda args: name


def _policy_evaluation_name(args):
    return "mdp.policy_evaluation." + ("discounted" if args[0].discount < 1.0 else "undiscounted")


def _lookahead_name(args):
    # Depth <= 2 is the shallow play of mdp_offline, deeper trees are the
    # on-line decisions of lookahead_play.
    spec = args[1]
    return "lookahead.shallow" if spec.depth <= 2 else f"lookahead.decision.{spec.ce_mode}"


def _ratio_points(args, result):
    points, skipped = result
    return len(points) + len(skipped)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# (module, attribute, span name from positional args, count from (args, result))
TARGETS = [
    ("dpnewton.mdp", "bellman_operator", _named("mdp.bellman_operator"), None),
    ("dpnewton.mdp", "greedy_policy", _named("mdp.greedy_policy"), None),
    ("dpnewton.mdp", "value_iteration", _named("mdp.value_iteration"), lambda a, r: r[1]),
    ("dpnewton.mdp", "policy_evaluation", _policy_evaluation_name, None),
    ("dpnewton.mdp", "policy_iteration", _named("mdp.policy_iteration"), lambda a, r: r[2]),
    ("dpnewton.mdp", "rollout_policy", _named("mdp.rollout_policy"), None),
    ("dpnewton.lookahead", "lookahead_policy", _lookahead_name, lambda a, r: r.leaves),
    ("dpnewton.lq", "solve_riccati", _named("lq.solve_riccati"), None),
    ("dpnewton.lq", "rollout", _named("lq.rollout"), None),
    ("dpnewton.lq", "policy_iteration", _named("lq.policy_iteration"), lambda a, r: len(r)),
    ("dpnewton.adaptive", "robustness_sweep", _named("adaptive.robustness_sweep"),
     lambda a, r: len(r)),
    ("dpnewton.adaptive", "replan_simulation", _named("adaptive.replan_simulation"),
     lambda a, r: len(r.stage_costs)),
    ("dpnewton.adaptive", "superlinear_ratios", _named("adaptive.superlinear_ratios"),
     _ratio_points),
    ("dpnewton.generators", "random_mdp", _named("generators.random_mdp"), None),
    ("dpnewton.formats", "save_mdp", _named("formats.save_mdp"), None),
    ("dpnewton.formats", "load_mdp", _named("formats.load_mdp"), None),
    ("dpnewton.formats", "write_csv", _named("formats.write_csv"), _file_bytes),
]

# field order of one recorded span
ID, PARENT, WORKLOAD, OP, NAME, START, END, COUNT = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.workload = ""
        self.op: int | str = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> list:
        span = [
            len(self.spans),
            self._stack[-1] if self._stack else -1,
            self.workload,
            self.op,
            name,
            _now(),
            0,
            None,
        ]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def end(self, span: list, count=None) -> None:
        span[END] = _now()
        span[COUNT] = count
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Runs fn inside a span of the benchmark's own."""
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    # -- patching ---------------------------------------------------------

    def _wrapper(self, original, namer, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(namer(args))
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(span)
                raise
            tracer.end(span, counter(args, result) if counter else None)
            return result

        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "dpnewton" or name.startswith("dpnewton.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def wrap(self, owner, attr: str, namer, counter=None) -> None:
        """Wraps one attribute of a class or module of the benchmark's own."""
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrapper(original, namer, counter))
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        from dpnewton.mdp import FiniteMDP

        for module_name, attr, namer, counter in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            self._replace_everywhere(original, self._wrapper(original, namer, counter))
        self.wrap(FiniteMDP, "__init__", _named("mdp.FiniteMDP.build"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[tuple[str, object, str], int]:
        """Nanoseconds per (workload, op, layer) not covered by child spans;
        the layer is the first dotted component of the span name."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        totals: dict[tuple[str, object, str], int] = {}
        for span, ns in zip(self.spans, own):
            key = (span[WORKLOAD], span[OP], span[NAME].split(".", 1)[0])
            totals[key] = totals.get(key, 0) + ns
        return totals

    def write(self, path) -> None:
        fields = ["id", "parent", "workload", "op", "name", "start_ns", "end_ns", "count"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")
