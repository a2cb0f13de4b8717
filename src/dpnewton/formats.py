"""On-disk interchange formats: the MDP document, CSV tables, JSON results.

Everything written here is deterministic byte for byte: reals carry 17
significant digits (enough to round-trip a double exactly), infinities are
spelled `inf`, line endings are `\\n`, and no locale is consulted.  The MDP
document layout is described in docs/formats.md.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import nullcontext
from pathlib import Path
from typing import Iterable, Sequence

from .errors import MDPValidationError
from .mdp import FiniteMDP

__all__ = [
    "fmt_real",
    "parse_real",
    "save_mdp",
    "load_mdp",
    "mdp_document",
    "write_csv",
    "dump_json",
]


def fmt_real(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN has no serialized form")
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


def parse_real(s: str) -> float:
    if isinstance(s, bool):  # a JSON true is an int to float()
        raise ValueError(f"expected a number, got {s!r}")
    x = float(s)
    if math.isnan(x):
        raise ValueError("NaN is not a value")
    return x


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        raise TypeError("booleans do not appear in these tables")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return fmt_real(v)
    raise TypeError(f"cannot format {type(v).__name__} cell {v!r}")


def _open(target, mode: str):
    """A text stream for a path (opened here, with no newline translation),
    or the already open stream that `target` is."""
    if isinstance(target, (str, Path)):
        return open(target, mode, newline="")
    return nullcontext(target)


def write_csv(target, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with a mandatory header row and fixed \\n line endings, written to a
    path or an open text stream."""
    with _open(target, "w") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        for row in rows:
            out.writerow([_cell(v) for v in row])


def _jsonable(obj):
    if isinstance(obj, float):
        return fmt_real(obj) if math.isinf(obj) else obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def dump_json(obj, target) -> None:
    """Canonical JSON result, to a path or an open text stream: sorted keys,
    infinities as "inf"."""
    with _open(target, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def mdp_document(mdp: FiniteMDP) -> dict:
    """The interchange form: states, alpha, controls[x], transitions[x][u]."""
    return {
        "states": mdp.n_states,
        "alpha": mdp.discount,
        "controls": [list(ids) for ids in mdp.controls],
        "transitions": [
            [
                [{"p": o.p, "next": o.next, "cost": o.cost} for o in dist]
                for dist in per_state
            ]
            for per_state in mdp.transitions
        ],
    }


def save_mdp(mdp: FiniteMDP, target) -> None:
    """The interchange document, to a path or an open text stream."""
    with _open(target, "w") as fh:
        json.dump(mdp_document(mdp), fh, indent=2)
        fh.write("\n")


def _require(doc: dict, key: str, kind=None):
    """A top-level field of the document, of type `kind` when one is given."""
    if key not in doc:
        raise MDPValidationError(key, "missing required field")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise MDPValidationError(key, f"expected {kind.__name__}, got {value!r}")
    return value


def load_mdp(source) -> FiniteMDP:
    """Reads the JSON interchange document and validates it completely.

    The first violation is reported as an MDPValidationError whose .path
    names the offending field, e.g. "transitions[1][0][2].p".  `source` is a
    path or anything json.load accepts via read().  This function checks the
    document's shape: objects, lists, unknown and missing keys, and the
    states count.  FiniteMDP checks every number, so a shape fault is
    reported before a number fault.
    """
    with _open(source, "r") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise MDPValidationError("$", "the document must be a JSON object")
    unknown = set(doc) - {"states", "alpha", "controls", "transitions"}
    if unknown:
        raise MDPValidationError(sorted(unknown)[0], "unknown field")

    n = _require(doc, "states", int)
    if isinstance(n, bool) or n < 1:
        raise MDPValidationError("states", f"expected a positive count, got {n!r}")
    alpha = _require(doc, "alpha")
    transitions = _require(doc, "transitions", list)
    if len(transitions) != n:
        raise MDPValidationError(
            "transitions", f"expected {n} per-state entries, got {len(transitions)}"
        )
    controls = doc.get("controls")
    if controls is not None:
        if not isinstance(controls, list):
            raise MDPValidationError("controls", f"expected list, got {controls!r}")
        for x, ids in enumerate(controls):
            if not isinstance(ids, list):
                raise MDPValidationError(f"controls[{x}]", f"expected list, got {ids!r}")

    table = []
    for x, per_state in enumerate(transitions):
        if not isinstance(per_state, list):
            raise MDPValidationError(f"transitions[{x}]", f"expected list, got {per_state!r}")
        dists = []
        for u, dist in enumerate(per_state):
            if not isinstance(dist, list):
                raise MDPValidationError(
                    f"transitions[{x}][{u}]", f"expected list, got {dist!r}"
                )
            outs = []
            for k, item in enumerate(dist):
                where = f"transitions[{x}][{u}][{k}]"
                if not isinstance(item, dict):
                    raise MDPValidationError(where, f"expected object, got {item!r}")
                unknown = set(item) - {"p", "next", "cost"}
                if unknown:
                    raise MDPValidationError(
                        f"{where}.{sorted(unknown)[0]}", "unknown field"
                    )
                try:
                    outs.append((item["p"], item["next"], item["cost"]))
                except KeyError as err:
                    raise MDPValidationError(
                        f"{where}.{err.args[0]}", "missing required field"
                    ) from None
            dists.append(outs)
        table.append(dists)

    # the numbers and the model's rules (ranges, sums, the absorbing state)
    # are checked by the constructor with the same path convention
    return FiniteMDP(alpha, table, controls)
