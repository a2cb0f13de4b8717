"""Interchange formats: exact real round-trips, the MDP document, CSV shape."""

import json
import math

import pytest

from dpnewton.formats import (
    dump_json,
    fmt_real,
    load_mdp,
    mdp_document,
    parse_real,
    save_mdp,
    write_csv,
)
from dpnewton.generators import random_mdp
from dpnewton.mdp import MDPValidationError


GNARLY = [
    0.0,
    -0.0,
    0.1,
    1.0 / 3.0,
    math.pi,
    (2.0 + math.sqrt(6.0)) / 4.0,
    1e300,
    -4.9406564584124654e-324,
]


def test_reals_round_trip_exactly():
    for x in GNARLY:
        assert parse_real(fmt_real(x)) == x
    assert fmt_real(math.inf) == "inf"
    assert fmt_real(-math.inf) == "-inf"
    assert parse_real("inf") == math.inf
    with pytest.raises(ValueError):
        fmt_real(math.nan)
    with pytest.raises(ValueError):
        parse_real("nan")
    for flag in (True, False):  # JSON booleans are ints to float()
        with pytest.raises(ValueError, match="expected a number"):
            parse_real(flag)


def test_csv_layout(tmp_path):
    path = tmp_path / "table.csv"
    rows = [
        (0, 2.0, 0.5, "rollout", 1.0, -0.5, 1.125),
        (1, 2.0, 0.5, "rollout", math.inf, 0.0, math.inf),
    ]
    write_csv(path, ["k", "b", "r", "mode", "x", "u", "stage_cost"], rows)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "k,b,r,mode,x,u,stage_cost"
    assert lines[1] == "0,2,0.5,rollout,1,-0.5,1.125"
    assert lines[2] == "1,2,0.5,rollout,inf,0,inf"
    assert text.endswith("\n")
    assert "\r" not in text
    # identical input, identical bytes
    write_csv(tmp_path / "again.csv", ["k", "b", "r", "mode", "x", "u", "stage_cost"], rows)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_json_results_spell_infinity(tmp_path):
    path = tmp_path / "out.json"
    dump_json({"values": [0.0, math.inf, 2.5], "rounds": 3}, path)
    doc = json.loads(path.read_text())
    assert doc == {"values": [0.0, "inf", 2.5], "rounds": 3}
    dump_json({"values": [0.0, math.inf, 2.5], "rounds": 3}, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_mdp_document_round_trip(tmp_path):
    for seed in (0, 3, 11):
        mdp = random_mdp(seed)
        path = tmp_path / f"mdp{seed}.json"
        save_mdp(mdp, path)
        back = load_mdp(path)
        assert back.discount == mdp.discount
        assert back.controls == mdp.controls
        assert back.transitions == mdp.transitions


def test_document_shape():
    mdp = random_mdp(1)
    doc = mdp_document(mdp)
    assert set(doc) == {"states", "alpha", "controls", "transitions"}
    assert doc["states"] == mdp.n_states
    assert doc["transitions"][1][0][0].keys() == {"p", "next", "cost"}


def _load_text(text: str):
    import io

    return load_mdp(io.StringIO(text))


def _huge(text: str) -> str:
    """The document with "HUGE" spelled as an integer beyond the double range."""
    return text.replace('"HUGE"', "1" + "0" * 400)


def test_loader_reports_first_violation_with_path():
    good = {
        "states": 2,
        "alpha": 0.5,
        "transitions": [
            [[{"p": 1.0, "next": 0, "cost": 0.0}]],
            [[{"p": 1.0, "next": 0, "cost": 3.0}]],
        ],
    }

    def mutated(**changes):
        doc = json.loads(json.dumps(good))
        doc.update(changes)
        return json.dumps(doc)

    cases = [
        ("[1, 2]", "$"),
        (mutated(states=None), "states"),
        (mutated(states=0), "states"),
        (json.dumps({k: v for k, v in good.items() if k != "alpha"}), "alpha"),
        (mutated(alpha="x"), "alpha"),
        (mutated(alpha=True), "alpha"),
        (mutated(alpha=1.5), "alpha"),
        (_huge(mutated(alpha="HUGE")), "alpha"),
        (mutated(transitions=[[]]), "transitions"),
        (mutated(controls=3), "controls"),
        (mutated(controls=[[0], 5]), "controls[1]"),
        (mutated(controls=[[0], None]), "controls[1]"),
        (mutated(controls=[[0], {"a": 1}]), "controls[1]"),
        (mutated(transitions=[good["transitions"][0], 5]), "transitions[1]"),
        (mutated(transitions=[good["transitions"][0], [5]]), "transitions[1][0]"),
        (mutated(transitions=[good["transitions"][0], [[5]]]), "transitions[1][0][0]"),
        (mutated(transitions=[good["transitions"][0], [[{"p": 1.0, "cost": 3.0}]]]),
         "transitions[1][0][0].next"),
        (mutated(bogus=1), "bogus"),
    ]
    for text, path in cases:
        with pytest.raises(MDPValidationError) as err:
            _load_text(text)
        assert err.value.path == path, text

    # the numbers are FiniteMDP's to check, at the same paths; an integer no
    # double can hold is out of range, not a crash
    for field in ("p", "cost"):
        for bad, text in ((True, "expected a number, got True"),
                          ("heavy", "expected a number, got 'heavy'"),
                          ("HUGE", "the number leaves the double range")):
            doc = json.loads(json.dumps(good))
            doc["transitions"][1][0][0][field] = bad
            with pytest.raises(MDPValidationError) as err:
                _load_text(_huge(json.dumps(doc)))
            assert str(err.value) == f"transitions[1][0][0].{field}: {text}"

    # a shape fault is reported before number faults that come earlier
    extra = json.loads(json.dumps(good))
    extra["alpha"] = "x"
    extra["transitions"][1][0][0]["p"] = "heavy"
    extra["transitions"][1][0][0]["weight"] = 1.0
    with pytest.raises(MDPValidationError) as err:
        _load_text(json.dumps(extra))
    assert err.value.path == "transitions[1][0][0].weight"

    # semantic checks (here: a leaky distribution) keep the same convention
    leaky = json.loads(json.dumps(good))
    leaky["transitions"][1][0][0]["p"] = 0.25
    with pytest.raises(MDPValidationError) as err:
        _load_text(json.dumps(leaky))
    assert "transitions[1][0]" in err.value.path


def test_loader_accepts_missing_controls_field():
    text = json.dumps(
        {
            "states": 2,
            "alpha": 1.0,
            "transitions": [
                [[{"p": 1.0, "next": 0, "cost": 0.0}]],
                [[{"p": 1.0, "next": 1, "cost": 1.0}], [{"p": 1.0, "next": 0, "cost": 3.0}]],
            ],
        }
    )
    mdp = _load_text(text)
    assert mdp.controls == ((0,), (0, 1))
