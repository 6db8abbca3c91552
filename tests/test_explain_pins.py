"""Explanation trails, pinned: the tree of every scenario claim, and one
digest per frame class over seeded `evaluate` outcomes on generated models.
A change to any clause's verdict, note, values, children or error shows here.

To re-record after an intended change to the trails:

    PYTHONPATH=src python tests/test_explain_pins.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from oughtcheck.cli import _verdict_dict
from oughtcheck.errors import CheckerError, Unsatisfiable
from oughtcheck.generate import GenParams, gen_decision_point, gen_formula, gen_model
from oughtcheck.product import product
from oughtcheck.scenarios import SCENARIO_NAMES, run_scenario
from oughtcheck.semantics import evaluate

PINS = Path(__file__).parent / "explain_pins.json"
FRAMES = {"S5": 121, "KD45": 122, "K": 123}
DRAWS = 150


def scenario_trees(name):
    return [
        {"claim": c.claim.text, "world": c.claim.world, "tree": _verdict_dict(c.verdict)}
        for c in run_scenario(name).claims
    ]


def frame_outcomes(frame):
    """DRAWS seeded outcomes of `evaluate` on generated models of the frame
    class, at base worlds and in product contexts: each the explanation
    tree, or the [error class, message] pair it raised."""
    rng = random.Random(FRAMES[frame])
    params = GenParams(max_worlds=6, frame=frame)
    contexts = []
    while len(contexts) < 12:
        m = gen_model(rng, params)
        try:
            env = {}
            env["U"] = gen_decision_point(rng, m, "U", params, env=env)
            env["V"] = gen_decision_point(rng, m, "V", params, env=env)
        except Unsatisfiable:
            continue
        contexts += [(m, env, None), (product(m, env["U"]), env, "U")]
    outcomes = []
    for _ in range(DRAWS):
        m, env, banned = rng.choice(contexts)
        w = rng.choice(m.worlds)
        f = gen_formula(rng, m, env, depth=3, banned_dp=banned)
        try:
            outcomes.append(_verdict_dict(evaluate(m, w, f, env)))
        except CheckerError as exc:
            outcomes.append([type(exc).__name__, str(exc)])
    return outcomes


def digest(outcomes):
    return hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()


def record():
    return {
        "scenarios": {name: scenario_trees(name) for name in SCENARIO_NAMES},
        "frames": {frame: digest(frame_outcomes(frame)) for frame in FRAMES},
    }


_PINS = json.loads(PINS.read_text()) if PINS.exists() else {}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_trails_are_pinned(name):
    assert scenario_trees(name) == _PINS["scenarios"][name]


@pytest.mark.parametrize("frame", list(FRAMES))
def test_generated_trails_are_pinned(frame):
    outcomes = frame_outcomes(frame)
    # the draws reach both verdicts and at least one error
    assert {True, False} <= {o["holds"] for o in outcomes if isinstance(o, dict)}
    assert any(isinstance(o, list) for o in outcomes)
    assert digest(outcomes) == _PINS["frames"][frame]


if __name__ == "__main__":
    PINS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
