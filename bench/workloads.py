"""Inputs, operations and outcome checks of the three benchmark workloads.

Inputs come either from this file's own seeded generators (the sweep
documents, the deep-nesting texts) or from the committed pool files in
``bench/expected/`` (the axiom-suite trial seeds, the formula-batch models and
formulas).  The pool files also hold every operation's expected outcome,
made once by ``bench/make_expected.py``; nothing here needs ``tests/``.

A round runs a workload's whole pool once, in an order drawn from the
workload seed and the round number, so every round does the same work and
the seed changes only the order.  A workload's ``warm_rounds`` run untimed
before the timed ones.

An operation returns a list of outcome tokens: ``T``/``F`` for a verdict,
``ok`` for a step that returned normally, or the class name of the
``CheckerError`` it raised.  Anything else raised (``RecursionError``,
``MemoryError``) becomes ``uncaught:<Class>`` and never matches.  An expected
token ``E`` means "the reference raises, and the seed commit named no class
for it", which any ``CheckerError`` matches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

# Every workload process runs under this hash seed.  Two known defects make
# outcomes depend on set iteration order, so it is part of the input.
HASH_SEED = "0"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pool(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


# -- outcome tokens ------------------------------------------------------------------


def attempt(oc, call):
    """Run `call`; return (error token or None, value)."""
    try:
        return None, call()
    except oc.CheckerError as exc:
        return type(exc).__name__, None
    except Exception as exc:  # the op boundary: anything else fails the op
        return "uncaught:" + type(exc).__name__, None


def verdict(oc, call) -> str:
    err, value = attempt(oc, call)
    return err or ("T" if value else "F")


def matches(expected: str, got: str) -> bool:
    if expected == got:
        return True
    return expected == "E" and got not in ("T", "F", "ok") and not got.startswith("uncaught:")


def is_error(token: str) -> bool:
    """Does the token name an exception class?"""
    return token.startswith("uncaught:") or (
        token.isidentifier() and token not in ("T", "F", "ok")
    )


# -- obligation-sweep ----------------------------------------------------------------

SWEEP_ACTIONS = {
    "actions": [
        {
            "id": "U",
            "owner": "i",
            "events": [
                {"name": "a", "pre": "p"},
                {"name": "b", "pre": "q"},
                {"name": "c", "pre": "true"},
            ],
        }
    ]
}
SWEEP_FORMULA = "O{i}(U.a | K{i} p) | O{i}(U.c | q)"


def sweep_doc(worlds: int, cells: int, index: int) -> dict:
    """S5 model document: one agent `i`, atoms p and q, `cells` equal
    information cells over `worlds` worlds, drawn from its pool index.

    In every cell p holds at exactly half the worlds and q, drawn apart, at
    exactly half, so all documents of one size build carriers of the same
    sizes: they differ in which worlds those are and in the values."""
    if worlds <= 0 or cells <= 0 or worlds % cells:
        raise ValueError("the world count must be a positive multiple of the cell count")
    rng = random.Random(f"sweep:{worlds}:{cells}:{index}")
    ids = [f"w{k}" for k in range(worlds)]
    order = ids[:]
    rng.shuffle(order)
    blocks = [order[k::cells] for k in range(cells)]
    true_atoms = {w: [] for w in ids}
    for block in blocks:
        for atom in ("p", "q"):
            for w in rng.sample(block, len(block) // 2):
                true_atoms[w].append(atom)
    return {
        "agents": ["i"],
        "atoms": ["p", "q"],
        "frame": "S5",
        "worlds": [
            {"id": w, "true_atoms": sorted(true_atoms[w]), "value": rng.randint(0, 9)}
            for w in ids
        ],
        "relations": {"i": [[w, u] for block in blocks for w in block for u in block]},
    }


def sweep_round(oc, doc):
    """Load one sweep document cold and yield (world, op) per world."""
    model, _ = oc.model_from_doc(doc)
    points, _ = oc.actions_from_doc(SWEEP_ACTIONS)
    env = oc.env_of(points)
    f = oc.parse(SWEEP_FORMULA, env)
    for w in model.worlds:
        yield w, (lambda w=w: [verdict(oc, lambda: oc.evaluate_plain(model, w, f, env))])


class Sweep:
    """One op is one world's evaluate_plain; each document is loaded afresh."""

    name = "obligation-sweep"
    warm_rounds = 0

    def __init__(self, oc, seed: int):
        self.oc = oc
        self.seed = seed
        pool = load_pool(self.name)
        self.known = set(pool["known_failures"])
        self.docs = []
        for k, entry in enumerate(pool["docs"]):
            doc = sweep_doc(pool["worlds"], pool["cells"], k)
            if digest(doc) != entry["digest"]:
                raise SystemExit(f"sweep document {k} differs from the one the expected file was made for")
            self.docs.append((k, doc, entry["expected"]))

    def round(self, r: int):
        docs = self.docs[:]
        random.Random(f"{self.name}:{self.seed}:{r}").shuffle(docs)
        for k, doc, expected in docs:
            for (w, op), exp in zip(sweep_round(self.oc, doc), expected):
                yield f"{k}:{w}", [exp], op


# -- axiom-suite ---------------------------------------------------------------------


def suite_tokens(report_dict: dict, schemas) -> list:
    """One `checked/counterexamples/errors` token per schema."""
    flat = {}
    for bucket in ("axioms", "informational", "ambiguities"):
        for name, r in report_dict[bucket].items():
            flat[f"{bucket}/{name}"] = f"{r['checked']}/{r['counterexamples']}/{r['errors']}"
    return [flat.pop(s, "0/0/0") for s in schemas] + sorted(flat)


class AxiomSuite:
    """One op is one `run_axiom_suite(1, s_k)` in S5."""

    name = "axiom-suite"
    warm_rounds = 0

    def __init__(self, oc, seed: int):
        self.oc = oc
        self.seed = seed
        pool = load_pool(self.name)
        self.known = set(pool["known_failures"])
        self.schemas = pool["schemas"]
        self.trials = [(s, e.split()) for s, e in zip(pool["seeds"], pool["expected"])]

    def round(self, r: int):
        oc = self.oc
        trials = self.trials[:]
        random.Random(f"{self.name}:{self.seed}:{r}").shuffle(trials)
        for s, expected in trials:

            def op(s=s):
                err, report = attempt(oc, lambda: oc.run_axiom_suite(1, s, frame="S5"))
                return [err] if err else suite_tokens(report.as_dict(), self.schemas)

            yield str(s), expected, op


# -- formula-batch -------------------------------------------------------------------

DEEP_DEPTHS = (1000, 3000)
DEEP_KINDS = ("not", "and", "know")

# Two worlds; agent `a` sees only the other one.  A K-chain changes world at
# every level and has one successor per level, so every deep formula's
# verdict follows by hand and no correct evaluator does more than linear work.
DEEP_MODEL = {
    "agents": ["a"],
    "atoms": ["p"],
    "frame": "K",
    "worlds": [
        {"id": "d0", "true_atoms": ["p"], "value": 1},
        {"id": "d1", "true_atoms": [], "value": 0},
    ],
    "relations": {"a": [["d0", "d1"], ["d1", "d0"]]},
}


def deep_text(kind: str, depth: int) -> str:
    """A formula whose syntax tree is `depth` operators deep."""
    if kind == "not":
        return "!" * depth + "p"
    if kind == "and":
        return " & ".join(["p"] * (depth + 1))
    if kind == "know":
        return "K{a} " * depth + "p"
    raise ValueError(kind)


def deep_expected(kind: str, depth: int) -> list:
    """Parse, verdicts at d0 and d1, explained verdict at d0, translation.
    p holds at d0 only; a `!` or K{a} level flips the world's answer."""
    at = [True, False] if kind == "and" else [depth % 2 == 0, depth % 2 == 1]
    v = ["T" if x else "F" for x in at]
    return ["ok", v[0], v[1], v[0], "ok"]


def reduced(oc, f) -> bool:
    """No obligation and no after-run diamond left (walked without recursion)."""
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (oc.Ought, oc.Diamond)):
            return False
        for fld in dataclasses.fields(node):
            child = getattr(node, fld.name)
            if isinstance(child, oc.Formula):
                stack.append(child)
    return True


def batch_op(oc, model, env, text, roundtrip=True) -> list:
    """parse, evaluate_plain at every world, explained evaluate at the first
    world, translate (standard mode)."""
    err, f = attempt(oc, lambda: oc.parse(text, env))
    if err:
        return [err]
    out = ["ok" if not roundtrip or oc.to_text(f) == text else "bad:reparse"]
    for w in model.worlds:
        out.append(verdict(oc, lambda: oc.evaluate_plain(model, w, f, env)))
    out.append(verdict(oc, lambda: oc.evaluate(model, model.worlds[0], f, env).holds))
    err, tr = attempt(oc, lambda: oc.translate(f, env, "standard"))
    out.append(err or ("ok" if reduced(oc, tr.result) else "bad:not-reduced"))
    return out


def load_batch_model(oc, entry):
    model, _ = oc.model_from_doc(entry["model"])
    points, _ = oc.actions_from_doc(entry["actions"])
    return model, oc.env_of(points)


class FormulaBatch:
    """One op is one formula against a model that stays loaded for the whole
    run.  The models are loaded at set-up and a warm-up round fills their
    caches, so timed ops are reads on a warm cache: a cache that evicts or
    rebuilds shows here as slower ops."""

    name = "formula-batch"
    warm_rounds = 1

    def __init__(self, oc, seed: int):
        self.oc = oc
        self.seed = seed
        pool = load_pool(self.name)
        self.known = set(pool["known_failures"])
        self.models = pool["models"]
        self.loaded = [load_batch_model(oc, entry) for entry in self.models]
        self.deep_model, _ = oc.model_from_doc(DEEP_MODEL)
        self.deep = [
            (f"deep:{kind}:{depth}", deep_text(kind, depth), deep_expected(kind, depth))
            for kind in DEEP_KINDS
            for depth in DEEP_DEPTHS
        ]

    def round(self, r: int):
        oc = self.oc
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        order = list(range(len(self.models)))
        rng.shuffle(order)
        deep_at = {}
        for item in self.deep:
            deep_at.setdefault(rng.randrange(len(order)), []).append(item)
        for slot, m in enumerate(order):
            entry = self.models[m]
            model, env = self.loaded[m]
            ops = [
                (f"{m}:{i}", text, expected.split())
                for i, (text, expected) in enumerate(zip(entry["formulas"], entry["expected"]))
            ]
            rng.shuffle(ops)
            for item in deep_at.get(slot, ()):
                ops.insert(rng.randrange(len(ops) + 1), item)
            for op_id, text, expected in ops:
                if op_id.startswith("deep:"):
                    op = lambda t=text: batch_op(oc, self.deep_model, {}, t, roundtrip=False)  # noqa: E731
                else:
                    op = lambda t=text, m=model, e=env: batch_op(oc, m, e, t)  # noqa: E731
                yield op_id, expected, op


WORKLOADS = {w.name: w for w in (Sweep, AxiomSuite, FormulaBatch)}
