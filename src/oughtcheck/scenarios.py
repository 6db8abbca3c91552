"""Two worked scenarios with known verdicts, used as end-to-end checks.

miners — one agent, six worlds pairing a shaft guess with an outcome count,
one three-way decision point.  Blocking the safer-looking shaft is a gamble
(expected value 5 either way); leaving both open guarantees 9.  The ought
verdicts come out false/false/true accordingly.

allergy — two agents.  Agent b knows whether the patient reacts to the
default drug; agent a picks the drug but starts out unable to tell.  A
first decision point lets b inform a (or stay silent), a second one has a
choose the drug.  After being informed, a's matching choice is both known
to be safe and expectation-maximal, so the nested obligation holds; after
staying silent it does not, because a cannot rule out the bad match.

Each scenario fixes claims (formula, world, expected verdict).  A report
evaluates them with full explanation trees, lists the staged products,
tabulates the component expectation value of each run in the agent's
carrier (where obligations, bare atoms and `oughtcheck expect` value it),
and adds informational lines: computed readings of nearby informal
statements that are worth seeing but are not pass/fail targets, plus a
concrete counterexample to the bare negation rewrite clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .actions import DecisionPoint, env_of
from .errors import CheckerError
from .expect import component_value
from .formula import Trace, trace_text
from .kripke import GradedKripkeModel, world_id
from .parser import parse
from .product import apply_sequence, product
from .semantics import Verdict, atom_carrier, evaluate, evaluate_plain
from .submodel import agent_submodel

SCENARIO_NAMES = ("miners", "allergy")


@dataclass(frozen=True)
class Claim:
    text: str
    world: str
    expected: bool
    note: str = ""


@dataclass
class ClaimResult:
    claim: Claim
    verdict: Verdict

    @property
    def ok(self) -> bool:
        return self.verdict.holds == self.claim.expected


@dataclass
class ExpectationRow:
    agent: str
    root: object
    trace: Trace
    value: Fraction

    def render(self) -> str:
        return (
            f"E[{self.agent}; {trace_text(self.trace)}] rooted {world_id(self.root)}"
            f" = {self.value.numerator}/{self.value.denominator}"
        )


@dataclass
class ScenarioReport:
    name: str
    model: GradedKripkeModel
    actions: List[DecisionPoint]
    env: Dict
    point: str
    claims: List[ClaimResult] = field(default_factory=list)
    expectations: List[ExpectationRow] = field(default_factory=list)
    informational: List[str] = field(default_factory=list)
    stages: List[GradedKripkeModel] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.claims)

    def claim_verdict(self, text: str) -> ClaimResult:
        for c in self.claims:
            if c.claim.text == text:
                return c
        raise KeyError(text)

    def expectation(self, agent: str, trace: Trace) -> Fraction:
        for row in self.expectations:
            if row.agent == agent and row.trace == trace:
                return row.value
        raise KeyError((agent, trace))

    def as_dict(self) -> Dict:
        return {
            "scenario": self.name,
            "point": self.point,
            "ok": self.ok,
            "claims": [
                {
                    "formula": c.claim.text,
                    "world": c.claim.world,
                    "expected": c.claim.expected,
                    "holds": c.verdict.holds,
                    "ok": c.ok,
                    "note": c.claim.note,
                }
                for c in self.claims
            ],
            "expectations": [
                {
                    "agent": row.agent,
                    "trace": trace_text(row.trace),
                    "root": world_id(row.root),
                    "value": f"{row.value.numerator}/{row.value.denominator}",
                }
                for row in self.expectations
            ],
            "informational": list(self.informational),
        }


def miners_model() -> Tuple[GradedKripkeModel, List[DecisionPoint]]:
    """Six worlds: shaft guess (A or B) crossed with lives saved (10/9/0)."""
    worlds = ["A10", "A9", "A0", "B10", "B9", "B0"]
    valuation = {
        "A10": {"A", "s10"}, "A9": {"A", "s9"}, "A0": {"A", "s0"},
        "B10": {"B", "s10"}, "B9": {"B", "s9"}, "B0": {"B", "s0"},
    }
    desirability = {
        "A10": 10, "A9": 9, "A0": 0, "B10": 10, "B9": 9, "B0": 0,
    }
    relations = {"i": {w: frozenset(worlds) for w in worlds}}
    model = GradedKripkeModel(
        agents=["i"],
        atoms=["A", "B", "s10", "s9", "s0"],
        worlds=worlds,
        relations=relations,
        valuation=valuation,
        desirability=desirability,
        frame="S5",
        name="miners",
    )
    block = DecisionPoint(
        "U",
        "i",
        ["alpha", "beta", "gamma"],
        pre={
            # Blocking a shaft pays off exactly when the guess matches;
            # leaving both open always saves nine.
            "alpha": parse("(A & s10) | (B & s0)"),
            "beta": parse("(A & s0) | (B & s10)"),
            "gamma": parse("s9"),
        },
    )
    return model, [block]


def allergy_model() -> Tuple[GradedKripkeModel, List[DecisionPoint]]:
    """Two agents: b may inform a about a drug reaction, then a prescribes.

    w1/w2 pair the reactive patient with either drug choice being the
    eventual outcome; only b can tell them apart from w3..w6, which add the
    outcomes a considers possible before being informed (w5: no reaction,
    default drug works out best).
    """
    worlds = ["w1", "w2", "w3", "w4", "w5", "w6"]
    valuation = {
        "w1": {"A", "d"}, "w2": {"A", "d'"},
        "w3": {"A", "d"}, "w4": {"A", "d'"},
        "w5": {"d"}, "w6": {"d'"},
    }
    desirability = {
        "w1": 0, "w2": 40, "w3": 0, "w4": 40, "w5": 100, "w6": 40,
    }
    top = frozenset({"w1", "w2"})
    bottom = frozenset({"w3", "w4", "w5", "w6"})
    relations = {
        "a": {w: bottom for w in worlds},
        "b": {w: (top if w in top else bottom) for w in worlds},
    }
    model = GradedKripkeModel(
        agents=["a", "b"],
        atoms=["A", "d", "d'"],
        worlds=worlds,
        relations=relations,
        valuation=valuation,
        desirability=desirability,
        frame="KD45",
        name="allergy",
    )
    inform = DecisionPoint(
        "U",
        "b",
        ["delta", "gamma"],
        pre={"delta": parse("A"), "gamma": parse("true")},
        agents=["a", "b"],
    )
    prescribe = DecisionPoint(
        "U2",
        "a",
        ["alpha", "beta"],
        pre={"alpha": parse("d"), "beta": parse("d'")},
        agents=["a", "b"],
    )
    return model, [inform, prescribe]


def _claim(report: ScenarioReport, text: str, world: str, expected: bool, note=""):
    formula = parse(text, report.env)
    verdict = evaluate(report.model, world, formula, report.env)
    report.claims.append(ClaimResult(Claim(text, world, expected, note), verdict))


def _expectation(report: ScenarioReport, agent: str, base: str, trace: Trace):
    """Value running trace from base in the agent's carrier, as obligations,
    bare atoms and `oughtcheck expect` do."""
    carrier, root = atom_carrier(report.model, base, agent, trace, report.env)
    report.expectations.append(
        ExpectationRow(agent, root, trace, component_value(carrier, root, agent))
    )


def _run_miners() -> ScenarioReport:
    model, actions = miners_model()
    env = env_of(actions)
    report = ScenarioReport("miners", model, actions, env, point="A9")
    pm = product(model, actions[0])
    report.stages = [pm]

    for ev, expected in [("alpha", False), ("beta", False), ("gamma", True)]:
        _claim(report, f"O{{i}}(U.{ev} | true)", "A9", expected)

    for base, ev in [("A10", "alpha"), ("A0", "beta"), ("A9", "gamma")]:
        _expectation(report, "i", base, (("U", ev),))

    avail = evaluate_plain(model, "A9", parse("<U.alpha> true", env), env)
    report.informational.append(
        f"<U.alpha> true at A9 = {avail}: no blocking branch survives at the"
        " point itself; availability here is read off the surviving branches,"
        " not off the agent's uncertainty"
    )
    lhs = evaluate_plain(model, "A10", parse("O{i}(U.alpha | !false)", env), env)
    bare = parse("((A & s10) | (B & s0)) & !O{i}(U.alpha | false)", env)
    rhs = evaluate_plain(model, "A10", bare, env)
    fixed = parse(
        "(((A & s10) | (B & s0)) & !O{i}(U.alpha | false)) & e{i; U.alpha}", env
    )
    rhs_e = evaluate_plain(model, "A10", fixed, env)
    report.informational.append(
        "negation rewrite at A10: O{i}(U.alpha | !false)"
        f" = {lhs}, but precondition & !O{{i}}(U.alpha | false) = {rhs};"
        " the bare clause drops the expectation conjunct"
    )
    report.informational.append(
        f"with the expectation conjunct restored the rewrite agrees: {rhs_e}"
    )
    return report


def _run_allergy() -> ScenarioReport:
    model, actions = allergy_model()
    env = env_of(actions)
    report = ScenarioReport("allergy", model, actions, env, point="w2")
    inform, prescribe = actions
    pm1 = product(model, inform)
    pm2 = apply_sequence(model, actions)
    report.stages = [pm1, pm2]

    good = "O{b}(U.delta | O{a}(U2.beta | K{a} A))"
    bad = "O{b}(U.gamma | O{a}(U2.beta | K{a} A))"
    _claim(report, good, "w2", True,
           note="informing makes the matching prescription obligatory")
    _claim(report, bad, "w2", False,
           note="staying silent leaves a unable to rule out the bad match")
    _claim(report, "O{a}(U2.beta | K{a} A)", "w2", False,
           note="before the informing step a has no such duty")
    _claim(report, "<U.delta> O{a}(U2.beta | K{a} A)", "w2", True,
           note="after the informing step the duty is in force")

    for base, first, second in [
        ("w1", "delta", "alpha"),
        ("w2", "delta", "beta"),
        ("w1", "gamma", "alpha"),
        ("w2", "gamma", "beta"),
    ]:
        for agent in ("a", "b"):
            _expectation(report, agent, base, (("U", first), ("U2", second)))

    know_after = evaluate_plain(
        model, "w2", parse("K{b} <U.delta> O{a}(U2.beta | K{a} A)", env), env
    )
    report.informational.append(
        f"K{{b}} <U.delta> O{{a}}(U2.beta | K{{a}} A) at w2 = {know_after}:"
        " b's horizon includes the d-world w1, where the matching"
        " prescription's precondition fails"
    )
    try:
        horizon = agent_submodel(model, "w2", "b")
        evaluate_plain(horizon, "w2", parse("O{a}(U2.beta | K{a} A)", env), env)
        report.informational.append(
            "evaluating a's duty inside b's deliberation horizon: defined"
        )
    except CheckerError as exc:
        report.informational.append(
            "evaluating a's duty inside b's deliberation horizon raises"
            f" {type(exc).__name__}: a's edges all leave that horizon, so"
            " a's expectation has no successors there"
        )
    return report


def run_scenario(name: str) -> ScenarioReport:
    if name == "miners":
        return _run_miners()
    if name == "allergy":
        return _run_allergy()
    raise CheckerError(f"unknown scenario {name!r}; pick from {SCENARIO_NAMES}")
