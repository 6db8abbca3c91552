"""Random models, decision points, and formulas, plus the axiom suite.

Everything is driven by an explicit random.Random instance so runs are
reproducible from a seed.  Sizes stay small on purpose: the point of the
suite is breadth of shapes, not big instances.

The suite checks each schema on freshly drawn instances and reports, per
schema, how many contexts were checked, how many produced counterexamples,
and how many raised evaluation errors.  Results come in three buckets:

* axioms — schemas expected to hold everywhere (zero counterexamples);
* informational — variants recorded for comparison, not gating anything
  (the negation clause with the expectation conjunct restored, and the
  pointwise reading of the knowledge/obligation transfer);
* ambiguities — schemas with more than one defensible reading, where the
  report counts disagreements between readings instead of declaring truth
  (commuting obligation with same-agent knowledge, and the readings of the
  knowledge clause under an update).

The obligation schemas R1-R6 take their right-hand sides from
`reduce.obligation_clause`, the clauses `translate` itself applies: R3 and
R4 in literal mode, the others in standard mode.

The plain negation clause (R3 here) is reported in the axioms bucket even
though it has counterexamples: hiding the failure would defeat the suite's
purpose.  See the demonstration scenarios for a concrete counterexample.

Obligation and expectation schemas are checked inside deliberation
contexts: the acting agent's one-step horizon (their generated submodel)
at each world where they have successors, deduplicated by domain.  Update
schemas are checked at every world of the base model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .actions import DecisionPoint
from .errors import CheckerError, Unsatisfiable, ValidationError
from .expect import atom_holds
from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    ExpAtom,
    Formula,
    Implies,
    Know,
    Not,
    Ought,
    TRUE,
    big_and,
)
from .kripke import GradedKripkeModel, trace_of
from .product import product
from .reduce import obligation_clause, q_event_alternatives
from .semantics import evaluate_plain, holds_globally
from .submodel import agent_submodel, horizon

EVENT_NAMES = ("alpha", "beta", "gamma", "delta")
AGENT_NAMES = ("a", "b", "c")


@dataclass
class GenParams:
    min_worlds: int = 2
    max_worlds: int = 6
    max_agents: int = 3
    min_events: int = 2
    max_events: int = 4
    atoms: Tuple[str, ...] = ("p", "q", "r")
    value_lo: int = 0
    value_hi: int = 9
    frame: str = "S5"
    pre_tries: int = 60


def _partition(rng: random.Random, items: List[str]) -> List[List[str]]:
    blocks: List[List[str]] = []
    for it in items:
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).append(it)
        else:
            blocks.append([it])
    return blocks


def gen_model(
    rng: random.Random,
    params: Optional[GenParams] = None,
    name: Optional[str] = None,
) -> GradedKripkeModel:
    p = params or GenParams()
    n = rng.randint(p.min_worlds, p.max_worlds)
    worlds = [f"w{k}" for k in range(1, n + 1)]
    agents = list(AGENT_NAMES[: rng.randint(1, p.max_agents)])
    atoms = list(p.atoms[: rng.randint(2, len(p.atoms))])
    valuation = {
        w: frozenset(a for a in atoms if rng.random() < 0.5) for w in worlds
    }
    desirability = {w: rng.randint(p.value_lo, p.value_hi) for w in worlds}
    relations: Dict[str, Dict[str, set]] = {}
    for ag in agents:
        adj: Dict[str, set] = {w: set() for w in worlds}
        if p.frame == "S5":
            for block in _partition(rng, worlds):
                for x in block:
                    adj[x].update(block)
        elif p.frame == "KD45":
            members = rng.sample(worlds, rng.randint(1, n))
            clusters = _partition(rng, members)
            target = {w: rng.choice(clusters) for w in worlds}
            for c in clusters:
                for m in c:
                    target[m] = c
            for w in worlds:
                adj[w].update(target[w])
        elif p.frame == "K":
            for x in worlds:
                for y in worlds:
                    if rng.random() < 0.3:
                        adj[x].add(y)
        else:
            raise ValidationError(f"unknown frame {p.frame!r}")
        relations[ag] = adj
    return GradedKripkeModel(
        agents=agents,
        atoms=atoms,
        worlds=worlds,
        relations=relations,
        valuation=valuation,
        desirability=desirability,
        frame=p.frame,
        name=name,
    )


def _gen_pre(rng: random.Random, model: GradedKripkeModel) -> Formula:
    atoms = list(model.atoms)

    def literal() -> Formula:
        a = Atom(rng.choice(atoms))
        return Not(a) if rng.random() < 0.4 else a

    shape = rng.random()
    if shape < 0.35:
        f: Formula = literal()
    elif shape < 0.6:
        f = And(literal(), literal())
    elif shape < 0.8:
        f = Not(And(literal(), literal()))
    else:
        f = TRUE
    return f


def gen_decision_point(
    rng: random.Random,
    model: GradedKripkeModel,
    dp_id: str,
    params: Optional[GenParams] = None,
    owner: Optional[str] = None,
    env: Optional[Dict] = None,
) -> DecisionPoint:
    """A decision point whose every precondition holds somewhere in `model`."""
    p = params or GenParams()
    owner = owner or rng.choice(list(model.agents))
    n_events = rng.randint(p.min_events, min(p.max_events, len(EVENT_NAMES)))
    names = list(EVENT_NAMES[:n_events])
    pre: Dict[str, Formula] = {}
    for name in names:
        for _ in range(p.pre_tries):
            cand = _gen_pre(rng, model)
            if any(
                evaluate_plain(model, w, cand, {}) for w in model.domain_worlds()
            ):
                pre[name] = cand
                break
        else:
            raise Unsatisfiable(
                f"could not draw a satisfiable precondition for {dp_id}.{name}"
            )
    return DecisionPoint(dp_id, owner, names, pre, agents=list(model.agents), env=env)


def gen_formula(
    rng: random.Random,
    model: GradedKripkeModel,
    env: Dict,
    depth: int,
    allow_ought: bool = True,
    banned_dp: Optional[str] = None,
) -> Formula:
    """A random formula evaluable wherever the caller plans to evaluate it.

    `banned_dp` is the decision point of the evaluation context's last step,
    if any: a relative expectation atom, after-run diamond, or obligation may
    not begin with it (a decision point cannot directly follow itself).  The
    ban threads through negation, conjunction, and knowledge — which leave
    the context's trace alone — and resets under each emitted step.
    """
    draw = _Draw(rng, list(model.agents), list(model.atoms), list(env.values()))
    return draw.formula(depth, allow_ought, banned_dp)


class _Draw:
    """gen_formula's recursion.  A method rather than a nested function
    that names itself: that closure would be a reference cycle holding the
    model until the cyclic collector runs."""

    __slots__ = ("rng", "agents", "atoms", "points")

    def __init__(self, rng, agents, atoms, points):
        self.rng, self.agents, self.atoms, self.points = rng, agents, atoms, points

    def usable(self, banned: Optional[str]) -> List[DecisionPoint]:
        return [d for d in self.points if d.id != banned]

    def leaf(self, banned: Optional[str]) -> Formula:
        rng = self.rng
        r = rng.random()
        cands = self.usable(banned)
        if r < 0.55 or not cands:
            return Atom(rng.choice(self.atoms))
        if r < 0.65:
            return TRUE
        if r < 0.75:
            return Not(Atom(rng.choice(self.atoms)))
        dp = rng.choice(cands)
        ev = rng.choice(list(dp.events))
        return ExpAtom(dp.owner, ((dp.id, ev),))

    def formula(self, d: int, oughts: bool, banned: Optional[str]) -> Formula:
        if d <= 0:
            return self.leaf(banned)
        rng, rec = self.rng, self.formula
        r = rng.random()
        cands = self.usable(banned)
        if r < 0.2:
            return Not(rec(d - 1, oughts, banned))
        if r < 0.45:
            return And(rec(d - 1, oughts, banned), rec(d - 1, oughts, banned))
        if r < 0.65:
            return Know(rng.choice(self.agents), rec(d - 1, oughts, banned))
        if r < 0.85 and cands:
            dp = rng.choice(cands)
            st = ((dp.id, rng.choice(list(dp.events))),)
            return Diamond(st, rec(d - 1, oughts, dp.id))
        if oughts and cands:
            dp = rng.choice(cands)
            st = ((dp.id, rng.choice(list(dp.events))),)
            return Ought(dp.owner, st, rec(d - 1, oughts, dp.id))
        return self.leaf(banned)


# -- the suite ------------------------------------------------------------------


@dataclass
class SchemaResult:
    checked: int = 0
    counterexamples: int = 0
    errors: int = 0
    first: str = ""

    def record(self, ok: bool, where: str):
        self.checked += 1
        if not ok:
            self.counterexamples += 1
            if not self.first:
                self.first = where

    def record_error(self):
        self.errors += 1

    def as_dict(self) -> Dict:
        return {
            "checked": self.checked,
            "counterexamples": self.counterexamples,
            "errors": self.errors,
            "first_counterexample": self.first,
        }


EXPECTED_CLEAN = (
    "E1",
    "E2",
    "R1",
    "R2",
    "R5",
    "R6",
    "AM1",
    "AM2",
    "AM3",
    "AM5",
    "K-E",
    "K-O",
)
REPORTED_RED = ("R3",)
INFORMATIONAL = ("R3+e", "K-O-pointwise")
AMBIGUOUS = ("R4", "AM4-standard-reading", "AM4-two-readings")
_BUCKET_OF = {
    **dict.fromkeys(EXPECTED_CLEAN + REPORTED_RED, "axioms"),
    **dict.fromkeys(INFORMATIONAL, "informational"),
    **dict.fromkeys(AMBIGUOUS, "ambiguities"),
}


@dataclass
class SuiteReport:
    trials: int
    seed: int
    frame: str
    axioms: Dict[str, SchemaResult] = field(default_factory=dict)
    informational: Dict[str, SchemaResult] = field(default_factory=dict)
    ambiguities: Dict[str, SchemaResult] = field(default_factory=dict)

    def result(self, name: str) -> SchemaResult:
        """The result of schema `name`, in the bucket its list assigns it."""
        bucket = getattr(self, _BUCKET_OF[name])
        if name not in bucket:
            bucket[name] = SchemaResult()
        return bucket[name]

    def clean(self) -> bool:
        return all(
            self.axioms.get(n, SchemaResult()).counterexamples == 0
            for n in EXPECTED_CLEAN
        )

    def as_dict(self) -> Dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "frame": self.frame,
            "axioms": {k: v.as_dict() for k, v in sorted(self.axioms.items())},
            "informational": {
                k: v.as_dict() for k, v in sorted(self.informational.items())
            },
            "ambiguities": {
                k: v.as_dict() for k, v in sorted(self.ambiguities.items())
            },
        }


def _compare(res: SchemaResult, model, world, lhs, rhs, env, where):
    try:
        a = evaluate_plain(model, world, lhs, env)
        b = evaluate_plain(model, world, rhs, env)
    except CheckerError:
        res.record_error()
        return
    res.record(a == b, where)


def _compare_all(report: SuiteReport, model, world, schemas, env, where):
    """Check each (name, lhs, rhs) of a schema table at one world."""
    for name, lhs, rhs in schemas:
        _compare(report.result(name), model, world, lhs, rhs, env, where)


def _ought_contexts(model: GradedKripkeModel, agent: str):
    """One representative deliberation context per distinct horizon.  A
    submodel's worlds are its root's horizon, plus the root when it lies
    outside, so that set is known, and a repeat skipped, before any
    submodel is built."""
    seen = set()
    for v in model.worlds:
        try:
            if not model.successors(agent, v):
                continue
            h = horizon(model, v, agent)
            key = h if v in h else h | {v}
            if key in seen:
                continue
            sub = agent_submodel(model, v, agent)
        except CheckerError:
            continue
        seen.add(key)
        yield sub


def _clauses(env, mode: str, *obligations) -> List[Tuple]:
    """(rule, lhs, rhs) per obligation: rhs is the clause `translate`
    applies in `mode`, filed under the rule it names."""
    table = []
    for lhs in obligations:
        rule, rhs = obligation_clause(lhs, env, mode)
        table.append((rule, lhs, rhs))
    return table


def _check_obligation_rules(rng, model, env, report: SuiteReport):
    """R1, R2, R3+e, R5 and R6 against the standard clauses, R3 and R4
    against the literal ones."""

    def draw(banned_dp):
        return gen_formula(rng, model, env, 1, allow_ought=False, banned_dp=banned_dp)

    points = list(env.values())
    for dp in points:
        i = dp.owner
        partner = next((d for d in points if d.id != dp.id and d.owner == i), None)
        for sub in _ought_contexts(model, i):
            for ev in list(dp.events)[:2]:
                st = ((dp.id, ev),)
                phi, psi = draw(dp.id), draw(dp.id)
                tail_phi = draw(partner.id) if partner is not None else None
                p_atom = Atom(rng.choice(list(model.atoms)))
                negated = Ought(i, st, Not(phi))
                schemas = _clauses(
                    env, "standard", Ought(i, st, p_atom), Ought(i, st, And(phi, psi)), negated
                ) + _clauses(env, "literal", negated, Ought(i, st, Know(i, phi)))
                tails = {}  # R5 and R6 per partner event, built at its first draw
                for w in sub.worlds:
                    where = f"{model.name or 'model'} {sub.root}->{w} {dp.id}.{ev}"
                    _compare_all(report, sub, w, schemas, env, where)
                    if partner is not None:
                        ev2 = rng.choice(list(partner.events))
                        if ev2 not in tails:
                            st2 = ((partner.id, ev2),)
                            tails[ev2] = _clauses(
                                env, "standard", Ought(i, st, Diamond(st2, tail_phi)),
                                Ought(i, st, Ought(i, st2, tail_phi)),
                            )
                        _compare_all(report, sub, w, tails[ev2], env, where)
                o_form = Ought(i, st, phi)
                k_form = Know(i, o_form)  # one node, so one outcome table for both checks
                k_res = report.result("K-O")
                try:
                    g1 = holds_globally(sub, o_form, env)
                    g2 = holds_globally(sub, k_form, env)
                    k_res.record(g1 == g2, f"{sub.root} {dp.id}.{ev}")
                except CheckerError:
                    k_res.record_error()
                for w in sub.worlds:
                    _compare(
                        report.result("K-O-pointwise"),
                        sub, w, o_form, k_form, env,
                        f"{sub.root}->{w} {dp.id}.{ev}",
                    )


def _check_expectation_axioms(rng, model, env, report: SuiteReport):
    points = list(env.values())
    stages = []
    try:
        pm = product(model, points[0])
        stages.append((pm, points[0].owner))
        if len(points) > 1:
            pm2 = product(pm, points[1])
            stages.append((pm2, points[1].owner))
    except CheckerError:
        pass
    e1 = report.result("E1")
    for pm, owner in stages:
        groups: Dict[Tuple, List] = {}
        for x in pm.domain_worlds():
            groups.setdefault(trace_of(x)[:-1], []).append(x)
        for prefix, members in groups.items():
            ok = False
            undecided = 0
            for x in members:
                try:
                    if atom_holds(pm, x, owner):
                        ok = True
                        break
                except CheckerError:
                    undecided += 1
            if not ok and undecided:
                e1.record_error()
                continue
            e1.record(ok, f"{model.name or 'model'} prefix {prefix!r}")
        e2 = report.result("E2")
        ke = report.result("K-E")
        for x in pm.domain_worlds():
            atom = ExpAtom(owner, trace_of(x))
            try:
                a = evaluate_plain(pm, x, atom, env)
                k = evaluate_plain(pm, x, Know(owner, atom), env)
            except CheckerError:
                e2.record_error()
                ke.record_error()
                continue
            e2.record((not a) or k, f"{x}")
            ke.record(a == k, f"{x}")


def _check_update_axioms(rng, model, env, report: SuiteReport):
    points = list(env.values())
    dp = points[0]
    dp2 = points[1] if len(points) > 1 else None
    for ev in list(dp.events)[:2]:
        st = ((dp.id, ev),)
        pre = dp.pre[ev]
        p_atom = Atom(rng.choice(list(model.atoms)))
        allow = rng.random() < 0.2
        phi = gen_formula(rng, model, env, 2, allow_ought=allow, banned_dp=dp.id)
        psi = gen_formula(rng, model, env, 1, allow_ought=False, banned_dp=dp.id)
        phi5 = gen_formula(
            rng, model, env, 2, allow_ought=False,
            banned_dp=dp2.id if dp2 is not None else None,
        )
        j = rng.choice(list(model.agents))
        alts = big_and([Know(j, Box(alt, phi)) for alt in q_event_alternatives(st, j, env)])
        schemas = [
            ("AM1", Box(st, p_atom), Implies(pre, p_atom)),
            ("AM2", Box(st, Not(phi)), Implies(pre, Not(Box(st, phi)))),
            ("AM3", Box(st, And(phi, psi)), And(Box(st, phi), Box(st, psi))),
            ("AM4-standard-reading", Box(st, Know(j, phi)), Implies(pre, alts)),
            ("AM4-two-readings", Implies(pre, alts), Implies(pre, Know(j, Box(st, phi)))),
        ]
        for w in model.worlds:
            where = f"{w} {dp.id}.{ev}"
            _compare_all(report, model, w, schemas, env, where)
            if dp2 is not None:
                ev2 = rng.choice(list(dp2.events))
                st2 = ((dp2.id, ev2),)
                _compare(
                    report.result("AM5"),
                    model, w,
                    Diamond(st, Diamond(st2, phi5)),
                    Diamond(st + st2, phi5),
                    env, where,
                )


def run_axiom_suite(trials: int, seed: int, frame: str = "S5") -> SuiteReport:
    if trials < 1:
        raise ValidationError(f"the axiom suite needs at least one trial, not {trials}")
    p = GenParams(frame=frame)
    report = SuiteReport(trials=trials, seed=seed, frame=frame)
    master = random.Random(seed)
    done = 0
    while done < trials:
        trial_seed = master.randrange(2**32)
        rng = random.Random(trial_seed)
        try:
            model = gen_model(rng, p, name=f"t{done}")
            env: Dict[str, DecisionPoint] = {}
            env["U"] = u = gen_decision_point(rng, model, "U", p, env=env)
            env["V"] = gen_decision_point(rng, model, "V", p, owner=u.owner, env=env)
        except Unsatisfiable:
            continue
        _check_obligation_rules(rng, model, env, report)
        _check_expectation_axioms(rng, model, env, report)
        _check_update_axioms(rng, model, env, report)
        done += 1
    return report
