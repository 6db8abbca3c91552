"""Rewriting obligations (and after-run diamonds) away.

`translate` maps any formula to an equivalent one without obligation
operators; in the default "standard" mode the output contains no after-run
diamonds either, only propositional atoms, expectation atoms, negation,
conjunction, and knowledge.

Every rewrite of an obligation node is logged together with the complexity
of the node before and after the step; each such step must strictly shrink
the measure, which is the termination certificate for the obligation layer.
Diamond rewrites follow the usual structural argument of update logics and
are logged uncertified.  A step budget guards against bugs: exceeding it
raises NonTermination, which no well-formed input should ever do.

One corner is inexpressible rather than wrong: an after-run diamond whose
body is an expectation atom for the very run just taken (the atom refers to
the landed world's own trace).  Rewriting it would need a trace that chains
a decision point directly after itself, which the trace language rejects,
so `translate` raises ValidationError there while direct evaluation remains
defined.

Modes:

* standard — semantically exact clauses.  The negation clause keeps the
  expectation conjunct (the plain form is not an equivalence, see the
  axiom suite's report), and same-agent knowledge bodies unfold through the
  update rather than commuting obligation with knowledge.
* literal — the uncorrected flat clause set: negation without the extra
  expectation conjunct, same-agent knowledge by commutation, and
  update-dropping for knowledge under a diamond owned by the knower.
  Shapes that set does not cover fall back to the standard clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Dict, List

from .errors import NonTermination, ValidationError
from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    ExpAtom,
    Falsity,
    Formula,
    Know,
    Not,
    Ought,
    Truth,
    big_and,
    check_owner,
    complexity,
    point_of,
    pre_formula,
    pre_of,
    to_text,
)

MODES = ("standard", "literal")


@dataclass
class RewriteStep:
    rule: str
    before: str
    after: str
    c_before: int
    c_after: int
    obligation_step: bool

    @property
    def decreasing(self) -> bool:
        return self.c_after < self.c_before


@dataclass
class Translation:
    result: Formula
    steps: List[RewriteStep] = field(default_factory=list)

    @property
    def obligation_steps(self) -> List[RewriteStep]:
        return [s for s in self.steps if s.obligation_step]

    @property
    def certified(self) -> bool:
        """Every obligation rewrite strictly shrank the complexity measure."""
        return all(s.decreasing for s in self.obligation_steps)


def q_event_alternatives(steps, agent: str, env):
    """All traces an agent cannot tell apart from `steps`: pairwise, each
    step by its decision point's q_related."""
    per_step = []
    for dp_id, ev in steps:
        pre_of(env, dp_id, ev)  # an unknown decision point or event raises here
        point, key = point_of(env, dp_id), ((dp_id, ev),)
        per_step.append(
            [(dp_id, e) for e in point.events if point.q_related(agent, key, ((dp_id, e),))]
        )
    return [tuple(combo) for combo in iproduct(*per_step)]


class _Rewriter:
    def __init__(self, env: Dict, mode: str, budget: int):
        if mode not in MODES:
            raise ValidationError(f"unknown translation mode {mode!r}")
        self.env = env
        self.mode = mode
        self.budget = budget
        self.steps: List[RewriteStep] = []

    def log(self, rule: str, before: Formula, after: Formula, obligation: bool):
        self.budget -= 1
        if self.budget <= 0:
            raise NonTermination(
                "rewriting exceeded its step budget; this is a bug, not an input error"
            )
        self.steps.append(
            RewriteStep(
                rule,
                to_text(before),
                to_text(after),
                complexity(before, self.env),
                complexity(after, self.env),
                obligation,
            )
        )

    def rec(self, f: Formula) -> Formula:
        if isinstance(f, (Atom, Truth, Falsity, ExpAtom)):
            return f
        if isinstance(f, Not):
            return Not(self.rec(f.sub))
        if isinstance(f, And):
            return And(self.rec(f.left), self.rec(f.right))
        if isinstance(f, Know):
            return Know(f.agent, self.rec(f.sub))
        if isinstance(f, Diamond):
            return self.diamond(f)
        if isinstance(f, Ought):
            return self.ought(f)
        raise TypeError(f"not a formula: {f!r}")

    # -- after-run diamonds ----------------------------------------------------

    def diamond(self, f: Diamond) -> Formula:
        steps, body = f.steps, f.sub
        pre = pre_formula(steps, self.env)
        if isinstance(body, (Atom, Truth, Falsity)):
            after = And(pre, body)
            self.log("D-atom", f, after, False)
            return And(self.rec(pre), body)
        if isinstance(body, ExpAtom):
            after = And(pre, ExpAtom(body.agent, steps + body.steps))
            self.log("D-e", f, after, False)
            return And(self.rec(pre), after.right)
        if isinstance(body, Not):
            after = And(pre, Not(Diamond(steps, body.sub)))
            self.log("D-neg", f, after, False)
            return self.rec(after)
        if isinstance(body, And):
            after = And(Diamond(steps, body.left), Diamond(steps, body.right))
            self.log("D-and", f, after, False)
            return self.rec(after)
        if isinstance(body, Know):
            owner = point_of(self.env, steps[-1][0]).owner
            if self.mode == "literal" and body.agent == owner:
                after = And(pre, body)
                self.log("D-K-drop", f, after, False)
                return self.rec(after)
            boxes = [
                Know(body.agent, Box(alt, body.sub))
                for alt in q_event_alternatives(steps, body.agent, self.env)
            ]
            after = And(pre, big_and(boxes))
            self.log("D-K", f, after, False)
            return self.rec(after)
        if isinstance(body, Diamond):
            after = Diamond(steps + body.steps, body.sub)
            self.log("D-chain", f, after, False)
            return self.rec(after)
        if isinstance(body, Ought):
            inner = self.rec(body)
            after = Diamond(steps, inner)
            self.log("D-after-ought", f, after, False)
            return self.rec(after)
        raise TypeError(f"not a formula: {body!r}")

    # -- obligations -------------------------------------------------------------

    def ought(self, f: Ought) -> Formula:
        i, steps, body = f.agent, f.steps, f.body
        check_owner(self.env, i, steps, "obligation")
        pre = pre_formula(steps, self.env)
        e_self = ExpAtom(i, steps)
        if isinstance(body, (Atom, Truth, Falsity)):
            after = And(And(pre, body), e_self)
            self.log("R1", f, after, True)
            return self.rec(after)
        if isinstance(body, ExpAtom):
            after = And(And(pre, ExpAtom(body.agent, steps + body.steps)), e_self)
            self.log("O-e", f, after, True)
            return self.rec(after)
        if isinstance(body, Not):
            if self.mode == "literal":
                after = And(pre, Not(Ought(i, steps, body.sub)))
                self.log("R3", f, after, True)
            else:
                after = And(And(pre, Not(Ought(i, steps, body.sub))), e_self)
                self.log("R3+e", f, after, True)
            return self.rec(after)
        if isinstance(body, And):
            after = And(Ought(i, steps, body.left), Ought(i, steps, body.right))
            self.log("R2", f, after, True)
            return self.rec(after)
        if isinstance(body, Know):
            if body.agent == i:
                if self.mode == "literal":
                    after = Know(i, Ought(i, steps, body.sub))
                    self.log("R4", f, after, True)
                else:
                    after = And(Diamond(steps, body), e_self)
                    self.log("O-K", f, after, True)
                return self.rec(after)
            after = And(Diamond(steps, body), e_self)
            self.log("O-X", f, after, True)
            return self.rec(after)
        if isinstance(body, Diamond):
            after = And(Diamond(steps + body.steps, body.sub), e_self)
            self.log("R5", f, after, True)
            return self.rec(after)
        if isinstance(body, Ought):
            if body.agent == i:
                after = And(Ought(i, steps + body.steps, body.body), e_self)
                self.log("R6", f, after, True)
            else:
                after = And(Diamond(steps, body), e_self)
                self.log("O-X", f, after, True)
            return self.rec(after)
        raise TypeError(f"not a formula: {body!r}")


def translate(
    f: Formula, env: Dict, mode: str = "standard", budget: int = 100_000
) -> Translation:
    rw = _Rewriter(env, mode, budget)
    out = rw.rec(f)
    return Translation(out, rw.steps)
