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

One translation rewrites each distinct node once.  Nodes are hash-consed,
and a diamond holds its pending run, so a node alone says what its rewrite
is: `rec` keeps each node's rewrite and the span of steps it logged, and
when the node comes again it returns that rewrite and appends the same
step objects again.  The log, and the budget that counts it, is what a
rewriter that kept nothing would log; only the work is done once.

The certificate costs nothing until it is read.  It keeps each distinct
step's two sides; the first read of any weight (or of `certified`)
measures them all, in the order logged, with one `formula._Measure` over
the env as it was during the translation, then keeps only the integers.
That read cannot raise: the measure resolves the steps of the runs it
weighs, and the rewriter has resolved every one of them before `translate`
returns.

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
    MAX_DEPTH,
    Not,
    Ought,
    Truth,
    _Measure,
    big_and,
    check_owner,
    node_class,
    point_of,
    pre_formula,
    pre_of,
    refuse_past_limit,
)

MODES = ("standard", "literal")


class _Certificate:
    """One translation's step weights, measured on first read.  Until then
    it holds each distinct step's (before, after) nodes and a snapshot of the
    env, so a later change to the env changes no weight; `settle` measures
    them all with one `_Measure` and lets go of the nodes and the env."""

    __slots__ = ("env", "sides", "weights")

    def __init__(self, env):
        self.env = dict(env)
        self.sides = []  # (before, after) per distinct step, at its _index
        self.weights = None  # (c(before), c(after)) per step, once settled

    def settle(self):
        if self.weights is None:
            measure = _Measure(self.env).of
            self.weights = [(measure(before), measure(after)) for before, after in self.sides]
            self.env = self.sides = None
        return self.weights


class RewriteStep:
    """One logged rewrite: its rule, whether it rewrote an obligation, and
    the complexity of its two sides, c_before and c_after."""

    __slots__ = ("rule", "obligation_step", "_certificate", "_index")

    def __init__(self, rule: str, obligation_step: bool, certificate: _Certificate, index: int):
        self.rule = rule
        self.obligation_step = obligation_step
        self._certificate = certificate
        self._index = index

    @property
    def c_before(self) -> int:
        return self._certificate.settle()[self._index][0]

    @property
    def c_after(self) -> int:
        return self._certificate.settle()[self._index][1]

    @property
    def decreasing(self) -> bool:
        c_before, c_after = self._certificate.settle()[self._index]
        return c_after < c_before

    def _fields(self):
        return self.rule, self.c_before, self.c_after, self.obligation_step

    def __eq__(self, other):
        if not isinstance(other, RewriteStep):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "RewriteStep(rule={!r}, c_before={!r}, c_after={!r}, obligation_step={!r})".format(
            *self._fields()
        )


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
    """Clauses return (rule, rewrite); `rec` alone logs, spends budget and
    continues, and keeps each node's rewrite for the rest of the translation."""

    def __init__(self, env: Dict, mode: str, budget: int):
        if mode not in MODES:
            raise ValidationError(f"unknown translation mode {mode!r}")
        self.env = env
        self.mode = mode
        self.budget = budget
        self.steps: List[RewriteStep] = []
        self.certificate = None  # made at the first logged step
        self.done = {}  # node -> (its rewrite, start, end): it logged steps[start:end]

    def spend(self, n: int) -> None:
        if len(self.steps) + n > self.budget:
            raise NonTermination(
                "rewriting exceeded its step budget; this is a bug, not an input error"
            )

    def log(self, rule: str, before: Formula, after: Formula):
        if len(self.steps) >= self.budget:
            self.spend(1)  # raises
        certificate = self.certificate
        if certificate is None:
            certificate = self.certificate = _Certificate(self.env)
        sides = certificate.sides
        step = RewriteStep(rule, isinstance(before, Ought), certificate, len(sides))
        sides.append((before, after))
        self.steps.append(step)

    def rec(self, f: Formula) -> Formula:
        rewrites, clause = _REC.get(f.__class__) or _REC[node_class(f)]
        if clause is None:  # a leaf is its own rewrite and logs nothing
            return f
        done, steps = self.done, self.steps
        kept = done.get(f)
        if kept is not None:
            return self.again(kept)
        start = len(steps)
        if not rewrites:
            out = clause(self, f)
            done[f] = (out, start, len(steps))
            return out
        # an obligation or a diamond: one logged step, then go on in this
        # frame (a call per step would deepen the stack at the nesting
        # limit); each node on the way is kept with the steps from it on
        chain = [(f, start)]
        while True:
            rule, after = clause(self, f)
            self.log(rule, f, after)
            f = after
            rewrites, clause = _REC.get(f.__class__) or _REC[node_class(f)]
            if clause is None:
                out = f
                break
            kept = done.get(f)
            if kept is not None:
                out = self.again(kept)
                break
            chain.append((f, len(steps)))
            if not rewrites:
                out = clause(self, f)
                break
        end = len(steps)
        for node, start in chain:
            done[node] = (out, start, end)
        return out

    def again(self, kept) -> Formula:
        """A node's kept rewrite, and the steps it logged appended again:
        the same objects, counted against the budget."""
        out, start, end = kept
        if end != start:
            self.spend(end - start)
            steps = self.steps
            steps += steps[start:end]
        return out

    def _exp_atom(self, f):
        check_owner(self.env, f.agent, f.steps, "expectation atom")
        return f

    # a copy whose children come back unchanged is f itself, unless f is of
    # a subclass, which rewrites to its node class
    def _not(self, f):
        sub = self.rec(f.sub)
        return f if sub is f.sub and f.__class__ is Not else Not(sub)

    def _and(self, f):
        left, right = self.rec(f.left), self.rec(f.right)
        if left is f.left and right is f.right and f.__class__ is And:
            return f
        return And(left, right)

    def _know(self, f):
        sub = self.rec(f.sub)
        return f if sub is f.sub and f.__class__ is Know else Know(f.agent, sub)

    # -- after-run diamonds ----------------------------------------------------

    def diamond(self, f: Diamond):
        body = f.sub
        _refuse_a_long_run(f.steps)
        pre_of(self.env, *f.steps[-1])  # an unknown final step raises before any clause
        clause = _DIAMOND.get(body.__class__) or _DIAMOND[node_class(body)]
        return clause(self, f.steps, body)

    def _d_atom(self, steps, body):
        return "D-atom", And(pre_formula(steps, self.env), body)

    def _d_e(self, steps, body):
        return "D-e", And(pre_formula(steps, self.env), ExpAtom(body.agent, steps + body.steps))

    def _d_neg(self, steps, body):
        return "D-neg", And(pre_formula(steps, self.env), Not(Diamond(steps, body.sub)))

    def _d_know(self, steps, body):
        env = self.env
        pre = pre_formula(steps, env)
        owner = point_of(env, steps[-1][0]).owner
        if self.mode == "literal" and body.agent == owner:
            return "D-K-drop", And(pre, body)
        boxes = [
            Know(body.agent, Box(alt, body.sub))
            for alt in q_event_alternatives(steps, body.agent, env)
        ]
        return "D-K", And(pre, big_and(boxes))

    def _d_and(self, steps, body):
        return "D-and", And(Diamond(steps, body.left), Diamond(steps, body.right))

    def _d_chain(self, steps, body):
        return "D-chain", Diamond(steps + body.steps, body.sub)

    def _d_ought(self, steps, body):
        # the inner obligation is rewritten (and logged) first
        return "D-after-ought", Diamond(steps, self.rec(body))

    # -- obligations -------------------------------------------------------------

    def ought(self, f: Ought):
        i, steps, body = f.agent, f.steps, f.body
        _refuse_a_long_run(steps)
        check_owner(self.env, i, steps, "obligation")
        pre_of(self.env, *steps[-1])  # an unknown final event raises before any clause
        clause = _OUGHT.get(body.__class__) or _OUGHT[node_class(body)]
        return clause(self, i, steps, body)

    def _r1(self, i, steps, body):
        return "R1", And(And(pre_formula(steps, self.env), body), ExpAtom(i, steps))

    def _o_e(self, i, steps, body):
        pre = pre_formula(steps, self.env)
        return "O-e", And(And(pre, ExpAtom(body.agent, steps + body.steps)), ExpAtom(i, steps))

    def _r3(self, i, steps, body):
        pre = pre_formula(steps, self.env)
        if self.mode == "literal":
            return "R3", And(pre, Not(Ought(i, steps, body.sub)))
        return "R3+e", And(And(pre, Not(Ought(i, steps, body.sub))), ExpAtom(i, steps))

    def _r2(self, i, steps, body):
        return "R2", And(Ought(i, steps, body.left), Ought(i, steps, body.right))

    def _o_know(self, i, steps, body):
        if body.agent == i and self.mode == "literal":
            return "R4", Know(i, Ought(i, steps, body.sub))
        return self._through(i, steps, body)

    def _r5(self, i, steps, body):
        return "R5", And(Diamond(steps + body.steps, body.sub), ExpAtom(i, steps))

    def _o_ought(self, i, steps, body):
        if body.agent == i:
            return "R6", And(Ought(i, steps + body.steps, body.body), ExpAtom(i, steps))
        return self._through(i, steps, body)

    def _through(self, i, steps, body):
        """O-K or O-X: a knowledge or obligation body that no clause above
        takes, judged through the run."""
        rule = "O-K" if body.agent == i else "O-X"
        return rule, And(Diamond(steps, body), ExpAtom(i, steps))


def _refuse_a_long_run(steps) -> None:
    """ValidationError for a run of more than MAX_DEPTH steps.  pre(t) of a
    run of n steps is <t[:-1]> pre(last), which D-atom unfolds one step per
    level, so a run nests n levels deep once rewritten, and counts against
    the nesting limit; so does a run that D-chain, R5 or R6 joins."""
    if len(steps) > MAX_DEPTH:
        raise ValidationError(
            f"a run of {len(steps)} steps unfolds {len(steps)} levels deep, past the "
            f"nesting limit of {MAX_DEPTH}"
        )


# Each node class's clause, looked up by type(f), and by formula.node_class
# when a subclass misses.  _REC's flag marks the classes rewritten in place
# (one logged step at a time); the others are copied, their children
# rewritten, except the leaves, which have no clause: each is its own rewrite.
_REC = {
    Atom: (False, None),
    Truth: (False, None),
    Falsity: (False, None),
    ExpAtom: (False, _Rewriter._exp_atom),
    Not: (False, _Rewriter._not),
    And: (False, _Rewriter._and),
    Know: (False, _Rewriter._know),
    Diamond: (True, _Rewriter.diamond),
    Ought: (True, _Rewriter.ought),
}
# <t> phi by the class of phi
_DIAMOND = {
    Atom: _Rewriter._d_atom,
    Truth: _Rewriter._d_atom,
    Falsity: _Rewriter._d_atom,
    ExpAtom: _Rewriter._d_e,
    Not: _Rewriter._d_neg,
    Know: _Rewriter._d_know,
    And: _Rewriter._d_and,
    Diamond: _Rewriter._d_chain,
    Ought: _Rewriter._d_ought,
}
# O{i}(t | phi) by the class of phi
_OUGHT = {
    Atom: _Rewriter._r1,
    Truth: _Rewriter._r1,
    Falsity: _Rewriter._r1,
    ExpAtom: _Rewriter._o_e,
    Not: _Rewriter._r3,
    And: _Rewriter._r2,
    Know: _Rewriter._o_know,
    Diamond: _Rewriter._r5,
    Ought: _Rewriter._o_ought,
}


def obligation_clause(f: Ought, env: Dict, mode: str = "standard"):
    """(rule, rewrite): the clause `translate` applies to the obligation f,
    one step, logged nowhere."""
    if not isinstance(f, Ought):
        raise TypeError(f"not an obligation: {f!r}")
    return _Rewriter(env, mode, 0).ought(f)


def translate(
    f: Formula, env: Dict, mode: str = "standard", budget: int = 100_000
) -> Translation:
    """f without obligations (and, in standard mode, without after-run
    diamonds), and the log of its rewrite steps; a budget of n allows n.
    A formula nested past formula.MAX_DEPTH raises ValidationError."""
    rw = _Rewriter(env, mode, budget)
    try:
        out = rw.rec(f)
    except RecursionError:
        refuse_past_limit(f)
        raise
    return Translation(out, rw.steps)
