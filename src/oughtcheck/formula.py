"""Formula syntax: AST nodes, derived forms, canonical printing, complexity,
and the trace rules.

The core language is

    true | false | atom | e{agent; trace}        (expectation atom)
    | !phi | phi & phi | K{agent} phi
    | <trace> phi                                 (after-some-run diamond)
    | O{agent}(trace | phi)                       (obligation)

Traces are tuples of (decision_point_id, event_name) pairs.  Disjunction,
implication, the box and the epistemic possibility operator are derived
forms; their constructors return core nodes, so printing always yields the
core syntax and parse(print(f)) is the identity on ASTs.

Each rule that makes a trace meaningful is stated here once, and the
parser, the loaders, the evaluator, the rewriter and composition call it:
check_adjacency, also through make_trace (a decision point never follows
itself), point_of / pre_of (every step names a declared event),
check_owner (the agent of an obligation owns the final decision point)
and pre_formula (pre(t), the precondition the run needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import UnknownEvent, ValidationError

Step = Tuple[str, str]
Trace = Tuple[Step, ...]


def make_trace(steps) -> Trace:
    """Normalize and validate a trace: one choice per decision point, in order."""
    trace = tuple([(str(d), str(e)) for d, e in steps])
    if not trace:
        raise ValidationError("a trace needs at least one step")
    return check_adjacency(trace)


def check_adjacency(trace: Trace) -> Trace:
    """The trace itself, once no decision point follows itself in it.  A point
    may recur when not adjacent; each occurrence is then resolved alone."""
    last = None
    for d, _ in trace:
        if d == last:
            raise ValidationError(f"trace repeats decision point {d!r} in consecutive steps")
        last = d
    return trace


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Truth(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Falsity(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    __slots__ = ("name",)
    name: str


@dataclass(frozen=True)
class ExpAtom(Formula):
    """e{agent; trace}: running `trace` is expectation-best for `agent`."""

    __slots__ = ("agent", "steps")
    agent: str
    steps: Trace

    def __post_init__(self):
        object.__setattr__(self, "steps", make_trace(self.steps))


@dataclass(frozen=True)
class Not(Formula):
    __slots__ = ("sub",)
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Know(Formula):
    __slots__ = ("agent", "sub")
    agent: str
    sub: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    """<trace> phi: the trace survives here and phi holds afterwards."""

    __slots__ = ("steps", "sub")
    steps: Trace
    sub: Formula

    def __post_init__(self):
        object.__setattr__(self, "steps", make_trace(self.steps))


@dataclass(frozen=True)
class Ought(Formula):
    """O{agent}(trace | phi): running `trace` is obliged given goal phi."""

    __slots__ = ("agent", "steps", "body")
    agent: str
    steps: Trace
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "steps", make_trace(self.steps))


# --- derived forms -----------------------------------------------------------

TRUE = Truth()
FALSE = Falsity()


def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def Iff(left: Formula, right: Formula) -> Formula:
    return And(Implies(left, right), Implies(right, left))


def Box(steps, sub: Formula) -> Formula:
    return Not(Diamond(steps, Not(sub)))


def MightKnow(agent: str, sub: Formula) -> Formula:
    return Not(Know(agent, Not(sub)))


def big_and(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


# --- printing ----------------------------------------------------------------

def trace_text(steps: Trace) -> str:
    return ";".join(f"{d}.{e}" for d, e in steps)


def to_text(f: Formula) -> str:
    """Canonical text: binary connectives fully parenthesized, prefixes bare."""
    if isinstance(f, Truth):
        return "true"
    if isinstance(f, Falsity):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, ExpAtom):
        return "e{" + f.agent + "; " + trace_text(f.steps) + "}"
    if isinstance(f, Not):
        return "!" + to_text(f.sub)
    if isinstance(f, And):
        return "(" + to_text(f.left) + " & " + to_text(f.right) + ")"
    if isinstance(f, Know):
        return "K{" + f.agent + "} " + to_text(f.sub)
    if isinstance(f, Diamond):
        return "<" + trace_text(f.steps) + "> " + to_text(f.sub)
    if isinstance(f, Ought):
        return "O{" + f.agent + "}(" + trace_text(f.steps) + " | " + to_text(f.body) + ")"
    raise TypeError(f"not a formula: {f!r}")


# --- the trace rules (check_adjacency above states adjacency) -----------------

def point_of(env, dp_id: str):
    """The decision point env maps dp_id to; UnknownEvent when there is none."""
    try:
        return env[dp_id]
    except KeyError:
        raise UnknownEvent(f"unknown decision point {dp_id!r}") from None


def pre_of(env, dp_id: str, ev: str) -> Formula:
    """The precondition of event ev of decision point dp_id in env."""
    try:
        return point_of(env, dp_id).pre[ev]
    except KeyError:
        raise UnknownEvent(f"decision point {dp_id!r} has no event {ev!r}") from None


def check_owner(env, agent: str, steps: Trace, what: str) -> None:
    """An obligation or expectation atom of `agent` about `steps` needs
    `agent` to own the final decision point; `what` names it in the error."""
    dp_id, ev = steps[-1]
    owner = point_of(env, dp_id).owner
    if owner != agent:
        raise ValidationError(
            f"{what} agent {agent!r} does not own {dp_id}.{ev} (owner {owner!r})"
        )


def pre_formula(steps: Trace, env) -> Formula:
    """pre(t): the (composed) precondition of a trace's final event, the
    formula that makes the run available."""
    last = pre_of(env, *steps[-1])
    if len(steps) == 1:
        return last
    return Diamond(steps[:-1], last)


# --- structure ---------------------------------------------------------------

def subformulas(f: Formula):
    """Every node of f, f first, depth-first and left to right.  The walk
    keeps its own stack, so any nesting depth is fine."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
        elif isinstance(g, (Not, Know, Diamond)):
            stack.append(g.sub)
        elif isinstance(g, Ought):
            stack.append(g.body)


def complexity(f: Formula, env) -> int:
    """Size measure used to certify that obligation rewrites shrink formulas.
    A trace weighs c(pre(t)), which folds left over its steps:
    c(pre(t ; s)) = (4 + c(pre(t))) * c(pre(s))."""
    if isinstance(f, (Truth, Falsity, Atom, ExpAtom)):
        return 1
    if isinstance(f, Not):
        return 1 + complexity(f.sub, env)
    if isinstance(f, And):
        return 1 + max(complexity(f.left, env), complexity(f.right, env))
    if isinstance(f, Know):
        return 1 + complexity(f.sub, env)
    if isinstance(f, Diamond):
        return (4 + complexity(pre_formula(f.steps, env), env)) * complexity(f.sub, env)
    if isinstance(f, Ought):
        return (5 + complexity(pre_formula(f.steps, env), env)) * complexity(f.body, env)
    raise TypeError(f"not a formula: {f!r}")


def contains_ought(f: Formula) -> bool:
    return any(isinstance(g, Ought) for g in subformulas(f))


def contains_diamond(f: Formula) -> bool:
    # an obligation counts: its trace is an update
    return any(isinstance(g, (Diamond, Ought)) for g in subformulas(f))
