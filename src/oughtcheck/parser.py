"""Precedence-climbing parser for the formula grammar.

    phi   := "true" | "false" | IDENT | "e{" AGENT ";" TRACE "}"
           | "!" phi | phi "&" phi | phi "|" phi | phi "->" phi
           | "K{" AGENT "}" phi
           | "<" TRACE ">" phi | "[" TRACE "]" phi
           | "O{" AGENT "}(" TRACE "|" phi ")"
    TRACE := DP "." EVENT (";" DP "." EVENT)*

Binary precedence comes from one table, _BINARY: & binds tighter than |,
| tighter than ->; -> groups to the right, & and | to the left.  The unary
modalities (!, K, <>, []) are prefix and bind tighter than every binary
connective.  | and -> are derived forms, so the parse result is always a
core AST.

When a decision-point environment is supplied, trace steps are resolved
eagerly: unknown decision points or events fail the parse, and the agent of
an obligation or expectation atom must own the final step's event.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import ParseError, ValidationError
from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    ExpAtom,
    FALSE,
    Formula,
    Implies,
    Know,
    Not,
    Or,
    Ought,
    TRUE,
    check_owner,
    make_trace,
    pre_of,
)

_TOKEN = re.compile(
    r"\s*(->|[()!&|<>{};.\[\]]|[A-Za-z_][A-Za-z0-9_']*|\S)"
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


# binary connective -> (level, node class, right-associative); a higher level
# binds tighter, and the right operand of a left-associative connective
# starts one level up
_BINARY = {"->": (1, Implies, True), "|": (2, Or, False), "&": (3, And, False)}


class _Parser:
    def __init__(self, text: str, env: Optional[dict]):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.i = 0
        self.env = env

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        if self.i >= len(self.toks):
            raise ParseError(f"unexpected end of input in {self.text!r}")
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        got = self.next()
        if got != want:
            raise ParseError(f"expected {want!r} but found {got!r} in {self.text!r}")

    def ident(self, what: str) -> str:
        tok = self.next()
        if not _IDENT.match(tok):
            raise ParseError(f"expected {what} but found {tok!r} in {self.text!r}")
        return tok

    def parse(self) -> Formula:
        f = self.binary()
        if self.i != len(self.toks):
            raise ParseError(f"trailing input {self.peek()!r} in {self.text!r}")
        return f

    def binary(self, floor: int = 1) -> Formula:
        """The longest formula here whose top-level connectives have level >= floor."""
        f = self.unary()
        while self.peek() in _BINARY:
            level, node, right = _BINARY[self.peek()]
            if level < floor:
                break
            self.next()
            f = node(f, self.binary(level if right else level + 1))
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.next()
            return Not(self.unary())
        if tok == "<":
            self.next()
            steps = self.trace()
            self.expect(">")
            return Diamond(steps, self.unary())
        if tok == "[":
            self.next()
            steps = self.trace()
            self.expect("]")
            return Box(steps, self.unary())
        if tok == "K" and self._brace_follows():
            self.next()
            self.expect("{")
            agent = self.ident("an agent name")
            self.expect("}")
            return Know(agent, self.unary())
        return self.primary()

    def _brace_follows(self) -> bool:
        return self.i + 1 < len(self.toks) and self.toks[self.i + 1] == "{"

    def primary(self) -> Formula:
        tok = self.peek()
        if tok == "(":
            self.next()
            f = self.binary()
            self.expect(")")
            return f
        if tok == "e" and self._brace_follows():
            self.next()
            self.expect("{")
            agent = self.ident("an agent name")
            self.expect(";")
            steps = self.trace()
            self.expect("}")
            if self.env is not None:
                check_owner(self.env, agent, steps, "expectation atom")
            return ExpAtom(agent, steps)
        if tok == "O" and self._brace_follows():
            self.next()
            self.expect("{")
            agent = self.ident("an agent name")
            self.expect("}")
            self.expect("(")
            steps = self.trace()
            self.expect("|")
            body = self.binary()
            self.expect(")")
            if self.env is not None:
                check_owner(self.env, agent, steps, "obligation")
            return Ought(agent, steps, body)
        tok = self.next()
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        if _IDENT.match(tok):
            return Atom(tok)
        raise ParseError(f"unexpected {tok!r} in {self.text!r}")

    def trace(self):
        steps = [self.step()]
        while self.peek() == ";":
            self.next()
            steps.append(self.step())
        try:
            return make_trace(steps)
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc

    def step(self):
        dp = self.ident("a decision-point id")
        self.expect(".")
        ev = self.ident("an event name")
        if self.env is not None:
            pre_of(self.env, dp, ev)  # an unknown decision point or event raises here
        return (dp, ev)


def parse(text: str, env: Optional[dict] = None) -> Formula:
    """Parse formula text.  `env` maps decision-point ids to DecisionPoints;
    when given, trace steps and ownership are validated during the parse."""
    return _Parser(text, env).parse()
