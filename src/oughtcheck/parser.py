"""Recursive-descent parser for the formula grammar.

    phi   := "true" | "false" | IDENT | "e{" AGENT ";" TRACE "}"
           | "!" phi | phi "&" phi | phi "|" phi | phi "->" phi
           | "K{" AGENT "}" phi
           | "<" TRACE ">" phi | "[" TRACE "]" phi
           | "O{" AGENT "}(" TRACE "|" phi ")"
    TRACE := DP "." EVENT (";" DP "." EVENT)*

Precedence: ! binds tighter than &, & tighter than |, | tighter than ->;
-> is right-associative; the unary modalities (!, K, <>, []) are prefix and
bind tighter than every binary connective.  | and -> are derived forms, so
the parse result is always a core AST.

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


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        tok = m.group(1)
        if not tok.strip():
            break
        out.append((tok, m.start(1)))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"cannot tokenize {text[pos:].strip()[:20]!r} at offset {pos}")
    return out


class _Parser:
    def __init__(self, text: str, env: Optional[dict]):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.env = env

    def peek(self) -> Optional[str]:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self) -> str:
        if self.i >= len(self.toks):
            raise ParseError(f"unexpected end of input in {self.text!r}")
        tok = self.toks[self.i][0]
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

    # phi := implies
    def parse(self) -> Formula:
        f = self.implies()
        if self.i != len(self.toks):
            raise ParseError(f"trailing input {self.peek()!r} in {self.text!r}")
        return f

    def implies(self) -> Formula:
        left = self.disjunct()
        if self.peek() == "->":
            self.next()
            return Implies(left, self.implies())
        return left

    def disjunct(self) -> Formula:
        f = self.conjunct()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.conjunct())
        return f

    def conjunct(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.next()
            f = And(f, self.unary())
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
        return self.i + 1 < len(self.toks) and self.toks[self.i + 1][0] == "{"

    def primary(self) -> Formula:
        tok = self.peek()
        if tok == "(":
            self.next()
            f = self.implies()
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
            body = self.implies()
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
