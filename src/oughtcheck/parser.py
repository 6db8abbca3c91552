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

Nesting is limited (formula.MAX_DEPTH): a formula may nest at most that
many operators deep, counted on the core AST (`p | q` is `!(!p & !q)`,
three levels), and its parentheses at most that many deep.  A text too
short to pass the limit is read as it is; a longer one by _Nested, which
counts while it reads and refuses at the first level past the limit.  A
long text is tokenised as the parse reads it, so a refused one costs the
tokens up to the limit, not the length of the text.

A ParseError quotes a text of at most _EAGER characters whole, and a longer
one by the _WINDOW characters on either side of where the failing token
starts, so its message stays short whatever the text's length.
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
    MAX_DEPTH,
    Not,
    Or,
    Ought,
    TRUE,
    check_owner,
    depth,
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

# the tokens that open a prefix operator, besides K when a brace follows
_PREFIX = frozenset(["!", "<", "["])

# A text of at most this many tokens cannot pass the nesting limit: each
# token adds at most one and a half levels (n `|`s in 2n + 1 tokens nest 3n
# deep), it opens fewer parentheses than it has tokens, and the parse
# recurses at most three calls per token.
_SHORT = 2 * MAX_DEPTH // 3 + 1

# A text of more characters than this is tokenised as it is read (_Pulled);
# a shorter one, every formula of a few operators, all at once.
_EAGER = 256

# How many characters a ParseError quotes on either side of the failing
# token of a text longer than _EAGER.
_WINDOW = 40


class _Pulled(list):
    """A long text's tokens, read from the text as the parser asks for
    them, then None: a parse that stops early leaves the rest unread.
    starts holds where each token read starts, and the text's length for
    the None."""

    __slots__ = ("_rest", "_end", "starts")

    def __init__(self, text: str):
        super().__init__()
        self._rest = _TOKEN.finditer(text)
        self._end = len(text)
        self.starts = []

    def __getitem__(self, i: int):
        while i >= len(self):
            m = next(self._rest, None)
            self.append(None if m is None else m.group(1))
            self.starts.append(self._end if m is None else m.start(1))
        return list.__getitem__(self, i)


class _Parser:
    """toks: the text's tokens, then None for its end."""

    def __init__(self, text: str, toks: list, env: Optional[dict]):
        self.text = text
        self.toks = toks
        self.i = 0
        self.env = env

    def peek(self) -> Optional[str]:
        return self.toks[self.i]

    def quote(self, k: int) -> str:
        """The text as an error at token k quotes it: whole when it has at
        most _EAGER characters, else the _WINDOW characters on either side
        of where token k starts, and that position."""
        text = self.text
        if len(text) <= _EAGER:
            return repr(text)
        at = self.toks.starts[k]
        lo, hi = max(0, at - _WINDOW), at + _WINDOW
        cut = "..." if lo else ""
        rest = "..." if hi < len(text) else ""
        return f"{cut}{text[lo:hi]!r}{rest} (at character {at} of {len(text)})"

    def shown(self, tok: str) -> str:
        """A token as an error names it: whole, or, in a text quoted by a
        window, its first _WINDOW characters when it is longer."""
        if len(tok) <= _WINDOW or len(self.text) <= _EAGER:
            return repr(tok)
        return f"{tok[:_WINDOW]!r}..."

    def next(self) -> str:
        tok = self.toks[self.i]
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.quote(self.i)}")
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        got = self.next()
        if got != want:
            raise ParseError(
                f"expected {want!r} but found {self.shown(got)} in {self.quote(self.i - 1)}"
            )

    def ident(self, what: str) -> str:
        tok = self.next()
        if not _IDENT.match(tok):
            raise ParseError(
                f"expected {what} but found {self.shown(tok)} in {self.quote(self.i - 1)}"
            )
        return tok

    def parse(self) -> Formula:
        f = self.binary()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.shown(self.peek())} in {self.quote(self.i)}")
        return f

    def binary(self, floor: int = 1) -> Formula:
        """The longest formula here whose top-level connectives have level >= floor."""
        f = self.unary()
        op = self.connective(floor, f)
        while op is not None:
            node, right_floor = op
            f = node(f, self.binary(right_floor))
            op = self.connective(floor, f)
        return f

    def connective(self, floor: int, left: Formula):
        """The binary connective next in the input, read when its level is
        floor or more: its node and its right operand's floor.  None when
        there is none.  left, its left operand, is for _Nested to measure."""
        op = _BINARY.get(self.toks[self.i])
        if op is None or op[0] < floor:
            return None
        self.i += 1
        level, node, right = op
        return node, level if right else level + 1

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
        # called at a token, so the end's None, at least, follows it
        return self.toks[self.i + 1] == "{"

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
        raise ParseError(f"unexpected {self.shown(tok)} in {self.quote(self.i - 1)}")

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


class _Nested(_Parser):
    """The parser for a text long enough to nest past MAX_DEPTH.  It counts
    while it reads, and ends the parse with a ParseError that names the
    limit at the first count past it, before it recurses any deeper:

    * open calls of binary, and of unary at a prefix operator.  Each opens
      a level at the reading position (a right operand, an obligation's
      body, a prefix operator's operand), except the outermost binary and
      the one in each parenthesis, so the count less those is a lower
      bound of the depth there;
    * open parentheses;
    * the depth of each formula built, measured as its connectives join it
      (formula.depth, each node once), which is exact, and which stops a
      chain of left operands, read without recursion, at the limit too."""

    def __init__(self, text: str, toks: list, env: Optional[dict]):
        super().__init__(text, toks, env)
        self.open = 0
        self.parens = 0
        self.depths = {}  # id(node) -> depth, for formula.depth

    def too_deep(self, what: str) -> ParseError:
        return ParseError(f"{what} more than {MAX_DEPTH} levels deep, the nesting limit")

    def enter(self) -> None:
        self.open += 1
        if self.open - self.parens - 1 > MAX_DEPTH:
            raise self.too_deep("formula nests")

    def binary(self, floor: int = 1) -> Formula:
        self.enter()
        f = super().binary(floor)
        self.open -= 1
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok not in _PREFIX and not (tok == "K" and self._brace_follows()):
            return super().unary()
        self.enter()
        f = super().unary()
        self.open -= 1
        return f

    def primary(self) -> Formula:
        if self.peek() != "(":
            return super().primary()
        self.parens += 1
        if self.parens > MAX_DEPTH:
            raise self.too_deep("parentheses nest")
        f = super().primary()
        self.parens -= 1
        return f

    def connective(self, floor: int, left: Formula):
        # left was read from the first i tokens: at most _SHORT of them
        # cannot nest past the limit
        if self.i > _SHORT and depth(left, self.depths) > MAX_DEPTH:
            raise self.too_deep("formula nests")
        return super().connective(floor, left)


def parse(text: str, env: Optional[dict] = None) -> Formula:
    """Parse formula text.  `env` maps decision-point ids to DecisionPoints;
    when given, trace steps and ownership are validated during the parse.
    A text that nests past formula.MAX_DEPTH raises ParseError."""
    if len(text) > _EAGER:
        return _Nested(text, _Pulled(text), env).parse()
    toks = _TOKEN.findall(text)
    parser = _Parser if len(toks) <= _SHORT else _Nested
    toks.append(None)
    return parser(text, toks, env).parse()
