"""Exception types shared across the package.

Everything raised on purpose derives from CheckerError, so callers can
catch one type. InternalError subclasses signal a broken invariant of this
package rather than bad input; the CLI maps them to a distinct exit code.
"""


class CheckerError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CheckerError):
    """A model, action description, or formula violates a structural rule."""


class ParseError(CheckerError):
    """Formula text that does not conform to the grammar."""


class UnknownAgent(CheckerError):
    pass


class UnknownWorld(CheckerError):
    pass


class UnknownEvent(CheckerError):
    """An event or decision-point id that is not declared."""


class UnknownProductWorld(CheckerError):
    """A (world, trace) instance that did not survive the updates."""


class EmptyProduct(CheckerError):
    """No world satisfies any event precondition: the update has no result."""


class IsolatedRoot(CheckerError):
    """A submodel root with no outgoing edges at all: nothing is reachable."""


class NoSuccessors(CheckerError):
    """Expected-value divisor is zero: the root has no successors for the agent."""


class NoDecisionContext(CheckerError):
    """An expectation was requested where no decision structure is available."""


class OughtInPrecondition(ValidationError):
    """Event preconditions must stay in the obligation-free fragment."""


class CyclicPrecondition(ValidationError):
    """An event precondition refers to its own or a later decision point."""


class Unsatisfiable(CheckerError):
    """The random generator could not satisfy a constraint within its budget."""


class InternalError(CheckerError):
    """An invariant of this package failed; not a user error."""


class NonTermination(InternalError):
    """The rewriting engine exceeded its step budget."""


class Stored:
    """What a memo keeps of a CheckerError to raise it again: its class and
    args, without the traceback and so without the frames it holds.  of()
    keeps one error as one Stored, however many entries it passes through:
    the one it was rebuilt from, or the one first made for it."""

    __slots__ = ("cls", "args")

    def __init__(self, exc: CheckerError):
        self.cls = type(exc)
        self.args = exc.args

    @classmethod
    def of(cls, exc: CheckerError) -> "Stored":
        kept = exc.__dict__.get("_stored")
        if kept is None:
            kept = exc._stored = cls(exc)
        return kept

    def rebuild(self) -> CheckerError:
        exc = self.cls(*self.args)
        exc._stored = self
        return exc
