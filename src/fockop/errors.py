"""Exception taxonomy shared across the package.

Two families matter to callers: ``InputError`` covers anything a user can
cause from the outside (bad grammar, wrong dimensions, out-of-range
arguments) and maps to CLI exit code 2; ``InternalInvariantError`` covers
states the engine promises never to reach and maps to exit code 1.
"""


class FockopError(Exception):
    """Base class for all package-specific errors."""


class InputError(FockopError):
    """Invalid user input (syntax, dimension, range)."""


class SymbolSyntaxError(InputError):
    """Symbol or operator grammar violation, annotated with a position."""

    def __init__(self, message: str, text: str, pos: int):
        self.message = message
        self.text = text
        self.pos = pos
        super().__init__(f"{message} (at position {pos}: {_caret_excerpt(text, pos)})")

    def __reduce__(self):
        # rebuilt from the constructor's arguments, not from ``args``, so it
        # survives pickling across a process boundary
        return type(self), (self.message, self.text, self.pos)


class MultiIndexError(InputError, ValueError):
    """A multi-index with no components or a negative component."""


class DimensionMismatchError(InputError):
    """Operands live in different ambient dimensions."""


class ValidityRangeError(InputError):
    """A closed-form formula was requested outside its stated range."""


class InternalInvariantError(FockopError):
    """The engine reached a state its invariants rule out."""


class RadicandMismatchError(InternalInvariantError):
    """Attempted exact addition of radical coefficients with unlike radicands."""


def _caret_excerpt(text: str, pos: int, width: int = 24) -> str:
    lo = max(0, pos - width // 2)
    hi = min(len(text), lo + width)
    snippet = text[lo:hi]
    return f"'{snippet}' -> offset {pos - lo}"
