"""Exception taxonomy shared across the package.

The package raises only its own two families.  ``InputError`` covers
anything a caller can cause from the outside (bad grammar, wrong
dimensions, out-of-range arguments) and maps to CLI exit code 2;
``SymbolSyntaxError`` is its case for text, with a position.
``InternalInvariantError`` covers states the engine promises never to
reach and maps to exit code 1.
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


class InternalInvariantError(FockopError):
    """The engine reached a state its invariants rule out."""


# Characters of the input shown around an error position.
EXCERPT_WIDTH = 24


def _caret_excerpt(text: str, pos: int) -> str:
    lo = max(0, pos - EXCERPT_WIDTH // 2)
    hi = min(len(text), lo + EXCERPT_WIDTH)
    snippet = text[lo:hi]
    return f"'{snippet}' -> offset {pos - lo}"
