"""Exception types shared across the package."""

from __future__ import annotations


class PathfuseError(Exception):
    """Base class for errors raised by this package."""


class ParseError(PathfuseError):
    """Input text or XML could not be parsed.

    ``line`` is a 1-based physical line number when known, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(ParseError):
    """Input parsed syntactically but does not match the expected document shape."""


class ValidationError(PathfuseError):
    """Data violates an invariant (timestamps, document rules, ...)."""


class FrameMismatchError(PathfuseError):
    """An operation was given data expressed in the wrong coordinate frame."""


class DegeneratePathError(PathfuseError):
    """A path has too few distinct points to be usable."""
