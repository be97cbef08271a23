"""Shared exception types.

Everything raised on purpose by this package derives from PostselError; no module
raises a builtin exception (``__getattr__``'s AttributeError aside).  So the CLI
exits 2 on a PostselError or an unreadable file, and any other exception is a bug.
"""

from __future__ import annotations


class PostselError(Exception):
    """Base class for all errors raised deliberately by this package."""


class BadArgument(PostselError, ValueError):
    """An argument of the wrong type or out of range; ``except ValueError`` catches it too."""


class CircuitSyntaxError(PostselError):
    """A circuit or machine text file failed to parse."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ZeroPostselection(PostselError):
    """The postselection event has probability exactly zero."""


class PromiseViolation(PostselError):
    """Machine pair fed to a promise construction does not satisfy the promise."""


class CapExceeded(PostselError):
    """A cap is passed (``circuit._capped``): ``MAX_WIDTH`` wires, ``DEFAULT_MAX_SUPPORT``
    live entries, ``DEFAULT_MAX_BRANCH`` Hadamards or ``DEFAULT_MAX_PATH_BITS`` path bits."""


class InsufficientAncillas(PostselError):
    """A multi-controlled gate cannot be expanded with the declared ancillas."""


class MachineContractError(PostselError):
    """A predicate machine broke its contract (scratch not restored, bad widths)."""


class StatsMismatch(PostselError):
    """A construction precondition on exact output statistics does not hold,
    or a postselection record is impossible (not 0 <= P(o=1, p=1) <= P(p=1) <= 1)."""
