"""Exception types shared across the package."""

from __future__ import annotations


class InputError(ValueError):
    """Invalid input supplied by a caller (CLI exit code 2)."""


class DimensionError(InputError):
    """Operand shapes or qubit counts are incompatible."""


class LimitError(InputError):
    """The input needs more work or memory than a documented cap allows (CLI exit code 2)."""


class InternalError(RuntimeError):
    """An internal consistency invariant was violated (CLI exit code 3)."""
