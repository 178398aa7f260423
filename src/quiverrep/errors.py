"""Exception types shared across the package and mapped to CLI exit codes,
and `_fmt_root`, the one printer of a dimension vector in messages and tables."""

from __future__ import annotations


def _fmt_root(root) -> str:
    """A dimension vector as the CLI and the error messages print it: `1,0,2`."""
    return ",".join(str(c) for c in root)


class QuiverRepError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(QuiverRepError):
    """A quiver or representation file failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InfiniteTypeError(QuiverRepError):
    """An operation requiring finite representation type was given an infinite-type quiver."""


class NotARootError(QuiverRepError):
    """A dimension vector is not a positive root of the Tits form."""

    def __init__(self, dim_vector, tits_value: int):
        self.dim_vector = tuple(dim_vector)
        self.tits_value = tits_value
        super().__init__(f"({_fmt_root(self.dim_vector)}) is not a positive root: q={tits_value}")


class MismatchError(QuiverRepError):
    """Two objects that must share a quiver, field, or shape do not."""


class RetryCapError(QuiverRepError):
    """A randomized search exhausted its retry budget."""


class InternalInvariantError(QuiverRepError):
    """A mathematical invariant the implementation relies on was violated."""
