"""Exception taxonomy shared across the engine.

Exit-code mapping lives in the CLI: input/schema problems are exit 1,
configuration problems exit 2, network/integrity problems exit 3, and
broken internal invariants exit 4.
"""

from __future__ import annotations


class EvrcError(Exception):
    """Base class for all engine errors."""


class InputError(EvrcError):
    """Bad input data: malformed records, dangling references, gaps."""


class ParseError(InputError):
    """A case file could not be parsed at all."""

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, column: int | None = None):
        self.path = path
        self.line = line
        self.column = column
        loc = path or ""
        if line is not None:
            loc += f":{line}"
            if column is not None:
                loc += f":{column}"
        super().__init__(f"{loc}: {message}" if loc else message)


class VersioningError(InputError):
    """A file declares a schema version this engine does not understand."""


class DataError(InputError):
    """Structurally valid input that is semantically unusable."""


class ConfigurationError(EvrcError):
    """Missing or unusable configuration (e.g. an `--out` that cannot be written)."""


class GateOrderingError(EvrcError):
    """Coverage was attempted before admissibility gating completed."""


class NetworkError(EvrcError):
    """A live fetch failed; retryable up to the adapter's retry budget."""


class IntegrityError(EvrcError):
    """A replayed snapshot does not match its recorded digest."""
