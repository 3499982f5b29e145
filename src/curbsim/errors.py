"""Exception types shared across the package."""


class CurbsimError(Exception):
    """Base class for all curbsim errors."""


class ConfigError(CurbsimError):
    """Invalid configuration value or missing required setting."""


class ParseError(CurbsimError):
    """Malformed input file; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(CurbsimError):
    """Well-formed input that violates a domain invariant."""


class CapacityError(CurbsimError):
    """Occupancy bookkeeping breach: a cell's occupied count leaves [0, capacity]."""


class SchemaError(CurbsimError):
    """Model/feature schema mismatch (e.g. predicting for an unknown cell)."""


class SingularityError(CurbsimError):
    """Unregularized fit on rank-deficient data."""
