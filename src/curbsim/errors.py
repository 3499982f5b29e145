"""Exception types shared across the package, and the config value checks
that raise them."""

import numbers


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


def check_int(name, value, lo=None):
    """ConfigError unless value is an integer >= lo; a non-number raises
    TypeError, which `SimConfig.from_dict` reports as a bad value."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and (lo is None or value >= lo):
        return
    bound = "" if lo is None else f" >= {lo}"
    error = ConfigError if isinstance(value, numbers.Real) else TypeError
    raise error(f"{name} must be an integer{bound}, got {value!r}")


def check_number(name, value):
    """ConfigError when value is a JSON boolean, which Python would read as
    0 or 1; TypeError, as in check_int, when it is no number at all."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")


def check_path(name, value):
    """ConfigError unless value is a path string or None (unset)."""
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
