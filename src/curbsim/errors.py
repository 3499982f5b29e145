"""Exception types shared across the package, the config value checks that
raise them, and `Table`, the one reader of the input tables."""

import csv
import math
import numbers
import os


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


class SingularityError(CurbsimError):
    """Unregularized fit on rank-deficient data."""


def check_int(name, value, lo=None, bits=40):
    """ConfigError unless value is an integer >= lo of magnitude below
    2**bits, so every config integer fits the int64 arrays and the 64-bit
    seeds it ends up in; a non-number raises TypeError, which
    `SimConfig.from_dict` reports as a bad value."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and (lo is None or value >= lo):
        if abs(value) < 2**bits:
            return
        raise ConfigError(f"{name} must be an integer of magnitude below 2**{bits}, got {value!r}")
    bound = "" if lo is None else f" >= {lo}"
    error = ConfigError if isinstance(value, numbers.Real) else TypeError
    raise error(f"{name} must be an integer{bound}, got {value!r}")


def check_number(name, value, lo, hi=math.inf, above=False):
    """ConfigError unless value is a finite number >= lo (> lo when above)
    and <= hi; a JSON boolean, which Python would read as 0 or 1, counts as
    no number. TypeError, as in check_int, when it is no number at all."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if math.isfinite(value) and (value > lo if above else value >= lo) and value <= hi:
        return
    if hi < math.inf:
        raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value}")
    raise ConfigError(f"{name} must be {'>' if above else '>='} {lo} and finite, got {value}")


def check_path(name, value):
    """ConfigError unless value is a path string or None (unset)."""
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")


# every integer field of an input table is a count, index or minute in
# 0..INT_LIMIT, far inside the int64 columns it is read into
INT_LIMIT = 2**40


def _table_int(text, name, line):
    """The integer field `name` of a table row, checked against INT_LIMIT."""
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"{name} {text!r} is not an integer", line) from None
    if not 0 <= value < INT_LIMIT:
        raise ValidationError(f"line {line}: {name} {value} outside 0..2**40")
    return value


class Table:
    """An input table read whole from a path: a header line naming the
    columns, then one row per line. Fields split on tabs when the header
    line holds a tab, on commas otherwise. A relative path resolves against
    the working directory, which a missing file's ConfigError names."""

    def __init__(self, path):
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            raise ConfigError(f"{path}: no such file (input paths resolve against the working directory, "
                              f"{os.getcwd()})") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None
        self._lines = self._split(csv.reader(lines, delimiter="\t" if lines and "\t" in lines[0] else ","))
        self.columns = [name.strip() for name in next(self._lines, (1, []))[1]]

    @staticmethod
    def _split(reader):
        """(line, fields) per line; a csv error, such as a field past the
        csv module's size limit, names its line."""
        try:
            for fields in reader:
                yield reader.line_num, fields
        except csv.Error as exc:
            raise ParseError(str(exc), reader.line_num) from None

    def rows(self, what, columns, ints=()):
        """Yield (line, row) for each non-blank row, once: line is the
        physical line number, row maps each header column to its field
        ("" past a short row's end), with the `ints` columns parsed as
        integers in 0..INT_LIMIT. The header must name every one of
        `columns`, in any order; a row with more fields than the header,
        or a bad integer, is an error naming its line."""
        for col in columns:
            if col not in self.columns:
                raise ParseError(f"{what} file missing column {col!r}", 1)
        width = len(self.columns)
        for line, fields in self._lines:
            if len(fields) <= 1 and not "".join(fields).strip():
                continue
            if len(fields) > width:
                raise ParseError(f"{len(fields)} fields, but the header names {width} columns", line)
            row = dict(zip(self.columns, fields + [""] * (width - len(fields))))
            for col in ints:
                row[col] = _table_int(row[col], col, line)
            yield line, row
