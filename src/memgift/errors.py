"""The base of every error the library raises on bad input or misuse, and
the checks that raise a caller's own error."""

import operator
from pathlib import Path


class MemgiftError(Exception):
    """Base of GiftError, LayoutError, CrossbarError, ConfigError,
    PipelineError and MissingEventsError; each also keeps its builtin base
    (ValueError or RuntimeError)."""


def read_text(path, error: type[MemgiftError]) -> str:
    """The contents of a UTF-8 text file; a missing file or a byte that is
    not UTF-8 raises `error`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{path}: file not found") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte offset {exc.start})") from None


def check_int(value, what: str, error: type[MemgiftError], bits=None) -> int:
    """`value` as an int: a Python int, a numpy integer or a bool (0 or 1).
    Anything else, a negative value or, with `bits`, one of `bits` or more
    bits raises `error`, naming `what`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, not {type(value).__name__}") from None
    if bits is None:
        if value < 0:
            raise error(f"{what} must be non-negative, got {value}")
    elif value < 0 or value >> bits:
        raise error(f"{what} does not fit in {bits} bits: need a non-negative {bits}-bit integer")
    return value
