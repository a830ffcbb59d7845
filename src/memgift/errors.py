"""The base of every error the library raises on bad input or misuse."""

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
