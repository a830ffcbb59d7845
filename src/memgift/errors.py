"""The base of every error the library raises on bad input or misuse."""


class MemgiftError(Exception):
    """Base of GiftError, LayoutError, CrossbarError, ConfigError,
    PipelineError and MissingEventsError; each also keeps its builtin base
    (ValueError or RuntimeError)."""
