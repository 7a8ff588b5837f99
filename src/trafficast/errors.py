"""Exception types shared across the toolkit, and the rule that names a failing stage."""
from contextlib import contextmanager


class TrafficastError(Exception):
    """Base class for all toolkit errors."""


class ParseError(TrafficastError):
    """Malformed input data; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(TrafficastError):
    """Input violates a documented precondition or domain constraint."""


class FitError(TrafficastError):
    """Model estimation failed, e.g. a singular regression matrix."""


class FilterError(TrafficastError):
    """State-space recursion failed, e.g. a singular innovation covariance."""


class PipelineError(TrafficastError):
    """A processing stage failed; the message names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@contextmanager
def stage(name: str, dataset: str | None = None):
    """Run a block as the pipeline stage ``name``: a TrafficastError or OSError
    raised in it becomes a PipelineError naming the stage, and ``dataset`` if given."""
    try:
        yield
    except (TrafficastError, OSError) as exc:
        where = "" if dataset is None else f"dataset {dataset}: "
        raise PipelineError(name, f"{where}{exc}") from exc


class ConfigError(TrafficastError):
    """A run configuration file could not be parsed or is incomplete."""
