"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(EngineError):
    """Input shapes or ranks are invalid for an operation."""


class UnknownPrimitiveError(EngineError):
    """A primitive identifier is not registered."""


class GraphConsumedError(EngineError):
    """A backward pass reached a graph that an earlier backward consumed."""


class GradCheckError(EngineError):
    """Gradient checking hit a non-finite intermediate value."""


class ConfigError(EngineError):
    """A configuration value or file is invalid."""


class DataError(EngineError):
    """A sample, manifest, or on-disk blob is inconsistent."""


class SplitError(EngineError):
    """A split-construction procedure cannot produce a valid split."""


class MetricError(EngineError):
    """A metric is undefined for the given inputs (e.g. empty evaluation)."""


class CheckpointError(EngineError):
    """A checkpoint directory is missing, corrupt, or incompatible."""


class TrainingDivergedError(EngineError):
    """Training produced a non-finite loss or gradient; carries epoch/batch context."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
