"""Exception types shared across the toolkit."""


class PruneKitError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(PruneKitError, ValueError):
    """Array dimensions incompatible with the requested operation."""


class GeometryError(PruneKitError, ValueError):
    """Convolution/pooling geometry yields a non-positive output size."""


class NonFiniteError(PruneKitError, ArithmeticError):
    """An operation produced NaN or Inf values."""


class StatsError(PruneKitError, ValueError):
    """Batch statistics requested over an empty batch."""


class LabelError(PruneKitError, ValueError):
    """Class label outside the valid range."""


class GraphError(PruneKitError, ValueError):
    """Tape contract violation (non-scalar loss, loss not on tape, ...)."""


class DivergenceError(PruneKitError, ArithmeticError):
    """Optimization loss became non-finite."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class ArchError(PruneKitError, ValueError):
    """Malformed architecture description or unknown layer kind."""


class ConfigError(PruneKitError, ValueError):
    """Channel configuration inconsistent with its architecture."""


class BudgetError(PruneKitError, ValueError):
    """Infeasible FLOPS budget for the structure search."""


class SplitError(PruneKitError, ValueError):
    """Requested dataset split cannot be satisfied."""


class FormatError(PruneKitError, ValueError):
    """Malformed binary input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class CorruptionError(PruneKitError, ValueError):
    """Stored data failed a checksum or range check."""


class MigrationError(PruneKitError, ValueError):
    """Persisted schema version is not supported by this build."""


class DegenerateFeatureError(PruneKitError, ValueError):
    """A structure feature has zero variance; names the offending source."""


class PipelineError(PruneKitError, RuntimeError):
    """A pipeline stage failed; ``stage`` identifies it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage
