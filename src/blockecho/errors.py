"""Exception hierarchy shared by the whole toolkit."""


class BlockEchoError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(BlockEchoError):
    """Incompatible matrix or network dimensions."""


class ValidationError(BlockEchoError):
    """Structurally valid shapes but invalid values (non-binary mask, stale cache, ...)."""


class SpecError(BlockEchoError):
    """Infeasible or out-of-range request (bad rate, impossible block placement, ...)."""


class TrainingError(BlockEchoError):
    """Non-finite losses or gradients during optimization."""


class EvaluationError(BlockEchoError):
    """A metric's preconditions are not met (no missing cells, all-zero reference, ...)."""


class ParseError(BlockEchoError):
    """Malformed input file (ragged CSV row, non-numeric cell, ...)."""
