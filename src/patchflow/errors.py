"""Exception types shared across the package."""


class PatchflowError(Exception):
    """Base class for all package errors."""


class BoundsError(PatchflowError):
    """A patch window or offset support does not fit inside the image."""


class ShapeError(PatchflowError):
    """Array dimensions do not match the encoder or model."""


class GridLookupError(PatchflowError):
    """A displacement is not a candidate of a table model's grid."""


class ConfigError(PatchflowError):
    """Invalid run configuration (unknown keys, bad values, missing sections)."""


class DataFormatError(PatchflowError):
    """Malformed or truncated dataset / checkpoint / image file."""


class NumericError(PatchflowError):
    """A computation produced non-finite values."""


class TrainingDiverged(NumericError):
    """Loss became non-finite during training; carries the history so far."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []
