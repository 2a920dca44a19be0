"""Class-incremental learning with bounded exemplar memory and score calibration."""

from . import backbone, breaks, calibration, dataset, harness, memory, metrics
from .errors import FormatError, ParameterError

__all__ = [
    "backbone",
    "breaks",
    "calibration",
    "dataset",
    "harness",
    "memory",
    "metrics",
    "FormatError",
    "ParameterError",
]

__version__ = "0.1.0"
