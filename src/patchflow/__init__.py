"""Coupled patch-vector / motion-matrix representation of image pairs."""

from .core import (
    DisplacementField,
    DisplacementGrid,
    Encoder,
    GridSpec,
    MixedMotion,
    NonParametricMotion,
    ParametricMotion,
    VectorField,
    decode,
    encode,
    support_offsets,
)

__version__ = "0.1.0"
