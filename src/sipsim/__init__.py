"""Simulation and verification toolkit for the symmetric inclusion process SIP(m)."""

__version__ = "0.1.0"

from .core import Geometry, RandomStream, occupation_of

__all__ = [
    "__version__",
    "Geometry",
    "RandomStream",
    "occupation_of",
]
