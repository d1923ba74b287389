"""Numerical spectral laboratory for harmonic Toeplitz operators on the unit ball."""

from .errors import TailNotCertifiedError
from .grids import TruncationSpec
from .symbols import Power, RadialSymbol, Sampled, Step, SymbolSum

__version__ = "0.1.0"

__all__ = [
    "Power",
    "RadialSymbol",
    "Sampled",
    "Step",
    "SymbolSum",
    "TailNotCertifiedError",
    "TruncationSpec",
    "__version__",
]
