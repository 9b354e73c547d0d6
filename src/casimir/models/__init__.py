"""Built-in end-to-end models and their certified harmonic families."""

from .bianchi2 import Bianchi2Model, bianchi2_model
from .family import Certificate, HarmonicFamily
from .hypergeom import RadialProfile
from .so3 import So3Model, so3_model

__all__ = [
    "Bianchi2Model",
    "bianchi2_model",
    "Certificate",
    "HarmonicFamily",
    "RadialProfile",
    "So3Model",
    "so3_model",
]
