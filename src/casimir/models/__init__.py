"""Built-in end-to-end models and their certified harmonic families.

The model modules load on first use of one of their names (PEP 562), so a
process that builds one model never compiles the other."""

from importlib import import_module

from .family import Certificate, HarmonicFamily

__all__ = [
    "Bianchi2Model",
    "bianchi2_model",
    "Certificate",
    "HarmonicFamily",
    "RadialProfile",
    "So3Model",
    "so3_model",
]

# each lazily loaded name -> the submodule that defines it
_SOURCES = {
    "Bianchi2Model": "bianchi2",
    "bianchi2_model": "bianchi2",
    "RadialProfile": "hypergeom",
    "So3Model": "so3",
    "so3_model": "so3",
}


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value
