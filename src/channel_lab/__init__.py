"""Deterministic simulator and combinatorics toolkit for contention resolution
on a restrained multiple-access channel."""

from .core import SimConfig, derive_stream, validate_config

__version__ = "0.1.0"

__all__ = [
    "Engine",
    "SimConfig",
    "SimResult",
    "derive_stream",
    "run_simulation",
    "validate_config",
    "__version__",
]


def __getattr__(name):
    # The engine, and the protocols and selectors it imports, load on first
    # use, so that importing channel_lab.core alone loads none of them.
    if name in ("Engine", "SimResult", "run_simulation"):
        from . import engine
        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
