"""Discrete-event simulation kernel.

The simulator is deliberately small: an event queue ordered by integer
picosecond timestamps, clock domains for cycle/time conversion, and counters
and latency statistics.  Hardware and OS models in :mod:`repro.hw` and
:mod:`repro.os` are built on top of it.
"""

from .clock import Clock
from .engine import Simulator
from .rng import make_rng, make_secret_stream
from .stats import Counter, LatencyStat, StatRegistry

__all__ = [
    "Clock",
    "Counter",
    "LatencyStat",
    "Simulator",
    "StatRegistry",
    "make_rng",
    "make_secret_stream",
]
