"""Utility primitives shared across the TAPS reproduction.

Submodules
----------
``intervals``
    Interval-set arithmetic used by the TAPS occupancy ledger (Alg. 3).
``units``
    Unit constants (bytes, seconds, rates) so experiment configs read like
    the paper ("200 KB", "40 ms", "1 Gbps").
``rng``
    Seeded random-source helpers for reproducible workloads.
``errors``
    Exception hierarchy for the package.
``jsonl``
    The header-then-objects JSON Lines framing that trace and telemetry
    files share.
"""

from repro.util.errors import (
    ReproError,
    ConfigurationError,
    SimulationError,
    AllocationError,
    TopologyError,
)
from repro.util.intervals import IntervalSet
from repro.util.units import KB, MB, GB, Gbps, Mbps, ms, us, seconds

__all__ = [
    "IntervalSet",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "AllocationError",
    "TopologyError",
    "KB",
    "MB",
    "GB",
    "Gbps",
    "Mbps",
    "ms",
    "us",
    "seconds",
]
