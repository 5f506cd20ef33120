"""Shared infrastructure: hashing, signatures, bit streams, config, stats."""

from .bits import BitWriter
from .bloom import BloomSignature
from .config import (
    CoherenceProtocol,
    ConsistencyModel,
    CoreConfig,
    L1Config,
    L2Config,
    MachineConfig,
    MemoryConfig,
    RecorderConfig,
    RecorderMode,
    ReplayCostConfig,
    RingConfig,
)
from .errors import (
    ConfigError,
    LogFormatError,
    ReplayDivergenceError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from .h3 import H3Hash, make_h3_family
from .hashing import canonical_json, canonicalize, stable_digest
from .stats import Histogram, OnlineStats, geometric_mean, ratio

__all__ = [
    "CoherenceProtocol",
    "BitWriter",
    "BloomSignature",
    "ConsistencyModel",
    "CoreConfig",
    "L1Config",
    "L2Config",
    "MachineConfig",
    "MemoryConfig",
    "RecorderConfig",
    "RecorderMode",
    "ReplayCostConfig",
    "RingConfig",
    "ConfigError",
    "LogFormatError",
    "ReplayDivergenceError",
    "ReproError",
    "SimulationError",
    "WorkloadError",
    "H3Hash",
    "make_h3_family",
    "canonical_json",
    "canonicalize",
    "stable_digest",
    "Histogram",
    "OnlineStats",
    "geometric_mean",
    "ratio",
]
