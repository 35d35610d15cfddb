"""System configuration, mirroring Table 1 of the paper.

All latencies are in CPU cycles at the paper's 3.4 GHz clock.  The NVM
latency presets follow the paper's assumptions: fast NVM has ~50 ns reads
and ~150 ns writes; slow NVM keeps 50 ns reads but 300 ns writes; the DRAM
preset (NVDIMM-style battery-backed DRAM) services reads and writes alike.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar, Dict

#: CPU clock in GHz, used only to convert nanoseconds to cycles.
CPU_GHZ = 3.4


def ns_to_cycles(nanoseconds: float) -> int:
    """Convert a latency in nanoseconds to CPU cycles (rounded)."""
    return max(1, round(nanoseconds * CPU_GHZ))


def _require_positive(config: object, *fields_: str) -> None:
    """Reject zero/negative structural parameters at construction time
    with a message naming the offending field."""
    name = type(config).__name__
    for field_name in fields_:
        value = getattr(config, field_name)
        if value <= 0:
            raise ValueError(
                f"{name}.{field_name} must be positive, got {value!r}"
            )


def _require_non_negative(config: object, *fields_: str) -> None:
    name = type(config).__name__
    for field_name in fields_:
        value = getattr(config, field_name)
        if value < 0:
            raise ValueError(
                f"{name}.{field_name} must be >= 0, got {value!r}"
            )


@dataclass
class CoreConfig:
    """Out-of-order core parameters (Table 1, Skylake-like)."""

    frequency_ghz: float = CPU_GHZ
    fetch_width: int = 5
    retire_width: int = 5
    rob_entries: int = 224
    load_queue_entries: int = 72
    store_queue_entries: int = 56
    #: store-buffer drain rate into L1 (stores per cycle after retirement)
    store_buffer_drain_per_cycle: int = 1
    #: default ALU latency in cycles
    alu_latency: int = 1
    #: outstanding demand loads per core (MSHR / superqueue bound)
    mshr_entries: int = 24

    def __post_init__(self) -> None:
        _require_positive(
            self,
            "frequency_ghz",
            "fetch_width",
            "retire_width",
            "rob_entries",
            "load_queue_entries",
            "store_queue_entries",
            "store_buffer_drain_per_cycle",
            "alu_latency",
            "mshr_entries",
        )


@dataclass
class CacheConfig:
    """One cache level."""

    size_bytes: int
    ways: int
    latency: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        _require_positive(self, "size_bytes", "ways", "latency", "line_bytes")

    @property
    def sets(self) -> int:
        """Number of sets implied by size, ways and line size."""
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets <= 0:
            raise ValueError("cache too small for its geometry")
        return sets


@dataclass
class MemoryConfig:
    """Memory controller + device parameters.

    ``read_latency``/``write_latency`` are the per-access bank service
    times in CPU cycles; ``banks`` limits parallelism; the WPQ is the
    ADR persistency domain at the controller.
    """

    read_latency: int = ns_to_cycles(50)
    write_latency: int = ns_to_cycles(150)
    #: service time for an access that hits the open row buffer: a burst
    #: transfer (~5 ns) rather than a full array access.  Sequential log
    #: writes stream at this rate.
    row_hit_latency: int = ns_to_cycles(5)
    banks: int = 16
    wpq_entries: int = 64
    read_queue_entries: int = 64
    #: round-trip on-chip latency from LLC/core to the memory controller
    controller_latency: int = 20
    #: True when the WPQ counts as persistent (Intel ADR); with ADR a write
    #: is durable once accepted at the WPQ, and ``pcommit`` is unnecessary.
    adr: bool = True
    #: channel command bandwidth: minimum cycles between successive
    #: bank dispatches from the controller
    dispatch_interval: int = 4

    def __post_init__(self) -> None:
        _require_positive(
            self,
            "read_latency",
            "write_latency",
            "row_hit_latency",
            "banks",
            "wpq_entries",
            "read_queue_entries",
            "dispatch_interval",
        )
        _require_non_negative(self, "controller_latency")


@dataclass
class ProteusConfig:
    """Proteus structure sizes (Table 1 bottom row)."""

    log_registers: int = 8
    logq_entries: int = 16
    llt_entries: int = 64
    llt_ways: int = 8
    lpq_entries: int = 256
    #: apply the NVMM log write removal optimization (LPQ flash clear).
    log_write_removal: bool = True

    def __post_init__(self) -> None:
        _require_positive(
            self,
            "log_registers",
            "logq_entries",
            "llt_entries",
            "llt_ways",
            "lpq_entries",
        )
        if self.llt_ways > self.llt_entries:
            raise ValueError(
                f"ProteusConfig.llt_ways ({self.llt_ways}) cannot exceed "
                f"llt_entries ({self.llt_entries})"
            )


@dataclass
class AtomConfig:
    """ATOM baseline parameters (section 5.1; Joshi et al. HPCA'17).

    ``tracker_entries`` models the finite MC-side hardware that tracks
    active log entries for commit-time truncation; entries beyond it must
    be invalidated by scanning (extra NVM reads + writes).
    """

    tracker_entries: int = 32
    #: cycles for the MC to fabricate a log entry (source-log optimization);
    #: with the posted-log optimization the store retires at MC *receipt*,
    #: so the serialized per-store cost is this plus the controller trip.
    source_log_latency: int = 4

    def __post_init__(self) -> None:
        _require_positive(self, "tracker_entries", "source_log_latency")


@dataclass
class SystemConfig:
    """Complete machine description."""

    cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 8, 4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(256 * 1024, 8, 12))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(8 * 1024 * 1024, 16, 42))
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    proteus: ProteusConfig = field(default_factory=ProteusConfig)
    atom: AtomConfig = field(default_factory=AtomConfig)
    #: Not a setting: there is one simulation loop.  perfbench/run.py
    #: still records ``SystemConfig().engine`` in every run context, so
    #: the name stays until that benchmark changes.  As a ClassVar it is
    #: neither a constructor argument nor a field of ``asdict``.
    engine: ClassVar[str] = "reference"

    def __post_init__(self) -> None:
        _require_positive(self, "cores")

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def with_memory(self, **kwargs) -> "SystemConfig":
        """Return a copy with memory fields replaced."""
        return dataclasses.replace(self, memory=dataclasses.replace(self.memory, **kwargs))

    def with_proteus(self, **kwargs) -> "SystemConfig":
        """Return a copy with Proteus fields replaced."""
        return dataclasses.replace(self, proteus=dataclasses.replace(self.proteus, **kwargs))

    def describe(self) -> Dict[str, str]:
        """Human-readable summary used by reports."""
        mem = self.memory
        return {
            "cores": str(self.cores),
            "caches": (
                f"L1 {self.l1.size_bytes // 1024}KB/{self.l1.ways}w/{self.l1.latency}c, "
                f"L2 {self.l2.size_bytes // 1024}KB/{self.l2.ways}w/{self.l2.latency}c, "
                f"L3 {self.l3.size_bytes // (1024 * 1024)}MB/{self.l3.ways}w/{self.l3.latency}c"
            ),
            "memory": (
                f"read {mem.read_latency}c, write {mem.write_latency}c, "
                f"{mem.banks} banks, WPQ {mem.wpq_entries}"
            ),
            "proteus": (
                f"LR {self.proteus.log_registers}, LogQ {self.proteus.logq_entries}, "
                f"LLT {self.proteus.llt_entries} ({self.proteus.llt_ways}-way), "
                f"LPQ {self.proteus.lpq_entries}"
            ),
        }


def fast_nvm_config(cores: int = 4) -> SystemConfig:
    """The paper's default: NVM with 50 ns reads / 150 ns writes."""
    return SystemConfig(
        cores=cores,
        memory=MemoryConfig(
            read_latency=ns_to_cycles(50), write_latency=ns_to_cycles(150)
        ),
    )


def slow_nvm_config(cores: int = 4) -> SystemConfig:
    """Section 7.1 sensitivity point: 300 ns writes, 50 ns reads."""
    return SystemConfig(
        cores=cores,
        memory=MemoryConfig(
            read_latency=ns_to_cycles(50), write_latency=ns_to_cycles(300)
        ),
    )


def dram_config(cores: int = 4) -> SystemConfig:
    """Section 7.2: battery-backed DRAM (NVDIMM); symmetric ~50 ns access."""
    return SystemConfig(
        cores=cores,
        memory=MemoryConfig(
            read_latency=ns_to_cycles(50), write_latency=ns_to_cycles(50)
        ),
    )
