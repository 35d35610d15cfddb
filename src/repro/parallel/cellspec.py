"""Sweep cells and their content-addressed identity.

A :class:`CellSpec` names one simulation of the evaluation matrix —
(workload, scheme, machine configuration, sizing, seed) — in a plain,
picklable form that can cross a process boundary and be hashed into a
stable cache key.  Two things make the key *content addressed* rather
than merely positional:

* the **full** machine configuration is serialized field by field
  (``dataclasses.asdict``), so any structural parameter change — cache
  geometry, ATOM tracker size, LLT associativity — produces a new key
  (the old per-process cache keyed on a hand-picked field subset and
  silently collided on everything else);
* a **code version** digest over every ``repro`` source file is folded
  in, so editing the simulator invalidates every cached result without
  any manual bookkeeping.

Workers regenerate traces from the spec instead of shipping them across
the pipe: trace generation is a pure function of (workload class,
threads, seed, sizing), which the determinism tests hold as a line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

from repro.core.schemes import Scheme
from repro.sim.config import (
    AtomConfig,
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    ProteusConfig,
    SystemConfig,
)
from repro.sim.simulator import SimResult
from repro.sim.stats import Stats
from repro.workloads import WORKLOADS
from repro.workloads.base import Workload
from repro.workloads.linkedlist_wl import LinkedListWorkload

#: Bump when the cached payload layout changes; old entries become misses.
CACHE_SCHEMA_VERSION = 1

#: Workloads addressable from a spec: the Table 2 suite plus the
#: linked-list microbenchmark Table 3 sweeps.
SWEEP_WORKLOADS: Dict[str, Type[Workload]] = dict(WORKLOADS)
SWEEP_WORKLOADS["LL"] = LinkedListWorkload


@dataclass(frozen=True)
class CellSpec:
    """One (workload x scheme x config) cell of a sweep.

    ``workload_kwargs`` holds extra workload-constructor arguments as a
    sorted tuple of pairs so the spec stays hashable and its JSON form
    is canonical (Table 3 passes ``elements_per_node`` this way).
    """

    workload: str
    scheme: Scheme
    config: SystemConfig
    threads: int = 1
    seed: int = 1
    init_ops: int = 1000
    sim_ops: int = 500
    workload_kwargs: Tuple[Tuple[str, Any], ...] = ()
    max_cycles: int = 500_000_000

    def __post_init__(self) -> None:
        if self.workload not in SWEEP_WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose one of "
                f"{sorted(SWEEP_WORKLOADS)}"
            )

    # -- identity ---------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """Canonical JSON-ready description (everything but code version)."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "workload": self.workload,
            "scheme": self.scheme.value,
            "config": config_to_dict(self.config),
            "threads": self.threads,
            "seed": self.seed,
            "init_ops": self.init_ops,
            "sim_ops": self.sim_ops,
            "workload_kwargs": [list(pair) for pair in self.workload_kwargs],
            "max_cycles": self.max_cycles,
        }

    def digest(self, code_version: Optional[str] = None) -> str:
        """Stable content hash of this cell (the cache key)."""
        body = self.describe()
        body["code_version"] = (
            code_version if code_version is not None else repo_code_version()
        )
        return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Picklable/JSON-able form used to ship specs to workers."""
        return self.describe()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellSpec":
        return cls(
            workload=str(data["workload"]),
            scheme=Scheme(data["scheme"]),
            config=config_from_dict(data["config"]),
            threads=int(data["threads"]),
            seed=int(data["seed"]),
            init_ops=int(data["init_ops"]),
            sim_ops=int(data["sim_ops"]),
            workload_kwargs=tuple(
                (str(key), value) for key, value in data["workload_kwargs"]
            ),
            max_cycles=int(data["max_cycles"]),
        )


# ---------------------------------------------------------------------------
# configuration (de)serialization
# ---------------------------------------------------------------------------


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Full field-by-field dict of a machine configuration."""
    return dataclasses.asdict(config)


def config_from_dict(data: Mapping[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output."""
    return SystemConfig(
        cores=int(data["cores"]),
        core=CoreConfig(**data["core"]),
        l1=CacheConfig(**data["l1"]),
        l2=CacheConfig(**data["l2"]),
        l3=CacheConfig(**data["l3"]),
        memory=MemoryConfig(**data["memory"]),
        proteus=ProteusConfig(**data["proteus"]),
        atom=AtomConfig(**data["atom"]),
    )


# ---------------------------------------------------------------------------
# result (de)serialization — the cached payload
# ---------------------------------------------------------------------------


def result_to_payload(result: SimResult) -> Dict[str, Any]:
    """Serialize a :class:`SimResult` to a canonical JSON-able payload."""
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "scheme": result.scheme.value,
        "config": config_to_dict(result.config),
        "cycles": result.cycles,
        "counters": dict(sorted(result.stats.counters.items())),
    }


def payload_to_result(payload: Mapping[str, Any]) -> SimResult:
    """Rebuild a :class:`SimResult` from :func:`result_to_payload` output.

    Raises ``KeyError``/``ValueError``/``TypeError`` on malformed input;
    the cache treats any of those as a miss.
    """
    if payload.get("schema") != CACHE_SCHEMA_VERSION:
        raise ValueError(
            f"payload schema {payload.get('schema')!r} != {CACHE_SCHEMA_VERSION}"
        )
    stats = Stats()
    for name, value in payload["counters"].items():
        stats.counters[str(name)] = int(value)
    return SimResult(
        scheme=Scheme(payload["scheme"]),
        config=config_from_dict(payload["config"]),
        stats=stats,
        cycles=int(payload["cycles"]),
    )


def result_bytes(result: SimResult) -> bytes:
    """Canonical byte serialization (the byte-identity tests compare these)."""
    return canonical_json(result_to_payload(result)).encode("utf-8")


def canonical_json(document: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# code version
# ---------------------------------------------------------------------------

_code_version: Optional[str] = None


def repo_code_version() -> str:
    """Digest over every ``repro`` source file (cached per process).

    Any edit to the simulator, workloads, or analysis code changes this
    digest and thereby invalidates every on-disk cached result.  The
    ``REPRO_CODE_VERSION`` environment variable overrides the computed
    digest (used by tests and by CI runs that pin a version label).
    """
    global _code_version
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _code_version is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        sources: List[Path] = sorted(package_root.rglob("*.py"))
        for source in sources:
            digest.update(str(source.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            try:
                digest.update(source.read_bytes())
            except OSError:  # pragma: no cover - racing file removal
                continue
            digest.update(b"\0")
        _code_version = digest.hexdigest()
    return _code_version
