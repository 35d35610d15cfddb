"""Golden trace exports: the traced reference loop pinned against its past.

A change to the core tick must leave the recorded event stream
unchanged, not only the ``Stats``: the stall instants, the instruction
lifecycle edges and the occupancy samples all feed the Chrome-trace
export and the summary JSON.  ``tests/test_obs_determinism.py`` compares
two runs of the same code; this module compares each run against its
pinned past.  Every ``Scheme`` runs HM on two threads with the occupancy
sampler on, and both exports are reduced to a SHA-256.

``tests/golden/trace_digests.json`` holds the pinned digests.  Only
``python tools/pin_golden_stats.py`` rewrites it; do that after a
deliberate change to the model or the tracer, never to make a refactor
pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.core.schemes import Scheme
from repro.obs import (
    Tracer,
    build_tx_spans,
    chrome_trace,
    render_summary_json,
    summary_json,
    to_chrome_json,
)
from repro.sim.config import fast_nvm_config
from repro.sim.simulator import run_trace
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_traces

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "trace_digests.json"

WORKLOAD = "HM"
THREADS = 2
SEED = 7
SIZING = dict(init_ops=32, sim_ops=4)
SAMPLE_INTERVAL = 50


def trace_key(scheme: Scheme) -> str:
    return f"{WORKLOAD}/{scheme.value}/seed{SEED}/t{THREADS}"


@functools.lru_cache(maxsize=None)
def _traces():
    # Lowering never mutates the op traces, so schemes share them.
    return generate_traces(WORKLOADS[WORKLOAD], threads=THREADS, seed=SEED, **SIZING)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def export_digests(scheme: Scheme) -> Dict[str, str]:
    """Trace one run; return the digests of its two exports."""
    tracer = Tracer(sample_interval=SAMPLE_INTERVAL)
    result = run_trace(_traces(), scheme, fast_nvm_config(cores=THREADS), tracer=tracer)
    events = tracer.events
    spans = build_tx_spans(events)
    doc = chrome_trace(
        events,
        spans,
        metadata={"scheme": str(scheme), "workload": WORKLOAD, "threads": THREADS, "seed": SEED},
    )
    summary = summary_json(
        events, str(scheme), WORKLOAD, result.cycles,
        stats=result.stats.snapshot(), spans=spans,
    )
    return {
        "chrome": _sha256(to_chrome_json(doc)),
        "summary": _sha256(render_summary_json(summary)),
    }


def compute_digests() -> Dict[str, Dict[str, str]]:
    return {trace_key(scheme): export_digests(scheme) for scheme in Scheme}


def _load_golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_covers_every_scheme():
    assert sorted(_load_golden()) == sorted(trace_key(scheme) for scheme in Scheme)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_trace_exports_match_golden(scheme):
    assert export_digests(scheme) == _load_golden()[trace_key(scheme)], (
        f"{trace_key(scheme)}: traced exports changed; if the model or "
        f"tracer change is deliberate, re-pin with tools/pin_golden_stats.py"
    )
