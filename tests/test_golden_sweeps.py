"""Golden sweep reports: the lint, verify, profile and fault sweeps pinned.

The matrix sweeps share their cell loop, their journal codec and their
report frames, so a change to any of those must leave every sweep's
rendered output unchanged.  Each output below is reduced to a SHA-256:

* ``lint_sweep`` over every ``Scheme`` x QE, HM on two threads: its
  verbose matrix report and the JSON report of its results;
* ``verify_sweep`` over every failure-safe scheme x QE at budget 64:
  its verbose matrix report, its SARIF log and its JSON report, with
  each report's wall time zeroed first (the one field that is not
  deterministic);
* ``profile_sweep`` over ``FIGURE_ORDER`` x QE, HM at scale 0.005: its
  attribution report;
* ``run_campaign`` on PMEM x QE, 40 crashes at seed 7, sized as the
  ``repro faults`` command sizes it: its full report.

``tests/golden/sweep_digests.json`` holds the pinned digests.  Only
``python tools/pin_golden_stats.py`` rewrites it; do that after a
deliberate change to a rule, the verifier or the model, never to make a
refactor pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.analysis.lintsweep import LintSweepResult, lint_sweep
from repro.analysis.profiling import ProfileSweepResult, profile_sweep
from repro.analysis.verifysweep import VerifySweepResult, verify_sweep
from repro.core.schemes import FIGURE_ORDER, Scheme
from repro.faults import run_campaign
from repro.lint.report import render_json as lint_json
from repro.verify import render_json as verify_json
from repro.verify import verify_to_sarif

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "sweep_digests.json"


@functools.lru_cache(maxsize=None)
def _lint() -> LintSweepResult:
    return lint_sweep(
        schemes=list(Scheme), workloads=["QE", "HM"],
        threads=2, seed=7, init_ops=16, sim_ops=4,
    )


@functools.lru_cache(maxsize=None)
def _verify() -> VerifySweepResult:
    sweep = verify_sweep(
        workloads=["QE"], seed=42, init_ops=12, sim_ops=6, budget=64
    )
    for report in sweep.results:
        report.wall_time = 0.0
    return sweep


@functools.lru_cache(maxsize=None)
def _profile() -> ProfileSweepResult:
    return profile_sweep(
        schemes=list(FIGURE_ORDER), workloads=["QE", "HM"], scale=0.005
    )


def _faults() -> str:
    return run_campaign(
        "pmem", "QE", crashes=40, seed=7,
        init_ops=12, sim_ops=4, think_instructions=0,
    ).report()


#: Every pinned output: its key in the golden file, and how to render it.
REPORTS: Dict[str, Callable[[], str]] = {
    "lint/report": lambda: _lint().report(verbose=True),
    "lint/json": lambda: lint_json(_lint().results),
    "verify/report": lambda: _verify().report(verbose=True),
    "verify/json": lambda: verify_json(_verify().results),
    "verify/sarif": lambda: json.dumps(verify_to_sarif(_verify().results), indent=2),
    "profile/report": lambda: _profile().report(),
    "faults/report": _faults,
}


def compute_digests() -> Dict[str, str]:
    return {
        key: hashlib.sha256(render().encode()).hexdigest()
        for key, render in REPORTS.items()
    }


def _load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_covers_exactly_the_sweeps():
    assert sorted(_load_golden()) == sorted(REPORTS)


def test_sweeps_keep_their_cell_order():
    """Lint and verify run scheme by scheme, profile workload by workload."""
    assert [(r.scheme, r.workload) for r in _lint().results] == [
        (scheme, workload) for scheme in Scheme for workload in ("QE", "HM")
    ]
    assert [r.scheme for r in _verify().results] == [
        scheme for scheme in Scheme if scheme.failure_safe
    ]
    assert [(c.scheme, c.workload) for c in _profile().cells] == [
        (scheme, workload) for workload in ("QE", "HM") for scheme in FIGURE_ORDER
    ]


@pytest.mark.parametrize("key", REPORTS)
def test_sweep_output_matches_golden(key):
    digest = hashlib.sha256(REPORTS[key]().encode()).hexdigest()
    assert digest == _load_golden()[key], (
        f"{key}: sweep output changed; if the change to a rule, the "
        f"verifier or the model is deliberate, re-pin with "
        f"tools/pin_golden_stats.py"
    )
