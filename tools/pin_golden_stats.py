#!/usr/bin/env python3
"""Re-pin the golden ``Stats``, report, trace, figure-report, sweep and
workload digests.

Runs the matrix defined in ``tests/test_golden_stats.py`` under the
reference engine and rewrites ``tests/golden/stats_digests.json``,
renders every lint and verify report listed in
``tests/test_golden_diagnostics.py`` and rewrites
``tests/golden/diagnostics_digests.json``, traces the runs listed
in ``tests/test_golden_traces.py`` and rewrites
``tests/golden/trace_digests.json``, then runs the evaluation that
``tests/test_summary.py`` digests and rewrites
``tests/golden/report_digests.json``, renders the lint, verify,
profile and fault sweeps of ``tests/test_golden_sweeps.py`` and rewrites
``tests/golden/sweep_digests.json``, and last generates the op traces
of ``tests/test_golden_workloads.py`` and rewrites
``tests/golden/workload_digests.json``.  Run it only after a deliberate
change to the timing model, the tracer, a lint rule, the verifier or a
workload::

    PYTHONPATH=src python tools/pin_golden_stats.py

A refactor or speed-up must leave all six pinned files untouched.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests import (  # noqa: E402
    test_golden_diagnostics,
    test_golden_stats,
    test_golden_sweeps,
    test_golden_traces,
    test_golden_workloads,
    test_summary,
)


def _write(path: Path, description: str, digests: dict) -> None:
    doc = {"description": description, "digests": digests}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} entries to {path.relative_to(ROOT)}")


def main() -> int:
    _write(
        test_golden_stats.GOLDEN_PATH,
        "SHA-256 of each cell's ordered (counter, value) items plus its "
        "final cycle under the reference engine; regenerate with "
        "tools/pin_golden_stats.py",
        test_golden_stats.compute_digests(),
    )
    _write(
        test_golden_diagnostics.GOLDEN_PATH,
        "SHA-256 of the text, JSON and SARIF renderings of each lint and "
        "verify report (verify wall time zeroed); regenerate with "
        "tools/pin_golden_stats.py",
        test_golden_diagnostics.compute_digests(),
    )
    _write(
        test_golden_traces.GOLDEN_PATH,
        "SHA-256 of the Chrome-trace JSON and the summary JSON of each "
        "traced run; regenerate with tools/pin_golden_stats.py",
        test_golden_traces.compute_digests(),
    )
    _write(
        test_summary.GOLDEN_PATH,
        "SHA-256 of each figure's EvaluationResult.report() and of the "
        "scorecard from run_all(threads=1, scale=0.05); regenerate with "
        "tools/pin_golden_stats.py",
        test_summary.compute_digests(),
    )
    _write(
        test_golden_sweeps.GOLDEN_PATH,
        "SHA-256 of the lint, verify, profile and fault sweep reports "
        "(verify wall time zeroed); regenerate with "
        "tools/pin_golden_stats.py",
        test_golden_sweeps.compute_digests(),
    )
    _write(
        test_golden_workloads.GOLDEN_PATH,
        "SHA-256 of each cell's generated op traces: every item with all "
        "its fields, the initial image in insertion order and the warm "
        "lines; regenerate with tools/pin_golden_stats.py",
        test_golden_workloads.compute_digests(),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
