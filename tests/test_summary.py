"""Tests for the whole-evaluation summary and bar rendering.

``tests/golden/report_digests.json`` pins the SHA-256 of every figure's
``report()`` and of the scorecard, taken from one
``run_all(threads=1, scale=0.05)`` run.  Any change to the timing model
moves them; re-pin with ``PYTHONPATH=src python tools/pin_golden_stats.py``
after a deliberate model change, never to make a refactor pass.
"""

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.analysis.figures import REGISTRY
from repro.analysis.report import format_bars
from repro.analysis.summary import run_all, scorecard, full_report

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "report_digests.json"

#: The evaluation run the scorecard and the report digests come from.
RUN_ALL_KWARGS = dict(threads=1, scale=0.05)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute_digests(results: Optional[Dict] = None) -> Dict[str, str]:
    """SHA-256 of each figure's report and of the scorecard."""
    results = run_all(**RUN_ALL_KWARGS) if results is None else results
    digests = {name: _sha256(result.report()) for name, result in results.items()}
    digests["scorecard"] = _sha256(scorecard(results))
    return digests


@pytest.fixture(scope="module")
def results():
    return run_all(**RUN_ALL_KWARGS)


def test_format_bars_renders_marker_and_values():
    text = format_bars("T", {"a": 2.0, "b": 0.5}, width=20)
    assert "T" in text
    assert "2.00" in text and "0.50" in text
    assert "#" in text
    assert "|" in text  # the reference marker on the shorter bar


def test_format_bars_empty():
    assert format_bars("T", {}) == "T"


def test_registry_covers_every_figure_and_table():
    labels = [spec.label for spec in REGISTRY.values()]
    assert labels == [
        "Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10",
        "Figure 11", "Figure 12", "Table 3", "Table 4",
    ]


@pytest.mark.slow
def test_full_report_tiny_scale():
    report = full_report(threads=1, scale=0.05)
    assert "Figure 6" in report
    assert "Scorecard" in report
    assert "Table 4" in report


def test_scorecard_formatting(results):
    text = scorecard(results)
    assert "paper" in text and "measured" in text
    # Every experiment with reference values contributes lines.
    assert text.count("Figure 6") >= 3


def test_every_catalog_metric_is_measured(results):
    """Each driver measures every metric the catalog lists for its
    figure (fig6 also reports Proteus+NoLWR, which has no paper number,
    so this is a subset check)."""
    assert list(results) == [spec.label for spec in REGISTRY.values()]
    for spec in REGISTRY.values():
        measured = results[spec.label].measured_summary
        assert set(spec.metrics) <= set(measured), spec.name


def test_reports_and_scorecard_match_golden(results):
    expected = json.loads(GOLDEN_PATH.read_text())["digests"]
    assert compute_digests(results) == expected, (
        "a figure report or the scorecard changed; if the timing model "
        "changed deliberately, re-pin with tools/pin_golden_stats.py"
    )
