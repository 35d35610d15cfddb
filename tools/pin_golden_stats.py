#!/usr/bin/env python3
"""Re-pin the golden reference-engine ``Stats`` digests.

Runs the matrix defined in ``tests/test_golden_stats.py`` under the
reference engine and rewrites ``tests/golden/stats_digests.json``.  Run
it only after a deliberate change to the timing model::

    PYTHONPATH=src python tools/pin_golden_stats.py

A refactor or speed-up must leave the pinned file untouched.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.test_golden_stats import GOLDEN_PATH, compute_digests  # noqa: E402


def main() -> int:
    digests = compute_digests()
    doc = {
        "description": (
            "SHA-256 of each cell's ordered (counter, value) items plus its "
            "final cycle under the reference engine; regenerate with "
            "tools/pin_golden_stats.py"
        ),
        "digests": digests,
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} cells to {GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
