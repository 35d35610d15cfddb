"""The paper's published numbers, with per-metric fidelity tolerances.

One entry per summary metric of every figure/table the reproduction
regenerates (Figures 6-12, Tables 3-4 of the MICRO-50 paper).  This is
the only home of the published numbers: the figure catalog
(:mod:`repro.analysis.figures`) takes each figure's metric names, in
display order, from its dict here, and each experiment driver prints
these values in its paper-vs-measured block.  Values
are read off the paper's charts and tables; ``source`` records exactly
which figure/axis each number came from so the dataset is auditable
(see ``docs/paper_mapping.md``).

Tolerances are **relative** and deliberately asymmetric in spirit: the
reproduction runs transaction counts scaled ~10^3x down from the paper
(PAPER.md §2), so metrics that are ratios of similar quantities land
close to the paper while absolute-pressure metrics (write
amplification worst cases, large-transaction speedups) diverge in
documented ways (EXPERIMENTS.md).  Each entry therefore carries a
``level``:

* ``"gate"`` — the paper-fidelity gate fails when the measured value
  drifts outside ``tolerance`` of the paper's number.
* ``"track"`` — reported on the dashboard and in the gate's delta
  table with its deviation, but never fails the gate; the divergence
  is a known, documented artifact of the scaled configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: Bump when reference values or tolerances change meaning.
REFERENCE_VERSION = 1


@dataclass(frozen=True)
class RefEntry:
    """One published number: value, fidelity tolerance, provenance."""

    value: float
    #: Relative tolerance for the fidelity check (|meas-ref|/|ref|).
    tolerance: float
    #: ``"gate"`` (drift fails the gate) or ``"track"`` (report only).
    level: str
    #: Where in the paper the number was read from.
    source: str

    def deviation(self, measured: float) -> float:
        """Relative deviation of a measured value from the reference."""
        return abs(measured - self.value) / abs(self.value)


def _gate(value: float, tolerance: float, source: str) -> RefEntry:
    return RefEntry(value, tolerance, "gate", source)


def _track(value: float, tolerance: float, source: str) -> RefEntry:
    return RefEntry(value, tolerance, "track", source)


#: figure name -> summary metric -> published reference, metrics in
#: display order.
PAPER_REFERENCE: Dict[str, Dict[str, RefEntry]] = {
    "fig6": {
        "PMEM+pcommit": _gate(
            0.79, 0.45, "Fig. 6, geomean cluster, PMEM+pcommit bar (§6)"
        ),
        "ATOM": _gate(1.33, 0.15, "Fig. 6, geomean cluster, ATOM bar (§6)"),
        "Proteus": _gate(
            1.46, 0.25, "Fig. 6, geomean cluster, Proteus bar (§6)"
        ),
        "PMEM+nolog": _gate(
            1.51, 0.25, "Fig. 6, geomean cluster, PMEM+nolog bar (§6)"
        ),
    },
    "fig7": {
        "ATOM / ideal": _gate(
            1.16, 0.25, "Fig. 7, ATOM geomean over PMEM+nolog stalls (§6)"
        ),
        "Proteus / ideal": _gate(
            1.04, 0.15, "Fig. 7, Proteus geomean over PMEM+nolog stalls (§6)"
        ),
        "ATOM / Proteus": _gate(
            1.12, 0.30, "Fig. 7, ratio of the two geomean bars (§6)"
        ),
    },
    "fig8": {
        "ATOM avg": _gate(
            3.4, 0.25, "Fig. 8, ATOM geomean of normalized NVMM writes (§6)"
        ),
        # Our single-channel model issues 3 writes per logged line where
        # ATOM's tracker on the paper's testbed reached 6x on AT; the
        # shape (worst case on AT) reproduces, the magnitude does not.
        "ATOM worst (AT)": _track(
            6.0, 0.60, "Fig. 8, ATOM bar over the AT benchmark (§6)"
        ),
        "Proteus worst": _gate(
            1.06, 0.15, "Fig. 8, tallest Proteus bar across benchmarks (§6)"
        ),
    },
    "fig9": {
        "ATOM": _gate(1.33, 0.30, "Fig. 9, geomean cluster, ATOM bar (§7.1)"),
        # At 300 ns writes the scaled-down transaction mix amplifies the
        # log-removal advantage; the ordering reproduces, magnitudes run
        # high (EXPERIMENTS.md, slow-NVM note).
        "Proteus": _track(
            1.49, 1.00, "Fig. 9, geomean cluster, Proteus bar (§7.1)"
        ),
        "PMEM+nolog": _track(
            1.53, 1.00, "Fig. 9, geomean cluster, PMEM+nolog bar (§7.1)"
        ),
    },
    "fig10": {
        "ATOM": _gate(1.31, 0.25, "Fig. 10, geomean cluster, ATOM bar (§7.2)"),
        "Proteus": _gate(
            1.47, 0.35, "Fig. 10, geomean cluster, Proteus bar (§7.2)"
        ),
        "PMEM+nolog": _gate(
            1.52, 0.35, "Fig. 10, geomean cluster, PMEM+nolog bar (§7.2)"
        ),
    },
    "fig11": {
        "LogQ=8 geomean": _gate(
            1.44, 0.30, "Fig. 11, LogQ=8 line at the geomean point (§7.3)"
        ),
        "LogQ=64 geomean": _gate(
            1.47, 0.30, "Fig. 11, LogQ=64 line at the geomean point (§7.3)"
        ),
    },
    "fig12": {
        "large-LPQ plateau": _gate(
            1.46, 0.30, "Fig. 12, plateau of the speedup curve (§7.3)"
        ),
    },
    "table3": {
        # Table 3 is the documented divergence: our single-channel
        # substrate saturates on spilled log writes at paper-scale
        # transaction footprints, so measured speedups sit far above
        # the paper's near-ideal 1.2x band (see EXPERIMENTS.md and the
        # LPQ=tx variant in table3_large_transactions).  Track only.
        "Proteus@1024": _track(
            1.20, 2.00, "Table 3, Proteus row, 1024-element column (§7.3)"
        ),
        "Proteus@8192": _track(
            1.24, 2.00, "Table 3, Proteus row, 8192-element column (§7.3)"
        ),
        "ideal@1024": _track(
            1.23, 2.00, "Table 3, ideal row, 1024-element column (§7.3)"
        ),
        "ideal@8192": _track(
            1.27, 2.00, "Table 3, ideal row, 8192-element column (§7.3)"
        ),
    },
    # In the figures' benchmark order; the Table 4 driver prints the
    # paper's column order.  Queue transactions touch few distinct lines
    # at reduced op counts, so LLT conflict misses overshoot (QE);
    # radix-tree locality undershoots (RT).  Both are scale artifacts —
    # tracked, not gated.
    "table4": {
        "QE": _track(22.5, 0.90, "Table 4, QE column, miss-rate row (§7.3)"),
        "HM": _gate(39.2, 0.15, "Table 4, HM column, miss-rate row (§7.3)"),
        "SS": _gate(24.5, 0.15, "Table 4, SS column, miss-rate row (§7.3)"),
        "AT": _gate(37.2, 0.35, "Table 4, AT column, miss-rate row (§7.3)"),
        "BT": _gate(36.1, 0.40, "Table 4, BT column, miss-rate row (§7.3)"),
        "RT": _track(51.6, 0.65, "Table 4, RT column, miss-rate row (§7.3)"),
    },
}


def reference_for(figure: str, metric: str) -> Optional[RefEntry]:
    """The published reference for one figure metric, if any."""
    return PAPER_REFERENCE.get(figure, {}).get(metric)
