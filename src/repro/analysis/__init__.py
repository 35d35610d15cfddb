"""Experiment drivers regenerating the paper's evaluation.

One function per figure/table of the paper (Figures 6-12, Tables 3-4).
Every experiment runs its cells through the sweep runner in
:mod:`repro.parallel` — in-process memoization means figures sharing a
sweep (6, 7, 8) pay for it once, and an attached on-disk result cache
plus worker-process fan-out speed up repeated and large sweeps (see
``docs/architecture.md``).  The lint, verify and profile sweeps live in
their own modules (``lintsweep``, ``verifysweep``, ``profiling``), which
the package does not import, so loading a figure driver loads none of
them.
"""

from repro.analysis.experiments import (
    BENCH_SPECS,
    EvaluationResult,
    fig6_speedup_nvm,
    fig7_frontend_stalls,
    fig8_nvm_writes,
    fig9_slow_nvm,
    fig10_dram,
    fig11_logq_sweep,
    fig12_lpq_sweep,
    run_evaluation,
    table3_large_transactions,
    table4_llt_miss_rate,
)
from repro.analysis.report import format_table

__all__ = [
    "BENCH_SPECS",
    "EvaluationResult",
    "fig10_dram",
    "fig11_logq_sweep",
    "fig12_lpq_sweep",
    "fig6_speedup_nvm",
    "fig7_frontend_stalls",
    "fig8_nvm_writes",
    "fig9_slow_nvm",
    "format_table",
    "run_evaluation",
    "table3_large_transactions",
    "table4_llt_miss_rate",
]
