"""Exhaustive crash-state model checking over the persistency IR.

``persist-lint`` (:mod:`repro.lint`) proves a lowered stream has the
right *shape*: fences, flushes and log writes in the contractual order.
This package proves the stronger, semantic property: for **every** crash
the persistency model can expose — every downward-closed cut of the
partial persist order, at every point in the stream — the scheme's own
recovery procedure restores a transaction-consistent image, no sealed
commit is lost, and no uncommitted transaction survives.  It shares its
recovery predicate with the dynamic fault campaign
(:func:`repro.persistence.recovery.check_recovery`), and
:mod:`repro.verify.crossval` closes the loop by asserting the static
checker subsumes every campaign-detectable fault mode that has a stream
analog.  :mod:`repro.verify.containment` holds the campaign's crash
images to the frontiers this package enumerates.
"""

from repro.verify.checker import (
    CheckReport,
    Deviation,
    Finding,
    verify_instruction_trace,
    verify_op_traces,
    verify_workload,
)
from repro.verify.containment import (
    ContainmentResult,
    check_containment,
    containment_error,
)
from repro.verify.crossval import (
    ANALOG_MUTATORS,
    CrossValCase,
    CrossValResult,
    StaticAnalog,
    analog_for,
    cross_validate,
    dynamic_only_reason,
)
from repro.verify.frontier import (
    Frontier,
    count_frontiers,
    iter_exhaustive,
    materialize,
    sample_frontiers,
)
from repro.verify.model import derive_candidates
from repro.verify.report import (
    VERIFY_RULES,
    format_finding,
    render_json,
    render_text,
    report_dict,
    verify_to_sarif,
)

__all__ = [
    "ANALOG_MUTATORS",
    "CheckReport",
    "ContainmentResult",
    "CrossValCase",
    "CrossValResult",
    "Deviation",
    "Finding",
    "Frontier",
    "StaticAnalog",
    "VERIFY_RULES",
    "analog_for",
    "check_containment",
    "containment_error",
    "count_frontiers",
    "cross_validate",
    "derive_candidates",
    "dynamic_only_reason",
    "format_finding",
    "iter_exhaustive",
    "materialize",
    "render_json",
    "render_text",
    "report_dict",
    "sample_frontiers",
    "verify_instruction_trace",
    "verify_op_traces",
    "verify_to_sarif",
    "verify_workload",
]
