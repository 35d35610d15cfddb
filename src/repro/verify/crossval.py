"""Static <-> dynamic cross-validation for the model checker.

The fault campaign (:mod:`repro.faults`) injects durability violations
*dynamically* — dropping WPQ/LPQ admissions on a timing machine — and
detection comes from recovery checking at sampled crash points.  The
model checker proves the complementary claim statically: mutate the
lowered stream so the same writes never persist, and *exhaustive*
frontier enumeration must find a counterexample.

The cross-validation asserts the static side is a **superset** of the
dynamic side:

* every fault mode the campaign detects, whose damage is expressible as
  a stream mutation (a *static analog*), must also yield a checker
  counterexample on the mutated stream;
* the converse failures — checker findings with no dynamic analog — are
  triaged explicitly: value-level bugs (a corrupted log payload) are
  invisible to the campaign's admission-drop vocabulary but caught
  statically, which is exactly the checker's value-add.

Modes with no static analog (``torn`` tears a line mid-drain; ATOM's
``drop-log`` drops entries hardware generates at retirement, which never
appear in the stream) are recorded as dynamic-only by design — they are
why the campaign continues to exist alongside the checker.

The log and logFlag drops also name the code ``persist-lint`` must raise
on their analog (:attr:`StaticAnalog.lint_code`), so the ordering linter
is held to the same fault vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.core.schemes import Scheme
from repro.isa.trace import InstructionTrace
from repro.lint.mutate import drop_clwb_tagged_every, drop_log_flush_every
from repro.lint.runner import lower_for_lint
from repro.verify.checker import CheckReport, verify_instruction_trace
from repro.workloads import resolve_workload
from repro.workloads.base import generate_traces


@dataclass(frozen=True)
class StaticAnalog:
    """One fault mode's stream mutation.

    Calling it drops every ``every``-th write of the kind the mode drops
    at WPQ admission (every one by default).  ``lint_code`` is the code
    persist-lint must raise on the mutated stream, at any period; None
    where lint's verdict on the mode is not pinned.
    """

    drop: Callable[[InstructionTrace, int], InstructionTrace]
    lint_code: Optional[str] = None

    def __call__(self, trace: InstructionTrace, every: int = 1) -> InstructionTrace:
        return self.drop(trace, every)


def _drop_clwbs(tag: str) -> Callable[[InstructionTrace, int], InstructionTrace]:
    return lambda trace, every: drop_clwb_tagged_every(trace, tag, every)


#: scheme logging style -> fault mode -> its static analog.
ANALOG_MUTATORS: Dict[str, Dict[str, StaticAnalog]] = {
    "software": {
        # Dropping log-area write-backs leaves entries that never become
        # durable before their data stores.
        "drop-log": StaticAnalog(_drop_clwbs("log"), lint_code="P002"),
        # Dropping logFlag write-backs leaves flag transitions unfenced.
        "drop-flag": StaticAnalog(_drop_clwbs("logflag"), lint_code="P003"),
        "drop-data": StaticAnalog(_drop_clwbs("")),
    },
    "sshl": {
        # Dropping log-flushes removes undo coverage entirely.
        "drop-log": StaticAnalog(drop_log_flush_every, lint_code="P001"),
        "drop-data": StaticAnalog(_drop_clwbs("")),
    },
    "hardware": {
        "drop-data": StaticAnalog(_drop_clwbs("")),
    },
}

#: Why a (style, mode) pair has no static analog.  These are triaged,
#: not ignored: each entry documents a dynamic-only failure class.
DYNAMIC_ONLY: Dict[str, str] = {
    "torn": "tears a line mid-drain; the stream never contains the tear",
    "hardware/drop-log": (
        "ATOM log entries are generated at store retirement and never "
        "appear in the stream"
    ),
    "sshl/drop-flag": "SSHL schemes have no logFlag writes to drop",
    "hardware/drop-flag": "hardware schemes have no logFlag writes to drop",
}


def analog_for(scheme: Union[Scheme, str], mode: str) -> Optional[StaticAnalog]:
    """The stream mutation matching fault mode ``mode`` under ``scheme``,
    or None when the mode is dynamic-only."""
    scheme = Scheme.parse(scheme)
    return ANALOG_MUTATORS.get(scheme.logging_style, {}).get(mode)


def dynamic_only_reason(scheme: Union[Scheme, str], mode: str) -> str:
    """Triage note for a mode without a static analog under ``scheme``."""
    scheme = Scheme.parse(scheme)
    return DYNAMIC_ONLY.get(
        f"{scheme.logging_style}/{mode}", DYNAMIC_ONLY.get(mode, "")
    )


@dataclass
class CrossValCase:
    """One fault mode's verdict on both sides of the validation."""

    scheme: Scheme
    mode: str
    #: inconsistencies the dynamic campaign recorded.
    dynamic_inconsistent: int
    #: whether a static analog exists for this mode.
    has_analog: bool
    #: checker counterexamples on the mutated stream (0 when no analog).
    static_findings: int
    #: triage note for dynamic-only modes.
    note: str = ""
    #: the full static report, for drill-down (None when no analog).
    static_report: Optional[CheckReport] = None

    @property
    def holds(self) -> bool:
        """The superset property for this mode: anything the campaign
        caught that has a static analog is also caught statically."""
        if not self.has_analog:
            return bool(self.note)  # dynamic-only must be triaged, not silent
        if self.dynamic_inconsistent == 0:
            return True
        return self.static_findings > 0


@dataclass
class CrossValResult:
    """Verdict of one (scheme, workload) static/dynamic cross-validation."""

    scheme: Scheme
    workload: str
    cases: List[CrossValCase] = field(default_factory=list)

    @property
    def static_superset(self) -> bool:
        return all(case.holds for case in self.cases)

    def report(self) -> str:
        lines = [
            f"verify-crossval: scheme={self.scheme} workload={self.workload} "
            f"-> {'PASS' if self.static_superset else 'FAIL'}"
        ]
        for case in self.cases:
            if case.has_analog:
                status = (
                    f"dynamic={case.dynamic_inconsistent} "
                    f"static={case.static_findings} "
                    f"{'ok' if case.holds else 'HOLE'}"
                )
            else:
                status = f"dynamic-only ({case.note or 'UNTRIAGED'})"
            lines.append(f"  {case.mode:<10} {status}")
        return "\n".join(lines) + "\n"


def cross_validate(
    scheme: Union[Scheme, str],
    workload: Union[str, type] = "QE",
    crashes: int = 12,
    seed: int = 1,
    budget: Optional[int] = None,
    modes: Optional[List[str]] = None,
    **workload_kwargs: int,
) -> CrossValResult:
    """Run both sides of the validation for every violation mode.

    The dynamic side runs a small crash campaign per mode; the static
    side lowers the same workload trace, applies the mode's analog
    mutation, and model-checks the result (stopping at the first
    counterexample — existence is what the superset claim needs).
    """
    # Only the dynamic side needs the timing-machine crash harness, so
    # importing repro.verify does not load it.
    from repro.faults.campaign import VIOLATION_MODES, run_campaign

    scheme = Scheme.parse(scheme)
    workload_cls = resolve_workload(workload)
    result = CrossValResult(scheme=scheme, workload=workload_cls.name)
    (op_trace,) = generate_traces(
        workload_cls, threads=1, seed=seed, **workload_kwargs
    )
    for mode in modes if modes is not None else list(VIOLATION_MODES):
        campaign = run_campaign(
            scheme,
            workload_cls,
            crashes=crashes,
            seed=seed,
            threads=1,
            mode=mode,
            **workload_kwargs,
        )
        mutator = analog_for(scheme, mode)
        if mutator is None:
            result.cases.append(
                CrossValCase(
                    scheme=scheme,
                    mode=mode,
                    dynamic_inconsistent=campaign.inconsistent,
                    has_analog=False,
                    static_findings=0,
                    note=dynamic_only_reason(scheme, mode),
                )
            )
            continue
        lowered, layout = lower_for_lint(op_trace, scheme)
        report = verify_instruction_trace(
            mutator(lowered),
            scheme,
            layout=layout,
            initial_image=op_trace.initial_image,
            workload=f"<{mode} analog>",
            budget=budget,
            seed=seed,
            max_findings=1,
        )
        result.cases.append(
            CrossValCase(
                scheme=scheme,
                mode=mode,
                dynamic_inconsistent=campaign.inconsistent,
                has_analog=True,
                static_findings=len(report.findings),
                static_report=report,
            )
        )
    return result
