"""``persist-lint``: static persistency-ordering analysis.

Proves — per scheme, in milliseconds, without running the timing
simulator — that a lowered instruction stream honors the ordering
contract durable transactions rest on: undo-log entries durable before
the data stores they cover, fenced logFlag transitions, every
transactional line persisted by its commit point, and well-formed
transaction/logging-pair structure.

The analyzer is the static complement of the fault-injection campaigns
(``repro.faults``): every deliberate-violation fault mode has a trace
mutation whose lint verdict is known (the ``lint_code`` of its analog
in :data:`repro.verify.crossval.ANALOG_MUTATORS`), so the two checkers
validate each other.

Public API::

    from repro.lint import lint_workload
    result = lint_workload("proteus", "queue", sim_ops=20)
    assert result.ok, result.codes()
"""

from repro.lint.diagnostics import (
    Diagnostic,
    ERROR_CODES,
    LintResult,
    RULES,
    Rule,
    Severity,
    WARNING_CODES,
)
from repro.lint.engine import Analyzer
from repro.lint.profiles import PROFILES, Profile, profile_for
from repro.lint.report import (
    JSON_SCHEMA_VERSION,
    render_json,
    render_text,
    result_dict,
    rule_catalog,
)
from repro.lint.runner import (
    layout_for_thread,
    lint_instruction_trace,
    lint_op_traces,
    lint_workload,
    lower_for_lint,
)
from repro.lint.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    lint_to_sarif,
    sarif_log,
    sarif_result,
    sarif_run,
    validate_sarif,
)
from repro.persistence.stream import PersistState

__all__ = [
    "Analyzer",
    "Diagnostic",
    "ERROR_CODES",
    "JSON_SCHEMA_VERSION",
    "LintResult",
    "PROFILES",
    "PersistState",
    "Profile",
    "RULES",
    "Rule",
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "Severity",
    "WARNING_CODES",
    "layout_for_thread",
    "lint_instruction_trace",
    "lint_op_traces",
    "lint_to_sarif",
    "lint_workload",
    "lower_for_lint",
    "profile_for",
    "render_json",
    "render_text",
    "result_dict",
    "rule_catalog",
    "sarif_log",
    "sarif_result",
    "sarif_run",
    "validate_sarif",
]
