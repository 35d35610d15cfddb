"""Lint entry points.

The runner lowers workload traces exactly the way the simulator does
(same :class:`ThreadAddressSpace` layout, same
:class:`~repro.core.codegen.CodeGenerator`), so a clean lint verdict
applies to the very streams the timing model executes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.core.codegen import CodeGenerator, ThreadLayout
from repro.core.schemes import Scheme
from repro.isa.trace import InstructionTrace, OpTrace
from repro.lint.diagnostics import LintResult
from repro.lint.engine import Analyzer
from repro.lint.profiles import profile_for
from repro.workloads import workload_traces
from repro.workloads.heap import ThreadAddressSpace


def layout_for_thread(thread_id: int) -> ThreadLayout:
    """The codegen layout the simulator would use for ``thread_id``."""
    return ThreadAddressSpace(thread_id).layout()


def lower_for_lint(
    op_trace: OpTrace, scheme: Union[Scheme, str]
) -> Tuple[InstructionTrace, ThreadLayout]:
    """Lower one op trace the way :class:`Simulator` does."""
    scheme = Scheme.parse(scheme)
    layout = layout_for_thread(op_trace.thread_id)
    generator = CodeGenerator(scheme, layout, op_trace.thread_id)
    return generator.lower_trace(op_trace), layout


def lint_instruction_trace(
    trace: InstructionTrace,
    scheme: Union[Scheme, str],
    layout: Optional[ThreadLayout] = None,
    workload: str = "<trace>",
) -> LintResult:
    """Lint one already-lowered instruction stream."""
    scheme = Scheme.parse(scheme)
    profile = profile_for(scheme)
    if layout is None:
        layout = layout_for_thread(trace.thread_id)
    analyzer = Analyzer(trace, profile, layout, thread_id=trace.thread_id)
    result = LintResult(
        scheme=scheme,
        workload=workload,
        threads=1,
        instructions=len(trace),
    )
    result.extend(analyzer.run())
    return result


def lint_op_traces(
    op_traces: Sequence[OpTrace],
    scheme: Union[Scheme, str],
    workload: str = "<trace>",
) -> LintResult:
    """Lower and lint one stream per thread; merge the diagnostics."""
    scheme = Scheme.parse(scheme)
    result = LintResult(
        scheme=scheme,
        workload=workload,
        threads=len(op_traces),
        instructions=0,
    )
    for op_trace in op_traces:
        lowered, layout = lower_for_lint(op_trace, scheme)
        per_thread = lint_instruction_trace(
            lowered, scheme, layout=layout, workload=workload
        )
        result.instructions += per_thread.instructions
        result.extend(per_thread.diagnostics)
    return result


def lint_workload(
    scheme: Union[Scheme, str],
    workload: Union[str, type],
    threads: int = 1,
    seed: int = 42,
    init_ops: Optional[int] = None,
    sim_ops: Optional[int] = None,
    think_instructions: Optional[int] = None,
) -> LintResult:
    """Generate a workload's traces and lint the lowered streams."""
    scheme = Scheme.parse(scheme)
    name, traces = workload_traces(
        workload, threads, seed, init_ops, sim_ops, think_instructions
    )
    return lint_op_traces(traces, scheme, workload=name)
