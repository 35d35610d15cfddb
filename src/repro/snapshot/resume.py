"""Resume simulation from a checkpoint.

The continuation traces are *regenerated*, not stored: trace generation
is a pure function of (workload class, seed, sizing), so skipping to
the checkpoint's operation offset reproduces the exact op stream an
uninterrupted generation would have produced there (held as a line by
``tests/test_workload_resume.py``).  The workload cursor recorded in
the snapshot is cross-checked after the skip — a mismatch means the
workload code changed since the checkpoint was taken, which surfaces as
a :class:`~repro.snapshot.format.SnapshotFormatError` rather than a
silently wrong simulation.
"""

from __future__ import annotations

from typing import List

from repro.isa.trace import OpTrace
from repro.sim.simulator import SimResult
from repro.snapshot.checkpoint import Checkpoint, workloads_for
from repro.snapshot.format import SnapshotFormatError
from repro.snapshot.state import restore_machine


def _resume_traces(checkpoint: Checkpoint) -> List[OpTrace]:
    """Regenerate the rest of the cell's op traces at the checkpoint offset."""
    remaining = checkpoint.remaining_ops
    if remaining < 0:
        raise ValueError(
            f"cannot resume {remaining} op(s) at offset {checkpoint.op_offset} "
            f"of a {checkpoint.cell.sim_ops}-op cell"
        )
    traces: List[OpTrace] = []
    for workload in workloads_for(checkpoint.cell):
        workload.skip(checkpoint.op_offset)
        expected = checkpoint.machine.workload_cursors.get(workload.thread_id)
        if expected is not None and workload.cursor() != expected:
            raise SnapshotFormatError(
                f"workload cursor drifted for thread {workload.thread_id}: "
                f"regenerated {workload.cursor()}, snapshot recorded "
                f"{expected} (workload code changed since the checkpoint?)"
            )
        traces.append(workload.generate_segment(remaining))
    return traces


def resume_run(checkpoint: Checkpoint) -> SimResult:
    """Restore the checkpointed machine and run the rest of the cell."""
    sim = restore_machine(checkpoint.machine, _resume_traces(checkpoint))
    return sim.run(max_cycles=checkpoint.cell.max_cycles)
