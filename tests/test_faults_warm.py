"""Warm-checkpoint fault campaigns.

``run_campaign(..., warm_start_ops=N)`` simulates N measured ops once,
snapshots the quiesced machine, and launches every crash case from the
restored snapshot instead of from reset.  These tests hold that the
warm path changes *where wall time goes*, not what the campaign means:
clean-mode campaigns stay clean, crash cycles land strictly after the
checkpoint, and the software-scheme stream model starts its log slots
at the snapshot's cursor.
"""

from __future__ import annotations

import pytest

from repro.core.schemes import Scheme
from repro.faults.campaign import run_campaign
from repro.faults.tracker import ThreadStream
from repro.workloads import QueueWorkload
from repro.workloads.heap import ThreadAddressSpace

SIZING = dict(crashes=12, seed=7, threads=1, init_ops=12, sim_ops=6)

FAILURE_SAFE = [scheme for scheme in Scheme if scheme.failure_safe]


@pytest.mark.parametrize("scheme", FAILURE_SAFE, ids=lambda s: s.value)
def test_warm_campaign_stays_clean(scheme):
    result = run_campaign(scheme, "QE", mode="none", warm_start_ops=3, **SIZING)
    assert result.passed
    assert result.inconsistent == 0
    assert result.warm_start_ops == 3
    assert result.warm_checkpoint_cycle > 0
    assert "warm-start=3ops" in result.report().splitlines()[0]


def test_warm_cycle_triggers_land_after_the_checkpoint():
    result = run_campaign(
        Scheme.PROTEUS, "QE", mode="none", warm_start_ops=3, **SIZING
    )
    cycle_triggers = [
        case.plan.crash.at
        for case in result.cases
        if case.plan.crash is not None and case.plan.crash.kind == "cycle"
    ]
    assert cycle_triggers, "expected at least one cycle-trigger case"
    assert all(at > result.warm_checkpoint_cycle for at in cycle_triggers)


def test_warm_matches_cold_verdict():
    """Same campaign, warm vs cold: both clean, same case count."""
    cold = run_campaign(Scheme.ATOM, "HM", mode="none", **SIZING)
    warm = run_campaign(
        Scheme.ATOM, "HM", mode="none", warm_start_ops=2, **SIZING
    )
    assert cold.passed and warm.passed
    assert cold.crashes == warm.crashes
    assert cold.warm_start_ops == 0 and warm.warm_start_ops == 2


def test_warm_start_bounds_are_enforced():
    with pytest.raises(ValueError):
        run_campaign(
            Scheme.PROTEUS, "QE", mode="none",
            warm_start_ops=SIZING["sim_ops"], **SIZING,
        )
    with pytest.raises(ValueError):
        run_campaign(
            Scheme.PROTEUS, "QE", mode="none", warm_start_ops=-1, **SIZING
        )


def test_thread_stream_honors_sw_log_cursor():
    """The tracker's lowered stream takes its log slots from the
    supplied cursor, as the restored machine's lowering does."""
    workload = QueueWorkload(thread_id=0, seed=7, init_ops=12, sim_ops=6)
    workload.skip(3)
    trace = workload.generate_segment(3)

    from repro.core.codegen import SW_LOG_BYTES_PER_LINE
    from repro.isa.instructions import CACHE_LINE

    space = ThreadAddressSpace(0)
    default = ThreadStream(trace, Scheme.PMEM)
    offset = space.sw_log_base + 4 * SW_LOG_BYTES_PER_LINE
    shifted = ThreadStream(trace, Scheme.PMEM, sw_log_cursor=offset)

    assert default.sw_log_cursor is None
    assert shifted.sw_log_cursor == offset

    def slots(model):
        return {
            instr.addr - CACHE_LINE for instr in model.trace if instr.tag == "log-hdr"
        }

    default_slots, shifted_slots = slots(default), slots(shifted)
    assert default_slots and shifted_slots
    assert min(default_slots) == space.sw_log_base
    assert min(shifted_slots) == offset
    assert shifted_slots != default_slots
