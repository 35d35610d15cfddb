"""The fault campaign's crash images are ones persist-verify enumerates.

:func:`repro.verify.containment.check_containment` crashes a timing run
at seeded cycles with no injected fault and holds each thread's campaign
image to the frontiers a :class:`StreamState` replayed to the thread's
last retired instruction allows: data, logFlag and software-log lines at
versions in [floor, executed], and the hardware log of the retired
log-flushes.  The matrix covers every failure-safe scheme, the six
workloads and one and two threads, 20 crash cycles each.
"""

import pytest

from repro.core.schemes import Scheme
from repro.verify.containment import (
    check_containment,
    containment_error,
    crash_states,
)
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_traces

FAILURE_SAFE = [scheme for scheme in Scheme if scheme.failure_safe]
WORKLOADS_CHECKED = ("QE", "HM", "AT", "BT", "RT", "SS")
SIZING = dict(init_ops=12, sim_ops=4, think_instructions=0)


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("workload", WORKLOADS_CHECKED)
@pytest.mark.parametrize("scheme", FAILURE_SAFE, ids=lambda s: s.value)
def test_campaign_images_are_verify_frontiers(scheme, workload, threads):
    result = check_containment(
        scheme, workload, threads=threads, crashes=20, seed=7, **SIZING
    )
    assert result.checked == 20 * threads
    assert result.ok, result.report()


def _ss_crash_at_254():
    traces = generate_traces(WORKLOADS["SS"], threads=1, seed=7, **SIZING)
    ((_, state, image),) = crash_states(Scheme.PROTEUS, traces, 254)
    return state, image


def test_in_flight_log_keeps_flushes_acked_before_the_previous_commit():
    """Proteus on SS crashed at cycle 254: transaction 2 is open, and
    several of its log-flushes were acknowledged while transaction 1's
    tx-end had yet to retire.  The image's hardware log must hold the
    block of every retired log-flush of transaction 2.  The stream lowers
    one log pair per 8-byte store and the LLT squashes the repeats, so
    the stream's entries repeat blocks: compare each block's earliest
    entry, the one recovery applies."""
    state, image = _ss_crash_at_254()
    assert state.open_txid == 2 and len(state.entries) == 64
    expected = {}
    for entry in state.entries:
        expected.setdefault(entry.block, dict(entry.pre_image))
    assert len(expected) == 16
    logged = {}
    for entry in sorted(image.log_entries, key=lambda e: e.order):
        if entry.txid == image.inflight_txid:
            logged.setdefault(entry.block, dict(entry.pre_image))
    assert not image.end_mark and image.inflight_txid == 2
    assert sorted(logged) == sorted(expected)
    assert logged == expected
    assert containment_error(state, image) == ""


def test_containment_names_a_data_line_at_no_reachable_version():
    state, image = _ss_crash_at_254()
    line = next(
        line for line, history in sorted(state.lines.items())
        if history.region == "data" and history.executed
    )
    image.durable[line] = 0xDEAD
    assert f"data line {line:#x}" in containment_error(state, image)


def test_containment_names_a_missing_hardware_entry():
    state, image = _ss_crash_at_254()
    dropped = min(entry.block for entry in image.log_entries)
    image.log_entries = [e for e in image.log_entries if e.block != dropped]
    assert f"missing ['{dropped:#x}']" in containment_error(state, image)
