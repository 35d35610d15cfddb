"""Unit tests for the NVM/DRAM device bank model."""

import random
from functools import partial

from repro.mem.nvm import NvmDevice, NvmRequest, ROW_SHIFT
from repro.sim.config import MemoryConfig
from repro.sim.engine import Engine
from repro.sim.stats import Stats


def make_device(banks=2, read=100, write=300, row_hit=10):
    engine = Engine()
    stats = Stats()
    config = MemoryConfig(
        read_latency=read, write_latency=write, row_hit_latency=row_hit, banks=banks
    )
    return engine, stats, NvmDevice(engine, config, stats)


def test_read_completes_after_read_latency():
    engine, stats, device = make_device()
    done = []
    device.submit(NvmRequest(0x0, is_write=False, callback=lambda: done.append(engine.cycle)))
    engine.run_until_idle()
    assert done == [100]
    assert stats.get("nvm.reads") == 1


def test_write_categorized():
    engine, stats, device = make_device()
    device.submit(NvmRequest(0x0, is_write=True, category="log"))
    engine.run_until_idle()
    assert stats.get("nvm.write.log") == 1
    assert stats.nvm_writes() == 1


def test_row_buffer_hit_is_cheap():
    engine, stats, device = make_device()
    times = []
    # Same row, same bank: miss then hit.
    device.submit(NvmRequest(0x0, is_write=True, callback=lambda: times.append(engine.cycle)))
    device.submit(NvmRequest(0x80, is_write=True, callback=lambda: times.append(engine.cycle)))
    engine.run_until_idle()
    assert times[0] == 300
    assert times[1] == 310  # row hit: +10
    assert stats.get("nvm.row_hits") == 1
    assert stats.get("nvm.row_misses") == 1


def test_banks_service_in_parallel():
    engine, stats, device = make_device(banks=2)
    times = []
    row = 1 << ROW_SHIFT
    device.submit(NvmRequest(0, is_write=False, callback=lambda: times.append(engine.cycle)))
    device.submit(NvmRequest(row, is_write=False, callback=lambda: times.append(engine.cycle)))
    engine.run_until_idle()
    assert times == [100, 100]  # different rows -> different banks, concurrent


def test_consecutive_lines_share_a_row():
    engine, stats, device = make_device(banks=2)
    device.submit(NvmRequest(0x00, is_write=False))
    device.submit(NvmRequest(0x40, is_write=False))
    engine.run_until_idle()
    assert stats.get("nvm.row_hits") == 1  # second line streams from the row


def test_reads_jump_ahead_of_queued_writes():
    engine, stats, device = make_device(banks=1)
    order = []
    device.submit(NvmRequest(0x000, is_write=True, callback=lambda: order.append("w1")))
    device.submit(NvmRequest(1 << ROW_SHIFT, is_write=True, callback=lambda: order.append("w2")))
    device.submit(NvmRequest(2 << ROW_SHIFT, is_write=False, callback=lambda: order.append("r")))
    engine.run_until_idle()
    # w1 was already in service; the read bypasses the queued w2.
    assert order == ["w1", "r", "w2"]


def test_fr_fcfs_prefers_open_row():
    engine, stats, device = make_device(banks=1)
    order = []
    device.submit(NvmRequest(0x000, is_write=True, callback=lambda: order.append("a")))
    device.submit(NvmRequest(1 << ROW_SHIFT, is_write=True, callback=lambda: order.append("other-row")))
    device.submit(NvmRequest(0x080, is_write=True, callback=lambda: order.append("same-row")))
    engine.run_until_idle()
    assert order == ["a", "same-row", "other-row"]


def test_outstanding_and_idle():
    engine, stats, device = make_device(banks=1)
    device.submit(NvmRequest(0x0, is_write=True))
    device.submit(NvmRequest(0x40, is_write=True))
    assert device.outstanding() == 2
    assert device.outstanding_writes() == 1  # one is in service
    assert not device.is_idle()
    engine.run_until_idle()
    assert device.is_idle()


def test_notify_when_drained():
    engine, stats, device = make_device()
    fired = []
    device.notify_when_drained(lambda: fired.append(engine.cycle))
    engine.run_until_idle()
    assert fired == [0]  # idle: immediate
    device.submit(NvmRequest(0x0, is_write=True))
    device.notify_when_drained(lambda: fired.append(engine.cycle))
    engine.run_until_idle()
    assert fired == [0, 300]


def scanned_writes(device):
    """Queued writes, by a scan of every bank's queue."""
    return sum(request.is_write for bank in device._banks for request in bank.queue)


def test_write_backlog_count_matches_a_scan_of_the_banks():
    """``outstanding_writes`` reads a count kept at submit and at service
    start; after every submit, start and finish of a mixed read/write
    stream with row hits and row misses it equals a scan of the bank
    queues."""
    engine, stats, device = make_device(banks=2, read=40, write=90, row_hit=5)
    seen = []

    def check(event):
        assert device.outstanding_writes() == scanned_writes(device), event
        seen.append((event, device.outstanding_writes()))

    start, finish = device._maybe_start, device._finish

    def checked_start(bank):
        start(bank)
        check("start")

    def checked_finish(bank, request):
        finish(bank, request)
        check("finish")

    # Instance attributes: submit, the service loop and the scheduled
    # completions all reach these.
    device._maybe_start = checked_start
    device._finish = checked_finish

    def submit(request):
        device.submit(request)
        check("submit")

    rng = random.Random(5)
    for _ in range(300):
        # Four rows over two banks, a few lines each: row hits and misses.
        addr = (rng.randrange(4) << ROW_SHIFT) + 64 * rng.randrange(4)
        request = NvmRequest(addr, is_write=rng.random() < 0.6)
        engine.schedule_at(rng.randrange(2000), partial(submit, request))
    engine.run_until_idle()

    assert {event for event, _ in seen} == {"submit", "start", "finish"}
    assert max(backlog for _, backlog in seen) > 2
    assert device.outstanding_writes() == 0
    assert stats.get("nvm.row_hits") and stats.get("nvm.row_misses")
    assert stats.get("nvm.reads") and stats.nvm_writes()
