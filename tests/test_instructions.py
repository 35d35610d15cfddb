"""Unit tests for ISA instruction definitions and address helpers."""

import pytest

from repro.isa.instructions import (
    CACHE_LINE,
    LOG_GRAIN,
    Kind,
    cache_line_of,
    clwb,
    expand_lines,
    expand_log_blocks,
    load,
    log_block_of,
    log_flush,
    log_load,
    sfence,
    store,
    tx_begin,
    tx_end,
)


def test_cache_line_of_masks_low_bits():
    assert cache_line_of(0) == 0
    assert cache_line_of(63) == 0
    assert cache_line_of(64) == 64
    assert cache_line_of(130) == 128


def test_log_block_of_uses_32_byte_grain():
    assert log_block_of(0) == 0
    assert log_block_of(31) == 0
    assert log_block_of(32) == 32
    assert log_block_of(65) == 64


def test_constants_match_paper():
    assert CACHE_LINE == 64
    assert LOG_GRAIN == 32


def test_memory_classification():
    assert load(0x100).is_memory()
    assert store(0x100).is_memory()
    assert clwb(0x100).is_memory()
    assert log_load(0x100, txid=1).is_memory()
    assert not sfence().is_memory()
    assert not tx_begin(1).is_memory()


def test_fence_classification():
    assert sfence().is_fence()
    assert tx_end(1).is_fence()
    assert not store(0x100).is_fence()


def test_log_load_aligns_to_log_block():
    instr = log_load(0x105, txid=3)
    assert instr.addr == 0x100
    assert instr.size == LOG_GRAIN
    assert instr.txid == 3


def test_log_flush_records_dependence():
    instr = log_flush(0x123, txid=2, dep=7)
    assert instr.dep == 7
    assert instr.addr == 0x120  # 32 B aligned


def test_producer_index_decodes_the_backward_distance():
    flush = log_flush(0x100, txid=1, dep=1)
    assert flush.producer_index(7) == 6
    assert flush.producer_index(1) == 0
    assert load(0x100).producer_index(7) == -1  # dep=0: no producer


def test_expand_lines_spanning_access():
    assert expand_lines(0x100, 8) == (0x100,)
    assert expand_lines(0x13C, 8) == (0x100, 0x140)
    assert expand_lines(0x100, 256) == (0x100, 0x140, 0x180, 0x1C0)


def test_expand_log_blocks():
    assert expand_log_blocks(0x100, 8) == (0x100,)
    assert expand_log_blocks(0x100, 64) == (0x100, 0x120)
    assert expand_log_blocks(0x11C, 8) == (0x100, 0x120)


def test_instructions_are_immutable():
    instr = store(0x40, value=1)
    with pytest.raises(AttributeError):
        instr.addr = 0x80


def test_clwb_covers_full_line():
    instr = clwb(0x1234)
    assert instr.size == CACHE_LINE
    assert instr.kind is Kind.CLWB
