"""Unit tests for the store buffer.

The front end's stall accounting is tested through the core, in
``tests/test_ooo_core.py``.
"""


from repro.cpu.store_buffer import StoreBuffer
from repro.cpu.ooo_core import DynInstr
from repro.isa.instructions import store


def _dyn(seq):
    return DynInstr(store(0x1000 + 64 * seq, value=seq), seq)


def test_store_buffer_fifo():
    buffer = StoreBuffer()
    a, b = _dyn(0), _dyn(1)
    buffer.push(a)
    buffer.push(b)
    assert buffer.head() is a
    assert buffer.pop_head() is a
    assert buffer.head() is b


def test_store_buffer_in_flight_accounting():
    buffer = StoreBuffer()
    buffer.push(_dyn(0))
    buffer.pop_head()
    assert not buffer.is_empty()      # still in flight
    assert buffer.in_flight() == 1
    buffer.finished()
    assert buffer.is_empty()


def test_store_buffer_occupancy():
    buffer = StoreBuffer()
    assert buffer.head() is None
    for seq in range(3):
        buffer.push(_dyn(seq))
    assert buffer.occupancy() == 3
