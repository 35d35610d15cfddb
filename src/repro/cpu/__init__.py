"""Cycle-level out-of-order core model.

The core executes one thread's lowered instruction trace.  Logging-scheme
behavior (Proteus LR/LogQ/LLT, ATOM retirement logging, or nothing for
the software schemes) is plugged in through the
:class:`~repro.cpu.adapter.LoggingAdapter` interface.
"""

from repro.cpu.adapter import LoggingAdapter, NullAdapter
from repro.cpu.ooo_core import DynInstr, OooCore
from repro.cpu.store_buffer import StoreBuffer

__all__ = [
    "DynInstr",
    "LoggingAdapter",
    "NullAdapter",
    "OooCore",
    "StoreBuffer",
]
