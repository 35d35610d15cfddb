"""Memory system: cache hierarchy, memory controller (WPQ/LPQ), and the
NVM/DRAM device bank model."""

from repro.mem.cache import Cache
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.memctrl import MemoryController
from repro.mem.nvm import NvmDevice, NvmRequest
from repro.mem.wpq import PendingQueue

__all__ = [
    "Cache",
    "CacheHierarchy",
    "MemoryController",
    "NvmDevice",
    "NvmRequest",
    "PendingQueue",
]
