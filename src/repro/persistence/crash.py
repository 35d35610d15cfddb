"""What a crash leaves durable, as recovery reads it.

A :class:`CrashImage` holds the durable memory words, the undo-log
entries a scheme's recovery reads (:class:`LogEntry`) and the markers
that tell recovery whether a transaction was in flight: the software
logFlag, or the hardware end-of-transaction mark.  Both crash oracles
build their images with :func:`repro.persistence.image.build_image`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.schemes import Scheme

#: Bytes per memory word, the granularity of every image.
WORD = 8


@dataclass
class LogEntry:
    """One undo-log entry: a block address and its pre-image words."""

    block: int
    grain: int
    pre_image: Dict[int, int]
    txid: int
    order: int  # creation order within the transaction (log-area slot)


@dataclass
class CrashImage:
    """Durable machine state at the moment of the crash.

    With an empty ``base`` (the default), ``durable`` is the whole
    durable memory image.  With a non-empty ``base``, ``durable`` is an
    overlay over it: a word ``durable`` holds has that value, and every
    other word holds its ``base`` value.  In both, an absent word reads
    as 0.  Both crash oracles build overlays over a thread's initial
    image, so an image costs the lines the stream has touched, not the
    whole heap.
    """

    scheme: Scheme
    durable: Dict[int, int]
    #: durable undo-log entries of the in-flight transaction
    log_entries: List[LogEntry]
    #: software logging: value of the logFlag (0 = clear)
    logflag: int = 0
    #: hardware schemes: the in-flight tx's end-of-transaction mark
    end_mark: bool = False
    #: txid of the in-flight transaction (0 when none)
    inflight_txid: int = 0
    #: the image ``durable`` overlays (empty: ``durable`` is whole)
    base: Dict[int, int] = field(default_factory=dict)


def images_equal(a: Dict[int, int], b: Dict[int, int]) -> bool:
    """Memory-image equality with the absent-word-is-zero convention."""
    for word in a.keys() | b.keys():
        if a.get(word, 0) != b.get(word, 0):
            return False
    return True
