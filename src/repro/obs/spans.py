"""Transaction spans and critical-path attribution.

Spans are *derived*, not emitted: the instrumentation records raw
instruction-lifecycle edges (every dynamic instruction carries its
``txid``), and :func:`build_tx_spans` reconstructs one :class:`TxSpan`
per (core, txid) after the run.  This keeps the hot path free of span
bookkeeping and makes the attribution rules testable in isolation.

Attribution buckets every recorded blocked cycle inside a span's window
into one of three classes, by the eight causes ``OooCore.stall`` counts:

* ``logging`` — the logging machinery itself was the bottleneck: no
  free log register (``lr``), LogQ full (``logq``), a store held in the
  store buffer behind its log flush (``store-release``), or retirement
  blocked on a log acknowledgment (``retire-adapter`` — ATOM's
  serialized per-store logging).
* ``fence`` — retirement blocked at a fence draining the persist
  backlog (``retire-fence``).
* ``memory`` — the ROB, load queue or store queue full (``rob``,
  ``lq``, ``sq``): backpressure from memory latency filling the back
  end.  (A full MSHR file is no stall: the load waits.)

The mapping is deliberately coarse — it answers the paper's Figure 6/7
question ("where do the scheme's extra cycles go?") rather than a full
dependency-graph critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracer import TraceEvent

ATTRIBUTION_CLASSES = ("logging", "memory", "fence")

#: Each stall cause not attributed to memory, with its class.
_CLASSES = dict.fromkeys(("lr", "logq", "store-release", "retire-adapter"), "logging")
_CLASSES["retire-fence"] = "fence"


def classify_stall(name: str) -> str:
    """Attribution class for one recorded stall-event name."""
    return _CLASSES.get(name, "memory")


@dataclass
class TxSpan:
    """One transaction's lifetime on one core.

    ``begin`` is the dispatch cycle of the transaction's first
    instruction (``tx-begin`` under the hardware schemes, the first log
    copy under software logging); ``end`` is the retirement cycle of its
    last instruction — the durable point for every scheme whose commit
    fence carries the txid.
    """

    core: int
    txid: int
    begin: int
    end: int
    instructions: int = 0
    blocked: Dict[str, int] = None  # type: ignore[assignment]
    llt_squashes: int = 0
    log_flushes: int = 0
    flash_cleared: int = 0

    def __post_init__(self) -> None:
        if self.blocked is None:
            self.blocked = {name: 0 for name in ATTRIBUTION_CLASSES}

    @property
    def duration(self) -> int:
        return max(0, self.end - self.begin)

    @property
    def blocked_total(self) -> int:
        return sum(self.blocked.values())

    def critical_path(self) -> str:
        """Dominant attribution class (``run`` when nothing blocked).

        Ties break deterministically in ``logging``/``memory``/``fence``
        order.
        """
        if self.blocked_total == 0:
            return "run"
        return max(ATTRIBUTION_CLASSES, key=lambda name: (self.blocked[name], -ATTRIBUTION_CLASSES.index(name)))


def build_tx_spans(events: Sequence[TraceEvent]) -> List[TxSpan]:
    """Reconstruct per-(core, txid) spans from a recorded stream.

    Two passes: the first finds each transaction's dispatch/retire
    window and its logging annotations; the second attributes stall
    events to the span whose window contains them (the *oldest* open
    transaction on that core when windows overlap — dispatch of
    transaction N+1 can begin while N is still retiring, and the oldest
    is the one whose completion the stall is actually delaying).
    """
    spans: Dict[Tuple[int, int], TxSpan] = {}
    for event in events:
        if event.cat == "instr":
            txid = event.arg("txid", 0)
            if not isinstance(txid, int) or txid <= 0:
                continue
            key = (event.tid, txid)
            span = spans.get(key)
            if span is None:
                span = spans[key] = TxSpan(
                    core=event.tid, txid=txid, begin=event.ts, end=event.ts
                )
            if event.name == "dispatch":
                span.begin = min(span.begin, event.ts)
            elif event.name == "retire":
                span.end = max(span.end, event.ts)
                span.instructions += 1
        elif event.cat == "log":
            txid = event.arg("txid", 0)
            if not isinstance(txid, int) or txid <= 0:
                continue
            span = spans.get((event.tid, txid))
            if span is None:
                continue
            if event.name == "llt-squash":
                span.llt_squashes += 1
            elif event.name == "flush-issue":
                span.log_flushes += 1
            elif event.name == "flash-clear":
                dropped = event.arg("dropped", 0)
                if isinstance(dropped, int):
                    span.flash_cleared += dropped

    ordered = sorted(spans.values(), key=lambda span: (span.core, span.begin, span.txid))
    by_core: Dict[int, List[TxSpan]] = {}
    for span in ordered:
        by_core.setdefault(span.core, []).append(span)

    for event in events:
        if event.cat != "stall":
            continue
        span = _owning_span(by_core.get(event.tid, ()), event.ts)
        if span is not None:
            span.blocked[classify_stall(event.name)] += 1
    return ordered


def _owning_span(spans: Sequence[TxSpan], ts: int) -> Optional[TxSpan]:
    """Oldest span whose [begin, end] window contains ``ts``."""
    for span in spans:
        if span.begin <= ts <= span.end:
            return span
    return None


def latency_histogram(spans: Iterable[TxSpan]) -> Dict[str, int]:
    """Power-of-two histogram of span durations in cycles.

    Keys are ``"<lo>-<hi>"`` cycle ranges in ascending order; insertion
    order is the ascending bucket order, so serializing the dict
    preserves it.
    """
    counts: Dict[int, int] = {}
    for span in spans:
        bucket = max(0, span.duration).bit_length()
        counts[bucket] = counts.get(bucket, 0) + 1
    histogram: Dict[str, int] = {}
    for bucket in sorted(counts):
        lo = 0 if bucket == 0 else 1 << (bucket - 1)
        hi = (1 << bucket) - 1
        histogram[f"{lo}-{hi}"] = counts[bucket]
    return histogram


def attribution_totals(spans: Iterable[TxSpan]) -> Dict[str, int]:
    """Blocked cycles per attribution class summed over spans."""
    totals = {name: 0 for name in ATTRIBUTION_CLASSES}
    for span in spans:
        for name, value in span.blocked.items():
            totals[name] += value
    return totals


def percentile(values: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile of a sequence (0 for an empty one)."""
    if not values:
        return 0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    ranked = sorted(values)
    index = min(len(ranked) - 1, max(0, round(fraction * (len(ranked) - 1))))
    return ranked[index]
