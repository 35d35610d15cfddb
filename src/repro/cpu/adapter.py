"""Interface between the out-of-order core and a logging scheme.

The core calls into the adapter at four points of an instruction's life:
dispatch (structural resources), execution start (for the logging
instructions), retirement (ordering conditions and side effects), and
store-buffer release (log-before-data ordering).  The software schemes
(PMEM variants) use :class:`NullAdapter`, whose trace contains no logging
instructions; ATOM and Proteus provide real implementations in
:mod:`repro.core.atom` and :mod:`repro.core.proteus`.

ALU instructions never reach an adapter hook.  No scheme acts on one
(ATOM hooks stores and transaction marks, Proteus the logging
instructions and transaction marks), so the core skips the hooks for
the think chains that make up most of a lowered trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.ooo_core import DynInstr, OooCore


class LoggingAdapter:
    """Scheme hooks invoked by the core. Base implementation is inert.

    The core calls these hooks for every instruction kind except ALU:
    an ALU instruction dispatches, executes and retires without the
    adapter seeing it.
    """

    #: observability sink; the simulator swaps in a live tracer.
    tracer: Tracer = NULL_TRACER

    def bind(self, core: "OooCore") -> None:
        """Called once by the core after construction."""
        self.core = core

    # -- dispatch ---------------------------------------------------------------

    def dispatch_blocked(self, dyn: "DynInstr") -> Optional[str]:
        """Return a stall-cause name when ``dyn`` cannot dispatch, else None.

        Called before the instruction consumes any resources; an adapter
        that allocates (LR, LogQ entry) does so here.
        """
        return None

    # -- execution --------------------------------------------------------------

    def start_execute(self, dyn: "DynInstr") -> bool:
        """Begin executing a logging instruction.

        Returns True when the adapter handled the instruction (log-load /
        log-flush / log-save); False lets the core's default execution
        paths run.
        """
        return False

    # -- retirement ---------------------------------------------------------------

    def retire_blocked(self, dyn: "DynInstr") -> bool:
        """True when the completed head-of-ROB instruction may not retire yet
        (ATOM store awaiting its log acknowledgment, tx-end conditions)."""
        return False

    def on_retire(self, dyn: "DynInstr") -> None:
        """Side effects at retirement (tx boundaries, LR release, ...)."""

    # -- store ordering ---------------------------------------------------------------

    def store_release_blocked(self, addr: int, seq: int) -> bool:
        """True when a retired store must stay in the store buffer because
        an older log flush to the same block is still pending."""
        return False

    # -- drain / teardown ---------------------------------------------------------------

    def quiesced(self) -> bool:
        """True when the adapter has no in-flight work (end of simulation)."""
        return True


class NullAdapter(LoggingAdapter):
    """Adapter for schemes with no hardware logging (the PMEM variants)."""
