"""Functional persistence model: crash images and recovery.

The timing simulator (:mod:`repro.sim`) answers *how fast*; this package
holds what every correctness check shares.  It replays workload traces
through a word-granular functional model of the persistency domain,
builds the durable :class:`CrashImage` a crash leaves behind, runs the
scheme's recovery procedure, and checks transaction atomicity: the
recovered image must equal the image after some whole number of
committed transactions (:func:`check_recovery`).

Two checkers build the images: the fault campaign
(:mod:`repro.faults`) from the timing machine's real durability events,
and persist-verify (:mod:`repro.verify`) from every crash frontier of a
lowered stream.  :func:`crash_image` builds one from an abstract
:class:`CrashPoint` (a transaction, a :class:`Phase` and the durable
log and data subsets); its explicit choices suit property-based tests.

The static checkers share one more thing: persist-lint
(:mod:`repro.lint`) and persist-verify walk a lowered stream through
the same persistency model, :mod:`repro.persistence.stream`.
"""

from repro.persistence.crash import (
    CrashImage,
    CrashPoint,
    InvariantViolation,
    Phase,
    crash_image,
)
from repro.persistence.model import (
    FunctionalTx,
    LogEntry,
    build_functional_txs,
    image_after,
    images_equal,
)
from repro.persistence.recovery import (
    CandidateImages,
    RecoveryError,
    RecoveryVerdict,
    check_recovery,
    recover,
    recovery_cost,
    verify_atomicity,
)

__all__ = [
    "CandidateImages",
    "CrashImage",
    "CrashPoint",
    "FunctionalTx",
    "InvariantViolation",
    "LogEntry",
    "Phase",
    "RecoveryError",
    "RecoveryVerdict",
    "check_recovery",
    "build_functional_txs",
    "crash_image",
    "image_after",
    "images_equal",
    "recover",
    "recovery_cost",
    "verify_atomicity",
]
