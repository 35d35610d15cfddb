"""One model of durable contents: crash images and recovery.

The timing simulator (:mod:`repro.sim`) answers *how fast*; this package
holds what every correctness check shares.  A lowered instruction
stream is replayed through one persistency model,
:class:`~repro.persistence.stream.StreamState`, which keeps each touched
cache line's content versions, the floor a crash cannot go below, and
the in-flight hardware undo log.  :func:`build_image` turns a choice of
line versions and durable log entries into the :class:`CrashImage` a
crash leaves behind, the scheme's recovery procedure repairs it, and
:func:`check_recovery` checks transaction atomicity: the recovered image
must equal the image after some whole number of committed transactions.

Every checker walks this one model:

* persist-lint (:mod:`repro.lint`) reads the lines' persist states;
* persist-verify (:mod:`repro.verify`) builds an image from every crash
  frontier the model allows at every stream position;
* the fault campaign (:mod:`repro.faults`) replays the instructions a
  real timing run retired and builds the image from the line versions
  its machine admitted to the persistence domain before the crash.
"""

from repro.persistence.crash import (
    CrashImage,
    LogEntry,
    images_equal,
)
from repro.persistence.image import StreamView, build_image, stream_view
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
    "LogEntry",
    "RecoveryError",
    "RecoveryVerdict",
    "StreamView",
    "build_image",
    "check_recovery",
    "images_equal",
    "recover",
    "recovery_cost",
    "stream_view",
    "verify_atomicity",
]
