"""Recovery procedures.

Implements the recovery each scheme's log format supports:

* **Software undo logging** (Figure 2): if the logFlag is set, the
  transaction it names did not commit; apply every log entry's pre-image
  and clear the flag.  If the flag is clear, any log-area contents are
  stale and are ignored.
* **Proteus / ATOM hardware undo logging** (section 4.3): each thread
  has one log area and at most one active transaction.  If the most
  recent transaction's end-of-transaction mark is durable, it committed
  and nothing is undone.  Otherwise, apply its entries' pre-images —
  *earliest entry first per block*, because a block re-logged after an
  LLT eviction carries intra-transaction values that must lose to the
  original pre-image (paper section 4.2's program-order log-to
  invariant exists exactly to make "earliest" recoverable).

Recovery returns the repaired durable image, an overlay over the crash
image's ``base`` like the image itself; :class:`RecoveryError` is
raised when the log cannot restore consistency (e.g. after a
deliberately injected durability fault).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.persistence.crash import CrashImage


class RecoveryError(RuntimeError):
    """The durable state could not be restored to a consistent image."""


@dataclass(frozen=True)
class RecoveryVerdict:
    """Outcome of recovering one crash image and checking atomicity.

    This is the *single* recovery predicate both verification paths
    share: the dynamic fault campaign (recovering images built from real
    machine state) and the static model checker (recovering images built
    from enumerated crash frontiers).  Keeping them on one implementation
    is what makes the static/dynamic cross-validation meaningful.

    Attributes:
        consistent: True when recovery restored a durable image equal to
            some whole number of committed transactions.
        k: the matched candidate index (``candidates[k]``), or -1 when
            recovery failed.
        error: ``""`` on success; otherwise ``"<ExceptionName>: <text>"``
            — exactly the wording the campaign reports have always used.
    """

    consistent: bool
    k: int
    error: str


class CandidateImages:
    """The whole images recovery may land on, with the words each changes.

    ``images[k]`` is the durable image after ``k`` committed
    transactions; ``changed[k]`` holds the words where it differs from
    ``base`` (absent words read as 0).  A recovered overlay over
    ``base`` then equals ``images[k]`` exactly when it holds every word
    of ``changed[k]`` and agrees with ``images[k]`` on each word it
    holds: every other word is ``base``'s in both.  Build it once per
    check and pass it to every :func:`check_recovery` call whose images
    overlay the same ``base`` object.
    """

    def __init__(
        self, images: Sequence[Dict[int, int]], base: Dict[int, int]
    ) -> None:
        self.images = list(images)
        self.base = base
        self.changed: List[FrozenSet[int]] = [
            frozenset(
                word
                for word in image.keys() | base.keys()
                if image.get(word, 0) != base.get(word, 0)
            )
            for image in self.images
        ]
        self._equal: Optional[List[Tuple[int, ...]]] = None

    def equal_to(self, k: int) -> Tuple[int, ...]:
        """Every index whose image equals ``images[k]``, ``k`` included,
        in order.  An image that matches candidate ``k`` matches exactly
        these, and :func:`verify_atomicity` returns the first of them.
        The candidates are grouped on the first call."""
        if self._equal is None:
            # Two images are equal exactly when they change the same
            # words from ``base`` to the same values.
            keys = [
                frozenset((word, image.get(word, 0)) for word in changed)
                for image, changed in zip(self.images, self.changed)
            ]
            groups: Dict[FrozenSet[Tuple[int, int]], List[int]] = {}
            for index, key in enumerate(keys):
                groups.setdefault(key, []).append(index)
            self._equal = [tuple(groups[key]) for key in keys]
        return self._equal[k]


Candidates = Union[Sequence[Dict[int, int]], CandidateImages]


def check_recovery(image: CrashImage, candidates: Candidates) -> RecoveryVerdict:
    """Recover a crash image and verify atomicity.

    A :class:`RecoveryError` is a verification failure, not an internal
    error, so it is folded into the verdict; any other exception
    propagates.  ``image.base`` says what its durable words overlay:
    nothing for the fault campaign's whole images, the thread's initial
    image for persist-verify's frontiers.  ``candidates`` are whole
    images, as a list or as :class:`CandidateImages` over that same
    ``base``; either way the verdict is the one the flattened images
    would get.
    """
    try:
        recovered = recover(image)
        k = verify_atomicity(recovered, _over(image.base, candidates))
    except RecoveryError as err:
        return RecoveryVerdict(
            consistent=False, k=-1, error=f"{type(err).__name__}: {err}"
        )
    return RecoveryVerdict(consistent=True, k=k, error="")


def _over(base: Dict[int, int], candidates: Candidates) -> CandidateImages:
    if isinstance(candidates, CandidateImages):
        if candidates.base is base:
            return candidates
        candidates = candidates.images
    return CandidateImages(candidates, base)


def recover(image: CrashImage) -> Dict[int, int]:
    """Run the scheme-appropriate recovery and return the repaired image,
    an overlay over ``image.base`` as ``image.durable`` is."""
    scheme = image.scheme
    if not scheme.failure_safe:
        raise RecoveryError(
            f"{scheme} provides no log; crashed transactions cannot be undone"
        )
    if scheme.is_software:
        return _recover_software(image)
    return _recover_hardware(image)


def _recover_software(image: CrashImage) -> Dict[int, int]:
    durable = dict(image.durable)
    if image.logflag == 0:
        return durable
    # The flag names an uncommitted transaction; its entire log persisted
    # before the flag was set (step-1 fence), so every entry is usable.
    for entry in image.log_entries:
        if entry.txid != image.logflag:
            continue
        durable.update(entry.pre_image)
    return durable


def _recover_hardware(image: CrashImage) -> Dict[int, int]:
    durable = dict(image.durable)
    if image.end_mark:
        # The transaction committed; its log entries are stale.
        return durable
    # Undo the in-flight transaction: earliest entry wins per block.
    restored: Set[int] = set()
    for entry in sorted(image.log_entries, key=lambda e: e.order):
        if entry.txid != image.inflight_txid:
            continue
        if entry.block in restored:
            continue  # a later (LLT-evicted) duplicate: ignore it
        restored.add(entry.block)
        durable.update(entry.pre_image)
    return durable


def recovery_cost(image: CrashImage) -> Dict[str, int]:
    """Estimate the NVM traffic the recovery procedure itself performs.

    Returns counters:

    * ``log_reads`` — log-area lines read while scanning for valid
      entries (software recovery scans up to the logFlag'd transaction's
      entries; hardware recovery scans the thread's log area up to the
      in-flight transaction's entries).
    * ``data_writes`` — pre-image lines written back.
    * ``flag_writes`` — logFlag / end-mark bookkeeping writes.

    This quantifies the paper's point that recovery work is proportional
    to the (small) in-flight log, not to the data set.
    """
    scheme = image.scheme
    if not scheme.failure_safe:
        raise RecoveryError(f"{scheme} has no recovery procedure")
    cost = {"log_reads": 0, "data_writes": 0, "flag_writes": 0}
    if scheme.is_software:
        cost["log_reads"] = 1  # the logFlag itself
        if image.logflag == 0:
            return cost
        entries = [e for e in image.log_entries if e.txid == image.logflag]
        cost["log_reads"] += 2 * len(entries)  # header + payload lines
        cost["data_writes"] = len(entries)
        cost["flag_writes"] = 1  # clear the flag
        return cost
    # Hardware: read the log area tail to find the latest transaction
    # and its end mark, then undo distinct blocks (earliest first).
    cost["log_reads"] = max(1, len(image.log_entries))
    if image.end_mark:
        return cost
    restored = set()
    for entry in sorted(image.log_entries, key=lambda e: e.order):
        if entry.txid != image.inflight_txid or entry.block in restored:
            continue
        restored.add(entry.block)
        cost["data_writes"] += 1
    cost["flag_writes"] = 1  # write the recovery-complete mark
    return cost


def verify_atomicity(
    recovered: Dict[int, int],
    candidates: Candidates,
) -> int:
    """Check the recovered image equals one of the candidate images.

    ``candidates[k]`` is the image after ``k`` committed transactions.
    ``recovered`` overlays the base of a :class:`CandidateImages`; a
    plain list holds whole images, and ``recovered`` is then whole too.
    Returns the first matching ``k``; raises :class:`RecoveryError`
    when the recovered image matches none (atomicity was violated).
    """
    if not isinstance(candidates, CandidateImages):
        candidates = CandidateImages(candidates, {})
    held = recovered.keys()
    for k, (candidate, changed) in enumerate(
        zip(candidates.images, candidates.changed)
    ):
        if not changed <= held:
            continue  # a word the candidate changed is the base's here
        get = candidate.get
        for word, value in recovered.items():
            if get(word, 0) != value:
                break
        else:
            return k
    raise RecoveryError(
        "recovered image does not correspond to any whole number of "
        "committed transactions — atomicity violated"
    )
