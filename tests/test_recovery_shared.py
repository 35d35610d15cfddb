"""The shared recovery predicate is byte-compatible with the old one.

``check_recovery`` replaced the fault harness's inline
``recover``/``verify_atomicity``/``except`` block so the dynamic
campaign and the static model checker run the *same* predicate.  These
tests pin the refactor: the legacy inline logic is reimplemented here
from the pre-refactor harness and must produce identical verdicts — same consistency flag, same candidate index, same error
string to the byte — over crash images from both verification paths.
The model checker's images are overlays over the initial image; the
legacy logic judges the whole image of the same frontier.
"""

import pytest

from repro.core.schemes import Scheme
from repro.faults.campaign import run_campaign
from repro.lint.runner import lower_for_lint
from repro.persistence import recovery
from repro.persistence.crash import CrashImage, LogEntry
from repro.persistence.recovery import (
    RecoveryError,
    RecoveryVerdict,
    check_recovery,
    recover,
    verify_atomicity,
)
from repro.persistence.stream import StreamState
from repro.verify.frontier import iter_exhaustive, materialize
from repro.verify.model import derive_candidates
from tests.corpus import VERIFY_CORPUS, clean_op_trace, clean_trace
from tests.test_verify_overlay import full_image


def legacy_verdict(image, candidates) -> RecoveryVerdict:
    """The harness's original inline predicate: recover ->
    verify_atomicity under one try/except.  (It also took an image
    builder and folded an invariant-violation exception; no image is
    built lazily any more, so that form is gone.)"""
    try:
        recovered = recover(image)
        k = verify_atomicity(recovered, candidates)
    except RecoveryError as err:
        return RecoveryVerdict(
            consistent=False, k=-1, error=f"{type(err).__name__}: {err}"
        )
    return RecoveryVerdict(consistent=True, k=k, error="")


def _enumerated_images(scheme_name: str, trace):
    """(overlay, whole image) pairs + candidates from the checker's own
    enumeration."""
    scheme = Scheme.parse(scheme_name)
    op_trace = clean_op_trace()
    lowered, layout = lower_for_lint(op_trace, scheme)
    candidates = derive_candidates(trace, scheme, layout, op_trace.initial_image)
    # The initial image alone would leave no committed state to compare.
    assert len(candidates) > 1
    state = StreamState(scheme, layout, op_trace.initial_image)
    images = []
    for index, instr in enumerate(trace):
        state.apply(index, instr)
        if index % 37 != 0:  # a spread of crash points, not every one
            continue
        for count, frontier in enumerate(iter_exhaustive(state)):
            if count >= 8:
                break
            images.append(
                (materialize(state, frontier), full_image(state, frontier))
            )
    return images, candidates


@pytest.mark.parametrize("scheme", ("pmem", "proteus", "atom"))
def test_static_images_get_identical_verdicts(scheme):
    images, candidates = _enumerated_images(scheme, clean_trace(scheme))
    assert images
    for image, whole in images:
        assert check_recovery(image, candidates) == legacy_verdict(
            whole, candidates
        )


@pytest.mark.parametrize(
    "case", VERIFY_CORPUS[:3], ids=lambda c: c.name
)
def test_buggy_images_get_identical_verdicts(case):
    images, candidates = _enumerated_images(case.scheme, case.buggy_trace())
    assert images
    for image, whole in images:
        new = check_recovery(image, candidates)
        old = legacy_verdict(whole, candidates)
        assert new == old, f"diverged on {image}"


def test_error_strings_are_byte_identical():
    """The campaign's report wording is pinned by its error strings."""
    torn = CrashImage(
        scheme=Scheme.PMEM,
        durable={0x1000: 1},
        log_entries=[
            LogEntry(block=0x1000, grain=64, pre_image={0x1000: 0}, txid=3, order=0)
        ],
        logflag=3,
    )
    verdict = check_recovery(torn, [{0x1000: 5}])
    legacy = legacy_verdict(torn, [{0x1000: 5}])
    assert verdict == legacy
    assert not verdict.consistent
    assert verdict.k == -1
    assert verdict.error.startswith("RecoveryError: ")


def test_unrelated_exceptions_still_propagate(monkeypatch):
    """Only RecoveryError is folded into the verdict; real bugs must not
    be silently converted into 'inconsistent'."""

    def broken_recover(image):
        raise ZeroDivisionError("a genuine harness bug")

    monkeypatch.setattr(recovery, "recover", broken_recover)
    image = CrashImage(scheme=Scheme.PMEM, durable={}, log_entries=[])
    with pytest.raises(ZeroDivisionError):
        check_recovery(image, [{}])


@pytest.mark.parametrize("mode", ("none", "drop-data"))
def test_campaign_verdicts_unchanged(mode):
    """End-to-end pin: campaign outcomes and detail wording through the
    shared predicate match the documented legacy contract."""
    campaign = run_campaign(
        Scheme.PMEM, "QE", crashes=4, seed=11, threads=1, mode=mode,
        init_ops=12, sim_ops=6,
    )
    for case in campaign.cases:
        assert case.outcome in ("consistent", "inconsistent", "completed")
        assert len(case.ks) == 1
        if case.outcome == "inconsistent":
            assert case.ks[0] == -1
            assert case.detail.startswith("thread ")
            name = case.detail.split(": ", 2)[1]
            assert name == "RecoveryError"
        else:
            assert case.ks[0] >= 0
            assert case.detail == ""
    if mode == "none":
        assert campaign.inconsistent == 0
