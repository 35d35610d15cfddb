#!/usr/bin/env python3
"""Crash a persistent hash map at random points and recover it.

Demonstrates the persistency model every checker shares: the workload
is lowered under a logging scheme and replayed instruction by
instruction through :class:`~repro.persistence.stream.StreamState`.  At
hundreds of random points a crash state the model allows there (a
version of every written line and a durable log prefix) is drawn,
materialized into a crash image, recovered with the scheme's undo log,
and validated against transaction atomicity — and the same crashes are
shown to corrupt the store when logging is disabled.

Usage::

    python examples/crash_recovery.py [--scheme Proteus] [--crashes 200]
"""

import argparse
import random

from repro import Scheme
from repro.lint.runner import lower_for_lint
from repro.persistence.recovery import (
    CandidateImages,
    RecoveryError,
    check_recovery,
    verify_atomicity,
)
from repro.persistence.stream import StreamState
from repro.verify import derive_candidates, materialize, sample_frontiers
from repro.verify.model import INTERESTING_KINDS
from repro.workloads import HashMapWorkload


def crash_images(trace, scheme, crashes, rng):
    """Yield ``crashes`` crash images at random stream positions, each
    a random crash state the persistency model allows there."""
    lowered, layout = lower_for_lint(trace, scheme)
    state = StreamState(scheme, layout, trace.initial_image)
    # Crash after instructions that change what a crash can expose.
    points = [i for i, instr in enumerate(lowered) if instr.kind in INTERESTING_KINDS]
    positions = sorted(rng.choices(points, k=crashes))
    for index, instr in enumerate(lowered):
        state.apply(index, instr)
        while positions and positions[0] == index:
            positions.pop(0)
            frontier = rng.choice(sample_frontiers(state, 8, rng.randrange(1 << 16)))
            yield materialize(state, frontier)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scheme", default="Proteus",
        choices=[s.value for s in Scheme if s.failure_safe],
    )
    parser.add_argument("--crashes", type=int, default=200)
    parser.add_argument("--transactions", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    scheme = Scheme(args.scheme)
    rng = random.Random(args.seed)

    print(f"Building a persistent hash map trace "
          f"({args.transactions} transactions)...")
    workload = HashMapWorkload(
        thread_id=0, seed=args.seed, init_ops=300, sim_ops=args.transactions
    )
    trace = workload.generate()
    lowered, layout = lower_for_lint(trace, scheme)
    images = derive_candidates(lowered, scheme, layout, trace.initial_image)
    candidates = CandidateImages(images, trace.initial_image)

    print(f"Injecting {args.crashes} random crashes under {scheme} ...")
    recovered_counts = {}
    for image in crash_images(trace, scheme, args.crashes, rng):
        verdict = check_recovery(image, candidates)
        if not verdict.consistent:
            raise SystemExit(f"recovery failed: {verdict.error}")
        recovered_counts[verdict.k] = recovered_counts.get(verdict.k, 0) + 1

    print(f"  all {args.crashes} crashes recovered to a transaction "
          f"boundary (atomicity held)")
    spread = sorted(recovered_counts)
    print(f"  recovery points spanned transactions "
          f"{spread[0]}..{spread[-1]}")

    # Now show that *no logging* really is unsafe: find crash states
    # whose torn contents match no transaction boundary.
    print()
    print("Control experiment: the same store without any logging ...")
    torn = 0
    for image in crash_images(trace, Scheme.PMEM_NOLOG, args.crashes, rng):
        # No recovery possible; check the raw durable state directly.
        try:
            verify_atomicity(image.durable, candidates)
        except RecoveryError:
            torn += 1
    print(f"  {torn}/{args.crashes} crash states were torn "
          f"(not a transaction boundary) — unsafe without a log")


if __name__ == "__main__":
    main()
