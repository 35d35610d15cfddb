#!/usr/bin/env python3
"""NVM wear and endurance analysis across logging schemes.

The paper's motivation for log write removal is lifetime, not speed:
"it cuts the write endurance of NVMM by more than three quarters"
(section 6, on ATOM's 3.4x write amplification).  This example breaks
down the NVM write traffic of each scheme by category and estimates a
relative device lifetime.

Usage::

    python examples/wear_endurance.py [--benchmark HM] [--ops 40]
"""

import argparse

from repro import Scheme, fast_nvm_config, run_trace
from repro.workloads import WORKLOADS
from repro.workloads.base import generate_traces


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="HM", choices=sorted(WORKLOADS))
    parser.add_argument("--ops", type=int, default=40)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    print(f"Generating {args.benchmark} traces...")
    traces = generate_traces(
        WORKLOADS[args.benchmark],
        threads=args.threads,
        seed=99,
        init_ops=3000,
        sim_ops=args.ops,
    )
    config = fast_nvm_config(cores=args.threads)

    results = {scheme: run_trace(traces, scheme, config) for scheme in Scheme}
    ideal_writes = max(1, results[Scheme.PMEM_NOLOG].nvm_writes)

    categories = sorted(
        {
            category
            for result in results.values()
            for category in result.stats.nvm_write_breakdown()
        }
    )
    header = "  ".join(f"{c:>12s}" for c in categories)
    print(f"\n{'scheme':15s} {header}  {'total':>8s}  {'vs ideal':>8s}  {'lifetime':>8s}")
    for scheme, result in results.items():
        breakdown = result.stats.nvm_write_breakdown()
        cells = "  ".join(f"{breakdown.get(c, 0):>12,d}" for c in categories)
        total = result.nvm_writes
        amplification = total / ideal_writes
        # Wear-leveled lifetime scales inversely with write volume.
        lifetime = 100.0 / amplification
        print(f"{scheme!s:15s} {cells}  {total:>8,d}  {amplification:>7.2f}x  {lifetime:>7.0f}%")

    atom = results[Scheme.ATOM].nvm_writes
    proteus = max(1, results[Scheme.PROTEUS].nvm_writes)
    print(f"\nATOM writes {atom / proteus:.1f}x more NVM lines than Proteus "
          f"(the paper reports ~3.4x on average).")
    dropped = results[Scheme.PROTEUS].stats.get("lpq.flash_cleared") + \
        results[Scheme.PROTEUS].stats.get("lpq.sticky_dropped")
    print(f"Log write removal flash-cleared {dropped:,} log entries that "
          f"never reached the NVM array.")


if __name__ == "__main__":
    main()
