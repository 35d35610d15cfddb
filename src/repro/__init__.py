"""repro — a reproduction of *Proteus: A Flexible and Fast Software
Supported Hardware Logging approach for NVM* (Shin et al., MICRO-50 2017).

The package provides:

* a cycle-level multicore simulator (:mod:`repro.sim`, :mod:`repro.cpu`,
  :mod:`repro.mem`) with durable-transaction logging schemes
  (:mod:`repro.core`): software PMEM undo logging, ATOM hardware logging,
  and Proteus software-supported hardware logging;
* the paper's six benchmark data structures plus the large-transaction
  microbenchmark (:mod:`repro.workloads`);
* one persistency model of durable contents with crash images and
  recovery (:mod:`repro.persistence`); and
* experiment drivers regenerating every figure and table of the paper's
  evaluation (:mod:`repro.analysis`).

Quickstart::

    from repro import Scheme, run_workload, fast_nvm_config
    from repro.workloads import QueueWorkload

    base = run_workload(QueueWorkload, Scheme.PMEM, threads=1, sim_ops=50)
    prot = run_workload(QueueWorkload, Scheme.PROTEUS, threads=1, sim_ops=50)
    print(f"Proteus speedup: {prot.speedup_over(base):.2f}x")
"""

from repro.core.schemes import BASELINE, FIGURE_ORDER, Scheme
from repro.sim.config import (
    SystemConfig,
    dram_config,
    fast_nvm_config,
    slow_nvm_config,
)
from repro.sim.simulator import SimResult, Simulator, run_trace, run_workload
from repro.sim.stats import Stats, geometric_mean

__version__ = "1.0.0"

__all__ = [
    "BASELINE",
    "FIGURE_ORDER",
    "Scheme",
    "SimResult",
    "Simulator",
    "Stats",
    "SystemConfig",
    "__version__",
    "dram_config",
    "fast_nvm_config",
    "geometric_mean",
    "run_trace",
    "run_workload",
    "slow_nvm_config",
]
