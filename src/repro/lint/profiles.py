"""Per-scheme lint profiles.

A profile states *which contract a scheme's lowered stream promises*:
which rules apply, how undo coverage is provided and how transactions
are delimited.  The rule engine is generic;
profiles are the only scheme-specific knowledge it consumes, and every
field but the rule set follows from the scheme.

* Software undo logging (PMEM, PMEM+pcommit) promises the full Figure 2
  contract: log copies durable before the body, fenced logFlag
  transitions, body persisted before the flag clears.
* SSHL (Proteus, Proteus+NoLWR) promises a ``log-load``/``log-flush``
  pair before every transactional store, per 32 B logging block, inside
  explicit ``tx-begin``/``tx-end`` marks.
* ATOM logs in hardware at store retirement — the stream only has to
  keep stores inside transactions and persist written lines by
  ``tx-end``.
* The unsafe ablations (PMEM+nolog, PMEM+strict) promise ordering only:
  written lines durable by the end of the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.core.schemes import Scheme


@dataclass(frozen=True)
class Profile:
    """The lint contract for one scheme."""

    scheme: Scheme
    #: rule codes enabled for this scheme.
    rules: FrozenSet[str]

    @property
    def logging(self) -> str:
        """``Scheme.logging_style``: software / sshl / hardware / none."""
        return self.scheme.logging_style

    @property
    def tx_marks(self) -> bool:
        """The stream carries explicit ``tx-begin``/``tx-end`` marks."""
        return self.logging in ("sshl", "hardware")

    def enabled(self, code: str) -> bool:
        return code in self.rules


_SOFTWARE_RULES = frozenset({"P001", "P002", "P003", "P004", "P005", "W101"})
_SSHL_RULES = frozenset({"P001", "P002", "P004", "P005", "P006", "W101", "W102"})
_HARDWARE_RULES = frozenset({"P004", "P005", "W101"})
_UNSAFE_RULES = frozenset({"P005", "W101"})

#: Scheme -> lint profile for every bundled scheme.
PROFILES: Dict[Scheme, Profile] = {
    Scheme.PMEM: Profile(Scheme.PMEM, _SOFTWARE_RULES),
    Scheme.PMEM_PCOMMIT: Profile(Scheme.PMEM_PCOMMIT, _SOFTWARE_RULES),
    Scheme.PMEM_NOLOG: Profile(Scheme.PMEM_NOLOG, _UNSAFE_RULES),
    Scheme.PMEM_STRICT: Profile(Scheme.PMEM_STRICT, _UNSAFE_RULES),
    Scheme.ATOM: Profile(Scheme.ATOM, _HARDWARE_RULES),
    Scheme.PROTEUS: Profile(Scheme.PROTEUS, _SSHL_RULES),
    Scheme.PROTEUS_NOLWR: Profile(Scheme.PROTEUS_NOLWR, _SSHL_RULES),
}


def profile_for(scheme: Scheme) -> Profile:
    """The lint profile for ``scheme`` (every bundled scheme has one)."""
    return PROFILES[scheme]
