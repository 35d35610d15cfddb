"""One body for the scheme x workload sweeps: lint, verify and profile.

Each sweep supplies its task function (``lint_workload``,
``verify_workload``, ``profile_one``), its result type and its
parameters; :func:`matrix_sweep` enumerates the cells, keys and
describes them for the journal, and runs them through the sweep
executor, :func:`~repro.parallel.resilience.resilient_map`.  Results
cross the journal through the generic dataclass codec,
:func:`~repro.parallel.journal.to_payload` and
:func:`~repro.parallel.journal.from_payload`.  :func:`matrix_report` is
the frame the lint and verify sweeps render their matrices in.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Any,
    Callable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.schemes import Scheme
from repro.parallel.journal import SweepJournal, from_payload, to_payload
from repro.parallel.resilience import (
    QuarantineRecord,
    ResilienceConfig,
    partial_results_lines,
    resilient_map,
)
from repro.workloads import BENCHMARK_ORDER

#: Journal-key tag of each sweep parameter, in the order keys list them.
KEY_TAGS = {
    "threads": "t",
    "seed": "s",
    "init_ops": "i",
    "sim_ops": "o",
    "budget": "b",
    "scale": "x",
}


def _run_cell(item: Tuple[Callable[..., Any], Scheme, str, Mapping[str, Any]]) -> Any:
    """Module-level task wrapper so cells can cross a process boundary."""
    task, scheme, workload, params = item
    return task(scheme, workload, **params)


def _cell_key(
    kind: str, scheme: Scheme, workload: str, params: Mapping[str, Any]
) -> str:
    parts = [kind, scheme.value, workload]
    for name, tag in KEY_TAGS.items():
        if name in params:
            value = params[name]
            parts.append(f"{tag}{value:g}" if isinstance(value, float) else f"{tag}{value}")
    return ":".join(parts)


def matrix_sweep(
    kind: str,
    task: Callable[..., Any],
    result_type: type,
    schemes: Sequence[Union[Scheme, str]],
    workloads: Optional[Sequence[str]],
    params: Mapping[str, Any],
    jobs: int = 1,
    resilience: Optional[ResilienceConfig] = None,
    journal: Optional[SweepJournal] = None,
    workload_major: bool = False,
) -> Tuple[List[Any], List[QuarantineRecord]]:
    """Run ``task(scheme, workload, **params)`` over every cell.

    Cells run scheme by scheme, or workload by workload with
    ``workload_major``; no ``workloads`` means every bundled one.  With
    ``jobs > 1`` cells run in worker processes, and the results come
    back in cell order either way.  Without a ``resilience`` config or a
    ``journal`` the first failing cell fails the sweep.  With either
    one, crashed or stuck workers are healed, exhausted cells are
    quarantined, and a killed sweep resumes from the journal.  Returns
    the finished cells' results and the quarantined cells.
    """
    parsed = [Scheme.parse(scheme) for scheme in schemes]
    names = list(workloads or BENCHMARK_ORDER)
    cells = (
        [(scheme, workload) for workload in names for scheme in parsed]
        if workload_major
        else [(scheme, workload) for scheme in parsed for workload in names]
    )
    keys = [_cell_key(kind, scheme, workload, params) for scheme, workload in cells]
    values, quarantined = resilient_map(
        _run_cell,
        [(task, scheme, workload, dict(params)) for scheme, workload in cells],
        keys,
        jobs=jobs,
        config=resilience,
        journal=journal,
        encode=to_payload,
        decode=partial(from_payload, result_type),
        descriptions={
            key: {"scheme": scheme.value, "workload": workload}
            for key, (scheme, workload) in zip(keys, cells)
        },
    )
    return [value for value in values if value is not None], quarantined


def paper_order(workloads: Iterable[str]) -> List[str]:
    """The distinct ``workloads`` in the paper's order
    (``BENCHMARK_ORDER``), any others after them by name."""
    return sorted(
        set(workloads),
        key=lambda w: (
            BENCHMARK_ORDER.index(w) if w in BENCHMARK_ORDER else 99,
            w,
        ),
    )


def matrix_report(
    title: str,
    results: Sequence[Any],
    cell_text: Callable[[Any], str],
    width: int,
    details: Sequence[str],
    quarantined: Sequence[QuarantineRecord],
) -> str:
    """One row per scheme, one ``width``-wide column per workload.

    Each cell shows ``cell_text(result)``, or ``-`` where the cell has no
    result; workloads follow the paper's order.  The ``details`` lines
    and the quarantine footer follow the matrix.
    """
    schemes = sorted({str(r.scheme) for r in results})
    workloads = paper_order(r.workload for r in results)
    cell = {(str(r.scheme), r.workload): r for r in results}
    label = max(14, max((len(s) for s in schemes), default=14))
    lines = [
        title,
        "  " + " " * label + "".join(f"{w:>{width}s}" for w in workloads),
    ]
    for scheme in schemes:
        row = f"  {scheme:<{label}s}"
        for workload in workloads:
            result = cell.get((scheme, workload))
            text = "-" if result is None else cell_text(result)
            row += f"{text:>{width}s}"
        lines.append(row)
    lines.extend(details)
    lines.extend(partial_results_lines(quarantined))
    return "\n".join(lines) + "\n"
