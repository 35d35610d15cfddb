"""Tests for the figure registry (repro.analysis.figures).

Includes golden-file tests: ``tests/golden/fig6.vl.json`` and
``tests/golden/fig6.csv`` pin the emitted artifact shape for a fixed
synthetic trajectory, and ``tests/golden/catalog/<name>.{vl.json,csv}``
pin every registry figure's artifacts for a second trajectory with one
record per figure.  If an emission change is intentional, regenerate
them with ``python tests/test_bench_figures.py --regenerate``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.figures import (
    FigureSpec,
    REGISTRY,
    REGISTRY_VERSION,
    SERIES_COLORS,
    comparison_rows,
    emit_figures,
    figure_csv,
    latest_figure_records,
    trajectory_rows,
    vega_lite_spec,
    walltime_rows,
)
from repro.bench.reference import PAPER_REFERENCE

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CATALOG_GOLDEN_DIR = GOLDEN_DIR / "catalog"


def golden_doc():
    """Fixed synthetic trajectory used by the golden-file tests."""
    return {
        "schema_version": 2,
        "runs": [
            {
                "label": "golden-a",
                "threads": 4,
                "scale": 1.0,
                "seed": 7,
                "total_wall_time_s": 100.0,
                "figures": [
                    {
                        "figure": "fig6",
                        "title": "Figure 6",
                        "wall_time_s": 100.0,
                        "metrics": {
                            "PMEM+pcommit": 0.8,
                            "ATOM": 1.3,
                            "Proteus": 1.5,
                            "PMEM+nolog": 1.55,
                        },
                    }
                ],
            },
            {
                "label": "golden-b",
                "threads": 4,
                "scale": 1.0,
                "seed": 7,
                "total_wall_time_s": 90.0,
                "figures": [
                    {
                        "figure": "fig6",
                        "title": "Figure 6",
                        "wall_time_s": 90.0,
                        "metrics": {
                            "PMEM+pcommit": 0.81,
                            "ATOM": 1.31,
                            "Proteus": 1.51,
                            "PMEM+nolog": 1.56,
                        },
                    },
                    {
                        "figure": "fig7",
                        "title": "Figure 7",
                        "wall_time_s": 0.001,
                        "derived": True,
                        "derived_from": "fig6",
                        "metrics": {
                            "ATOM / ideal": 1.2,
                            "Proteus / ideal": 1.0,
                            "ATOM / Proteus": 1.2,
                        },
                    },
                ],
            },
        ],
    }


def catalog_doc():
    """Fixed synthetic trajectory with one record for every figure.

    Each record lists its metrics in an order of its own (Table 4 in the
    paper's column order), so the goldens also pin that emission follows
    the registry's metric order, not the record's.
    """
    metrics = {
        "fig6": {
            "PMEM+pcommit": 0.545, "ATOM": 1.368, "Proteus": 1.667,
            "PMEM+nolog": 1.69,
        },
        "fig7": {
            "ATOM / ideal": 1.257, "Proteus / ideal": 1.002,
            "ATOM / Proteus": 1.254,
        },
        "fig8": {
            "ATOM avg": 2.91, "ATOM worst (AT)": 3.02, "Proteus worst": 1.05,
        },
        "fig9": {"ATOM": 1.42, "Proteus": 2.31, "PMEM+nolog": 2.4},
        "fig10": {"ATOM": 1.2, "Proteus": 1.33, "PMEM+nolog": 1.36},
        "fig11": {"LogQ=8 geomean": 1.61, "LogQ=64 geomean": 1.66},
        "fig12": {"large-LPQ plateau": 1.64},
        "table3": {
            "Proteus@1024": 2.9, "ideal@1024": 3.1,
            "Proteus@8192": 3.4, "ideal@8192": 3.6,
        },
        "table4": {
            "AT": 33.1, "BT": 30.4, "HM": 40.2, "RT": 24.7, "SS": 22.9,
            "QE": 40.5,
        },
    }
    return {
        "schema_version": 2,
        "runs": [
            {
                "label": "golden-catalog",
                "threads": 4,
                "scale": 0.1,
                "seed": 7,
                "total_wall_time_s": 20.0,
                "figures": [
                    {
                        "figure": name,
                        "title": name,
                        "wall_time_s": 1.0,
                        "metrics": values,
                    }
                    for name, values in metrics.items()
                ],
            }
        ],
    }


# -- registry <-> paper reference completeness ------------------------------


def test_every_registry_metric_has_a_paper_reference():
    """Acceptance criterion: no registry figure without paper numbers."""
    for name, spec in REGISTRY.items():
        assert name in PAPER_REFERENCE, f"{name} missing from PAPER_REFERENCE"
        for metric in spec.metrics:
            assert metric in PAPER_REFERENCE[name], (
                f"{name}:{metric} has no paper-reference entry"
            )


def test_every_paper_reference_entry_is_in_the_registry():
    for name, entries in PAPER_REFERENCE.items():
        assert name in REGISTRY, f"{name} not in REGISTRY"
        for metric in entries:
            assert metric in REGISTRY[name].metrics, (
                f"{name}:{metric} not a registry metric"
            )


def test_run_passes_threads_only_to_threaded_drivers():
    calls = []

    def driver(**kwargs):
        calls.append(kwargs)
        return kwargs

    spec = FigureSpec(
        name="fig6", driver=driver, title="t", kind="bar", unit="u",
        paper_source="s",
    )
    spec.run(threads=2, scale=0.5)
    dataclasses.replace(spec, threaded=False).run(threads=2, scale=0.5, seed=3)
    assert calls == [{"threads": 2, "scale": 0.5}, {"scale": 0.5, "seed": 3}]
    assert [f.name for f in REGISTRY.values() if not f.threaded] == ["table3"]


def test_reference_levels_and_tolerances_sane():
    for name, entries in PAPER_REFERENCE.items():
        for metric, entry in entries.items():
            assert entry.level in ("gate", "track"), (name, metric)
            assert 0 < entry.tolerance <= 2.0, (name, metric)
            assert entry.value != 0, (name, metric)
            assert entry.source, (name, metric)


# -- record selection and row builders --------------------------------------


def test_latest_figure_records_picks_newest_per_figure():
    latest = latest_figure_records(golden_doc())
    assert latest["fig6"][0] == "golden-b"
    assert latest["fig6"][1]["metrics"]["Proteus"] == 1.51
    assert latest["fig7"][0] == "golden-b"


def test_comparison_rows_pair_repro_with_paper():
    rows = comparison_rows(REGISTRY["fig6"], golden_doc())
    by_series = {}
    for row in rows:
        by_series.setdefault(row["series"], []).append(row)
    assert len(by_series["repro"]) == 4
    assert len(by_series["paper"]) == 4
    proteus_paper = next(
        r for r in by_series["paper"] if r["metric"] == "Proteus"
    )
    assert proteus_paper["value"] == PAPER_REFERENCE["fig6"]["Proteus"].value


def test_comparison_rows_empty_figure_has_paper_only():
    rows = comparison_rows(REGISTRY["fig12"], golden_doc())
    assert rows and all(row["series"] == "paper" for row in rows)


def test_trajectory_rows_cover_every_run():
    rows = trajectory_rows(REGISTRY["fig6"], golden_doc())
    runs = {row["run"] for row in rows}
    assert runs == {"golden-a", "golden-b"}
    assert all(row["figure"] == "fig6" for row in rows)


def test_walltime_rows_exclude_derived_figures():
    rows = walltime_rows(golden_doc())
    assert not any(row["figure"] == "fig7" for row in rows)
    totals = [row for row in rows if row["figure"] == "total"]
    assert [row["wall_time_s"] for row in totals] == [100.0, 90.0]


def test_emit_bench_marks_figures_of_a_shared_sweep_derived():
    """fig7 and table4 share fig6's sweep (``FigureSpec.sweep``), so the
    records ``emit_bench.py`` writes mark them derived from fig6; fig9
    runs its own sweep."""
    from benchmarks.emit_bench import record_figures

    records = record_figures(
        threads=1, scale=0.005, seed=7, names=["fig6", "fig7", "fig9", "table4"]
    )
    assert {record["figure"]: record.get("derived_from") for record in records} == {
        "fig6": None, "fig7": "fig6", "fig9": None, "table4": "fig6",
    }


# -- vega-lite + csv emission -----------------------------------------------


def test_vega_lite_spec_is_versioned_and_self_describing():
    spec = vega_lite_spec(REGISTRY["fig6"], golden_doc())
    assert spec["$schema"].endswith("vega-lite/v5.json")
    assert spec["usermeta"]["registry_version"] == REGISTRY_VERSION
    assert spec["usermeta"]["results_schema_version"] == 2
    scale = spec["encoding"]["color"]["scale"]
    assert scale["domain"] == ["repro", "paper"]
    assert scale["range"] == [SERIES_COLORS["repro"], SERIES_COLORS["paper"]]


def test_figure_csv_carries_reference_provenance():
    text = figure_csv(REGISTRY["fig6"], golden_doc())
    lines = text.splitlines()
    assert lines[0] == "figure,metric,series,value,run,tolerance,level,source"
    proteus = [l for l in lines if l.startswith("fig6,Proteus,")]
    assert len(proteus) == 2  # repro + paper rows
    assert any("gate" in l for l in proteus)


def test_emit_figures_writes_spec_and_csv_per_figure(tmp_path):
    written = emit_figures(golden_doc(), tmp_path)
    names = {path.name for path in written}
    for figure in REGISTRY:
        assert f"{figure}.vl.json" in names
        assert f"{figure}.csv" in names
    spec = json.loads((tmp_path / "fig6.vl.json").read_text())
    assert spec["usermeta"]["figure"] == "fig6"


def test_emit_figures_respects_name_filter(tmp_path):
    written = emit_figures(golden_doc(), tmp_path, names=["fig6"])
    assert {path.name for path in written} == {"fig6.vl.json", "fig6.csv"}


# -- golden files -----------------------------------------------------------


def _current_artifacts():
    doc = golden_doc()
    spec = json.dumps(
        vega_lite_spec(REGISTRY["fig6"], doc), indent=2, sort_keys=True
    ) + "\n"
    return {"fig6.vl.json": spec, "fig6.csv": figure_csv(REGISTRY["fig6"], doc)}


def test_golden_vega_lite_spec():
    expected = (GOLDEN_DIR / "fig6.vl.json").read_text()
    assert _current_artifacts()["fig6.vl.json"] == expected, (
        "fig6.vl.json emission changed; regenerate the golden file if "
        "intentional (see module docstring)"
    )


def test_golden_csv():
    expected = (GOLDEN_DIR / "fig6.csv").read_text()
    assert _current_artifacts()["fig6.csv"] == expected, (
        "fig6.csv emission changed; regenerate the golden file if "
        "intentional (see module docstring)"
    )


def _catalog_artifacts(name):
    doc = catalog_doc()
    spec = REGISTRY[name]
    return {
        f"{name}.vl.json": json.dumps(
            vega_lite_spec(spec, doc), indent=2, sort_keys=True
        ) + "\n",
        f"{name}.csv": figure_csv(spec, doc),
    }


@pytest.mark.parametrize("name", list(REGISTRY))
def test_golden_catalog_artifacts(name):
    for filename, content in _catalog_artifacts(name).items():
        expected = (CATALOG_GOLDEN_DIR / filename).read_text()
        assert content == expected, (
            f"{filename} emission changed; regenerate the golden file if "
            "intentional (see module docstring)"
        )


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, content in _current_artifacts().items():
            (GOLDEN_DIR / name).write_text(content)
            print(f"wrote {GOLDEN_DIR / name}")
        CATALOG_GOLDEN_DIR.mkdir(exist_ok=True)
        for figure in REGISTRY:
            for name, content in _catalog_artifacts(figure).items():
                (CATALOG_GOLDEN_DIR / name).write_text(content)
                print(f"wrote {CATALOG_GOLDEN_DIR / name}")
