"""Run records: the column-stored screening table, its rows and its
serialised form, and the memory a kept trace holds."""

import dataclasses
import gc
import os
import tracemalloc

import numpy as np
import pytest

from ggavqe.cli import _execute
from ggavqe.config import load_run_config
from ggavqe.records import ScreeningTable

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (config, overrides, the gain column, whether the run reports gradients)
RUNS = {
    "gga": ("ising_n6.cfg", [], "drop", False),
    "gga-sampled": ("ising_n6_sampled.cfg", [], "drop", False),
    "adapt": ("ising_n6.cfg", ["driver.kind=adapt"], "drop", True),
    "gga2d": ("ising_n6.cfg", ["driver.kind=gga2d"], "drop", False),
    "gga-stopping": ("ising_n6.cfg", ["stop.min_energy_decrease=0.05"], "drop", False),
    "adapt-stopping": ("ising_n6.cfg", ["driver.kind=adapt", "stop.gradient_epsilon=0.3"],
                       "drop", True),
    "overlap": ("overlap_hf_toy.cfg", [], "gain", False),
    "overlap-sampled": ("overlap_hf_toy.cfg", ["backend.mode=sampled"], "gain", False),
}


@pytest.fixture(autouse=True)
def _in_repo(monkeypatch):
    monkeypatch.chdir(REPO)


def run(name):
    cfg, overrides, _, _ = RUNS[name]
    return _execute(load_run_config(os.path.join("configs", cfg), overrides))


def tables(trace):
    out = [rec.screening for rec in trace.iterations]
    if "stopping_screening" in trace.extras:
        out.append(trace.extras["stopping_screening"])
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rows_are_plain_dicts_in_key_order(name):
    _, _, gain_key, gradient = RUNS[name]
    trace = run(name)
    keys = ["id", "label"] + (["gradient"] if gradient else []) + ["angle", "value", gain_key]
    found = tables(trace)
    assert found and all(isinstance(table, ScreeningTable) for table in found)
    for table in found:
        iterated = list(table)
        for gid in range(len(table)):
            for row in (iterated[gid], table[gid]):
                assert list(row) == keys
                assert type(row["id"]) is int and row["id"] == gid
                assert type(row["label"]) is str
                assert all(type(row[key]) is float for key in keys[2:])


@pytest.mark.parametrize("name", ["gga-stopping", "adapt-stopping", "overlap"])
def test_stopping_screening_is_recorded(name):
    assert isinstance(run(name).extras["stopping_screening"], ScreeningTable)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_json_equals_the_row_dicts(name):
    """Stored by columns, a trace serialises as if its tables were lists of
    row dicts."""
    trace = run(name)
    as_rows = dataclasses.replace(
        trace,
        iterations=[dataclasses.replace(rec, screening=[dict(row) for row in rec.screening])
                    for rec in trace.iterations],
        extras={key: list(value) if isinstance(value, ScreeningTable) else value
                for key, value in trace.extras.items()},
    )
    assert trace.to_json() == as_rows.to_json()


@pytest.mark.parametrize("name", ["gga", "gga-sampled", "overlap", "overlap-sampled"])
def test_selected_row_holds_the_recorded_prediction(name):
    for rec in run(name).iterations:
        assert rec.screening[rec.selected_ids[0]]["value"] == rec.predicted_value


def test_table_reads_like_a_list_of_rows():
    table = ScreeningTable((0, 1, 2), ("a", "b", "c"), {
        "angle": [0.5, -1.0, 2.0], "value": np.array([1.0, 2.0, 3.0]), "drop": [0.0, 0.25, 1e-300],
    })
    rows = [
        {"id": 0, "label": "a", "angle": 0.5, "value": 1.0, "drop": 0.0},
        {"id": 1, "label": "b", "angle": -1.0, "value": 2.0, "drop": 0.25},
        {"id": 2, "label": "c", "angle": 2.0, "value": 3.0, "drop": 1e-300},
    ]
    assert len(table) == 3
    assert list(table) == rows and table == rows and table.rows() == rows
    assert table[-1] == rows[-1] and table[1:] == rows[1:]
    assert [row["drop"] for row in table] == [0.0, 0.25, 1e-300]
    with pytest.raises(IndexError):
        table[3]
    assert table != rows[:2]


# Memory that one kept overlap_hf_toy trace (5 iterations of 7 generators)
# adds to the process, measured with tracemalloc (the least of 3 runs):
# 14.6 KiB with per-row dicts of boxed floats, 7.6 KiB stored by columns.
KEPT_TRACE_BOUND_BYTES = 11 * 1024


def test_kept_overlap_trace_memory_bound():
    overrides = ["driver.min_overlap_gain=0"]
    _execute(load_run_config("configs/overlap_hf_toy.cfg", overrides))  # warm the caches
    kept, sizes = [], []
    for _ in range(3):
        config = load_run_config("configs/overlap_hf_toy.cfg", overrides)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept.append(_execute(config))
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
    assert len(kept[0].iterations) == 5
    assert min(sizes) < KEPT_TRACE_BOUND_BYTES, sizes
