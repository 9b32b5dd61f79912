"""Memory held by ingest and the cell partition beyond the data they return.

Measured with ``tracemalloc``, which numpy reports its array buffers to, so
a traced peak counts every column, table and temporary a stage makes.
"""

import tracemalloc

import numpy as np
import pytest

import qdid.cli
import qdid.data_model
from qdid.cli import RunConfig, load_csv
from qdid.data_model import RcsData, build_cells

ROWS = 60_000


def _traced_peak(call):
    """(result of ``call()``, its traced peak above the memory traced before it)."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


def _held(dataset) -> int:
    return sum(getattr(dataset, name).nbytes for name in dataset.__dataclass_fields__
               if getattr(dataset, name) is not None)


@pytest.mark.parametrize("units", [False, True], ids=["no-units", "units"])
def test_load_csv_holds_a_block_beyond_its_dataset(tmp_path, monkeypatch, units):
    """A repeated cross section of 100 blocks: beyond the dataset, the load
    holds one block's table and the file scan's 1 MiB read, plus a few bytes
    a row for the constructor's one-byte masks and, with unit ids, the
    duplicate scan's sort order (8 bytes a row) and mask. A whole-table read
    holds about 50 bytes a row more."""
    monkeypatch.setattr(qdid.cli, "_BLOCK_ROWS", ROWS // 100)
    monkeypatch.setattr(qdid.data_model, "_CHUNK_ROWS", ROWS // 100)
    rng = np.random.default_rng(11)
    lines = ["unit," * units + "period,y,d,x1,x2,x3"]
    for i, y in enumerate(rng.standard_normal(ROWS).tolist()):
        lines.append(f"u{i}," * units + f"{i % 2},{y!r},{i // 2 % 2},{i % 3},{i % 5},{i % 7}")
    path = tmp_path / "rcs.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    del lines
    config = RunConfig(input_path=str(path), mode="rcs", covariate_cols=("x1", "x2", "x3"))
    dataset, peak = _traced_peak(lambda: load_csv(config))
    assert dataset.n_rows == ROWS
    assert peak - _held(dataset) < (1 << 20) + ROWS * (4 + 9 * units)


def test_build_cells_gathers_one_covariate_at_a_time():
    """Six covariates: the partition holds the sort order and its scratch,
    one gathered column and the cells' samples, within 32 bytes a row
    whatever the number of covariates. A sorted copy of all six columns
    alone takes 48."""
    rows = np.arange(ROWS)
    dataset = RcsData(
        y=np.random.default_rng(5).standard_normal(ROWS),
        period=rows % 2,
        treated=rows // 2 % 2,
        covariates=(rows[:, None] * 7 >> np.arange(6)) % 2,
    )
    cells, peak = _traced_peak(lambda: build_cells(dataset))
    assert sum(cell.n_control + cell.n_treated for cell in cells) == ROWS
    assert peak < 32 * ROWS


@pytest.mark.parametrize("note", ["", "nöte"], ids=["bulk-read", "row-read"])
def test_loaded_covariates_give_build_cells_contiguous_keys(tmp_path, monkeypatch, note):
    """Both readers store the covariates column-major, so the partition sorts
    and compares contiguous keys: beyond its cells it holds the sort order
    and one chunk's keys, within 12 bytes a row. Row-major covariates make
    ``np.lexsort`` copy each strided key into a buffer, about 16. A
    non-ASCII column name sends the file to the row reader."""
    monkeypatch.setattr(qdid.data_model, "_CHUNK_ROWS", ROWS // 100)
    rng = np.random.default_rng(3)
    lines = ["period,y,d,x1,x2,x3" + f",{note}" * bool(note)]
    for i, y in enumerate(rng.standard_normal(ROWS).tolist()):
        lines.append(f"{i % 2},{y!r},{i // 2 % 2},{i % 3},{i % 5},{i % 7}" + "," * bool(note))
    path = tmp_path / "rcs.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = RunConfig(input_path=str(path), mode="rcs", covariate_cols=("x1", "x2", "x3"))
    dataset = load_csv(config)
    cells, peak = _traced_peak(lambda: build_cells(dataset))
    held = sum(sample.nbytes for cell in cells for sample in cell.sample_values)
    assert held == 8 * ROWS
    assert peak - held < 12 * ROWS
