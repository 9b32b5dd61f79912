"""Columnar ingest against the row-by-row references in ``oracles``.

Generated panel and RCS files mix valid rows with blank lines, quoted and
space-padded fields, non-finite outcomes, odd but valid codes (``+1``,
negative, 64-bit extremes), bad tokens, wrong field counts, duplicate and
missing periods and shuffled units. Both loaders must return the same arrays
with the same dtypes and unit order, or raise the same ``LoadError`` text;
``validate`` and ``build_cells`` must match their references on the result.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import dict_build_cells, row_by_row_load_csv, row_by_row_validate
from qdid.cli import LoadError, RunConfig, load_csv
from qdid.data_model import RcsData, build_cells, validate

UNITS = ["a", "b", " b", "u1", "10", "010", ""]
OUTCOMES = ["0", "1.5", "-2.25", "3", "1e3", " 4.5", "7 ", "1.0", "2.5"]
BAD_OUTCOMES = ["nan", "inf", "-inf", "oops", "", "1e400"]
FLAGS = ["0", "1", " 1", "0 "]
BAD_FLAGS = ["2", "1.0", "+1", "", "x", "-0"]
CODES = ["0", "1", "2", "-3", " 5 ", "+1", "9223372036854775807", "-9223372036854775808"]
BAD_CODES = ["1.0", "x", "", "1.5", "0x1", "9223372036854775808", "-9223372036854775809"]
BAD_TOKENS = {"y": BAD_OUTCOMES, "period": BAD_FLAGS, "d": BAD_FLAGS}
MUTATIONS = ["drop", "repeat", "token", "flag", "width", "covariate", "blank"]


@st.composite
def csv_files(draw):
    """(file text, mode, covariate columns) of a generated long-format CSV."""
    mode = draw(st.sampled_from(["panel", "rcs"]))
    covariates = [f"x{j}" for j in range(draw(st.integers(0, 2)))]
    columns = ["unit", "period", "y", "d"] + covariates
    if mode == "rcs" and draw(st.booleans()):
        columns.remove("unit")
    columns = draw(st.permutations(columns))

    records = []
    for u in range(draw(st.integers(1, 5))):
        name = draw(st.sampled_from(UNITS))
        unit = {
            # Mostly distinct ids; a bare pool name may repeat another unit's.
            "unit": name + str(u) if draw(st.integers(0, 3)) else name,
            "d": draw(st.sampled_from(FLAGS)),
            **{c: draw(st.sampled_from(CODES)) for c in covariates},
        }
        for period in ("0", "1"):
            record = {**unit, "period": period, "y": draw(st.sampled_from(OUTCOMES))}
            if period == "0" and draw(st.booleans()):
                record["d"] = "0"  # a panel may flag treatment in the post period only
            records.append(record)
    records = draw(st.permutations(records))

    blanks = set()
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=4)):
        if not records:
            break
        i = draw(st.integers(0, len(records) - 1))
        if mutation == "drop":
            records.pop(i)
        elif mutation == "repeat":
            records.insert(draw(st.integers(0, len(records))), dict(records[i]))
        elif mutation == "token":
            column = draw(st.sampled_from(columns))
            records[i][column] = draw(st.sampled_from(BAD_TOKENS.get(column, BAD_CODES)))
        elif mutation == "flag":
            records[i]["d"] = draw(st.sampled_from(FLAGS))
        elif mutation == "width":
            records[i]["width"] = draw(st.sampled_from([-1, 1]))
        elif mutation == "covariate" and covariates:
            records[i][draw(st.sampled_from(covariates))] = draw(st.sampled_from(CODES))
        elif mutation == "blank":
            blanks.add(i)

    lines = [",".join(f" {c}" if draw(st.booleans()) else c for c in columns)]
    for i, record in enumerate(records):
        if i in blanks:
            lines.append("")
        fields = [
            f'"{record[c]}"' if draw(st.booleans()) else record[c] for c in columns
        ]
        width = record.get("width", 0)
        fields = fields[:width] if width < 0 else fields + ["extra"] * width
        lines.append(",".join(fields))
    if draw(st.booleans()):
        lines.append("")
    return "\n".join(lines) + "\n", mode, tuple(covariates)


def _load(loader, config):
    try:
        return loader(config)
    except LoadError as exc:
        return f"LoadError: {exc}"


def assert_same_dataset(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    for name in want.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def assert_same_cells(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.code, a.viable, a.reason) == (b.code, b.viable, b.reason)
        assert all(type(v) is int for v in a.code)
        for rows in ("treated_rows", "control_rows"):
            assert getattr(a, rows).dtype == getattr(b, rows).dtype
            np.testing.assert_array_equal(getattr(a, rows), getattr(b, rows))


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=csv_files())
def test_columnar_ingest_matches_row_by_row(tmp_path, case):
    text, mode, covariates = case
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    config = RunConfig(input_path=str(path), mode=mode, covariate_cols=covariates)
    dataset = _load(load_csv, config)
    assert_same_dataset(dataset, _load(row_by_row_load_csv, config))
    if isinstance(dataset, str):
        return
    assert validate(dataset) == row_by_row_validate(dataset)
    assert str(validate(dataset)) == str(row_by_row_validate(dataset))
    for size in (0, 1, 2):
        assert_same_cells(build_cells(dataset, size), dict_build_cells(dataset, size))


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(UNITS),
            st.integers(-1, 2),
            st.booleans(),
            st.integers(-2, 2),
            st.integers(-2, 2),
        ),
        max_size=30,
    ),
    has_units=st.booleans(),
    float_codes=st.booleans(),
    arity=st.integers(0, 2),
)
def test_validate_and_cells_match_references_on_built_rcs(
    rows, has_units, float_codes, arity
):
    """Arbitrary periods (not only 0/1), repeated (unit, period) pairs and
    integer-valued float codes, as a caller building ``RcsData`` may pass."""
    n = len(rows)
    codes = np.array([r[3:3 + arity] for r in rows], dtype=float if float_codes else int)
    data = RcsData(
        y=np.arange(n, dtype=float),
        period=np.array([r[1] for r in rows], dtype=int),
        treated=np.array([r[2] for r in rows], dtype=bool),
        covariates=codes.reshape(n, arity),
        unit_ids=np.array([r[0] for r in rows]) if has_units else None,
    )
    assert validate(data) == row_by_row_validate(data)
    assert str(validate(data)) == str(row_by_row_validate(data))
    for size in (0, 1, 3):
        assert_same_cells(build_cells(data, size), dict_build_cells(data, size))


def test_bad_value_after_blank_lines_names_its_file_line(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("unit,period,y,d\n\na,0,1.0,0\n\n\na,1,oops,0\n", encoding="utf-8")
    config = RunConfig(input_path=str(path))
    with pytest.raises(LoadError, match=r"^line 6: cannot parse y='oops'"):
        load_csv(config)
    with pytest.raises(LoadError, match=r"^line 6: cannot parse y='oops'"):
        row_by_row_load_csv(config)


def test_field_count_error_yields_to_an_earlier_bad_value(tmp_path):
    path = tmp_path / "width.csv"
    path.write_text("unit,period,y,d\na,0,1.0,2\na,1,2.0\n", encoding="utf-8")
    with pytest.raises(LoadError, match=r"^line 2: d='2' must be 0 or 1$"):
        load_csv(RunConfig(input_path=str(path)))


def test_first_bad_unit_in_file_order_is_named(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text(
        "unit,period,y,d,x\n"
        "z,1,1.0,0,0\n"
        "a,0,1.0,0,1\n"
        "a,1,2.0,0,2\n"
        "m,1,2.0,0,0\n"
        "z,0,1.5,0,3\n",
        encoding="utf-8",
    )
    config = RunConfig(input_path=str(path), covariate_cols=("x",))
    for loader in (load_csv, row_by_row_load_csv):
        with pytest.raises(LoadError, match=r"^unit z: covariates differ .*lines 6 and 2"):
            loader(config)


def test_units_keep_first_appearance_order(tmp_path):
    path = tmp_path / "order.csv"
    path.write_text(
        "unit,period,y,d\nb,1,4,1\na,0,1,0\nc,0,5,0\na,1,2,0\nb,0,3,1\nc,1,6,0\n",
        encoding="utf-8",
    )
    data = load_csv(RunConfig(input_path=str(path)))
    assert data.unit_ids.tolist() == ["b", "a", "c"]
    assert data.y_pre.tolist() == [3.0, 1.0, 5.0]
    assert data.y_post.tolist() == [4.0, 2.0, 6.0]


def test_code_outside_64_bits_names_its_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(
        "unit,period,y,d,x\na,0,1,0,1\na,1,2,0,9223372036854775808\n", encoding="utf-8"
    )
    config = RunConfig(input_path=str(path), covariate_cols=("x",))
    with pytest.raises(LoadError, match=r"^line 3: covariate x='9223372036854775808'"):
        load_csv(config)
