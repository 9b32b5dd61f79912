"""Columnar ingest against the row-by-row references in ``oracles``.

Generated panel and RCS files mix valid rows with blank lines, quoted and
space-padded fields, non-finite outcomes, odd but valid codes (``+1``,
negative, 64-bit extremes), bad tokens, wrong field counts, duplicate and
missing periods and shuffled units, plus the tokens on which a bulk
``np.loadtxt`` read and the row reader could part: ``#``, long and non-ASCII
unit ids, ``1_0`` and non-ASCII digits, ``\x1f`` padding, inner quotes and
CRLF line ends. Both loaders must return the same arrays with the same dtypes
and unit order, or raise the same ``LoadError`` text. The dataset
constructors must refuse exactly the rows ``row_by_row_refusal`` refuses,
with its message, and ``build_cells`` must match its reference on what they
accept.
"""

import csv
import dataclasses
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qdid.cli
import qdid.data_model
from oracles import dict_build_cells, row_by_row_load_csv, row_by_row_refusal
from qdid.cli import EXIT_OK, LoadError, RunConfig, load_csv, main
from qdid.data_model import RcsData, build_cells

# Valid tokens; a file draws from the ODD_ pools only sometimes, so that many
# files are plain enough for the bulk read and the rest must fall back exactly.
WIDE = "w" * 15  # with a one-digit suffix: exactly the bulk read's unit width
UNITS = ["a", "b", " b", "u1", "10", "010", ""]
ODD_UNITS = ["u#1", WIDE[1:], WIDE, WIDE + "w", "é", "\x1fa", "b\x1f", 'a"b', '"a""b"']
OUTCOMES = ["0", "1.5", "-2.25", "3", "1e3", " 4.5", "7 ", "1.0", "2.5"]
ODD_OUTCOMES = ["1_0", "١"]
FLAGS = ["0", "1"]
ODD_FLAGS = [" 1", "0 ", "\x1f1"]
CODES = ["0", "1", "2", "-3", " 5 ", "+1", "9223372036854775807", "-9223372036854775808"]
ODD_CODES = ["1_0", "١"]
BAD_OUTCOMES = ["nan", "inf", "-inf", "oops", "", "1e400", "3#x"]
BAD_FLAGS = ["2", "1.0", "+1", "", "x", "-0", "01"]
BAD_CODES = ["1.0", "x", "", "1.5", "0x1", "9223372036854775808", "-9223372036854775809"]
BAD_CODES += ["3#x"]
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
    odd = draw(st.booleans())

    def valid(pool, odd_pool):
        return draw(st.sampled_from(pool + odd_pool if odd else pool))

    records = []
    for u in range(draw(st.integers(1, 5))):
        name = valid(UNITS, ODD_UNITS)
        unit = {
            # Mostly distinct ids; a bare pool name may repeat another unit's.
            "unit": name + str(u) if draw(st.integers(0, 3)) else name,
            "d": valid(FLAGS, ODD_FLAGS),
            **{c: valid(CODES, ODD_CODES) for c in covariates},
        }
        for period in ("0", "1"):
            record = {**unit, "period": period, "y": valid(OUTCOMES, ODD_OUTCOMES)}
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
            records[i]["d"] = valid(FLAGS, ODD_FLAGS)
        elif mutation == "width":
            records[i]["width"] = draw(st.sampled_from([-1, 1]))
        elif mutation == "covariate" and covariates:
            records[i][draw(st.sampled_from(covariates))] = valid(CODES, ODD_CODES)
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
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol, mode, tuple(covariates)


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
    """Same cells, codes, viability and reasons, and the same four samples in
    row order (compare on data whose outcomes identify rows)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        assert (a.code, a.viable, a.reason) == (b.code, b.viable, b.reason)
        assert all(type(v) is int for v in a.code)
        for field in dataclasses.fields(b):
            if field.name not in ("code", "reason"):
                x, y = getattr(a, field.name), getattr(b, field.name)
                assert x.dtype == y.dtype, field.name
                np.testing.assert_array_equal(x, y, err_msg=field.name)


def with_row_outcomes(dataset):
    """``dataset`` with outcomes that identify its rows."""
    if isinstance(dataset, RcsData):
        return dataclasses.replace(dataset, y=np.arange(dataset.n_rows, dtype=float))
    rows = np.arange(dataset.n_units, dtype=float)
    return dataclasses.replace(dataset, y_pre=rows, y_post=-1.0 - rows)


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
    assert row_by_row_refusal(type(dataset), **vars(dataset)) is None
    dataset = with_row_outcomes(dataset)
    with pytest.raises(ValueError, match=r"^min_cell_size must be at least 1, not 0$"):
        build_cells(dataset, 0)
    for size in (1, 2):
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
    broken=st.sampled_from([None, "period", "y", "code"]),
)
def test_validate_and_cells_match_references_on_built_rcs(
    rows, has_units, float_codes, arity, broken
):
    """Repeated (unit, period) pairs, integer-valued float codes and, when
    ``broken`` names it, arbitrary periods (not only 0/1), a NaN outcome or a
    fractional code on the last row, as a caller building ``RcsData`` may
    pass."""
    n = len(rows)
    codes = np.array([r[3:3 + arity] for r in rows], dtype=float if float_codes else int)
    columns = dict(
        y=np.arange(n, dtype=float),
        period=np.array([r[1] if broken == "period" else r[1] % 2 for r in rows], dtype=int),
        treated=np.array([r[2] for r in rows], dtype=bool),
        covariates=codes.reshape(n, arity),
        unit_ids=np.array([r[0] for r in rows]) if has_units else None,
    )
    if n and broken == "y":
        columns["y"][-1] = np.nan
    if n and arity and float_codes and broken == "code":
        columns["covariates"][-1, 0] = 0.5
    refusal = row_by_row_refusal(RcsData, **columns)
    if refusal is not None:
        with pytest.raises(ValueError) as refused:
            RcsData(**columns)
        assert str(refused.value) == refusal
        return
    data = RcsData(**columns)
    with pytest.raises(ValueError, match=r"^min_cell_size must be at least 1, not 0$"):
        build_cells(data, 0)
    for size in (1, 3):
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


def _row_reader_calls(monkeypatch):
    """A list that gains an entry whenever ``load_csv`` falls back to the row reader."""
    calls = []
    row_columns = qdid.cli._row_columns

    def spy(*args, **kwargs):
        calls.append(args)
        return row_columns(*args, **kwargs)

    monkeypatch.setattr(qdid.cli, "_row_columns", spy)
    return calls


def _clean_lines(unit_id="unit{}".format):
    rng = np.random.default_rng(3)
    lines = ["unit,period,y,d,x1,x2"]
    for u in range(40):
        d, codes = u % 2, f"{u % 3},{-(u % 2)}"
        for period in (0, 1):
            lines.append(f"{unit_id(u)},{period},{float(rng.standard_normal())!r},{d},{codes}")
    return lines


@pytest.mark.parametrize("mode", ["panel", "rcs"])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_clean_files_are_read_in_bulk(tmp_path, monkeypatch, mode, eol):
    lines = _clean_lines()
    lines[3] = lines[3].replace("unit1", '"unit1"')
    lines.insert(5, "")
    path = tmp_path / "clean.csv"
    path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
    config = RunConfig(input_path=str(path), mode=mode, covariate_cols=("x1", "x2"))
    want = row_by_row_load_csv(config)

    def refuse(*args, **kwargs):
        raise AssertionError("the row reader ran")

    monkeypatch.setattr(qdid.cli, "_row_columns", refuse)
    assert_same_dataset(load_csv(config), want)


def _padded_id(u):
    """A distinct id 1 to 15 characters wide (u % 15 + 1), with inner spaces
    from width 3, padded with spaces or a tab where the field stays within
    the bulk read's unit width."""
    width = u % 15 + 1
    core = chr(ord("A") + u) + ("i d  e" * 3)[: max(width - 2, 0)] + "z" * (width > 1)
    pad = ["", " ", "\t", "  "][u % 4]
    field = pad + core + pad[::-1]
    return field if len(field) < 16 else core


@pytest.mark.parametrize("mode", ["panel", "rcs"])
def test_unit_ids_of_every_bulk_width_are_read_in_bulk(tmp_path, monkeypatch, mode):
    path = tmp_path / "widths.csv"
    path.write_text("\n".join(_clean_lines(_padded_id)) + "\n", encoding="utf-8")
    config = RunConfig(input_path=str(path), mode=mode, covariate_cols=("x1", "x2"))
    want = row_by_row_load_csv(config)
    assert set(map(len, want.unit_ids)) == set(range(1, 16))
    calls = _row_reader_calls(monkeypatch)
    assert_same_dataset(load_csv(config), want)
    assert not calls


TEMPLATE = "unit,period,y,d,x\n{u},0,1.5,0,1\n{u},1,{y},{d},{x}\nb,0,0.5,1,2\nb,1,3.5,{e},2\n"
# hazard: (fields of TEMPLATE, the reader that must serve the file in panel mode)
HAZARDS = {
    "comment in outcome": ({"y": "3#x"}, "row"),
    "comment in code": ({"x": "3#x"}, "row"),
    "unit below the bulk width": ({"u": "u" * 15}, "bulk"),
    "unit at the bulk width": ({"u": "u" * 16}, "row"),
    "unit past the bulk width": ({"u": "u" * 20}, "row"),
    "non-ASCII unit": ({"u": "é"}, "row"),
    "unit padded with spaces": ({"u": " a\t"}, "bulk"),
    "unit padded with \\x1f": ({"u": "\x1fa\x1f"}, "row"),
    "NUL in unit": ({"u": "a\x00"}, "row"),
    "inner quote in unit": ({"u": 'a"b'}, "bulk"),
    "doubled quote in unit": ({"u": '"a""b"'}, "bulk"),
    "quoted line break in unit": ({"u": '"a\nb"'}, "bulk"),
    "underscore in outcome": ({"y": "1_0"}, "row"),
    "non-ASCII digit in outcome": ({"y": "١"}, "row"),
    "non-ASCII digit in code": ({"x": "١"}, "row"),
    "\\x1f before outcome": ({"y": "\x1f2.5"}, "row"),
    "overflowing outcome": ({"y": "1e400"}, "row"),
    "nan outcome": ({"y": "nan"}, "row"),
    "flag 01": ({"d": "01"}, "row"),
    "flag +1": ({"d": "+1"}, "row"),
    "flag space 1": ({"d": " 1"}, "row"),
    "flag with NUL": ({"d": "1\x00"}, "row"),
    "flag padded with \\x1f": ({"d": "\x1f1"}, "row"),
    "signed padded code": ({"x": " +1 "}, "bulk"),
    "fractional code": ({"x": "1.0"}, "row"),
    "code past 64 bits": ({"x": "9223372036854775808"}, "row"),
    "ragged row": ({"x": "1,7"}, "row"),
    "covariates differ": ({"x": "5"}, "row"),  # the error names file lines
    "one period of a unit": ({"u": "c"}, "bulk"),
    "duplicate unit and period": ({"u": "b"}, "row"),  # the error names a file line
    "treated before the policy": ({"e": "0"}, "bulk"),
}


def _load_or_error(loader, config):
    try:
        return loader(config)
    except (LoadError, csv.Error) as exc:  # csv.Error: a NUL byte before Python 3.11
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("mode", ["panel", "rcs"])
@pytest.mark.parametrize("hazard", sorted(HAZARDS))
def test_hazard_files_load_as_the_row_reader_does(tmp_path, monkeypatch, hazard, mode):
    fields, reader = HAZARDS[hazard]
    path = tmp_path / "hazard.csv"
    text = TEMPLATE.format(**{"u": "a", "y": "2.5", "d": "0", "x": "1", "e": "1", **fields})
    path.write_bytes(text.encode("utf-8"))
    config = RunConfig(input_path=str(path), mode=mode, covariate_cols=("x",))
    calls = _row_reader_calls(monkeypatch)
    want = _load_or_error(row_by_row_load_csv, config)
    assert_same_dataset(_load_or_error(load_csv, config), want)
    if mode == "rcs" and hazard == "covariates differ":
        reader = "bulk"  # a panel check: an RCS load names no line
    assert bool(calls) == (reader == "row")


@pytest.mark.parametrize("mode", ["panel", "rcs"])
def test_a_column_in_two_roles_takes_the_row_reader(tmp_path, monkeypatch, mode):
    path = tmp_path / "roles.csv"
    path.write_text(TEMPLATE.format(u="a", y="2.5", d="0", x="1", e="1"), encoding="utf-8")
    config = RunConfig(input_path=str(path), mode=mode, covariate_cols=("period", "x"))
    calls = _row_reader_calls(monkeypatch)
    assert_same_dataset(_load(load_csv, config), _load(row_by_row_load_csv, config))
    assert calls


@pytest.mark.parametrize("mode", ["panel", "rcs"])
def test_header_only_file_reports_no_data_rows_quietly(tmp_path, capsys, recwarn, mode):
    path = tmp_path / "header.csv"
    path.write_text("unit,period,y,d\n\n", encoding="utf-8")
    with pytest.raises(LoadError, match=r"^no data rows$"):
        load_csv(RunConfig(input_path=str(path), mode=mode))
    assert capsys.readouterr().err == ""
    assert not recwarn.list


@pytest.mark.parametrize(
    "text, message",
    [
        ("unit,period,y,d,x\na,0,1,0,1\n\nb,0,2,0,1\n\na,0,3,0,1\n",
         r"^line 6: duplicate \(unit=a, period=0\) row$"),
        ("unit,period,y,d,x\na,0,1,0,1\n\nb,0,2,0,1\n\nb,1,3,0,1\n\na,1,4,0,2\n",
         r"^unit a: covariates differ across periods \(lines 2 and 8\)$"),
    ],
)
def test_blank_lines_count_in_panel_errors_after_a_bulk_read(tmp_path, monkeypatch, text, message):
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    config = RunConfig(input_path=str(path), covariate_cols=("x",))
    calls = _row_reader_calls(monkeypatch)
    for loader in (load_csv, row_by_row_load_csv):
        with pytest.raises(LoadError, match=message):
            loader(config)
    assert calls  # the bulk read cannot count blank lines, so the row reader names the line


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX only")
def test_a_pipe_is_read_once_by_the_row_reader(tmp_path):
    text = "\n".join(_clean_lines()) + "\n"
    (tmp_path / "file.csv").write_text(text, encoding="utf-8")
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_text, args=(text,), kwargs={"encoding": "utf-8"}, daemon=True
    )
    writer.start()
    try:
        got = load_csv(RunConfig(input_path=str(fifo), covariate_cols=("x1", "x2")))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    config = RunConfig(input_path=str(tmp_path / "file.csv"), covariate_cols=("x1", "x2"))
    assert_same_dataset(got, row_by_row_load_csv(config))


PIPES = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX only")


def _load_from(path, source, data: bytes, **options):
    """``load_csv`` of ``data`` written to a regular file or fed through a named pipe."""
    if source == "file":
        path.write_bytes(data)
        return load_csv(RunConfig(input_path=str(path), **options))
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        return load_csv(RunConfig(input_path=str(path), **options))
    finally:
        writer.join(timeout=10)


@pytest.mark.parametrize("mode", ["panel", "rcs"])
@pytest.mark.parametrize("source", ["file", pytest.param("pipe", marks=PIPES)])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, source, mode):
    lines = _clean_lines()
    options = {"mode": mode, "covariate_cols": ("x1", "x2")}
    plain = "\n".join(lines) + "\n"
    want = _load_from(tmp_path / "plain.csv", "file", plain.encode("utf-8"), **options)
    got = _load_from(tmp_path / "bom.csv", source, plain.encode("utf-8-sig"), **options)
    assert_same_dataset(got, want)

    fields = lines[2].split(",")
    fields[2] = "oops"  # the outcome of the second data row, file line 3
    lines[2] = ",".join(fields)
    bad = ("\n".join(lines) + "\n").encode("utf-8-sig")
    with pytest.raises(LoadError, match=r"^line 3: cannot parse y='oops' as a number$"):
        _load_from(tmp_path / "bad.csv", source, bad, **options)


@pytest.mark.parametrize("mode", ["panel", "rcs"])
def test_a_byte_order_mark_alone_keeps_a_file_in_the_bulk_read(tmp_path, monkeypatch, mode):
    options = {"mode": mode, "covariate_cols": ("x1", "x2")}
    plain = "\n".join(_clean_lines()) + "\n"
    want = _load_from(tmp_path / "plain.csv", "file", plain.encode("utf-8"), **options)

    def refuse(*args):
        raise AssertionError("the row reader was called")

    monkeypatch.setattr(qdid.cli, "_row_columns", refuse)
    got = _load_from(tmp_path / "bom.csv", "file", plain.encode("utf-8-sig"), **options)
    assert_same_dataset(got, want)


def test_a_byte_order_mark_file_with_a_non_ascii_unit_takes_the_row_reader(tmp_path, monkeypatch):
    path = tmp_path / "bom.csv"
    path.write_bytes(("\n".join(_clean_lines("é{}".format)) + "\n").encode("utf-8-sig"))
    config = RunConfig(input_path=str(path), covariate_cols=("x1", "x2"))
    calls = _row_reader_calls(monkeypatch)
    got = load_csv(config)
    assert calls
    assert_same_dataset(got, row_by_row_load_csv(config))


def test_a_loaded_file_is_scanned_for_repeated_rows_once(tmp_path, monkeypatch):
    calls = []
    for module in (qdid.data_model, qdid.cli):
        if hasattr(module, "_repeated_rows"):
            scan = module._repeated_rows

            def counted(*args, scan=scan):
                calls.append(args)
                return scan(*args)

            monkeypatch.setattr(module, "_repeated_rows", counted)
    path = tmp_path / "rcs.csv"
    path.write_text("\n".join(_clean_lines()) + "\n", encoding="utf-8")
    argv = ["estimate", "-i", str(path), "-o", str(tmp_path / "out"), "--mode", "rcs"]
    assert main(argv + ["-b", "10", "--format", "json"]) == EXIT_OK
    assert len(calls) == 1


def _small_blocks(monkeypatch, rows=7):
    """Bulk reads in blocks of ``rows`` lines, and duplicate scans over
    chunks of as many sorted rows."""
    monkeypatch.setattr(qdid.cli, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(qdid.data_model, "_CHUNK_ROWS", rows)


def _read_in_bulk(path, monkeypatch, mode):
    """The dataset ``load_csv`` reads from ``path`` without the row reader,
    checked against ``row_by_row_load_csv``."""
    config = RunConfig(input_path=str(path), mode=mode, covariate_cols=("x1", "x2"))
    want = row_by_row_load_csv(config)
    calls = _row_reader_calls(monkeypatch)
    assert_same_dataset(load_csv(config), want)
    assert not calls
    return want


@pytest.mark.parametrize("mode", ["panel", "rcs"])
@pytest.mark.parametrize("ends", [("\r",), ("\r", "\r\n", "\n")], ids=["cr", "mixed"])
def test_bare_and_mixed_carriage_returns_stay_in_the_bulk_read(tmp_path, monkeypatch, ends, mode):
    """The text handle splits lines at a bare \\r too, so the row bound that
    sizes the columns counts it; 81 lines make 12 blocks."""
    _small_blocks(monkeypatch)
    lines = _clean_lines()
    path = tmp_path / "eol.csv"
    path.write_bytes("".join(f"{line}{ends[i % len(ends)]}" for i, line in enumerate(lines)).encode())
    _read_in_bulk(path, monkeypatch, mode)


@pytest.mark.parametrize("mode", ["panel", "rcs"])
def test_blank_lines_at_block_edges_stay_in_the_bulk_read(tmp_path, monkeypatch, mode):
    _small_blocks(monkeypatch)  # block b holds data[7 * b : 7 * b + 7]
    header, *data = _clean_lines()
    data[14:14] = ["", ""]  # the first lines of block 2
    data[27:27] = [""]  # the last line of block 3
    data[35:35] = [""] * 7  # block 5: blank lines only
    path = tmp_path / "blanks.csv"
    path.write_text("\n".join([header, *data, "", ""]) + "\n", encoding="utf-8")
    _read_in_bulk(path, monkeypatch, mode)


@pytest.mark.parametrize("mode", ["panel", "rcs"])
def test_the_widest_unit_id_in_the_last_block_sets_the_width(tmp_path, monkeypatch, mode):
    _small_blocks(monkeypatch)
    path = tmp_path / "wide.csv"
    lines = _clean_lines(lambda u: WIDE if u == 39 else f"u{u}")  # the last two rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _read_in_bulk(path, monkeypatch, mode).unit_ids.dtype == np.dtype("<U15")


@pytest.mark.parametrize("mode", ["panel", "rcs"])
def test_a_bad_flag_in_a_later_block_sends_the_file_to_the_row_reader(tmp_path, monkeypatch, mode):
    _small_blocks(monkeypatch)
    lines = _clean_lines()
    fields = lines[75].split(",")
    fields[3] = "01"  # d of file line 76, in block 10 of 12
    lines[75] = ",".join(fields)
    path = tmp_path / "flag.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = RunConfig(input_path=str(path), mode=mode, covariate_cols=("x1", "x2"))
    calls = _row_reader_calls(monkeypatch)
    for loader in (load_csv, row_by_row_load_csv):
        with pytest.raises(LoadError, match=r"^line 76: d='01' must be 0 or 1$"):
            loader(config)
    assert calls


@pytest.mark.parametrize("mode", ["panel", "rcs"])
def test_a_quoted_line_break_across_a_block_edge_loads_as_the_row_reader_does(
    tmp_path, monkeypatch, mode
):
    """The first row of unit 3 starts on the last line of block 0 and ends
    on the first of block 1. ``np.loadtxt`` reads a quote still open at the
    end of its input as closed, so a file that holds a quote is read as one
    block."""
    _small_blocks(monkeypatch)
    path = tmp_path / "quoted.csv"
    lines = _clean_lines(lambda u: '"unit\n3"' if u == 3 else f"unit{u}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert "unit\n3" in _read_in_bulk(path, monkeypatch, mode).unit_ids
