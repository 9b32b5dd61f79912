"""Command-line front end: CSV in, per-cell effect processes and tables out.

Input files are long-format CSV (UTF-8, a leading byte-order mark allowed,
comma-separated, header row): one row per (unit, period) for panel mode, one
row per observation for repeated cross sections. Reports are written as
versioned JSON plus two CSVs: a plot-ready band file (one row per cell,
estimator, and tau) and a compact per-cell summary with the sup-test
decision and estimates at selected quantiles.

Exit codes: 0 success, 2 input/validation failure or a bad flag value (an
unwritable --out included), 3 estimation infeasible (no covariate cell is
large enough), 4 internal error (an unexpected exception: a bug, not a
problem with the input).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .data_model import DEFAULT_MIN_CELL_SIZE, PanelData, RcsData, _repeated_rows, build_cells
from .data_model import check_min_cell_size
# bench/tracer.py rebinds validate by this module path; the constructors make
# every check it stood for, so it is never called
from .data_model import _refuse as validate  # noqa: F401
from .estimators import ESTIMATORS, Cell, checked_estimators, checked_grid
from .inference import (
    BootstrapConfig,
    DrawStoreError,
    InferenceReport,
    _check_draw_count,
    analyze_cells,
    check_test_settings,
)
# bench/tracer.py rebinds analyze_cell and analyze_unconditional by this module
# path; every run reaches them through analyze_cells, so they are never called
from .inference import analyze_cell, analyze_unconditional  # noqa: F401
from .simulation import DEFAULT_MC_TAUS, THETA, DgpSpec, McResult, run_mc, simulate, substream
from .simulation import check_mc_counts

__all__ = [
    "RunConfig",
    "RunResult",
    "CellAnalysis",
    "LoadError",
    "FlagError",
    "InfeasibleError",
    "load_csv",
    "tau_grid",
    "run_estimation",
    "report_dict",
    "main",
]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4

REPORT_SCHEMA = "qdid.report.v1"
SUMMARY_TAUS = (0.1, 0.5, 0.9)


class LoadError(ValueError):
    """Input file cannot be parsed into a dataset."""


class FlagError(ValueError):
    """A command-line flag has a value the run cannot use; the message names it."""


class InfeasibleError(RuntimeError):
    """No covariate cell satisfies the minimum size requirement."""


def tau_grid(tau_min: float, tau_max: float, tau_step: float) -> np.ndarray:
    """Evenly spaced quantile grid, rounded to sidestep float drift."""
    if not (0.0 < tau_min <= tau_max < 1.0 and 0.0 < tau_step < np.inf):
        raise ValueError("grid must satisfy 0 < tau_min <= tau_max < 1, finite step > 0")
    count = int(np.floor((tau_max - tau_min) / tau_step + 1e-9)) + 1
    # a step below the rounding leaves repeated points, which checked_grid rejects
    return checked_grid(np.round(tau_min + tau_step * np.arange(count), 12))


@dataclass(frozen=True)
class RunConfig:
    input_path: str
    mode: str = "panel"
    unit_col: str = "unit"
    period_col: str = "period"
    outcome_col: str = "y"
    treatment_col: str = "d"
    covariate_cols: tuple[str, ...] = ()
    tau_min: float = 0.05
    tau_max: float = 0.95
    tau_step: float = 0.01
    bootstrap: int = 1000
    alpha: float = 0.05
    seed: int = 0
    scheme: str = "multinomial"
    estimators: tuple[str, ...] = ("ddid",)
    unconditional: bool = False
    min_cell_size: int = DEFAULT_MIN_CELL_SIZE
    output_format: str = "both"

    def __post_init__(self):
        if self.mode not in ("panel", "rcs"):
            raise FlagError(f"--mode: must be panel or rcs, not {self.mode!r}")
        if self.output_format not in ("json", "csv", "both"):
            raise FlagError(f"--format: must be json, csv or both, not {self.output_format!r}")
        _check_draw_flags(self.estimators, self.bootstrap, self.alpha, self.seed, self.scheme)
        for name in self.covariate_cols:
            if self.covariate_cols.count(name) > 1:
                raise FlagError(f"--covariates: {name!r} is named more than once")
        _flag_value("--min-cell-size", lambda: check_min_cell_size(self.min_cell_size))
        grid = _flag_value(
            "--tau-min/--tau-max/--tau-step",
            lambda: tau_grid(self.tau_min, self.tau_max, self.tau_step),
        )
        _check_draws_fit(self.estimators, self.bootstrap, grid.size)


def _flag_value(flags: str, build, errors=(ValueError, OverflowError, MemoryError)):
    """``build()``, with an error of ``errors`` it raises reported as a bad
    value of ``flags``: by default a ValueError, an OverflowError or a
    MemoryError (a value asking for an array that cannot be allocated)."""
    try:
        return build()
    except errors as exc:
        raise FlagError(f"{flags}: {exc}") from None


def _check_draw_flags(estimators, bootstrap: int, alpha: float, seed: int, scheme: str, mc=False):
    """Each draw flag checked alone, before any work, by the library rule that
    owns it, its error headed by the flag; --bootstrap is ``run_mc``'s count with
    ``mc``, else a test's (``BootstrapConfig``'s, and ``_check_draw_count``)."""
    _flag_value("--estimators", lambda: checked_estimators(estimators))
    _flag_value("--bootstrap", lambda: check_mc_counts(bootstrap_iterations=bootstrap) if mc
                else _check_draw_count(BootstrapConfig(iterations=bootstrap).iterations))
    _flag_value("--alpha", lambda: check_test_settings(alpha=alpha))
    _flag_value("--seed", lambda: check_test_settings(seed=seed))
    _flag_value("--scheme", lambda: check_test_settings(scheme=scheme))


def _check_draws_fit(estimators, bootstrap: int, n_taus: int) -> None:
    """Allocate and drop the (B x grid) draws of every estimator of one cell,
    so that a --bootstrap whose draws cannot be held fails before any work."""
    _flag_value("--bootstrap", lambda: np.empty((len(estimators), bootstrap, n_taus)))


def _design(dgp: int, n: float, te: float, rho: float) -> DgpSpec:
    """The design of one --dgp, --n, --te and --rho value. Each flag is
    checked alone, by the ``DgpSpec`` of its value and valid values for the
    rest, so that an error names the one flag at fault; --n must also leave
    room for its simulated panel's unit ids and outcomes (3 x 2n floats)."""
    _flag_value("--dgp", lambda: DgpSpec(dgp, 1))
    n = int(n) if float(n).is_integer() else n  # a count read as a number
    _flag_value("--n", lambda: np.empty((3, 2 * DgpSpec(dgp, n).n_per_arm)))
    _flag_value("--te", lambda: DgpSpec(dgp, 1, te))
    return _flag_value("--rho", lambda: DgpSpec(dgp, n, te, rho))


def _parse_float(token: str, line: int, col: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise LoadError(f"line {line}: cannot parse {col}={token!r} as a number") from None
    if not np.isfinite(value):
        raise LoadError(f"line {line}: non-finite {col}={token!r}")
    return value


def _parse_binary(token: str, line: int, col: str) -> int:
    if token.strip() in ("0", "1"):
        return int(token.strip())
    raise LoadError(f"line {line}: {col}={token!r} must be 0 or 1")


def _parse_code(token: str, line: int, col: str) -> int:
    try:
        code = int(token.strip())
    except ValueError:
        raise LoadError(
            f"line {line}: covariate {col}={token!r} must be an integer code"
        ) from None
    if not -(2**63) <= code < 2**63:
        raise LoadError(f"line {line}: covariate {col}={token!r} is outside the 64-bit range")
    return code


def _parse_unit(token: str, line: int, col: str) -> str:
    unit = token.strip()
    if "\x00" in unit:  # numpy str arrays drop trailing NULs, merging "a\x00" into "a"
        raise LoadError(f"line {line}: {col}={token!r} contains a NUL character")
    return unit


def _coded(tokens: list[str], convert) -> np.ndarray:
    """Integer column: each distinct token is stripped and converted once."""
    codes = {t: convert(t.strip()) for t in set(tokens)}
    return np.fromiter(map(codes.__getitem__, tokens), int, len(tokens))


_UNIT_BYTES = 16  # bytes a unit id may take in the bulk read; a longer one falls back
_PLAIN_BYTES = bytes([9, 10, 11, 12, 13, *range(32, 127)])
_BLOCK_ROWS = 65536  # file lines per np.loadtxt call of the bulk read


def load_csv(config: RunConfig) -> PanelData | RcsData:
    """Read a long-format CSV into a dataset; errors carry file line numbers.

    A well-formed file, a leading byte-order mark allowed, is read in bulk:
    one C-parsed ``np.loadtxt`` call per block of ``_BLOCK_ROWS`` lines,
    written into columns allocated once, so the read holds one block's table
    at a time. A file on which any block could part from the row reader, and
    any error that names a file line, goes to the row reader, which accepts
    the file or raises the error of its first bad row. The result is the
    same either way.
    """
    try:
        handle = open(config.input_path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise LoadError(f"cannot open {config.input_path}: {exc}") from None
    try:
        with handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise LoadError("empty file") from None
            header = [h.strip() for h in header]
            required = [config.period_col, config.outcome_col, config.treatment_col]
            required += list(config.covariate_cols)
            has_unit = config.unit_col in header
            if config.mode == "panel" and not has_unit:
                required = [config.unit_col] + required
            missing = [c for c in required if c not in header]
            if missing:
                raise LoadError(f"missing columns: {', '.join(missing)}")
            pos = {c: header.index(c) for c in header}

            names = [config.outcome_col, config.period_col, config.treatment_col]
            names += list(config.covariate_cols) + ([config.unit_col] if has_unit else [])
            used = [pos[c] for c in names]
            if handle.seekable():  # a pipe is read once, by the row reader
                columns = _bulk_columns(handle, config.input_path, len(header), used, has_unit)
                dataset = None if columns is None else _dataset(config, *columns, line_of=None)
                if dataset is not None:
                    return dataset
                handle.seek(0)
                reader = csv.reader(handle)
                next(reader)
            columns, line_of = _row_columns(reader, len(header), used, names, has_unit)
    except UnicodeDecodeError as exc:
        raise LoadError(f"cannot read {config.input_path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise LoadError(f"cannot read {config.input_path}: {exc}") from None
    return _dataset(config, *columns, line_of=line_of)


def _plain_ascii(path: str) -> tuple[int, bool] | None:
    """(an upper bound on the file's lines, whether it holds a quote) when
    every byte of the file after a leading UTF-8 byte-order mark, which the
    text handle drops, is printable ASCII or ASCII whitespace; else None.

    Only then do the C parser's fields agree with the row reader's: a bytes
    field drops trailing NULs, and the C number parser also skips \\x1c-\\x1f
    and non-ASCII spaces, which ``float`` rejects. The bound counts every
    line end the text handle splits at: \\n, \\r and \\r\\n (twice when a
    read splits it)."""
    lines, quoted = 1, False
    with open(path, "rb") as raw:
        if raw.read(3) != b"\xef\xbb\xbf":
            raw.seek(0)
        for chunk in iter(lambda: raw.read(1 << 20), b""):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
            lines += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == 10)  # \n
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            quoted = quoted or b'"' in chunk
    return lines, quoted


def _bulk_columns(handle, path: str, width: int, used: list[int], has_unit: bool):
    """(y, period, d, covariates, units) of every data row after the header,
    from ``np.loadtxt`` calls over blocks of ``_BLOCK_ROWS`` lines with a
    field per header column; None when a field of any block might read
    differently from the row reader.

    ``used`` gives the positions of y, period, d, the covariates and, with
    ``has_unit``, the unit. Flags are read as text and taken only as the
    exact tokens 0 and 1, since an integer read would accept +1 and 01; an
    integer covariate read is exact on what it accepts (``int`` of the
    stripped token). Each block is written into columns sized by the line
    count and trimmed at the end, ``d`` as the bool flags the dataset keeps;
    its unit ids are kept at the block's own width until all are widened
    into one str array. A block must not end inside a quoted field, so a
    file that holds a quote is read as one block."""
    scan = None if len(set(used)) < len(used) else _plain_ascii(path)
    if scan is None:
        return None  # one column in two roles, or bytes the C parser reads otherwise
    lines, quoted = scan
    n_codes = len(used) - 3 - has_unit
    roles = ["y", "period", "d"] + [f"x{j}" for j in range(n_codes)] + ["unit"] * has_unit
    kinds = {"y": "f8", "period": "S2", "d": "S2", "unit": f"S{_UNIT_BYTES}"}
    fields = [(f"_{at}", "S1") for at in range(width)]  # unused, but read: a ragged row fails
    for role, at in zip(roles, used):
        fields[at] = (role, kinds.get(role, int))

    size = lines - 1  # the header takes a line
    y, period, d = np.empty(size), np.empty(size, dtype=int), np.empty(size, dtype=bool)
    covariates = np.empty((size, n_codes), dtype=int, order="F")  # contiguous sort keys
    unit_blocks = []
    block_lines = lines if quoted else _BLOCK_ROWS
    n = 0
    with warnings.catch_warnings():
        # an int read of "1.0" before numpy 2; a block of blank lines holds no data
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        while (first := next(handle, None)) is not None:
            block = itertools.chain((first,), itertools.islice(handle, block_lines - 1))
            try:
                table = np.loadtxt(
                    block, dtype=fields, delimiter=",", comments=None, quotechar='"', ndmin=1
                )
            except (ValueError, OverflowError, Warning):
                return None
            rows = slice(n, n + len(table))
            y[rows] = table["y"]
            for column, role in ((period, "period"), (d, "d")):
                one = table[role] == b"1"
                if not np.all(one | (table[role] == b"0")):
                    return None
                column[rows] = one
            for j in range(n_codes):
                covariates[rows, j] = table[f"x{j}"]
            if has_unit:
                if np.any(np.char.str_len(table["unit"]) == _UNIT_BYTES):
                    return None  # may have been cut to the field width
                unit_blocks.append(_stripped(table["unit"]))
            n = rows.stop
            del table  # before the next block is read, or the ids widen
    if not n:
        return None  # the row reader names the missing rows
    units = _widened(unit_blocks, n) if has_unit else None
    return y[:n], period[:n], d[:n], covariates[:n], units


def _stripped(ids: np.ndarray) -> np.ndarray:
    """Bytes ``ids`` stripped of surrounding whitespace, at the byte width of
    the longest."""
    ids = np.char.strip(ids)
    return ids.astype(f"S{np.char.str_len(ids).max(initial=1)}")


def _widened(blocks: list[np.ndarray], n: int) -> np.ndarray:
    """The ``n`` plain ASCII ids of ``blocks``, bytes arrays each at its own
    width, as one str array as wide as the widest. Each byte is its own code
    point, so a block is widened through a view of the str array's codes."""
    w = max(block.itemsize for block in blocks)
    units = np.zeros(n, dtype=f"U{w}")
    codes, at = units.view(np.uint32).reshape(n, w), 0
    for block in blocks:
        codes[at : at + len(block), : block.itemsize] = block.view(np.uint8).reshape(
            len(block), block.itemsize
        )
        at += len(block)
    return units


def _row_columns(reader, width: int, used: list[int], names: list[str], has_unit: bool):
    """(y, period, d, covariates, units) and the data-row-to-file-line map,
    read row by row.

    Fields are gathered column by column and converted in one pass each.
    Only when a conversion fails are the rows walked with the scalar parsers,
    which raise the error of the first bad row, as a row-by-row read would.
    """
    columns: list[list[str]] = [[] for _ in names]
    fill = list(zip([col.append for col in columns], used))
    blanks: list[int] = []  # data rows read before each blank line
    bad_width = None
    for line, row in enumerate(reader, 2):
        if len(row) != width:
            if not row:
                blanks.append(len(columns[0]))
                continue
            bad_width = LoadError(f"line {line}: expected {width} fields, got {len(row)}")
            break
        for append, p in fill:
            append(row[p])

    n = len(columns[0])
    n_codes = len(names) - 3 - has_unit

    def line_of(k: int) -> int:
        return k + 2 + int(np.searchsorted(blanks, k, side="right"))

    try:
        y = np.fromiter(map(float, columns[0]), float, n)
        if not np.all(np.isfinite(y)):
            raise ValueError
        period, d = (_coded(tokens, ("0", "1").index) for tokens in columns[1:3])
        covariates = np.empty((n, n_codes), dtype=int, order="F")
        for j, tokens in enumerate(columns[3 : 3 + n_codes]):
            covariates[:, j] = _coded(tokens, int)
        if has_unit and any("\x00" in unit for unit in columns[-1]):
            raise ValueError
    except (ValueError, OverflowError):
        parsers = [_parse_float, _parse_binary, _parse_binary] + [_parse_code] * n_codes
        parsers += [_parse_unit] * has_unit
        for k, fields in enumerate(zip(*columns)):
            for parse, token, name in zip(parsers, fields, names):
                parse(token, line_of(k), name)
        raise
    if bad_width is not None:
        raise bad_width
    if not n:
        raise LoadError("no data rows")
    units = np.array([u.strip() for u in columns[-1]]) if has_unit else None
    return (y, period, d, covariates, units), line_of


def _dataset(config: RunConfig, y, period, d, covariates, units, line_of):
    """The dataset of the parsed columns, checked as one long table by the
    ``RcsData`` constructor, or None when it refuses a row and ``line_of`` is
    None (a bulk read, whose blocks skip blank lines without counting them)."""
    n = len(y)
    try:
        table = RcsData(y, period, d.astype(bool, copy=False), covariates, unit_ids=units)
    except ValueError:
        if line_of is None:
            return None
        # a row read refused every other rule as it parsed
        k = _repeated_rows(units, period).argmax()
        raise LoadError(
            f"line {line_of(k)}: duplicate (unit={units[k]}, period={period[k]}) row"
        ) from None
    if config.mode == "rcs":
        return table

    ids, first, unit = np.unique(units, return_index=True, return_inverse=True)
    rows = np.full((ids.size, 2), -1)
    rows[unit, period] = np.arange(n)
    order = np.argsort(first)  # units in first-appearance order, as weights follow it
    ids, pre, post = ids[order], rows[order, 0], rows[order, 1]
    one_period = (pre < 0) | (post < 0)
    differ = ~one_period & np.any(covariates[pre] != covariates[post], axis=1)
    treated_before = ~one_period & (d[pre] > d[post])
    bad = np.flatnonzero(one_period | differ | treated_before)
    if bad.size:
        j = bad[0]
        if one_period[j]:
            raise LoadError(
                f"unit {ids[j]}: panel mode requires exactly one row per period "
                f"(found periods {[0] if post[j] < 0 else [1]})"
            )
        if differ[j]:
            if line_of is None:
                return None
            raise LoadError(
                f"unit {ids[j]}: covariates differ across periods "
                f"(lines {line_of(pre[j])} and {line_of(post[j])})"
            )
        raise LoadError(
            f"unit {ids[j]}: pre-period treatment flag {int(d[pre[j]])} inconsistent with "
            f"post-period {int(d[post[j]])} (no one is treated before the policy)"
        )
    return PanelData(
        unit_ids=ids,
        y_pre=y[pre],
        y_post=y[post],
        treated=d[post].astype(bool),
        covariates=covariates[post],
    )


@dataclass(frozen=True)
class CellAnalysis:
    cell: Cell
    reports: dict[str, InferenceReport] | None


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    taus: np.ndarray
    n_total: int
    cells: list[CellAnalysis]
    unconditional: InferenceReport | None


def run_estimation(config: RunConfig) -> RunResult:
    """Full pipeline: load (which checks every input rule once, naming the
    file line), partition into cells, analyze each.

    The cells hold copies of their samples, so the dataset is dropped before
    the analysis: the bootstrap workers fork with the cells, not the rows."""
    dataset = load_csv(config)
    n_total = dataset.n_total
    cells = build_cells(dataset, config.min_cell_size)
    del dataset
    if not any(c.viable for c in cells):
        raise InfeasibleError(
            "no viable covariate cells: "
            + "; ".join(f"cell {c.label()}: {c.reason}" for c in cells)
        )
    grid = tau_grid(config.tau_min, config.tau_max, config.tau_step)
    boot = BootstrapConfig(
        iterations=config.bootstrap,
        alpha=config.alpha,
        seed=config.seed,
        scheme=config.scheme,
    )
    viable = [(index, cell) for index, cell in enumerate(cells) if cell.viable]
    try:
        reports, unconditional = analyze_cells(
            viable, grid, boot, config.estimators, n_total, config.unconditional
        )
    except DrawStoreError as exc:
        raise FlagError(f"--bootstrap {boot.iterations}: {exc}") from None
    reports = iter(reports)
    analyses = [CellAnalysis(cell, next(reports) if cell.viable else None) for cell in cells]
    return RunResult(config, grid, n_total, analyses, unconditional)


def _report_block(report: InferenceReport) -> dict:
    return {
        "taus": [float(t) for t in report.process.taus],
        "estimate": [float(v) for v in report.process.values],
        "lower": [float(v) for v in report.lower],
        "upper": [float(v) for v in report.upper],
        "pointwise_se": [float(v) for v in report.pointwise_se],
        "ks_statistic": float(report.ks_statistic),
        "critical_value": float(report.critical_value),
        "reject": bool(report.reject),
        "n_control": int(report.process.n_control),
        "n_treated": int(report.process.n_treated),
    }


def report_dict(result: RunResult) -> dict:
    cfg = asdict(result.config)
    cfg["covariate_cols"] = list(result.config.covariate_cols)
    cfg["estimators"] = list(result.config.estimators)
    cells = []
    for analysis in result.cells:
        entry = {
            "code": list(analysis.cell.code),
            "n_control": analysis.cell.n_control,
            "n_treated": analysis.cell.n_treated,
            "viable": analysis.cell.viable,
            "reason": analysis.cell.reason,
            "estimators": None,
        }
        if analysis.reports is not None:
            entry["estimators"] = {
                est: _report_block(rep) for est, rep in analysis.reports.items()
            }
        cells.append(entry)
    return {
        "schema": REPORT_SCHEMA,
        "config": cfg,
        "taus": [float(t) for t in result.taus],
        "n_total": result.n_total,
        "cells": cells,
        "unconditional": (
            _report_block(result.unconditional)
            if result.unconditional is not None
            else None
        ),
    }


def _fnum(x) -> str:
    return repr(float(x))


def write_report(result: RunResult, out_prefix: str) -> list[str]:
    """Write the JSON report and/or its two CSV views, read from one
    ``report_dict``: a bands file (one row per cell, estimator and tau) and a
    summary (one row per cell and estimator; a non-viable cell gets one)."""
    report = report_dict(result)
    written = []
    fmt = result.config.output_format
    if fmt in ("json", "both"):
        path = f"{out_prefix}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        written.append(path)
    if fmt not in ("csv", "both"):
        return written
    covariates = report["config"]["covariate_cols"]
    cells = [
        (["|".join(map(str, entry["code"])) or "all"] + [str(c) for c in entry["code"]], entry)
        for entry in report["cells"]
    ]
    if report["unconditional"] is not None:
        unconditional = {"estimators": {"ddid": report["unconditional"]}}
        cells.append((["unconditional"] + ["*"] * len(covariates), unconditional))
    band_columns = ("taus", "estimate", "lower", "upper", "pointwise_se")
    paths = [f"{out_prefix}.bands.csv", f"{out_prefix}.summary.csv"]
    with (
        open(paths[0], "w", newline="", encoding="utf-8") as bands_file,
        open(paths[1], "w", newline="", encoding="utf-8") as summary_file,
    ):
        bands, summary = csv.writer(bands_file), csv.writer(summary_file)
        bands.writerow(
            ["cell", *covariates, "estimator", "tau", "estimate", "lower", "upper", "pointwise_se"]
        )
        summary.writerow(
            ["cell", *covariates, "estimator", "n_control", "n_treated", "viable", "reason"]
            + ["ks_statistic", "critical_value", "reject"]
            + [f"{stat}_{t}" for t in SUMMARY_TAUS for stat in ("estimate", "se")]
        )
        for columns, entry in cells:
            if entry["estimators"] is None:
                summary.writerow(
                    columns
                    + ["", entry["n_control"], entry["n_treated"], "false", entry["reason"]]
                    + [""] * (3 + 2 * len(SUMMARY_TAUS))
                )
                continue
            for est, block in entry["estimators"].items():
                for values in zip(*(block[key] for key in band_columns)):
                    bands.writerow(columns + [est] + [_fnum(v) for v in values])
                stats = []
                for t in SUMMARY_TAUS:  # left empty where t is not a grid point
                    if t in block["taus"]:
                        j = block["taus"].index(t)
                        stats += [_fnum(block["estimate"][j]), _fnum(block["pointwise_se"][j])]
                    else:
                        stats += ["", ""]
                summary.writerow(
                    columns
                    + [est, block["n_control"], block["n_treated"], "true", ""]
                    + [_fnum(block["ks_statistic"]), _fnum(block["critical_value"])]
                    + ["true" if block["reject"] else "false"]
                    + stats
                )
    return written + paths


def write_mc_outputs(
    results: list[tuple[float, McResult]], param_name: str, out_prefix: str
) -> list[str]:
    """Write the mc JSON payload and its CSV table (statistic, param, one
    column per estimator and tau), read from the payload."""
    first = results[0][1]
    payload = {
        "schema": "qdid.mc.v1",
        "spec": {
            "variant": first.spec.variant,
            "te": first.spec.te,
            "theta": THETA,
        },
        "reps": first.reps,
        "taus": list(first.taus),
        "estimators": list(first.estimators),
        "bootstrap_iterations": first.bootstrap_iterations,
        "alpha": first.alpha,
        "scheme": first.scheme,
        "seed": first.seed,
        "results": [
            {
                param_name: float(param),
                "n_per_arm": res.spec.n_per_arm,
                "bias": {est: [float(v) for v in res.bias[est]] for est in res.estimators},
                "rmse": {est: [float(v) for v in res.rmse[est]] for est in res.estimators},
                "rejection": (
                    {
                        est: [float(v) for v in res.rejection[est]]
                        for est in res.estimators
                    }
                    if res.rejection is not None
                    else None
                ),
            }
            for param, res in results
        ],
    }
    estimators, designs = payload["estimators"], payload["results"]
    rows = [
        ["statistic", param_name]
        + [f"{est}_{tau}" for est in estimators for tau in payload["taus"]]
    ]
    stats = [("bias", "bias"), ("rmse", "rmse")]
    if designs[0]["rejection"] is not None:
        stats.append(("rej_prob", "rejection"))
    for label, key in stats:
        for design in designs:
            param = design[param_name]
            rows.append(
                [label, _fnum(param) if param_name == "rho_bar" else str(int(param))]
                + [_fnum(v) for est in estimators for v in design[key][est]]
            )
    csv_path = f"{out_prefix}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    json_path = f"{out_prefix}.json"
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return [csv_path, json_path]


def _names(text: str) -> tuple[str, ...]:
    """Comma-separated names, blanks dropped."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("expected comma-separated numbers")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdid",
        description="Quantile treatment effects on the treated for two-period designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser(
        "estimate",
        help="estimate effect processes from a CSV file",
        argument_default=argparse.SUPPRESS,  # an absent flag takes the RunConfig default
    )
    est.add_argument("--input", "-i", dest="input_path", required=True)
    est.add_argument("--mode", help="panel or rcs")
    est.add_argument("--unit", dest="unit_col", help="unit id column")
    est.add_argument("--period", dest="period_col", help="period column (0=pre, 1=post)")
    est.add_argument("--outcome", dest="outcome_col", help="outcome column")
    est.add_argument("--treatment", dest="treatment_col", help="treatment group column (0/1)")
    est.add_argument(
        "--covariates",
        dest="covariate_cols",
        type=_names,
        help="comma-separated covariate columns (integer-coded)",
    )
    est.add_argument("--tau-min", type=float)
    est.add_argument("--tau-max", type=float)
    est.add_argument("--tau-step", type=float)
    est.add_argument("--bootstrap", "-b", type=int)
    est.add_argument("--alpha", type=float)
    est.add_argument("--seed", type=int)
    est.add_argument("--scheme", help="bootstrap weights: multinomial or dirichlet")
    est.add_argument("--estimators", type=_names, help="comma-separated: ddid,cic")
    est.add_argument("--unconditional", action="store_true")
    est.add_argument("--min-cell-size", type=int)
    est.add_argument("--format", dest="output_format", help="json, csv or both")
    est.add_argument("--out", "-o", required=True, help="output path prefix")

    mc = sub.add_parser("mc", help="Monte Carlo performance tables")
    mc.add_argument("--dgp", type=int, required=True, help="1 or 2")
    mc.add_argument("--n", default="200", help="comma-separated whole per-arm sizes")
    mc.add_argument("--te", type=float, default=0.0)
    mc.add_argument("--rho", default="0", help="comma-separated rho_bar values (dgp 2)")
    mc.add_argument("--reps", type=int, default=1000)
    mc.add_argument("--taus", default=",".join(map(str, DEFAULT_MC_TAUS)))
    mc.add_argument("--bootstrap", "-b", type=int, default=1000)
    mc.add_argument("--alpha", type=float, default=0.05)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--scheme", default="multinomial", help="multinomial or dirichlet")
    mc.add_argument("--estimators", type=_names, default=",".join(ESTIMATORS))
    mc.add_argument("--out", "-o", required=True, help="output path prefix")

    sim = sub.add_parser("simulate", help="write one simulated draw as a long CSV")
    sim.add_argument("--dgp", type=int, required=True, help="1 or 2")
    sim.add_argument("--n", type=float, default=200, help="whole per-arm size")
    sim.add_argument("--te", type=float, default=0.0)
    sim.add_argument("--rho", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", "-o", required=True)
    return parser


def _warn_if_critical_value_is_largest_draw(bootstrap: int, alpha: float) -> None:
    """Warn when the (1 - alpha) quantile of the draws is always the largest
    draw: the share (B - 1) / B of the others falls short of 1 - alpha, that
    is, there are fewer than 1/alpha draws."""
    if bootstrap > 0 and (bootstrap - 1) / bootstrap < 1.0 - alpha:
        print(
            f"warning: --bootstrap {bootstrap} is below 1/--alpha (--alpha {alpha}), "
            "so every critical value is the largest bootstrap draw",
            file=sys.stderr,
        )


def _cmd_estimate(args):
    flags = dict(vars(args))
    del flags["command"]
    out = flags.pop("out")
    config = RunConfig(**flags)
    _warn_if_critical_value_is_largest_draw(config.bootstrap, config.alpha)
    result = run_estimation(config)
    return lambda: write_report(result, out)


def _cmd_mc(args):
    ns = _flag_value("--n", lambda: _float_list(args.n))
    rhos = _flag_value("--rho", lambda: _float_list(args.rho))
    designs = [_design(args.dgp, n, args.te, rho) for n in ns for rho in rhos]
    # a table varies n (dgp 1) or rho_bar (dgp 2); the other flag takes one value
    param_name, other, others = ("n", "--rho", rhos) if args.dgp == 1 else ("rho_bar", "--n", ns)
    if len(others) != 1:
        raise FlagError(f"{other}: dgp {args.dgp} tables vary {param_name}; pass a single {other}")
    _check_draw_flags(args.estimators, args.bootstrap, args.alpha, args.seed, args.scheme, mc=True)
    _flag_value("--reps", lambda: check_mc_counts(reps=args.reps))
    taus = _flag_value("--taus", lambda: checked_grid(_float_list(args.taus)))
    _check_draws_fit(args.estimators, args.bootstrap, len(taus))
    _warn_if_critical_value_is_largest_draw(args.bootstrap, args.alpha)
    results = [
        (
            spec.n_per_arm if args.dgp == 1 else spec.rho_bar,
            run_mc(
                spec,
                args.reps,
                taus,
                args.estimators,
                bootstrap_iterations=args.bootstrap,
                alpha=args.alpha,
                scheme=args.scheme,
                seed=args.seed,
            ),
        )
        for spec in designs
    ]
    return lambda: write_mc_outputs(results, param_name, args.out)


def _cmd_simulate(args):
    spec = _design(args.dgp, args.n, args.te, args.rho)
    _flag_value("--seed", lambda: check_test_settings(seed=args.seed))
    data = simulate(spec, substream(args.seed, 0))

    def write():
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["unit", "period", "y", "d"])
            for i in range(data.n_units):
                d = int(data.treated[i])
                writer.writerow([int(data.unit_ids[i]), 0, _fnum(data.y_pre[i]), d])
                writer.writerow([int(data.unit_ids[i]), 1, _fnum(data.y_post[i]), d])
        return [args.out]

    return write


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        command = {"estimate": _cmd_estimate, "mc": _cmd_mc}.get(args.command, _cmd_simulate)
        write = command(args)  # every check and all the work; then its outputs
        for path in _flag_value("--out", write, OSError):
            print(f"wrote {path}")
        sys.stdout.flush()  # a reader that is gone shows here, not in the exit flush
        return EXIT_OK
    except (LoadError, FlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BrokenPipeError:  # stdout's reader is gone; every file is written before "wrote"
        null = os.open(os.devnull, os.O_WRONLY)  # so that the flush at exit fails no more
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_OK
    except Exception:
        import traceback  # only on this path, so start-up imports stay as they are
        traceback.print_exc()
        print("internal error: an unexpected exception (a bug, not bad input)", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
