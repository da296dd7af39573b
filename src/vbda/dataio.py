"""CSV ingestion and fit-state persistence.

CSV files carry a mandatory header row and an optional 0/1 label column.
A cell is accepted exactly when it is ASCII text with no underscore and
Python ``float()`` parses it (features must also be finite), so a mistyped
``1_0`` is an error, not ten.  The body is read line by line from the open
file into one numpy pass; a file that pass cannot take exactly, or that has a
bad cell, is read again by the row-by-row fallback, which is exact and names
the offending row and column (header is row 1).  A stream that cannot seek
goes to the fallback at once.

Fit states persist as schema-versioned JSON with full float precision
(repr round-trip), so save -> load -> save is byte-identical.  A state is
one line of compact JSON with sorted keys, written one value at a time by
the C encoder; ``load_state`` reads the earlier indented layout too.
Reports are indented JSON (``write_json``) and TSV (``write_tsv``), each
built in memory and written in one call.
"""

from __future__ import annotations

import csv
import itertools
import json
from contextlib import contextmanager

import numpy as np

from .core import (
    DataValidationError,
    Dataset,
    Hyperparameters,
    VariableStats,
    _all_finite,
    _column_names,
    _first_duplicate,
)
from .rcvb import FitState, Prediction, select_variables

__all__ = [
    "StateVersionError",
    "load_csv",
    "save_csv",
    "save_state",
    "load_state",
    "align_to_columns",
]

SCHEMA_VERSION = 1


class StateVersionError(DataValidationError):
    """Persisted fit state was written under an incompatible schema version."""


@contextmanager
def _read_utf8(path, encoding="utf-8", newline=None):
    """Open ``path`` as text; a byte that is not UTF-8 raises DataValidationError."""
    with open(path, encoding=encoding, newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise DataValidationError(f"{path}: not UTF-8 text (byte {byte:#04x})") from None


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Read a header-first CSV into a Dataset, optionally peeling off a 0/1
    label column by name.  Errors name the offending row and column.

    A cell is accepted exactly when it is ASCII text with no underscore and
    Python ``float()`` parses it.  A file that can seek has its body parsed
    in one ``np.loadtxt`` pass over its lines, which rounds each cell as
    ``float()`` does and accepts a subset of what it accepts (that subset
    holds non-ASCII text such as a no-break space, so no other body reaches
    it).  Whenever that pass fails or its result is not exactly the rows,
    width, finite values and 0/1 labels the file must have, and at once for a
    stream that cannot seek, such as a pipe, the body below the header is
    parsed row by row with ``csv.reader`` and ``float()``; that exact fallback
    accepts what only ``float()`` accepts and names the first bad cell.  The
    file must be UTF-8 text, decoded as it is parsed, so a bad cell is named
    before a non-UTF-8 byte further on; a UTF-8 byte-order mark is ignored.
    """
    with _read_utf8(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file, expected a header row") from None
        dup = _first_duplicate(header)
        if dup is not None:
            raise DataValidationError(f"{path}: duplicate header name {dup!r}")
        if label_column is not None and label_column not in header:
            raise DataValidationError(
                f"{path}: label column {label_column!r} not found in header"
            )
        label_idx = header.index(label_column) if label_column is not None else None
        X = None
        if fh.seekable():
            X = _parse_body(fh, len(header), label_idx)
            if X is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)  # the header, read again
        if X is None:
            X = _parse_rows(path, header, label_idx, reader)
    columns = tuple(name for i, name in enumerate(header) if i != label_idx)
    if not columns:
        raise DataValidationError(f"{path}: no feature columns besides the label")
    if label_idx is None:
        return Dataset(X, columns=columns)
    y = X[:, label_idx].astype(int)
    return Dataset(np.delete(X, label_idx, axis=1), y, columns=columns)


def _parse_body(fh, width: int, label_idx) -> np.ndarray | None:
    """The rest of ``fh``, one line at a time, in one ``np.loadtxt`` pass, or
    None unless every line is ASCII with no underscore and not blank (which
    ``loadtxt`` would skip), and the pass gives one row of ``width`` finite
    values, with a 0/1 label, per line.  ``loadtxt`` passes on the
    ``ValueError`` that ``lines`` raises for a line, and a non-UTF-8 byte's
    ``UnicodeDecodeError``; it would warn on an empty body, so that is
    refused first."""
    first = fh.readline()
    if not first:
        return None
    count = 0

    def lines():
        nonlocal count
        for count, line in enumerate(itertools.chain((first,), fh), start=1):
            if not _plain(line) or line.isspace():
                raise ValueError("a line for the row-by-row fallback")
            yield line

    try:
        X = np.loadtxt(lines(), delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if X.shape != (count, width) or not _all_finite(X):
        return None
    if label_idx is not None and not np.isin(X[:, label_idx], (0.0, 1.0)).all():
        return None
    return X


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII with no underscore: the only characters a
    cell may hold, though ``float()`` takes more."""
    return text.isascii() and "_" not in text


def _parse_rows(path, header, label_idx, reader) -> np.ndarray:
    """The exact fallback: each row ``reader`` gives below the header is
    converted with one numpy cast, which calls ``float()`` per cell; a row
    with a non-ASCII character or an underscore, or that the cast or the
    finite/label checks reject, is rescanned cell by cell to name its first
    bad cell (header is row 1)."""
    rows: list[np.ndarray] = []
    for row_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataValidationError(
                f"{path}: row {row_no}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            values = np.array(row, dtype=np.float64) if _plain("".join(row)) else None
        except ValueError:
            values = None
        if (
            values is None
            or not np.isfinite(values).all()
            or (label_idx is not None and values[label_idx] not in (0.0, 1.0))
        ):
            values = np.array(_scan_row(path, header, row_no, row, label_idx))
        rows.append(values)
    if not rows:
        raise DataValidationError(f"{path}: no data rows below the header")
    return np.stack(rows)


def _scan_row(path, header, row_no, row, label_idx) -> list[float]:
    """Parse one CSV row cell by cell with ``float()``, left to right, and
    raise for the first bad cell (blank, non-ASCII, holding an underscore,
    unparsable, non-finite feature, or a label other than 0/1).  Returns the
    row's values if every cell passes."""
    values = []
    for col_idx, cell in enumerate(row):
        where = f"{path}: row {row_no}, column {header[col_idx]!r}"
        if cell.strip() == "":
            raise DataValidationError(f"{where}: missing value")
        try:
            if not _plain(cell):
                raise ValueError(cell)
            value = float(cell)
        except ValueError:
            raise DataValidationError(
                f"{where}: could not parse {cell!r} as a number"
            ) from None
        if col_idx == label_idx:
            if value not in (0.0, 1.0):
                raise DataValidationError(
                    f"{where}: label must be 0 or 1, got {cell!r}"
                )
        elif not np.isfinite(value):
            raise DataValidationError(f"{where}: non-finite value {cell!r}")
        values.append(value)
    return values


def save_csv(d: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset back to CSV (floats at full repr precision); labels,
    if any, go first, in a column named ``label_column``, which must not
    be one of the data's column names."""
    columns = _column_names(d.columns, d.p)
    if d.y is not None and label_column in columns:
        raise DataValidationError(
            f"label column {label_column!r} is also the name of a data column"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if d.y is None:
            writer.writerow(columns)
            for row in d.X:
                writer.writerow([repr(float(v)) for v in row])
        else:
            writer.writerow((label_column,) + tuple(columns))
            for label, row in zip(d.y, d.X):
                writer.writerow([int(label)] + [repr(float(v)) for v in row])


_STATS_ARRAYS = ("mu_hat", "mu1_hat", "mu0_hat", "var_total", "var_pooled", "var1", "var0")
_STATS_VARIANCES = ("var_total", "var_pooled", "var1", "var0")


def _stats_to_json(s: VariableStats) -> dict:
    """The "stats" object of a saved state, its arrays left for ``_write_json``
    to turn into lists."""
    doc = {key: getattr(s, key) for key in (*_STATS_ARRAYS, "floored")}
    return {**doc, "n": s.n, "n1": s.n1, "n0": s.n0}


def _typed(value, name: str, *types):
    """``value`` if its type is exactly one of ``types``, so that a bool is
    not taken for an int and a string not for a number."""
    if type(value) not in types:
        raise ValueError(f"{name} must be {' or '.join(t.__name__ for t in types)}, "
                         f"got {value!r}")
    return value


def _number_array(values, name: str) -> np.ndarray:
    """A JSON list of numbers as float64.  The dtype numpy infers rejects
    strings, nulls and an all-bool list; a bool among numbers is inferred as
    0.0 or 1.0, so only a list holding such a value has its types read."""
    a = np.array(values)
    if a.dtype.kind not in "iuf" or (
            ((a == 0.0) | (a == 1.0)).any() and bool in set(map(type, values))):
        raise ValueError(f"could not convert {name}: not a list of numbers")
    return a.astype(float, copy=False)


def _stats_from_json(obj: dict, p: int) -> VariableStats:
    # Checked here, before any FitState is built: a short array would
    # otherwise escape as a numpy broadcast error and a nonpositive variance
    # would score rows with no error at all.
    arrays = {key: _number_array(obj[key], f"stats {key}") for key in _STATS_ARRAYS}
    floored = np.array(obj["floored"])
    if floored.dtype.kind != "b":
        raise ValueError("stats floored must be a list of booleans")
    for key, a in (*arrays.items(), ("floored", floored)):
        if a.shape != (p,):
            raise DataValidationError(f"stats {key} has shape {a.shape}, expected ({p},)")
    for key, a in arrays.items():
        if not np.isfinite(a).all():
            raise DataValidationError(f"stats {key} has non-finite entries")
    for key in _STATS_VARIANCES:
        if not (arrays[key] > 0.0).all():
            raise DataValidationError(f"stats {key} has nonpositive entries")
    n, n1, n0 = (_typed(obj[key], f"stats {key}", int) for key in ("n", "n1", "n0"))
    if n != n1 + n0 or n1 < 2 or n0 < 2:
        raise DataValidationError(
            f"stats counts need n = n1 + n0 with n1, n0 >= 2, got n={n}, n1={n1}, n0={n0}"
        )
    return VariableStats(**arrays, floored=floored, n=n, n1=n1, n0=n0)


# Keys that states written by earlier versions hold under "hyper".  Each
# acted only while fitting (the variance floor, now fixed, and the start of
# w), so a saved fit does not depend on them and they are dropped.
_RETIRED_HYPER = ("variance_floor", "w_init")


def _hyper_from_json(obj) -> Hyperparameters:
    if not isinstance(obj, dict):
        raise DataValidationError("hyper is not an object")
    hyper = {k: v for k, v in obj.items() if k not in _RETIRED_HYPER}
    for key, value in hyper.items():
        if key in Hyperparameters.__dataclass_fields__:  # others: rejected below
            _typed(value, f"hyper {key}", *((int,) if key == "max_cycles" else (float, int)))
    return Hyperparameters(**hyper)


def _columns_from_json(obj) -> tuple[str, ...] | None:
    if obj is None:
        return None
    if not isinstance(obj, list) or not all(isinstance(name, str) for name in obj):
        raise DataValidationError("columns must be a list of strings")
    return tuple(obj)


def save_state(f: FitState, path) -> None:
    """Persist a fit as deterministic, schema-versioned JSON: one line with
    sorted keys, the bytes of ``json.dumps(doc, sort_keys=True)``, written
    one value at a time by the C encoder, so that only one array is held as
    a list and as text at once."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": f.model,
        "w": f.w,
        "cycles_run": f.cycles_run,
        "converged": f.converged,
        "final_delta": f.final_delta,
        "columns": list(f.columns) if f.columns is not None else None,
        "hyper": {k: getattr(f.hyper, k) for k in f.hyper.__dataclass_fields__},
        "stats": _stats_to_json(f.stats),
    }
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, doc)
        fh.write("\n")


def _write_json(fh, value) -> None:
    """Write ``json.dumps(value, sort_keys=True)`` to ``fh`` a value at a
    time: each dict item in turn, and each array as a list only when its
    turn comes."""
    if isinstance(value, dict):
        fh.write("{")
        for i, key in enumerate(sorted(value)):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(fh, value[key])
        fh.write("}")
    else:
        fh.write(json.dumps(value.tolist() if isinstance(value, np.ndarray) else value))


def load_state(path) -> FitState:
    """Inverse of save_state; rejects unknown schema versions and corrupt files,
    including statistics of the wrong length, non-finite values, nonpositive
    variances, inconsistent group counts, a field of the wrong JSON type (a
    count that is not an integer, ``converged`` that is not a bool, a string
    or bool among the numbers of ``w``, the statistics or the
    hyperparameters), a negative ``cycles_run``, a column name
    that is not a string or is named twice, and hyperparameters that are
    unknown or out of range.
    A state written by an earlier version still loads: the hyperparameter
    keys it no longer uses are dropped."""
    with _read_utf8(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"{path}: corrupt fit-state file ({exc})") from None
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise DataValidationError(f"{path}: not a fit-state document")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise StateVersionError(
            f"{path}: fit-state schema version {doc['schema_version']} is not "
            f"supported (expected {SCHEMA_VERSION})"
        )
    try:
        cycles_run = _typed(doc["cycles_run"], "cycles_run", int)
        if cycles_run < 0:
            raise ValueError(f"cycles_run must be >= 0, got {cycles_run}")
        return FitState(
            model=doc["model"],
            w=_number_array(doc["w"], "w"),
            cycles_run=cycles_run,
            converged=_typed(doc["converged"], "converged", bool),
            final_delta=float(_typed(doc["final_delta"], "final_delta", float, int)),
            stats=_stats_from_json(doc["stats"], len(doc["w"])),
            hyper=_hyper_from_json(doc["hyper"]),
            columns=_columns_from_json(doc["columns"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: corrupt fit-state file ({exc})") from None


def align_to_columns(d: Dataset, columns: tuple[str, ...] | None) -> Dataset:
    """Reorder a prediction-time dataset to the training column order by name.
    Any missing or unknown column is an error; nameless data must already
    match positionally.  Data already in the training order is returned as
    it is, with no copy."""
    if columns is None or d.columns == tuple(columns):
        return d
    if d.columns is None:
        if d.p != len(columns):
            raise DataValidationError(
                f"unnamed input has {d.p} columns, model expects {len(columns)}"
            )
        return d
    have = {name: i for i, name in enumerate(d.columns)}
    missing = [name for name in columns if name not in have]
    if missing:
        raise DataValidationError(f"input is missing model column {missing[0]!r}")
    known = set(columns)
    extra = [name for name in d.columns if name not in known]
    if extra:
        raise DataValidationError(f"input has unknown column {extra[0]!r}")
    order = [have[name] for name in columns]
    return Dataset(d.X[:, order], d.y, columns=tuple(columns))


def selection_rows(f: FitState) -> list[tuple]:
    """The selection table, header first: (variable_id, w, selected), one row
    per variable."""
    selected = np.zeros(f.p, dtype=np.int8)
    selected[select_variables(f)] = 1
    names = _column_names(f.columns, f.p)
    return [("variable_id", "w", "selected"),
            *zip(names, f.w.tolist(), selected.tolist())]


def prediction_rows(pred: Prediction) -> list[tuple]:
    """The prediction table, header first: (row_id r1, r2, ..., y_tilde,
    label), one row per scored observation."""
    ids = [f"r{i}" for i in range(1, pred.y_tilde.size + 1)]
    return [("row_id", "y_tilde", "label"),
            *zip(ids, pred.y_tilde.tolist(), pred.labels.tolist())]


def write_tsv(rows, path) -> None:
    """Tab-separated table, header row first.  A float cell (a Python float or
    ``np.float64``) is written as its ``str``, which equals its repr, so it
    keeps full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, delimiter="\t", lineterminator="\n").writerows(rows)


def write_json(obj, path) -> None:
    """Deterministic JSON document (sorted keys, indented, trailing newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
