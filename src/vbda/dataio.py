"""CSV ingestion, preprocessing transforms, and fit-state persistence.

CSV files carry a mandatory header row and an optional 0/1 label column.
A cell is accepted exactly when Python ``float()`` parses it (features must
also be finite).  Each row is converted with one numpy cast; a row that fails
is rescanned cell by cell, so parse failures report the offending row and
column (header is row 1).

``PreprocessPipeline`` chains the transforms used to clean expression-style
matrices: a log2(1+x) shift, three column filters (small IQR, low variance,
within-group outliers), and standardization.  Filters run before
standardization in the conventional order, but the declared order is what
executes.  The pipeline result keeps an output-to-original column map so
downstream selections can be reported against original variable names.

Fit states persist as schema-versioned JSON with full float precision
(repr round-trip), so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import (
    DataValidationError,
    Dataset,
    DomainError,
    Hyperparameters,
    VariableStats,
    _column_names,
)
from .rcvb import FitState, Prediction, select_variables

__all__ = [
    "StateVersionError",
    "PreprocessPipeline",
    "PipelineResult",
    "load_csv",
    "save_csv",
    "apply_pipeline",
    "save_state",
    "load_state",
    "align_to_columns",
    "selection_rows",
    "prediction_rows",
    "write_tsv",
    "write_json",
]

SCHEMA_VERSION = 1

_KNOWN_STEPS = {
    "log2p1": 0,
    "iqr_filter": 1,
    "low_variance_filter": 1,
    "iqr_outlier_filter": 1,
    "standardize": 0,
}


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

    A cell is accepted exactly when Python ``float()`` parses it.  Each row is
    converted with one numpy cast, which calls ``float()`` per cell; a row the
    cast or the finite/label checks reject is rescanned cell by cell to name
    its first bad cell.  The file must be UTF-8 text; a UTF-8 byte-order mark
    before the header is ignored.
    """
    with _read_utf8(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file, expected a header row") from None
        if len(set(header)) != len(header):
            dup = next(name for i, name in enumerate(header) if name in header[:i])
            raise DataValidationError(f"{path}: duplicate header name {dup!r}")
        if label_column is not None and label_column not in header:
            raise DataValidationError(
                f"{path}: label column {label_column!r} not found in header"
            )
        label_idx = header.index(label_column) if label_column is not None else None

        rows: list[np.ndarray] = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataValidationError(
                    f"{path}: row {row_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                values = np.array(row, dtype=np.float64)
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
    columns = tuple(name for i, name in enumerate(header) if i != label_idx)
    if not columns:
        raise DataValidationError(f"{path}: no feature columns besides the label")
    X = np.stack(rows)
    if label_idx is None:
        return Dataset(X, columns=columns)
    y = X[:, label_idx].astype(int)
    return Dataset(np.delete(X, label_idx, axis=1), y, columns=columns)


def _scan_row(path, header, row_no, row, label_idx) -> list[float]:
    """Parse one CSV row cell by cell with ``float()``, left to right, and
    raise for the first bad cell (blank, unparsable, non-finite feature, or a
    label other than 0/1).  Returns the row's values if every cell passes."""
    values = []
    for col_idx, cell in enumerate(row):
        where = f"{path}: row {row_no}, column {header[col_idx]!r}"
        if cell.strip() == "":
            raise DataValidationError(f"{where}: missing value")
        try:
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


def save_csv(d: Dataset, path, label_column: str | None = None) -> None:
    """Write a Dataset back to CSV (floats at full repr precision)."""
    columns = _column_names(d.columns, d.p)
    label_name = label_column or d.label_name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if d.y is None:
            writer.writerow(columns)
            for row in d.X:
                writer.writerow([repr(float(v)) for v in row])
        else:
            writer.writerow((label_name,) + tuple(columns))
            for label, row in zip(d.y, d.X):
                writer.writerow([int(label)] + [repr(float(v)) for v in row])


@dataclass(frozen=True)
class PreprocessPipeline:
    """Ordered transform chain.  Each step is a (name,) or (name, parameter)
    tuple; known names: log2p1, iqr_filter, low_variance_filter,
    iqr_outlier_filter, standardize."""

    steps: tuple = ()

    def __post_init__(self):
        norm = []
        for step in self.steps:
            if isinstance(step, str):
                step = (step,)
            step = tuple(step)
            name = step[0]
            if name not in _KNOWN_STEPS:
                raise DataValidationError(f"unknown pipeline step {name!r}")
            arity = _KNOWN_STEPS[name]
            if len(step) - 1 != arity:
                raise DataValidationError(
                    f"step {name!r} takes {arity} parameter(s), got {len(step) - 1}"
                )
            if arity == 1:
                value = float(step[1])
                if not np.isfinite(value) or value < 0:
                    raise DataValidationError(
                        f"step {name!r} needs a nonnegative finite parameter, got {step[1]}"
                    )
                step = (name, value)
            norm.append(step)
        object.__setattr__(self, "steps", tuple(norm))


@dataclass(frozen=True)
class PipelineResult:
    """Transformed dataset plus the output-to-original column map."""

    dataset: Dataset
    kept_indices: tuple[int, ...]  # position in the original matrix
    column_map: tuple[str, ...]  # original name per output column


def _iqr(X: np.ndarray) -> np.ndarray:
    q75, q25 = np.percentile(X, [75, 25], axis=0)
    return q75 - q25


def apply_pipeline(pl: PreprocessPipeline, d: Dataset) -> PipelineResult:
    """Run the declared transforms in order.  Raises if a filter removes every
    column, if log2p1 meets a value <= -1, or if standardize meets a constant
    column."""
    X = np.array(d.X, dtype=float)
    names = list(_column_names(d.columns, d.p))
    kept = list(range(d.p))

    def drop(keep_mask, step_name):
        nonlocal X, names, kept
        if not keep_mask.any():
            raise DataValidationError(f"{step_name} removed every column")
        X = X[:, keep_mask]
        names = [nm for nm, k in zip(names, keep_mask) if k]
        kept = [ix for ix, k in zip(kept, keep_mask) if k]

    for step in pl.steps:
        name = step[0]
        if name == "log2p1":
            if np.any(X <= -1.0):
                i, j = np.argwhere(X <= -1.0)[0]
                raise DomainError(
                    f"log2p1 requires values > -1; row {i + 1}, column {names[j]!r} "
                    f"has {X[i, j]}"
                )
            X = np.log2(1.0 + X)
        elif name == "iqr_filter":
            drop(_iqr(X) > step[1], "iqr_filter")
        elif name == "low_variance_filter":
            drop(np.var(X, axis=0, ddof=1) > step[1], "low_variance_filter")
        elif name == "iqr_outlier_filter":
            if d.y is None:
                raise DataValidationError("iqr_outlier_filter needs a labeled dataset")
            keep = np.ones(X.shape[1], dtype=bool)
            for g in (0, 1):
                rows = X[d.y == g]
                med = np.median(rows, axis=0)
                spread = step[1] * _iqr(rows)
                keep &= np.all(np.abs(rows - med) <= spread, axis=0)
            drop(keep, "iqr_outlier_filter")
        else:  # standardize
            mean = X.mean(axis=0)
            sd = X.std(axis=0, ddof=1)
            if np.any(sd == 0.0):
                j = int(np.argmax(sd == 0.0))
                raise DomainError(
                    f"standardize met a constant column {names[j]!r}; "
                    "filter it out first"
                )
            X = (X - mean) / sd

    out = Dataset(X, d.y, columns=tuple(names), label_name=d.label_name)
    return PipelineResult(dataset=out, kept_indices=tuple(kept), column_map=tuple(names))


_STATS_ARRAYS = ("mu_hat", "mu1_hat", "mu0_hat", "var_total", "var_pooled", "var1", "var0")
_STATS_VARIANCES = ("var_total", "var_pooled", "var1", "var0")


def _stats_to_json(s: VariableStats) -> dict:
    doc = {key: getattr(s, key).tolist() for key in (*_STATS_ARRAYS, "floored")}
    return {**doc, "n": s.n, "n1": s.n1, "n0": s.n0}


def _stats_from_json(obj: dict, p: int) -> VariableStats:
    # Checked here, before any FitState is built: a short array would
    # otherwise escape as a numpy broadcast error and a nonpositive variance
    # would score rows with no error at all.
    arrays = {key: np.array(obj[key], dtype=float) for key in _STATS_ARRAYS}
    floored = np.array(obj["floored"], dtype=bool)
    for key, a in (*arrays.items(), ("floored", floored)):
        if a.shape != (p,):
            raise DataValidationError(f"stats {key} has shape {a.shape}, expected ({p},)")
    for key, a in arrays.items():
        if not np.isfinite(a).all():
            raise DataValidationError(f"stats {key} has non-finite entries")
    for key in _STATS_VARIANCES:
        if not (arrays[key] > 0.0).all():
            raise DataValidationError(f"stats {key} has nonpositive entries")
    n, n1, n0 = int(obj["n"]), int(obj["n1"]), int(obj["n0"])
    if n != n1 + n0 or n1 < 2 or n0 < 2:
        raise DataValidationError(
            f"stats counts need n = n1 + n0 with n1, n0 >= 2, got n={n}, n1={n1}, n0={n0}"
        )
    return VariableStats(**arrays, floored=floored, n=n, n1=n1, n0=n0)


def save_state(f: FitState, path) -> None:
    """Persist a fit as deterministic, schema-versioned JSON."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": f.model,
        "w": f.w.tolist(),
        "cycles_run": f.cycles_run,
        "converged": f.converged,
        "final_delta": f.final_delta,
        "columns": list(f.columns) if f.columns is not None else None,
        "hyper": {k: getattr(f.hyper, k) for k in f.hyper.__dataclass_fields__},
        "stats": _stats_to_json(f.stats),
    }
    write_json(doc, path)


def load_state(path) -> FitState:
    """Inverse of save_state; rejects unknown schema versions and corrupt files,
    including statistics of the wrong length, non-finite values, nonpositive
    variances and inconsistent group counts."""
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
        return FitState(
            model=doc["model"],
            w=np.array(doc["w"], dtype=float),
            cycles_run=int(doc["cycles_run"]),
            converged=bool(doc["converged"]),
            final_delta=float(doc["final_delta"]),
            stats=_stats_from_json(doc["stats"], len(doc["w"])),
            hyper=Hyperparameters(**doc["hyper"]),
            columns=tuple(doc["columns"]) if doc["columns"] is not None else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: corrupt fit-state file ({exc})") from None


def align_to_columns(d: Dataset, columns: tuple[str, ...] | None) -> Dataset:
    """Reorder a prediction-time dataset to the training column order by name.
    Any missing or unknown column is an error; nameless data must already
    match positionally."""
    if columns is None:
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
    return Dataset(d.X[:, order], d.y, columns=tuple(columns), label_name=d.label_name)


def selection_rows(f: FitState, c_w: float | None = None) -> list[dict]:
    """One record per variable: (variable_id, w, selected)."""
    selected = np.zeros(f.p, dtype=bool)
    selected[select_variables(f, c_w)] = True
    names = _column_names(f.columns, f.p)
    return [
        {"variable_id": names[j], "w": float(f.w[j]), "selected": int(selected[j])}
        for j in range(f.p)
    ]


def prediction_rows(pred: Prediction, row_ids=None) -> list[dict]:
    """One record per scored observation: (row_id, y_tilde, label)."""
    m = pred.y_tilde.size
    ids = row_ids if row_ids is not None else [f"r{i + 1}" for i in range(m)]
    if len(ids) != m:
        raise DataValidationError("row_ids length does not match predictions")
    return [
        {"row_id": str(ids[i]), "y_tilde": float(pred.y_tilde[i]),
         "label": int(pred.labels[i])}
        for i in range(m)
    ]


def write_tsv(rows: list[dict], path, header: tuple[str, ...]) -> None:
    """Tab-separated report with an explicit header; floats keep full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(row[k])) if isinstance(row[k], float)
                             else row[k] for k in header])


def write_json(obj, path) -> None:
    """Deterministic JSON document (sorted keys, indented, trailing newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
