"""CSV parsing and errors, fit-state persistence, report rows."""

import csv
import json
import math
import os
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbda import (
    DataValidationError,
    Dataset,
    Hyperparameters,
    StateVersionError,
    align_to_columns,
    fit_vlda,
    load_csv,
    load_state,
    predict,
    save_csv,
    save_state,
)
from vbda import dataio
from vbda.dataio import prediction_rows, selection_rows, write_json, write_tsv

from conftest import make_balanced, traced_peak


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_labeled_round_trip(self, tmp_path):
        d = Dataset(
            np.array([[1.25, -2.0], [0.1234567890123456789, 3.5]]),
            np.array([1, 0]),
            columns=("g1", "g2"),
        )
        path = tmp_path / "d.csv"
        save_csv(d, path)
        back = load_csv(path, label_column="label")
        np.testing.assert_array_equal(back.X, d.X)  # repr precision: exact
        np.testing.assert_array_equal(back.y, d.y)
        assert back.columns == ("g1", "g2")

    def test_unlabeled_round_trip(self, tmp_path):
        d = Dataset(np.array([[1.0, 2.0]]), columns=("a", "b"))
        path = tmp_path / "u.csv"
        save_csv(d, path)
        back = load_csv(path)
        assert back.y is None
        np.testing.assert_array_equal(back.X, d.X)

    def test_label_column_written_first(self, tmp_path):
        d = Dataset(np.array([[7.0]]), np.array([1]), columns=("a",))
        path = tmp_path / "d.csv"
        save_csv(d, path)
        assert path.read_text().splitlines()[0] == "label,a"

    def test_label_column_named_like_a_data_column(self, tmp_path):
        # The header "label,label,g2" would be written, which load_csv
        # refuses; the clash is reported before the file is opened.
        d = Dataset(np.array([[1.0, 2.0]]), np.array([1]), columns=("label", "g2"))
        path = tmp_path / "d.csv"
        with pytest.raises(DataValidationError,
                           match="^label column 'label' is also the name of a data column$"):
            save_csv(d, path)
        assert not path.exists()
        save_csv(Dataset(d.X, columns=d.columns), path)  # no labels, no clash
        save_csv(d, path, label_column="group")
        assert load_csv(path, label_column="group").columns == ("label", "g2")

    def test_custom_label_column_name(self, tmp_path):
        path = write(tmp_path / "d.csv", "grp,a\n1,2.0\n0,3.0\n")
        back = load_csv(path, label_column="grp")
        assert back.y.tolist() == [1, 0]
        assert back.columns == ("a",)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "e.csv", "")
        with pytest.raises(DataValidationError, match="empty file"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path / "h.csv", "a,b\n")
        with pytest.raises(DataValidationError, match="no data rows"):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path / "dup.csv", "a,b,a\n1,2,3\n")
        with pytest.raises(DataValidationError, match="duplicate header name 'a'"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path / "m.csv", "a,b\n1,2\n")
        with pytest.raises(DataValidationError, match="label column 'y' not found"):
            load_csv(path, label_column="y")

    def test_ragged_row_location(self, tmp_path):
        path = write(tmp_path / "r.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataValidationError, match="row 3: expected 2 fields"):
            load_csv(path)

    def test_missing_value_location(self, tmp_path):
        path = write(tmp_path / "mv.csv", "a,b\n1,2\n3,\n")
        with pytest.raises(DataValidationError, match="row 3, column 'b': missing"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path / "nn.csv", "a,b\n1,x\n")
        with pytest.raises(DataValidationError, match="column 'b'.*'x' as a number"):
            load_csv(path)

    def test_non_finite_cell(self, tmp_path):
        path = write(tmp_path / "nf.csv", "a,b\n1,inf\n")
        with pytest.raises(DataValidationError, match="non-finite"):
            load_csv(path)

    def test_bad_label_value(self, tmp_path):
        path = write(tmp_path / "bl.csv", "label,a\n2,1.0\n")
        with pytest.raises(DataValidationError, match="label must be 0 or 1"):
            load_csv(path, label_column="label")

    def test_label_only_file(self, tmp_path):
        path = write(tmp_path / "lo.csv", "label\n1\n0\n")
        with pytest.raises(DataValidationError, match="no feature columns"):
            load_csv(path, label_column="label")

    def test_utf8_bom_header(self, tmp_path):
        text = "label,a,b\n1,0.5,2\n0,-1,3\n"
        plain = load_csv(write(tmp_path / "plain.csv", text), label_column="label")
        bom = load_csv(write(tmp_path / "bom.csv", "\ufeff" + text), label_column="label")
        assert bom.columns == plain.columns == ("a", "b")
        np.testing.assert_array_equal(bom.y, plain.y)
        np.testing.assert_array_equal(bom.X, plain.X)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("label,café\n1,2\n0,3\n".encode("latin-1"))
        with pytest.raises(DataValidationError, match=r"latin1.csv: not UTF-8 text \(byte 0xe9"):
            load_csv(path, label_column="label")

    def test_cells_parse_exactly_as_float(self, tmp_path):
        cells = [" 2 ", "-0", "1e-320", "+1.5e3", "0.1234567890123456789", "3.25"]
        header = ",".join(f"c{j}" for j in range(len(cells)))
        row = ",".join(cells[:-1]) + ',"3.25"'
        d = load_csv(write(tmp_path / "t.csv", f"{header}\n{row}\n"))
        expected = np.array([[float(c) for c in cells]])
        np.testing.assert_array_equal(d.X.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "2\u00a0", "-1_000.5"])
    def test_underscore_or_non_ascii_cell_rejected(self, tmp_path, cell):
        # float() accepts each of these (1_0 as ten); np.loadtxt takes "2\xa0".
        float(cell)
        path = write(tmp_path / "u.csv", f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(DataValidationError,
                           match=re.escape(f"row 3, column 'b': could not parse {cell!r}")):
            load_csv(path)

    def test_first_bad_cell_named(self, tmp_path):
        path = write(tmp_path / "fb.csv", "a,b\nx,inf\n")
        with pytest.raises(DataValidationError, match="column 'a': could not parse 'x'"):
            load_csv(path)

    def test_nan_label(self, tmp_path):
        path = write(tmp_path / "nl.csv", "label,a\n1,1.0\nnan,2.0\n")
        with pytest.raises(DataValidationError, match="row 3, column 'label': label must be 0 or 1"):
            load_csv(path, label_column="label")

    def test_bad_cell_after_many_rows(self, tmp_path):
        text = "a,b\n" + "1,2\n" * 50 + "3,oops\n"
        with pytest.raises(DataValidationError, match="row 52, column 'b'"):
            load_csv(write(tmp_path / "late.csv", text))

    def test_trailing_blank_line_rejected(self, tmp_path):
        path = write(tmp_path / "tb.csv", "a,b\n1,2\n\n")
        with pytest.raises(DataValidationError, match="row 3: expected 2 fields, got 0"):
            load_csv(path)

    def test_crlf_matches_lf(self, tmp_path):
        text = "label,a,b\n1,0.5,2\n0,-1,3e-5\n"
        lf = load_csv(write(tmp_path / "lf.csv", text), label_column="label")
        crlf_path = tmp_path / "crlf.csv"
        crlf_path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        crlf = load_csv(crlf_path, label_column="label")
        assert crlf.columns == lf.columns
        np.testing.assert_array_equal(crlf.y, lf.y)
        np.testing.assert_array_equal(crlf.X, lf.X)


def reference_load(path, label_column):
    """``load_csv``'s contract, written plainly: every ``csv.reader`` row,
    ``float()`` per cell that is ASCII with no underscore, then the finite
    and 0/1 label checks.  Returns (X, y, columns), or None where
    ``load_csv`` must raise."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return None
    header, body = rows[0], rows[1:]
    if len(set(header)) != len(header) or (label_column not in header + [None]):
        return None
    label_idx = header.index(label_column) if label_column is not None else None
    columns = tuple(name for i, name in enumerate(header) if i != label_idx)
    if not body or not columns:
        return None
    X = []
    for row in body:
        if len(row) != len(header):
            return None
        if not all(cell.isascii() and "_" not in cell for cell in row):
            return None
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            return None
        for i, v in enumerate(values):
            if (v not in (0.0, 1.0)) if i == label_idx else not math.isfinite(v):
                return None
        X.append(values)
    X = np.array(X)
    if label_idx is None:
        return X, None, columns
    return np.delete(X, label_idx, axis=1), X[:, label_idx].astype(int), columns


# Cells that only the row-by-row fallback accepts, or that every path rejects.
EDGE_CELLS = ["1e-320", " 2 ", "1_0", "\u0661", "2\u00a0", '"3"', '""', "nan", "inf", "0x1",
              "1e", ""]
VALID_CELLS = st.one_of(
    st.sampled_from(["0", "1"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@st.composite
def csv_texts(draw):
    """A small header-first CSV: clean files of repr floats and 0/1, or files
    with edge cells, ragged rows and blank lines; LF, CRLF or bare-CR lines."""
    p = draw(st.integers(1, 4))
    edgy = draw(st.booleans())
    cell = st.one_of(VALID_CELLS, st.sampled_from(EDGE_CELLS)) if edgy else VALID_CELLS
    width = st.integers(max(p - 1, 1), p + 1) if edgy else st.just(p)
    row = width.flatmap(lambda k: st.lists(cell, min_size=k, max_size=k)).map(",".join)
    if edgy:
        row = st.one_of(row, st.sampled_from(["", " "]))
    lines = [",".join(f"c{j}" for j in range(p))] + draw(st.lists(row, max_size=5))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


class TestLoadCsvPaths:
    """``load_csv`` parses the body in one numpy pass and falls back to the
    row-by-row parser; both must give exactly the plain reference's result."""

    # The ignore mark must stay above the error mark: on a failure the
    # hypothesis plugin's report hook warns, and as an error that aborts the run.
    @pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300)
    @given(text=csv_texts(), labelled=st.booleans())
    def test_matches_plain_reference(self, tmp_path_factory, text, labelled):
        path = tmp_path_factory.getbasetemp() / "parity.csv"
        path.write_bytes(text.encode("utf-8"))
        label_column = "c0" if labelled else None
        want = reference_load(path, label_column)
        if want is None:
            with pytest.raises(DataValidationError) as got:
                load_csv(path, label_column=label_column)
            # The error is the row-by-row parser's, naming the first bad cell.
            with mock.patch.object(dataio, "_parse_body", lambda *args: None):
                with pytest.raises(DataValidationError) as fallback:
                    load_csv(path, label_column=label_column)
            assert str(got.value) == str(fallback.value)
            return
        got = load_csv(path, label_column=label_column)
        X, y, columns = want
        assert got.X.shape == X.shape
        np.testing.assert_array_equal(got.X.view(np.int64), X.view(np.int64))
        assert (got.y is None) if y is None else got.y.tolist() == y.tolist()
        assert got.columns == columns

    @pytest.mark.parametrize("label_column", [None, "label"])
    def test_plain_file_takes_the_numpy_pass(self, tmp_path, monkeypatch, label_column):
        d = Dataset(np.random.default_rng(0).standard_normal((6, 3)),
                    np.array([0, 1, 0, 1, 1, 0]), columns=("a", "b", "c"))
        path = tmp_path / "plain.csv"
        save_csv(d, path)

        def no_fallback(*args):
            raise AssertionError("row-by-row fallback taken")

        monkeypatch.setattr(dataio, "_parse_rows", no_fallback)
        back = load_csv(path, label_column=label_column)
        if label_column is None:
            np.testing.assert_array_equal(back.X, np.column_stack([d.y, d.X]))
        else:
            np.testing.assert_array_equal(back.X, d.X)
            np.testing.assert_array_equal(back.y, d.y)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, message", [
        ("a,b\n", "no data rows below the header"),
        ("a,b\n\n\n", "row 2: expected 2 fields, got 0"),
        ("a\n \n", "row 2, column 'a': missing value"),
    ], ids=["header_only", "blank_lines", "whitespace_row"])
    def test_rows_without_data_rejected_silently(self, tmp_path, text, message):
        with pytest.raises(DataValidationError, match=message):
            load_csv(write(tmp_path / "nd.csv", text))

    def test_blank_line_mid_file_named(self, tmp_path):
        path = write(tmp_path / "bl.csv", "a,b\n1,2\n\n3,4\n")
        with pytest.raises(DataValidationError, match="row 3: expected 2 fields, got 0"):
            load_csv(path)

    def test_bare_cr_matches_lf(self, tmp_path):
        text = "label,a,b\n1,0.5,2\n0,-1,3e-5\n"
        lf = load_csv(write(tmp_path / "lf.csv", text), label_column="label")
        cr_path = tmp_path / "cr.csv"
        cr_path.write_bytes(text.replace("\n", "\r").encode("utf-8"))
        cr = load_csv(cr_path, label_column="label")
        assert cr.columns == lf.columns
        np.testing.assert_array_equal(cr.y, lf.y)
        np.testing.assert_array_equal(cr.X, lf.X)

    @pytest.mark.parametrize("text", [
        "label,a,b\n1,0.5,2\n0,-1,3e-5\n1,4,5\n",
        'label,a,b\n1,0.5,2\n0,"1",3e-5\n1,4,5\n',
    ], ids=["clean", "quoted_cell"])
    def test_pipe_matches_file(self, tmp_path, text):
        # A pipe cannot seek, so it is parsed by the fallback alone, past
        # the header the first read took.
        want = load_csv(write(tmp_path / "f.csv", text), label_column="label")
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w", encoding="utf-8") as out:
            out.write(text)  # a small file fits in the pipe's buffer
        try:
            got = load_csv(f"/dev/fd/{read_fd}", label_column="label")
        finally:
            os.close(read_fd)
        assert got.columns == want.columns
        np.testing.assert_array_equal(got.y, want.y)
        np.testing.assert_array_equal(got.X, want.X)
        assert got.X.shape == (3, 2)

    def test_multiline_quoted_header_name(self, tmp_path):
        d = load_csv(write(tmp_path / "mh.csv", '"gene\nname",b\n1,2\n3,4\n'))
        assert d.columns == ("gene\nname", "b")
        np.testing.assert_array_equal(d.X, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("cell, value", [('"3"', 3.0)])
    def test_cell_only_float_accepts_still_loads(self, tmp_path, cell, value):
        d = load_csv(write(tmp_path / "f.csv", f"a,b\n1,2\n{cell},4\n"))
        np.testing.assert_array_equal(d.X, [[1.0, 2.0], [value, 4.0]])

    def test_trailing_comma_counts_a_field(self, tmp_path):
        path = write(tmp_path / "tc.csv", "a,b\n1,2\n3,4,\n")
        with pytest.raises(DataValidationError, match="row 3: expected 2 fields, got 3"):
            load_csv(path)

    def test_peak_memory_holds_no_list_of_lines(self, tmp_path):
        # The body reaches loadtxt line by line from the file, so the peak is
        # the parsed matrix, its copy without the label column and loadtxt's
        # working space; the body as one string would add twice the file,
        # five times the matrix in all.
        rng = np.random.default_rng(0)
        d = Dataset(rng.standard_normal((100, 2000)), np.arange(100) % 2)
        path = tmp_path / "wide.csv"
        save_csv(d, path)
        load_csv(path, label_column="label")  # first-call allocations
        tracemalloc.start()
        try:
            back = load_csv(path, label_column="label")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.X, d.X)
        assert peak < 2.5 * d.X.nbytes


class TestStatePersistence:
    @pytest.fixture()
    def fitted(self):
        d = make_balanced(30, 5, seed=1, shift=2.0, k=2)
        d = Dataset(d.X, d.y, columns=("a", "b", "c", "d", "e"))
        return fit_vlda(d, Hyperparameters())

    def test_save_load_save_byte_identical(self, fitted, tmp_path):
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        save_state(fitted, p1)
        save_state(load_state(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_scalar_hyperparameters_round_trip(self, tmp_path):
        # numpy scalars are stored as Python numbers, so the state JSON can
        # hold them, and the state loads back to an equal fit.
        d = make_balanced(30, 5, seed=1, shift=2.0, k=2)
        h = Hyperparameters(kappa=np.float32(0.002), a_y=np.float64(2.0), b_y=np.int64(1),
                            max_cycles=np.int64(50))
        f = fit_vlda(d, h)
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        save_state(f, p1)
        back = load_state(p1)
        assert back.hyper == f.hyper == Hyperparameters(kappa=float(np.float32(0.002)),
                                                        a_y=2.0, b_y=1.0, max_cycles=50)
        np.testing.assert_array_equal(back.w, f.w)
        save_state(back, p2)
        assert p2.read_bytes() == p1.read_bytes()

    def test_exact_zero_and_one_entries_load(self, fitted, tmp_path):
        # Entries of w equal to 0 or 1, as floats or integers, are numbers,
        # not the bools a hand-edited state may hold; they load and resave.
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        save_state(fitted, p1)
        doc = json.loads(p1.read_text())
        doc["w"][:3] = [0.0, 1.0, 1]
        p1.write_text(json.dumps(doc, sort_keys=True) + "\n")
        back = load_state(p1)
        np.testing.assert_array_equal(back.w[:3], [0.0, 1.0, 1.0])
        save_state(back, p2)
        assert json.loads(p2.read_text())["w"][:3] == [0.0, 1.0, 1.0]

    def test_compact_sorted_one_line(self, fitted, tmp_path):
        path = tmp_path / "s.json"
        save_state(fitted, path)
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True) + "\n"
        assert text.count("\n") == 1
        assert doc["schema_version"] == dataio.SCHEMA_VERSION
        assert sorted(doc) == ["columns", "converged", "cycles_run", "final_delta",
                               "hyper", "model", "schema_version", "stats", "w"]

    @pytest.mark.parametrize("named", [True, False], ids=["named", "unnamed"])
    def test_bytes_of_one_json_dumps(self, fitted, named, tmp_path):
        # The file is written a value at a time, with the bytes of one
        # json.dumps of the whole document as lists.
        f = fitted if named else replace(fitted, columns=None)
        s = f.stats
        doc = {
            "schema_version": dataio.SCHEMA_VERSION, "model": f.model, "w": f.w.tolist(),
            "cycles_run": f.cycles_run, "converged": f.converged,
            "final_delta": f.final_delta,
            "columns": list(f.columns) if named else None,
            "hyper": {k: getattr(f.hyper, k) for k in Hyperparameters.__dataclass_fields__},
            "stats": {**{k: getattr(s, k).tolist() for k in (
                "mu_hat", "mu1_hat", "mu0_hat", "var_total", "var_pooled", "var1", "var0",
                "floored")}, "n": s.n, "n1": s.n1, "n0": s.n0},
        }
        path = tmp_path / "s.json"
        save_state(f, path)
        assert path.read_bytes() == (json.dumps(doc, sort_keys=True) + "\n").encode()

    def test_peak_memory_one_array_at_a_time(self, tmp_path):
        # At p = 5000 the whole document as lists and text takes about 150
        # p-vectors (p float64 values); one array at a time about 20.
        p = 5000
        d = make_balanced(40, p, seed=2, shift=2.0, k=5)
        f = fit_vlda(Dataset(d.X, d.y, columns=[f"v{j}" for j in range(p)]))
        path = tmp_path / "s.json"
        assert traced_peak(lambda: save_state(f, path)) < 40 * p * 8

    def test_indented_state_loads_and_resaves_compact(self, fitted, tmp_path):
        # A state written in the earlier indented layout still loads; saving
        # it again writes the compact layout, which then round-trips exactly.
        p0, p1, p2 = (tmp_path / f"s{i}.json" for i in range(3))
        save_state(fitted, p1)
        doc = json.loads(p1.read_text(encoding="utf-8"))
        p0.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        old = load_state(p0)
        np.testing.assert_array_equal(old.w, fitted.w)
        assert old.columns == fitted.columns and old.hyper == fitted.hyper
        save_state(old, p2)
        assert p2.read_bytes() == p1.read_bytes()
        save_state(load_state(p2), p0)
        assert p0.read_bytes() == p2.read_bytes()

    def test_loaded_state_predicts_identically(self, fitted, tmp_path, rng):
        path = tmp_path / "s.json"
        save_state(fitted, path)
        back = load_state(path)
        Xn = rng.standard_normal((6, 5))
        a = predict(fitted, Xn)
        b = predict(back, Xn)
        np.testing.assert_array_equal(a.y_tilde, b.y_tilde)
        np.testing.assert_array_equal(fitted.w, back.w)
        assert back.columns == fitted.columns
        assert back.hyper == fitted.hyper

    def test_unsupported_version(self, fitted, tmp_path):
        path = tmp_path / "s.json"
        save_state(fitted, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(StateVersionError, match="999"):
            load_state(path)

    def test_version_error_is_validation_error(self):
        assert issubclass(StateVersionError, DataValidationError)

    def test_truncated_file(self, fitted, tmp_path):
        path = tmp_path / "s.json"
        save_state(fitted, path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(DataValidationError, match="corrupt"):
            load_state(path)

    def test_non_utf8_file_rejected(self, fitted, tmp_path):
        path = tmp_path / "s.json"
        save_state(fitted, path)
        path.write_bytes(path.read_bytes().replace(b'"a"', '"é"'.encode("latin-1"), 1))
        with pytest.raises(DataValidationError, match=r"s.json: not UTF-8 text \(byte 0xe9"):
            load_state(path)

    def test_wrong_document_shape(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(DataValidationError, match="not a fit-state"):
            load_state(path)

    def test_missing_key_reported_corrupt(self, fitted, tmp_path):
        path = tmp_path / "s.json"
        save_state(fitted, path)
        doc = json.loads(path.read_text())
        del doc["w"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError, match="corrupt"):
            load_state(path)


    def test_duplicate_columns_reported_corrupt(self, fitted, tmp_path):
        path = tmp_path / "s.json"
        save_state(fitted, path)
        doc = json.loads(path.read_text())
        doc["columns"][1] = "a"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError,
                           match=r"s.json: corrupt fit-state file \(duplicate column name 'a'\)"):
            load_state(path)

    def test_state_from_earlier_version_loads(self, fitted, tmp_path, rng):
        # Earlier versions also saved variance_floor and w_init under "hyper".
        # Both acted only while fitting, so such a state loads without them,
        # scores alike and saves again without them.
        path, again = tmp_path / "old.json", tmp_path / "new.json"
        save_state(fitted, path)
        doc = json.loads(path.read_text())
        assert sorted(doc["hyper"]) == sorted(Hyperparameters.__dataclass_fields__)
        doc["hyper"].update(variance_floor=1e-12, w_init=0.5)
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        old = load_state(path)
        assert old.hyper == fitted.hyper
        Xn = rng.standard_normal((6, 5))
        np.testing.assert_array_equal(predict(old, Xn).y_tilde, predict(fitted, Xn).y_tilde)
        save_state(old, again)
        assert "variance_floor" not in json.loads(again.read_text())["hyper"]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("hyper", {"a_y": 1.0, "speed": 2}, "unexpected keyword argument 'speed'"),
            ("hyper", [1.0], "hyper is not an object"),
            ("hyper", {"a_y": float("nan")}, r"a_y must be finite, got nan"),
            ("hyper", {"kappa": float("inf")}, r"kappa must be finite, got inf"),
            ("hyper", {"max_cycles": True}, "hyper max_cycles must be int, got True"),
            ("hyper", {"a_y": True}, "hyper a_y must be float or int, got True"),
            ("hyper", {"kappa": True}, "hyper kappa must be float or int, got True"),
            ("hyper", {"r": "0.9"}, "hyper r must be float or int, got '0.9'"),
            ("columns", [1, 2, 3, 4, 5], "columns must be a list of strings"),
            ("columns", ["a", "b", None, "d", "e"], "columns must be a list of strings"),
            ("columns", "abcde", "columns must be a list of strings"),
            ("cycles_run", 7.5, "cycles_run must be int, got 7.5"),
            ("cycles_run", "7", "cycles_run must be int, got '7'"),
            ("cycles_run", True, "cycles_run must be int, got True"),
            ("cycles_run", -3, "cycles_run must be >= 0, got -3"),
            ("converged", "false", "converged must be bool, got 'false'"),
            ("converged", 0, "converged must be bool, got 0"),
            ("final_delta", "0.1", "final_delta must be float or int, got '0.1'"),
            ("w", ["0.5", 0.5, 0.5, 0.5, 0.5], "could not convert w: not a list of numbers"),
            ("w", [True, 0.5, 0.5, 0.5, 0.5], "could not convert w: not a list of numbers"),
            ("w", [False] * 5, "could not convert w: not a list of numbers"),
        ],
        ids=["unknown_hyper_key", "hyper_list", "nan_a_y", "inf_kappa", "bool_max_cycles",
             "bool_a_y", "bool_kappa", "text_r", "int_columns",
             "null_column", "string_columns", "fractional_cycles", "text_cycles",
             "bool_cycles", "negative_cycles", "text_converged", "int_converged", "text_final_delta",
             "text_w_entry", "bool_w_entry", "bool_w"],
    )
    def test_invalid_header_fields_rejected(self, fitted, tmp_path, key, value, message):
        # Unchecked, a non-string column loads and predict then blames the
        # input ("input is missing model column 1").
        path = tmp_path / "s.json"
        save_state(fitted, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError,
                           match=rf"s.json: corrupt fit-state file \(.*{message}"):
            load_state(path)

    @pytest.mark.parametrize(
        "key, corrupt, message",
        [
            ("var_pooled", lambda v: v[:-1], r"var_pooled has shape \(4,\), expected \(5,\)"),
            ("var_pooled", lambda v: [-1.0] + v[1:], "var_pooled has nonpositive"),
            ("var1", lambda v: [0.0] + v[1:], "var1 has nonpositive"),
            ("var_pooled", lambda v: ["abc"] + v[1:], "could not convert"),
            ("mu1_hat", lambda v: [float("nan")] + v[1:], "mu1_hat has non-finite"),
            ("floored", lambda v: v + [False], r"floored has shape \(6,\)"),
            ("n0", lambda v: 1, "n0 >= 2"),
            ("n", lambda v: v + 1, r"n = n1 \+ n0"),
            ("n", lambda v: v + 0.7, r"stats n must be int, got 30.7"),
            ("n1", lambda v: True, "stats n1 must be int, got True"),
            ("n0", lambda v: str(v), "stats n0 must be int, got '15'"),
            ("mu1_hat", lambda v: [True] + v[1:], "could not convert stats mu1_hat"),
            ("var0", lambda v: ["1.5"] + v[1:], "could not convert stats var0"),
            ("floored", lambda v: ["false"] * len(v), "floored must be a list of booleans"),
            ("floored", lambda v: [0] * len(v), "floored must be a list of booleans"),
        ],
        ids=["short_var_pooled", "negative_var_pooled", "zero_var1", "text_var_pooled",
             "nan_mu1_hat", "long_floored", "n0_below_2", "n_not_n1_plus_n0",
             "fractional_n", "bool_n1", "text_n0", "bool_mu1_hat_entry", "text_var0_entry",
             "text_floored", "int_floored"],
    )
    def test_invalid_stats_rejected(self, fitted, tmp_path, key, corrupt, message):
        path = tmp_path / "s.json"
        save_state(fitted, path)
        doc = json.loads(path.read_text())
        doc["stats"][key] = corrupt(doc["stats"][key])
        path.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError, match=message):
            load_state(path)


class TestAlignToColumns:
    def test_reorders_by_name(self):
        d = Dataset(np.array([[1.0, 2.0, 3.0]]), columns=("c", "a", "b"))
        out = align_to_columns(d, ("a", "b", "c"))
        assert out.columns == ("a", "b", "c")
        np.testing.assert_array_equal(out.X, [[2.0, 3.0, 1.0]])

    def test_missing_column(self):
        d = Dataset(np.array([[1.0, 2.0]]), columns=("a", "b"))
        with pytest.raises(DataValidationError, match="missing model column 'c'"):
            align_to_columns(d, ("a", "b", "c"))

    def test_unknown_column(self):
        d = Dataset(np.array([[1.0, 2.0, 9.0]]), columns=("a", "b", "z"))
        with pytest.raises(DataValidationError, match="unknown column 'z'"):
            align_to_columns(d, ("a", "b"))

    def test_unnamed_positional_passthrough(self):
        d = Dataset(np.array([[1.0, 2.0]]))
        out = align_to_columns(d, ("a", "b"))
        np.testing.assert_array_equal(out.X, d.X)

    def test_unnamed_width_mismatch(self):
        d = Dataset(np.array([[1.0, 2.0]]))
        with pytest.raises(DataValidationError, match="2 columns, model expects 3"):
            align_to_columns(d, ("a", "b", "c"))

    def test_aligned_input_is_returned_as_is(self):
        # Aligned data is not copied: at 100 x 200000 the copy took 226 ms.
        d = make_balanced(40, 6, seed=2, shift=2.0, k=2)
        named = Dataset(d.X, d.y, columns=tuple("abcdef"))
        f = fit_vlda(named)
        out = align_to_columns(named, list(f.columns))
        assert out is named
        ref = predict(f, np.array(named.X))
        got = predict(f, out)
        np.testing.assert_array_equal(got.score, ref.score)
        np.testing.assert_array_equal(got.labels, ref.labels)
        # A permutation of the same names is still reordered, and scores alike.
        perm = [3, 0, 5, 1, 4, 2]
        shuffled = Dataset(named.X[:, perm], columns=tuple("abcdef"[j] for j in perm))
        back = align_to_columns(shuffled, f.columns)
        assert back is not shuffled and back.columns == f.columns
        np.testing.assert_array_equal(back.X, named.X)
        np.testing.assert_array_equal(predict(f, back).score, ref.score)

    def test_model_without_names_accepts_anything(self):
        d = Dataset(np.array([[1.0, 2.0]]), columns=("x", "y"))
        assert align_to_columns(d, None) is d


class TestReportRows:
    def test_selection_rows(self):
        d = make_balanced(30, 3, seed=2, shift=4.0, k=1)
        d = Dataset(d.X, d.y, columns=("sig", "n1", "n2"))
        f = fit_vlda(d, Hyperparameters())
        header, *rows = selection_rows(f)
        assert header == ("variable_id", "w", "selected")
        assert [name for name, _, _ in rows] == ["sig", "n1", "n2"]
        assert rows[0][2] == 1
        assert all(isinstance(w, float) for _, w, _ in rows)

    def test_prediction_rows_ids(self):
        d = make_balanced(20, 2, seed=3, shift=3.0, k=1)
        f = fit_vlda(d, Hyperparameters())
        pred = predict(f, d.X[:3])
        header, *rows = prediction_rows(pred)
        assert header == ("row_id", "y_tilde", "label")
        assert [row_id for row_id, _, _ in rows] == ["r1", "r2", "r3"]

    def test_write_tsv_full_precision(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tsv([("id", "w"), ("x", 0.1234567890123456789)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id\tw"
        assert float(lines[1].split("\t")[1]) == 0.1234567890123456789

    def test_write_json_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json({"b": 1, "a": [1, 2]}, p1)
        write_json({"a": [1, 2], "b": 1}, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")

    def test_write_json_bytes(self, tmp_path):
        obj = {"z": [1.5, 0.1 + 0.2, None, True], "a": {"y": "t\tab", "b": 2}, "m": []}
        path = tmp_path / "o.json"
        write_json(obj, path)
        assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()

    def test_write_tsv_matches_row_writer(self, tmp_path):
        # The reference writer converts each float cell with repr(float(x))
        # itself; write_tsv leaves that to csv, which writes str(x).
        header = ("id", "w", "flag", "k")
        rows = [
            ("plain", np.float64(0.1) + np.float64(0.2), True, 3),
            ("tab\there", 1e-300, False, np.int64(-7)),
            ('quote"d', np.float64(2.5), np.bool_(True), 0),
            ("new\nline", float("inf"), 1, "text"),
            *((f"edge{i}", v, False, i) for i, v in enumerate(
                [5e-324, 1e16, 9.999999999999999e15, 1e-05, -0.0, float("nan"),
                 np.float64(5e-324), np.float64(-0.0), np.float64("nan")])),
        ]
        want = tmp_path / "want.tsv"
        with open(want, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(x)) if isinstance(x, float) else x
                                 for x in row])
        got = tmp_path / "got.tsv"
        write_tsv([header, *rows], got)
        assert got.read_bytes() == want.read_bytes()
        assert "0.30000000000000004" in got.read_text(encoding="utf-8")
