"""CSV parsing and errors, fit-state persistence, report rows."""

import csv
import json
import math
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

from conftest import make_balanced


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
        cells = [" 2 ", "1_0", "-0", "1e-320", "+1.5e3", "0.1234567890123456789", "3.25"]
        header = ",".join(f"c{j}" for j in range(len(cells)))
        row = ",".join(cells[:-1]) + ',"3.25"'
        d = load_csv(write(tmp_path / "t.csv", f"{header}\n{row}\n"))
        expected = np.array([[float(c) for c in cells]])
        np.testing.assert_array_equal(d.X.view(np.int64), expected.view(np.int64))

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
    ``float()`` per cell, then the finite and 0/1 label checks.  Returns
    (X, y, columns), or None where ``load_csv`` must raise."""
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
EDGE_CELLS = ["1e-320", " 2 ", "1_0", "\u0661", '"3"', '""', "nan", "inf", "0x1", "1e", ""]
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

    def test_multiline_quoted_header_name(self, tmp_path):
        d = load_csv(write(tmp_path / "mh.csv", '"gene\nname",b\n1,2\n3,4\n'))
        assert d.columns == ("gene\nname", "b")
        np.testing.assert_array_equal(d.X, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("\u0661", 1.0), ('"3"', 3.0)])
    def test_cell_only_float_accepts_still_loads(self, tmp_path, cell, value):
        d = load_csv(write(tmp_path / "f.csv", f"a,b\n1,2\n{cell},4\n"))
        np.testing.assert_array_equal(d.X, [[1.0, 2.0], [value, 4.0]])

    def test_trailing_comma_counts_a_field(self, tmp_path):
        path = write(tmp_path / "tc.csv", "a,b\n1,2\n3,4,\n")
        with pytest.raises(DataValidationError, match="row 3: expected 2 fields, got 3"):
            load_csv(path)


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
        ],
        ids=["short_var_pooled", "negative_var_pooled", "zero_var1", "text_var_pooled",
             "nan_mu1_hat", "long_floored", "n0_below_2", "n_not_n1_plus_n0"],
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

    def test_model_without_names_accepts_anything(self):
        d = Dataset(np.array([[1.0, 2.0]]), columns=("x", "y"))
        assert align_to_columns(d, None) is d


class TestReportRows:
    def test_selection_rows(self):
        d = make_balanced(30, 3, seed=2, shift=4.0, k=1)
        d = Dataset(d.X, d.y, columns=("sig", "n1", "n2"))
        f = fit_vlda(d, Hyperparameters())
        rows = selection_rows(f)
        assert [r["variable_id"] for r in rows] == ["sig", "n1", "n2"]
        assert rows[0]["selected"] == 1
        assert all(isinstance(r["w"], float) for r in rows)

    def test_prediction_rows_ids(self):
        d = make_balanced(20, 2, seed=3, shift=3.0, k=1)
        f = fit_vlda(d, Hyperparameters())
        pred = predict(f, d.X[:3])
        rows = prediction_rows(pred)
        assert [r["row_id"] for r in rows] == ["r1", "r2", "r3"]

    def test_write_tsv_full_precision(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tsv(
            [{"id": "x", "w": 0.1234567890123456789}],
            path,
            header=("id", "w"),
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "id\tw"
        assert float(lines[1].split("\t")[1]) == 0.1234567890123456789

    def test_write_json_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json({"b": 1, "a": [1, 2]}, p1)
        write_json({"a": [1, 2], "b": 1}, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")
