"""CSV parsing and errors, pipeline transforms, fit-state persistence."""

import json

import numpy as np
import pytest

from vbda import (
    DataValidationError,
    Dataset,
    DomainError,
    Hyperparameters,
    PreprocessPipeline,
    StateVersionError,
    align_to_columns,
    apply_pipeline,
    fit_vlda,
    load_csv,
    load_state,
    predict,
    save_csv,
    save_state,
)
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


class TestPipelineValidation:
    def test_string_steps_normalized(self):
        pl = PreprocessPipeline(("log2p1", "standardize"))
        assert pl.steps == (("log2p1",), ("standardize",))

    def test_parameter_coerced_to_float(self):
        pl = PreprocessPipeline((("iqr_filter", 1),))
        assert pl.steps == (("iqr_filter", 1.0),)

    @pytest.mark.parametrize(
        "steps",
        [
            (("median_polish",),),
            (("iqr_filter",),),  # missing parameter
            (("log2p1", 2.0),),  # takes none
            (("low_variance_filter", -0.1),),
            (("iqr_outlier_filter", float("nan")),),
        ],
    )
    def test_bad_steps_rejected(self, steps):
        with pytest.raises(DataValidationError):
            PreprocessPipeline(steps)


class TestApplyPipeline:
    def test_empty_pipeline_is_identity(self):
        d = make_balanced(10, 3, seed=0)
        res = apply_pipeline(PreprocessPipeline(), d)
        np.testing.assert_array_equal(res.dataset.X, d.X)
        assert res.kept_indices == (0, 1, 2)

    def test_log2p1_values(self):
        d = Dataset(np.array([[0.0, 1.0, 3.0], [7.0, 15.0, 0.0]]))
        res = apply_pipeline(PreprocessPipeline(("log2p1",)), d)
        np.testing.assert_allclose(
            res.dataset.X, [[0.0, 1.0, 2.0], [3.0, 4.0, 0.0]], rtol=1e-15
        )

    def test_log2p1_domain_error_names_cell(self):
        d = Dataset(np.array([[0.0, -1.5]]), columns=("a", "b"))
        with pytest.raises(DomainError, match="row 1, column 'b'"):
            apply_pipeline(PreprocessPipeline(("log2p1",)), d)

    def test_iqr_filter_drops_narrow_columns(self):
        X = np.column_stack([np.arange(10.0), np.full(10, 5.0), np.arange(10.0) * 3])
        d = Dataset(X, columns=("wide", "flat", "wider"))
        res = apply_pipeline(PreprocessPipeline((("iqr_filter", 1.0),)), d)
        assert res.column_map == ("wide", "wider")
        assert res.kept_indices == (0, 2)
        np.testing.assert_array_equal(res.dataset.X, X[:, [0, 2]])

    def test_iqr_filter_threshold_is_strict(self):
        # column IQR exactly t must be dropped (kept only when IQR > t)
        X = np.column_stack([np.arange(10.0), np.arange(10.0)])
        d = Dataset(X, columns=("a", "b"))
        iqr = 4.5
        res = apply_pipeline(PreprocessPipeline((("iqr_filter", iqr - 0.01),)), d)
        assert res.column_map == ("a", "b")
        with pytest.raises(DataValidationError, match="removed every column"):
            apply_pipeline(PreprocessPipeline((("iqr_filter", iqr),)), d)

    def test_low_variance_filter(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.normal(0, 2.0, 60), rng.normal(0, 0.01, 60)])
        d = Dataset(X, columns=("loud", "quiet"))
        res = apply_pipeline(PreprocessPipeline((("low_variance_filter", 0.1),)), d)
        assert res.column_map == ("loud",)

    def test_outlier_filter_is_per_group(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(40, 2))
        y = np.array([0, 1] * 20)
        # group means differ wildly on column 0, but within-group it is tame
        X[y == 1, 0] += 100.0
        X[4, 1] = 50.0  # a genuine within-group outlier on column 1
        d = Dataset(X, y, columns=("shifted", "spiky"))
        res = apply_pipeline(PreprocessPipeline((("iqr_outlier_filter", 3.0),)), d)
        assert res.column_map == ("shifted",)

    def test_outlier_filter_needs_labels(self):
        d = Dataset(np.zeros((4, 2)) + np.arange(4.0)[:, None])
        with pytest.raises(DataValidationError, match="labeled"):
            apply_pipeline(PreprocessPipeline((("iqr_outlier_filter", 3.0),)), d)

    def test_standardize_moments(self):
        d = make_balanced(30, 4, seed=2, shift=1.0, k=2)
        res = apply_pipeline(PreprocessPipeline(("standardize",)), d)
        X = res.dataset.X
        np.testing.assert_allclose(X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(X.std(axis=0, ddof=1), 1.0, rtol=1e-12)

    def test_standardize_idempotent(self):
        d = make_balanced(30, 4, seed=3, shift=1.0, k=2)
        once = apply_pipeline(PreprocessPipeline(("standardize",)), d).dataset
        twice = apply_pipeline(PreprocessPipeline(("standardize",)), once).dataset
        np.testing.assert_allclose(twice.X, once.X, atol=1e-10)

    def test_standardize_rejects_constant_column(self):
        d = Dataset(np.column_stack([np.arange(5.0), np.full(5, 2.0)]),
                    columns=("a", "flat"))
        with pytest.raises(DomainError, match="constant column 'flat'"):
            apply_pipeline(PreprocessPipeline(("standardize",)), d)

    def test_declared_order_executes(self):
        # standardizing first rescales every column, so the IQR filter sees
        # comparable spreads and keeps both; filtering first drops the quiet one
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.normal(0, 5.0, 50), rng.normal(0, 0.01, 50)])
        d = Dataset(X, columns=("loud", "quiet"))
        first = apply_pipeline(
            PreprocessPipeline((("iqr_filter", 0.5), "standardize")), d
        )
        assert first.column_map == ("loud",)
        second = apply_pipeline(
            PreprocessPipeline(("standardize", ("iqr_filter", 0.5))), d
        )
        assert second.column_map == ("loud", "quiet")

    def test_column_map_composition(self):
        rng = np.random.default_rng(5)
        X = np.column_stack(
            [rng.normal(0, 1, 30), np.full(30, 1.0), rng.normal(0, 2, 30),
             np.full(30, 3.0), rng.normal(0, 3, 30)]
        )
        names = ("a", "b", "c", "d", "e")
        d = Dataset(X, columns=names)
        res = apply_pipeline(
            PreprocessPipeline((("low_variance_filter", 0.01), "standardize")), d
        )
        assert res.column_map == tuple(names[i] for i in res.kept_indices)
        assert res.dataset.columns == res.column_map
        assert res.column_map == ("a", "c", "e")

    def test_labels_carried_through(self):
        d = make_balanced(20, 3, seed=6)
        res = apply_pipeline(PreprocessPipeline(("standardize",)), d)
        np.testing.assert_array_equal(res.dataset.y, d.y)


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
        rows2 = prediction_rows(pred, row_ids=["a", "b", "c"])
        assert rows2[1]["row_id"] == "b"
        with pytest.raises(DataValidationError, match="row_ids length"):
            prediction_rows(pred, row_ids=["only-one"])

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
