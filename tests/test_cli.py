"""End-to-end command-line runs, in process, against temp directories."""

import argparse
import csv
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vbda
from vbda import Dataset, load_state, save_csv
from vbda import cli
from vbda.cli import main
from vbda.oracle import CHAIN_MAX_P

from conftest import make_balanced


def write_training_csv(tmp_path, n=30, p=4, seed=0, shift=3.0, k=1, name="train.csv"):
    d = make_balanced(n, p, seed=seed, shift=shift, k=k)
    path = tmp_path / name
    save_csv(d, path)
    return path, d


def read_json(path):
    return json.loads(path.read_text())


def read_tsv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def out_files(out):
    return {p.name for p in out.iterdir()}


class TestFit:
    def test_writes_all_outputs(self, tmp_path, capsys):
        data, _ = write_training_csv(tmp_path)
        out = tmp_path / "fit"
        rc = main(["fit", "--data", str(data), "--out-dir", str(out)])
        assert rc == 0
        assert out_files(out) == {
            "fit_state.json", "selection.tsv", "fit_diagnostics.json", "metadata.json",
        }
        diag = read_json(out / "fit_diagnostics.json")
        assert diag["converged"] is True
        assert diag["selected_count"] >= 1
        captured = capsys.readouterr()
        assert "fit vlda" in captured.out
        assert captured.err == ""

    def test_selection_tsv_well_formed(self, tmp_path):
        data, _ = write_training_csv(tmp_path)
        out = tmp_path / "fit"
        main(["fit", "--data", str(data), "--out-dir", str(out)])
        lines = (out / "selection.tsv").read_text().splitlines()
        assert lines[0] == "variable_id\tw\tselected"
        assert len(lines) == 1 + 4
        first = lines[1].split("\t")
        assert first[0] == "v1" and first[2] == "1"
        assert 0.0 <= float(first[1]) <= 1.0

    def test_unconverged_warning_still_exits_zero(self, tmp_path, capsys):
        data, _ = write_training_csv(tmp_path, n=40, p=30, k=10, shift=0.8, seed=3)
        out = tmp_path / "fit"
        rc = main(
            ["fit", "--data", str(data), "--out-dir", str(out),
             "--max-cycles", "1", "--eps", "1e-30"]
        )
        assert rc == 0
        assert "not converged" in capsys.readouterr().err
        assert read_json(out / "fit_diagnostics.json")["converged"] is False

    def test_huge_eps_converges_in_one_cycle(self, tmp_path):
        data, _ = write_training_csv(tmp_path)
        out = tmp_path / "fit"
        main(["fit", "--data", str(data), "--out-dir", str(out), "--eps", "1e6"])
        diag = read_json(out / "fit_diagnostics.json")
        assert diag["cycles_run"] == 1 and diag["converged"] is True

    def test_model_and_hyper_flags_recorded(self, tmp_path):
        data, _ = write_training_csv(tmp_path)
        out = tmp_path / "fit"
        rc = main(
            ["fit", "--data", str(data), "--out-dir", str(out),
             "--model", "vqda", "--cw", "0.9", "--kappa", "0.002"]
        )
        assert rc == 0
        state = load_state(out / "fit_state.json")
        assert state.model == "vqda"
        assert state.hyper.c_w == 0.9 and state.hyper.kappa == 0.002
        meta = read_json(out / "metadata.json")
        assert meta["config"]["cw"] == 0.9
        assert meta["command"] == "fit"
        assert meta["timings"]["seconds"] > 0
        assert meta["version"] == vbda.__version__

    def test_custom_label_column(self, tmp_path):
        d = make_balanced(20, 3, seed=1, shift=2.0, k=1)
        path = tmp_path / "t.csv"
        save_csv(d, path, label_column="grp")
        rc = main(["fit", "--data", str(path), "--label", "grp",
                   "--out-dir", str(tmp_path / "fit")])
        assert rc == 0

    def test_missing_file_is_exit_3(self, tmp_path, capsys):
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_unexpected_exception_is_one_line_exit_1(self, tmp_path, capsys, monkeypatch):
        def boom(args):
            cli._out_dir(args)
            raise RuntimeError("kaput")

        monkeypatch.setattr(cli, "cmd_fit", boom)
        path, _ = write_training_csv(tmp_path)
        out = tmp_path / "fit"
        rc = main(["fit", "--data", str(path), "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: internal error: RuntimeError: kaput\n"
        assert out.is_dir() and not (out / "metadata.json").exists()

    def test_malformed_csv_is_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,a\n1,x\n")
        rc = main(["fit", "--data", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "as a number" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--ay", "--r", "--kappa"])
    def test_non_finite_hyperparameter_is_exit_3(self, tmp_path, capsys, flag):
        # Unchecked, a NaN a_y fits and then scores every row NaN with label 0.
        data, _ = write_training_csv(tmp_path)
        out = tmp_path / "fit"
        field = cli._HYPER_FLAGS[flag][0]
        for value in ("nan", "-inf"):
            rc = main(["fit", "--data", str(data), "--out-dir", str(out), f"{flag}={value}"])
            assert rc == 3
            assert capsys.readouterr().err == f"error: {field} must be finite, got {value}\n"
        assert not out.exists()

    def test_non_utf8_data_is_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("label,café\n1,2\n0,3\n".encode("latin-1"))
        out = tmp_path / "fit"
        rc = main(["fit", "--data", str(bad), "--out-dir", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (byte 0xe9)\n"
        assert not out.exists()


class TestPredict:
    @pytest.fixture()
    def fitted_dir(self, tmp_path):
        # wide margin so resubstitution labels reproduce the training labels
        data, d = write_training_csv(tmp_path, shift=6.0, k=2)
        out = tmp_path / "fit"
        main(["fit", "--data", str(data), "--out-dir", str(out)])
        return out, data, d

    def test_round_trip_labels(self, fitted_dir, tmp_path, capsys):
        out, data, d = fitted_dir
        pred_dir = tmp_path / "pred"
        rc = main(
            ["predict", "--state", str(out / "fit_state.json"),
             "--data", str(data), "--label", "label", "--out-dir", str(pred_dir)]
        )
        assert rc == 0
        assert out_files(pred_dir) == {"predictions.tsv", "metadata.json"}
        rows = read_tsv(pred_dir / "predictions.tsv")
        assert len(rows) == d.n
        labels = np.array([int(r["label"]) for r in rows])
        np.testing.assert_array_equal(labels, np.asarray(d.y))  # separated data
        assert all(0.0 <= float(r["y_tilde"]) <= 1.0 for r in rows)

    def test_unlabeled_input(self, fitted_dir, tmp_path):
        out, _, d = fitted_dir
        newfile = tmp_path / "new.csv"
        save_csv(Dataset(d.X[:5]), newfile)
        rc = main(["predict", "--state", str(out / "fit_state.json"),
                   "--data", str(newfile), "--out-dir", str(tmp_path / "p2")])
        assert rc == 0

    def test_coupled_flag(self, fitted_dir, tmp_path):
        out, _, d = fitted_dir
        newfile = tmp_path / "new.csv"
        save_csv(Dataset(d.X[:3]), newfile)
        rc = main(["predict", "--state", str(out / "fit_state.json"),
                   "--data", str(newfile), "--coupled",
                   "--out-dir", str(tmp_path / "p3")])
        assert rc == 0

    def test_coupled_takes_eps_and_max_cycles(self, fitted_dir, tmp_path):
        out, _, d = fitted_dir
        newfile = tmp_path / "new.csv"
        save_csv(Dataset(d.X[:3]), newfile)
        rc = main(["predict", "--state", str(out / "fit_state.json"),
                   "--data", str(newfile), "--coupled", "--eps", "0.5", "--max-cycles", "1",
                   "--out-dir", str(tmp_path / "p7")])
        assert rc == 0
        assert read_json(tmp_path / "p7" / "metadata.json")["config"]["max_cycles"] == 1

    def test_mismatched_columns_exit_3(self, fitted_dir, tmp_path, capsys):
        out, _, d = fitted_dir
        wrong = Dataset(d.X[:2], columns=("u1", "u2", "u3", "u4"))
        newfile = tmp_path / "wrong.csv"
        save_csv(wrong, newfile)
        rc = main(["predict", "--state", str(out / "fit_state.json"),
                   "--data", str(newfile), "--out-dir", str(tmp_path / "p4")])
        assert rc == 3
        assert "missing model column" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", [[], ["--coupled"]], ids=["vlda", "coupled"])
    def test_value_too_large_to_score_exit_3(self, fitted_dir, tmp_path, capsys, flags):
        out, _, d = fitted_dir
        x = d.X[:2].copy()
        x[-1, 0] = 1.5e308  # finite, but overflows the signal column's product
        newfile = tmp_path / "big.csv"
        save_csv(Dataset(x), newfile)
        rc = main(["predict", "--state", str(out / "fit_state.json"), "--data",
                   str(newfile), "--out-dir", str(tmp_path / "p6"), *flags])
        assert rc == 3
        assert "new observations contain values too large to score" in capsys.readouterr().err

    def test_corrupt_stats_exit_3(self, fitted_dir, tmp_path, capsys):
        out, data, _ = fitted_dir
        doc = read_json(out / "fit_state.json")
        doc["stats"]["var_pooled"] = doc["stats"]["var_pooled"][:-1]
        bad = tmp_path / "bad_state.json"
        bad.write_text(json.dumps(doc))
        rc = main(["predict", "--state", str(bad), "--data", str(data),
                   "--label", "label", "--out-dir", str(tmp_path / "p5")])
        assert rc == 3
        assert "var_pooled" in capsys.readouterr().err
        assert not (tmp_path / "p5" / "metadata.json").exists()

    def test_missing_state_exit_3(self, tmp_path, capsys):
        rc = main(["predict", "--state", str(tmp_path / "none.json"),
                   "--data", str(tmp_path / "none.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc == 3


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path):
        args = ["simulate", "--setting", "1", "--p", "100", "--n", "20",
                "--n-valid", "0", "--n-test", "5", "--seed", "9"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        assert (d1 / "train.csv").read_bytes() == (d2 / "train.csv").read_bytes()
        assert (d1 / "test.csv").read_bytes() == (d2 / "test.csv").read_bytes()
        assert (d1 / "truth.json").read_bytes() == (d2 / "truth.json").read_bytes()
        assert not (d1 / "valid.csv").exists()
        truth = read_json(d1 / "truth.json")
        assert truth["signal_indices"] == list(range(50))

    def test_seed_changes_data(self, tmp_path):
        base = ["simulate", "--setting", "1", "--p", "100", "--n", "20",
                "--n-valid", "0", "--n-test", "0"]
        main(base + ["--seed", "1", "--out-dir", str(tmp_path / "a")])
        main(base + ["--seed", "2", "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a/train.csv").read_bytes() != (tmp_path / "b/train.csv").read_bytes()

    def test_bad_setting_exit_3(self, tmp_path, capsys):
        rc = main(["simulate", "--setting", "20", "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "1..16" in capsys.readouterr().err

    def test_non_finite_delta_sigma_exit_3(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate", "--setting", "1", "--delta-sigma", "nan", "--out-dir", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "error: delta_sigma must be finite, got nan\n"
        assert not out.exists()

    def test_non_integer_n_is_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--setting", "1", "--n", "abc", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_train_csv_loads_back(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--setting", "1", "--p", "60", "--n", "24",
              "--n-valid", "0", "--n-test", "0", "--out-dir", str(out)])
        from vbda import load_csv

        d = load_csv(out / "train.csv", label_column="label")
        assert d.n == 24 and d.p == 60
        assert d.columns[:2] == ("v1", "v2")


class TestCV:
    def test_report_written(self, tmp_path):
        data, _ = write_training_csv(tmp_path, n=24, p=3, shift=6.0, k=2)
        out = tmp_path / "cv"
        rc = main(["cv", "--data", str(data), "--k", "4", "--reps", "2",
                   "--out-dir", str(out), "--seed", "5"])
        assert rc == 0
        assert out_files(out) == {"cv_report.tsv", "metadata.json"}
        rows = read_tsv(out / "cv_report.tsv")
        assert len(rows) == 2
        assert rows[0]["misclassified"] == "0"  # strongly separated
        assert list(rows[0]) == ["rep", "misclassified", "error"]

    def test_reports_identical_across_runs(self, tmp_path):
        # timing lives in metadata.json only, so the data files repeat
        data, _ = write_training_csv(tmp_path, n=24, p=3, seed=4)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["cv", "--data", str(data), "--k", "3", "--reps", "2",
                         "--seed", "7", "--out-dir", str(out)]) == 0
        assert (a / "cv_report.tsv").read_bytes() == (b / "cv_report.tsv").read_bytes()

    def test_vqda_and_coupled_variants(self, tmp_path):
        data, _ = write_training_csv(tmp_path, n=24, p=3, seed=4)
        rc = main(["cv", "--data", str(data), "--k", "3", "--model", "vqda",
                   "--out-dir", str(tmp_path / "cv2")])
        assert rc == 0
        rc = main(["cv", "--data", str(data), "--k", "3", "--coupled",
                   "--out-dir", str(tmp_path / "cv3")])
        assert rc == 0

    def test_coupled_vqda_rejected(self, tmp_path, capsys):
        data, _ = write_training_csv(tmp_path, n=24, p=3, seed=4)
        rc = main(["cv", "--data", str(data), "--k", "3", "--model", "vqda",
                   "--coupled", "--out-dir", str(tmp_path / "cv4")])
        assert rc == 3
        assert "vlda only" in capsys.readouterr().err

    def test_bad_k_exit_3(self, tmp_path, capsys):
        data, _ = write_training_csv(tmp_path, n=10, p=2)
        rc = main(["cv", "--data", str(data), "--k", "11",
                   "--out-dir", str(tmp_path / "cv3")])
        assert rc == 3


class TestConsistency:
    def test_small_run(self, tmp_path):
        out = tmp_path / "con"
        rc = main(["consistency", "--setting", "1", "--p", "60",
                   "--n", "20,40", "--reps", "2", "--out-dir", str(out)])
        assert rc == 0
        med = read_json(out / "consistency.json")
        assert set(med) == {"tau1", "converged"}
        assert set(med["converged"]) == {"20", "40"}
        assert set(med["converged"]["20"]) == {"E", "e0", "e1", "fp", "fn"}
        lines = (out / "consistency.tsv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2  # variants * sizes * reps

    def test_bad_n_list_exit_3(self, tmp_path, capsys):
        rc = main(["consistency", "--n", "20,abc",
                   "--out-dir", str(tmp_path / "c2")])
        assert rc == 3
        assert "comma-separated" in capsys.readouterr().err

    def test_empty_n_list_exit_3(self, tmp_path, capsys):
        rc = main(["consistency", "--n", "", "--out-dir", str(tmp_path / "c3")])
        assert rc == 3
        assert "nonempty" in capsys.readouterr().err


class TestOracle:
    def make_files(self, tmp_path, p):
        d = make_balanced(16, p, seed=2, shift=2.0, k=1)
        train = tmp_path / "train.csv"
        save_csv(d, train)
        new = tmp_path / "new.csv"
        save_csv(Dataset(np.zeros((1, p))), new)
        return train, new

    def test_enumeration_outputs(self, tmp_path, capsys):
        train, new = self.make_files(tmp_path, 8)
        out = tmp_path / "or"
        rc = main(["oracle", "--data", str(train), "--new", str(new),
                   "--out-dir", str(out)])
        assert rc == 0
        doc = read_json(out / "oracle.json")
        # The marginals are written once, to oracle.tsv.
        assert set(doc) == {"model", "y_marginal", "log_marginal"}
        rows = read_tsv(out / "oracle.tsv")
        assert [r["variable_id"] for r in rows] == [f"v{j + 1}" for j in range(8)]
        d = vbda.load_csv(train, label_column="label")
        ep = vbda.exact_posterior(d, np.zeros(8), vbda.Hyperparameters())
        assert [float(r["marginal"]) for r in rows] == ep.gamma_marginals.tolist()
        assert [doc["y_marginal"], doc["log_marginal"]] == [ep.y_marginal, ep.log_marginal]
        assert 0.0 <= doc["y_marginal"] <= 1.0
        assert "exact posterior over p=8" in capsys.readouterr().out

    def test_capacity_exit_4(self, tmp_path, capsys):
        train, new = self.make_files(tmp_path, CHAIN_MAX_P + 1)
        rc = main(["oracle", "--data", str(train), "--new", str(new),
                   "--out-dir", str(tmp_path / "or2")])
        assert rc == 4
        assert f"p <= {CHAIN_MAX_P}" in capsys.readouterr().err

    def test_multi_row_new_exit_3(self, tmp_path, capsys):
        train, _ = self.make_files(tmp_path, 4)
        new = tmp_path / "two.csv"
        save_csv(Dataset(np.zeros((2, 4))), new)
        rc = main(["oracle", "--data", str(train), "--new", str(new),
                   "--out-dir", str(tmp_path / "or3")])
        assert rc == 3
        assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--setting", "1", "--p", "60", "--n", "20"],
        ["cv", "--k", "3"],
        ["consistency", "--setting", "1", "--p", "60", "--n", "20", "--reps", "1"],
    ],
    ids=["simulate", "cv", "consistency"],
)
def test_negative_seed_is_exit_3(tmp_path, capsys, argv):
    if argv[0] == "cv":
        data, _ = write_training_csv(tmp_path, n=24, p=3)
        argv = argv + ["--data", str(data)]
    rc = main(argv + ["--seed", "-1", "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "command, seed",
    [("fit", None), ("predict", None), ("oracle", None),
     ("simulate", 3), ("cv", 3), ("consistency", 3)],
)
def test_metadata_records_the_flags_taken(tmp_path, command, seed):
    # fit, predict and oracle draw nothing, so they take no --seed and record
    # none; the config holds exactly the flags the subcommand takes.
    data, _ = write_training_csv(tmp_path, n=24, p=3)
    new = tmp_path / "new.csv"
    save_csv(Dataset(np.zeros((1, 3))), new)
    fit = tmp_path / "fit"
    assert main(["fit", "--data", str(data), "--out-dir", str(fit)]) == 0
    argv = {
        "fit": ["--data", str(data)],
        "predict": ["--state", str(fit / "fit_state.json"), "--data", str(new)],
        "oracle": ["--data", str(data), "--new", str(new)],
        "simulate": ["--setting", "1", "--p", "60", "--n", "20", "--seed", "3"],
        "cv": ["--data", str(data), "--k", "3", "--seed", "3"],
        "consistency": ["--setting", "1", "--p", "60", "--n", "20", "--reps", "1",
                        "--seed", "3"],
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--out-dir", str(out)]) == 0
    meta = read_json(out / "metadata.json")
    assert meta["seed"] == seed
    taken = {flag[2:].replace("-", "_") for flag in TestUsage.OPTIONS[command].split()}
    assert set(meta["config"]) == {"command", *taken}


class TestUsage:
    # Each subcommand's options, its own then the shared ones its code reads:
    # 70 in all.  fit takes all nine hyperparameters because the state holds
    # them for predict and select_variables.
    OPTIONS = {
        "fit": "--data --label --out-dir --model "
               "--ay --by --agamma --r --kappa --cw --cy --eps --max-cycles",
        "predict": "--state --data --label --coupled --out-dir --ay --by --cy --eps --max-cycles",
        "simulate": "--setting --n --p --n-valid --n-test --delta-sigma --seed --out-dir",
        "cv": "--data --label --k --reps --coupled --seed --out-dir --model "
              "--ay --by --agamma --r --kappa --cy --eps --max-cycles",
        "consistency": "--setting --n --p --reps --seed --out-dir --model "
                       "--agamma --r --kappa --cw --eps --max-cycles",
        "oracle": "--data --label --new --out-dir --model --ay --by --agamma --r --kappa",
    }

    # (subcommand, flag) for each of the 24 flags that a subcommand took and
    # no code of it read.
    REMOVED = [
        ("fit", "--seed"),
        *(("predict", flag) for flag in ("--seed", "--agamma", "--r", "--kappa", "--cw")),
        *(("simulate", flag) for flag in cli._HYPER_FLAGS),
        ("cv", "--cw"),
        *(("consistency", flag) for flag in ("--ay", "--by", "--cy")),
        *(("oracle", flag) for flag in ("--seed", "--cw", "--cy", "--eps", "--max-cycles")),
    ]

    # The required flags of each subcommand, so that a usage error can only
    # come from the flag under test.
    REQUIRED = {
        "fit": ["--data", "x.csv"],
        "predict": ["--state", "s.json", "--data", "x.csv"],
        "simulate": ["--setting", "1"],
        "cv": ["--data", "x.csv"],
        "consistency": [],
        "oracle": ["--data", "x.csv", "--new", "y.csv"],
    }

    @staticmethod
    def options(command):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return [flag for a in sub.choices[command]._actions if a.dest != "help"
                for flag in a.option_strings]

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_each_subcommand_takes_the_flags_it_reads(self, command):
        options = self.options(command)
        assert options == self.OPTIONS[command].split()
        fields, seeded = cli._READS[command]
        hyper = [field for flag, (field, _) in cli._HYPER_FLAGS.items() if flag in options]
        assert sorted(hyper) == sorted(fields) and ("--seed" in options) == seeded

    def test_seventy_options(self):
        assert set(self.OPTIONS) == set(cli._READS)
        assert sum(len(self.options(command)) for command in self.OPTIONS) == 70
        assert len(self.REMOVED) == 24

    @pytest.mark.parametrize("flag", ["--eps", "--max-cycles"])
    def test_predict_flag_without_coupled_is_exit_2(self, capsys, flag):
        # Only the coupled label updates read these; without --coupled they
        # would change nothing.
        with pytest.raises(SystemExit) as exc:
            main(["predict", *self.REQUIRED["predict"], flag, "1"])
        assert exc.value.code == 2
        assert f"{flag} applies only with --coupled" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", REMOVED)
    def test_removed_flag_is_exit_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.REQUIRED[command], flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_no_subcommand_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", "x.csv", "--frobnicate"])
        assert exc.value.code == 2

    def test_every_hyperparameter_has_a_flag(self):
        fields = {field for field, _ in cli._HYPER_FLAGS.values()}
        assert fields == set(vbda.Hyperparameters.__dataclass_fields__)
        assert len(fields) == len(cli._HYPER_FLAGS)

    def test_threads_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", "x.csv", "--threads", "2"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"vbda {vbda.__version__}\n"


class TestImportPath:
    def test_package_and_cli_load_no_scipy(self):
        src = str(Path(vbda.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import vbda, vbda.cli; "
            "print(','.join(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == ""

    def test_oracle_runs_without_scipy(self, tmp_path):
        # scipy made unimportable: exact_posterior and `vbda oracle` still run.
        train, d = write_training_csv(tmp_path, n=16, p=5)
        new = tmp_path / "new.csv"
        save_csv(Dataset(np.zeros((1, 5))), new)
        src = str(Path(vbda.__file__).resolve().parents[1])
        code = (
            "import sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]); "
            "import numpy as np, vbda, vbda.cli; "
            "d = vbda.load_csv(sys.argv[2], label_column='label'); "
            "print(vbda.exact_posterior(d, np.zeros(5)).y_marginal); "
            "sys.exit(vbda.cli.main(['oracle', '--data', sys.argv[2], '--new', sys.argv[3], "
            "'--out-dir', sys.argv[4]]))"
        )
        out = tmp_path / "or"
        proc = subprocess.run([sys.executable, "-c", code, src, str(train), str(new), str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        y_marginal = float(proc.stdout.splitlines()[0])
        assert read_json(out / "oracle.json")["y_marginal"] == y_marginal
        assert y_marginal == vbda.exact_posterior(d, np.zeros(5)).y_marginal

    @staticmethod
    def project_table():
        from setuptools.config.pyprojecttoml import read_configuration

        pyproject = Path(vbda.__file__).resolve().parents[2] / "pyproject.toml"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
            return read_configuration(pyproject, expand=True)["project"]

    def test_version_stated_once(self):
        # pyproject.toml takes the project version from vbda.__version__.
        assert self.project_table()["version"] == vbda.__version__

    def test_numpy_is_the_one_runtime_dependency(self):
        # scipy and mpmath are test references, in the test extras.
        project = self.project_table()
        assert project["dependencies"] == ["numpy>=1.24"]
        assert {"scipy>=1.10", "mpmath>=1.0"} <= set(project["optional-dependencies"]["test"])

    # The package's 49 public names, sorted; each appears once.
    PUBLIC = [
        "COV_SPECS", "CVReport", "CapacityError", "ConsistencyCurve",
        "ConsistencyResult", "CoreError", "DataValidationError", "Dataset",
        "DomainError", "EvalReport", "ExactPosterior", "FitState",
        "Hyperparameters", "MEAN_SPECS", "Prediction", "SimReplicate",
        "SimSetting", "StateVersionError", "VariableStats", "align_to_columns",
        "ar1_sample", "classification_error", "compute_stats",
        "consistency_experiment", "derive_seed", "exact_posterior", "expit",
        "fit_vlda", "fit_vqda", "generate", "kfold_cv", "lambda_lrt_lda",
        "lambda_lrt_qda", "load_csv", "load_state", "log_b_gamma", "mcc",
        "predict", "predict_coupled_vlda", "predict_vlda", "predict_vqda",
        "save_csv", "save_state", "select_variables", "selection_confusion",
        "setting_from_index", "stratified_folds", "uniform_corr_sample", "xi",
    ]

    def test_public_surface(self):
        src = str(Path(vbda.__file__).resolve().parents[1])
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import vbda; "
            "star = {}; exec('from vbda import *', star); "
            "from vbda.oracle import CHAIN_MAX_P; "
            "from vbda.dataio import selection_rows, prediction_rows, write_tsv, write_json; "
            "print(json.dumps({'all': vbda.__all__, "
            "'unbound': [n for n in vbda.__all__ if not hasattr(vbda, n)], "
            "'star': sorted(set(star) - {'__builtins__'}), "
            "'vars': sorted(n for n in vars(vbda) if not n.startswith('__'))}))"
        )
        proc = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, check=True)
        doc = json.loads(proc.stdout)
        assert sorted(doc["all"]) == self.PUBLIC  # so 49 names, none twice
        assert doc["unbound"] == []
        assert doc["star"] == self.PUBLIC
        modules = ["core", "dataio", "evalharness", "oracle", "rcvb", "simgen"]
        assert doc["vars"] == sorted(self.PUBLIC + modules)
