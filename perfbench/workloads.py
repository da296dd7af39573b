"""The three benchmark workloads.

Each workload runs the same four user operations -- fit, predict,
cross-validate, consistency experiment -- in its own regime, so every
end-to-end metric exists on every workload while each workload stresses
different layers:

* ``cli_wide_csv``: everything through ``vbda.cli.main`` on named CSV files
  (n = 100, p = 5000).  CSV parsing, JSON writes, state reload and column
  alignment outweigh the model, so ``dataio`` does most of the work.
* ``lib_xwide``: in-memory library calls at n = 100, p = 200000: a few huge
  calls where ``core.compute_stats``, the ``rcvb`` cycle kernel and
  ``predict_vqda`` do nearly all the work and peak memory limits p.
* ``eval_sweeps``: the same ``core`` and ``rcvb`` code as many small calls:
  repeated stratified CV of both models on a 120 x 2000 matrix and the
  consistency experiment on a global AR(1) setting with n up to 1600.

Inputs come from the seed alone.  Planted signal columns sit at seeded
positions with a mean shift large enough to be selected at every seed.  The
program receives only the generated inputs; the checks in ``checks`` see
the same inputs and recompute every output from them.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

import checks
import vbda
from vbda import cli

def _planted(rng, n: int, p: int, m: int, planted: int, shift: float):
    """Balanced labels, standard normal noise, ``planted`` seeded signal
    columns shifted by ``shift`` in group 1; plus m new rows of the same law."""
    signal = np.sort(rng.choice(p, size=planted, replace=False))
    y = rng.permutation(np.arange(n) % 2)
    X = rng.standard_normal((n, p))
    X[np.ix_(y == 1, signal)] += shift
    y_new = rng.integers(0, 2, size=m)
    X_new = rng.standard_normal((m, p))
    X_new[np.ix_(y_new == 1, signal)] += shift
    return X, y, X_new, signal


def _stats_dict(s) -> dict:
    return {k: getattr(s, k) for k in checks.STAT_FIELDS + ("n", "n1", "n0")}


def _read_tsv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def _curve(rows, field: str, ns, reps: int) -> np.ndarray:
    out = np.empty((len(ns), reps))
    for r in rows:
        out[ns.index(int(r["n"])), int(r["rep"])] = float(r[field])
    return out


class Workload:
    """Inputs made by ``generate``; ``ops`` lists one round of
    (end-to-end metric, operation); ``check`` verifies the last round."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError


class CliWideCsv(Workload):
    """``vbda fit``, ``predict``, ``cv`` and ``consistency`` through
    ``vbda.cli.main``.  The training CSV holds integer expression-style
    counts (so the parsed values are exact) under gene-like column names;
    the CSV of new rows lists its columns in a seeded permutation."""

    n, p, m, planted, shift = 100, 5000, 50, 20, 2.5
    folds = 5
    consistency_ns, consistency_reps = (100, 200, 1600), 3

    def _path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def _write_csv(self, path: str, header, rows) -> None:
        # The benchmark's own writer, so that set-up times no layer of vbda.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(str, row)) + "\n")

    def _write_inputs(self, tag: str, n, p, m, planted, shift) -> dict:
        rng = np.random.default_rng([self.seed, n, p])
        X, y, X_new, signal = _planted(rng, n, p, m, planted, shift)
        counts = np.rint(1000.0 + 100.0 * X).astype(np.int64)
        counts_new = np.rint(1000.0 + 100.0 * X_new).astype(np.int64)
        names = [f"g{j:05d}" for j in range(p)]
        order = rng.permutation(p)
        files = {"train": self._path(f"{tag}train.csv"), "new": self._path(f"{tag}new.csv")}
        self._write_csv(files["train"], ["label"] + names,
                        ([int(label)] + row for label, row in zip(y, counts.tolist())))
        self._write_csv(files["new"], [names[j] for j in order], counts_new[:, order].tolist())
        return dict(files, X=counts.astype(float), y=y, X_new=counts_new.astype(float),
                    names=names, planted=[names[j] for j in signal])

    def generate(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.inputs = self._write_inputs("", self.n, self.p, self.m, self.planted, self.shift)

    def _cli(self, *argv) -> None:
        code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"vbda {argv[0]} exited with code {code}")

    def _round(self, inputs: dict, out: str, consistency: tuple) -> list:
        fit_dir, pred_dir = self._path(out, "fit"), self._path(out, "predict")
        seed = str(self.seed)
        return [
            ("fit_s", lambda: self._cli("fit", "--data", inputs["train"], "--out-dir", fit_dir)),
            ("predict_s", lambda: self._cli(
                "predict", "--state", os.path.join(fit_dir, "fit_state.json"),
                "--data", inputs["new"], "--out-dir", pred_dir)),
            ("cv_s", lambda: self._cli("cv", "--data", inputs["train"], "--k", str(self.folds),
                                       "--seed", seed, "--out-dir", self._path(out, "cv"))),
            ("consistency_s", lambda: self._cli("consistency", *consistency, "--seed", seed,
                                                "--out-dir", self._path(out, "consistency"))),
        ]

    def warm_up(self) -> None:
        tiny = self._write_inputs("tiny-", 12, 8, 3, 2, 3.0)
        for _, op in self._round(tiny, "tiny", ("--setting", "1", "--p", "60",
                                                "--n", "10,20", "--reps", "1")):
            op()

    def ops(self) -> list:
        ns = ",".join(map(str, self.consistency_ns))
        return self._round(self.inputs, "out", ("--setting", "9", "--n", ns,
                                                "--reps", str(self.consistency_reps)))

    def check(self) -> None:
        inp = self.inputs
        ref = checks.mles(inp["X"], inp["y"])
        with open(self._path("out", "fit", "fit_state.json"), encoding="utf-8") as fh:
            state = json.load(fh)
        if state["columns"] != inp["names"]:
            raise checks.CheckFailed("fit_state.json columns differ from the CSV header")
        checks.check_stats(state["stats"], ref)
        checks.check_fixed_point(state["model"], state["w"], ref)
        selection = _read_tsv(self._path("out", "fit", "selection.tsv"))
        if [r["variable_id"] for r in selection] != inp["names"]:
            raise checks.CheckFailed("selection.tsv rows differ from the CSV columns")
        checks.check_planted([r["variable_id"] for r in selection if r["selected"] == "1"],
                             inp["planted"])
        preds = _read_tsv(self._path("out", "predict", "predictions.tsv"))
        checks.check_prediction("vlda", state["w"], ref, inp["X_new"],
                                [float(r["y_tilde"]) for r in preds],
                                [int(r["label"]) for r in preds])
        cv_rows = _read_tsv(self._path("out", "cv", "cv_report.tsv"))
        checks.check_cv_errors([float(r["error"]) for r in cv_rows], inp["y"])
        rows = [r for r in _read_tsv(self._path("out", "consistency", "consistency.tsv"))
                if r["variant"] == "converged"]
        ns, reps = list(self.consistency_ns), self.consistency_reps
        checks.check_consistency(ns, *(_curve(rows, f, ns, reps) for f in ("E", "fp", "fn")))


class Library(Workload):
    """In-memory library calls: ``fit_vlda`` + ``fit_vqda``; one-shot VLDA,
    VQDA and coupled VLDA ``predict``; ``kfold_cv``; ``consistency_experiment``.
    Functions are looked up on the package at call time so that a traced run
    sees every call."""

    n = p = m = planted = folds = 0
    shift = 0.0
    cv_models: tuple = ()
    cv_reps = 1
    consistency_ns: tuple = ()
    consistency_reps = 1

    def consistency_setting(self):
        raise NotImplementedError

    def generate(self) -> None:
        self.X = self.X_new = None  # free the previous draw before the next one
        rng = np.random.default_rng([self.seed, self.n, self.p])
        self.X, self.y, self.X_new, self.signal = _planted(
            rng, self.n, self.p, self.m, self.planted, self.shift)
        self.out = {}

    def warm_up(self) -> None:
        rng = np.random.default_rng(self.seed)
        X, y, X_new, _ = _planted(rng, 12, 8, 3, 2, 3.0)
        tiny = vbda.SimSetting(mean_spec="custom", signal_count=2, signal_mean=1.0, p=20)
        fits = [fit(vbda.Dataset(X, y)) for fit in (vbda.fit_vlda, vbda.fit_vqda)]
        for f in fits:
            vbda.predict(f, X_new)
        vbda.predict(fits[0], X_new, coupled=True)
        vbda.kfold_cv(vbda.Dataset(X, y), 2, seed=self.seed)
        vbda.consistency_experiment(tiny, (10, 20), 1, seed=self.seed)

    def _fit(self, model: str) -> None:
        fitter = vbda.fit_vlda if model == "vlda" else vbda.fit_vqda
        self.out[model] = fitter(vbda.Dataset(self.X, self.y))

    def _predict(self, kind: str) -> None:
        f = self.out["vqda" if kind == "vqda" else "vlda"]
        self.out["pred_" + kind] = vbda.predict(f, self.X_new, coupled=kind == "coupled")

    def _cv(self, model: str) -> None:
        d = vbda.Dataset(self.X, self.y)
        self.out["cv_" + model] = vbda.kfold_cv(d, self.folds, reps=self.cv_reps, model=model,
                                                seed=self.seed)

    def _consistency(self) -> None:
        self.out["consistency"] = vbda.consistency_experiment(
            self.consistency_setting(), self.consistency_ns, self.consistency_reps,
            seed=self.seed)

    def ops(self) -> list:
        return (
            [("fit_s", lambda m=m: self._fit(m)) for m in ("vlda", "vqda")]
            + [("predict_s", lambda k=k: self._predict(k)) for k in ("vlda", "vqda", "coupled")]
            + [("cv_s", lambda m=m: self._cv(m)) for m in self.cv_models]
            + [("consistency_s", self._consistency)]
        )

    def check(self) -> None:
        ref = checks.mles(self.X, self.y)
        for model in ("vlda", "vqda"):
            f = self.out[model]
            checks.check_stats(_stats_dict(f.stats), ref)
            checks.check_fixed_point(model, f.w, ref)
            checks.check_planted(np.flatnonzero(f.w > checks.HYPER["c_w"]).tolist(),
                                 self.signal.tolist())
        for kind in ("vlda", "vqda", "coupled"):
            pred = self.out["pred_" + kind]
            w = self.out["vqda" if kind == "vqda" else "vlda"].w
            checks.check_prediction(kind, w, ref, self.X_new, pred.y_tilde, pred.labels,
                                    pred.score)
        for model in self.cv_models:
            checks.check_cv_errors(self.out["cv_" + model].errors, self.y)
        curve = self.out["consistency"].at_convergence
        checks.check_consistency(curve.ns, curve.E, curve.fp, curve.fn)


class LibXwide(Library):
    n, p, m, planted, shift = 100, 200000, 50, 20, 3.0
    folds, cv_models = 2, ("vlda",)
    consistency_ns, consistency_reps = (25, 50), 1

    def consistency_setting(self):
        # Signals at 4 SD: mostly missed at n = 25, all found at n = 50.
        return vbda.SimSetting(mean_spec="custom", signal_count=self.planted,
                               signal_mean=4.0, p=self.p)


class EvalSweeps(Library):
    n, p, m, planted, shift = 120, 2000, 40, 20, 2.0
    folds, cv_models, cv_reps = 5, ("vlda", "vqda"), 3
    consistency_ns, consistency_reps = (100, 200, 1600), 3

    def consistency_setting(self):
        return vbda.setting_from_index(9)  # 50 signals at 0.7, global AR(1), rho = 0.9


WORKLOADS = {"cli_wide_csv": CliWideCsv, "lib_xwide": LibXwide, "eval_sweeps": EvalSweeps}
