"""Each correctness check accepts the program's real output and rejects a
perturbed one.  Run from the repository root:

    python3 -m pytest perfbench/test_checks.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import vbda  # noqa: E402
from workloads import WORKLOADS, _planted  # noqa: E402


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(3)
    X, y, X_new, signal = _planted(rng, 60, 300, 12, 5, 2.5)
    d = vbda.Dataset(X, y)
    fits = {"vlda": vbda.fit_vlda(d), "vqda": vbda.fit_vqda(d)}
    return {"X": X, "y": y, "X_new": X_new, "signal": signal.tolist(), "fits": fits,
            "ref": checks.mles(X, y)}


def _stats(f) -> dict:
    return {k: getattr(f.stats, k) for k in checks.STAT_FIELDS + ("n", "n1", "n0")}


def _predict(f, X_new, kind):
    return vbda.predict(f, X_new, coupled=kind == "coupled")


KINDS = (("vlda", "vlda"), ("vqda", "vqda"), ("coupled", "vlda"))


def test_real_outputs_pass(case):
    ref = case["ref"]
    for model, f in case["fits"].items():
        checks.check_stats(_stats(f), ref)
        checks.check_fixed_point(model, f.w, ref)
        checks.check_planted(np.flatnonzero(f.w > 0.5).tolist(), case["signal"])
    for kind, model in KINDS:
        f = case["fits"][model]
        pred = _predict(f, case["X_new"], kind)
        checks.check_prediction(kind, f.w, ref, case["X_new"], pred.y_tilde, pred.labels,
                                pred.score)


@pytest.mark.parametrize("field", checks.STAT_FIELDS)
def test_stats_check_rejects_one_changed_entry(case, field):
    stats = _stats(case["fits"]["vlda"])
    stats[field] = stats[field].copy()
    stats[field][7] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_stats(stats, case["ref"])


def test_stats_check_rejects_columns_misaligned_by_one(case):
    stats = {k: np.roll(v, 1) if k in checks.STAT_FIELDS else v
             for k, v in _stats(case["fits"]["vlda"]).items()}
    with pytest.raises(checks.CheckFailed):
        checks.check_stats(stats, case["ref"])


@pytest.mark.parametrize("model", ["vlda", "vqda"])
def test_fixed_point_check_rejects_one_changed_w_entry(case, model):
    f = case["fits"][model]
    for j in (case["signal"][0], 0 if case["signal"][0] else 1):
        w = f.w.copy()
        w[j] = 0.5
        with pytest.raises(checks.CheckFailed):
            checks.check_fixed_point(model, w, case["ref"])


def test_fixed_point_check_rejects_the_other_models_w(case):
    with pytest.raises(checks.CheckFailed):
        checks.check_fixed_point("vqda", np.full(300, 0.5), case["ref"])


def test_planted_check_rejects_a_missed_signal(case):
    selected = np.flatnonzero(case["fits"]["vlda"].w > 0.5).tolist()
    with pytest.raises(checks.CheckFailed):
        checks.check_planted(selected[1:], case["signal"])


@pytest.mark.parametrize("kind,model", KINDS)
def test_prediction_check_rejects_columns_misaligned_by_one(case, kind, model):
    f = case["fits"][model]
    pred = _predict(f, np.roll(case["X_new"], 1, axis=1), kind)
    with pytest.raises(checks.CheckFailed):
        checks.check_prediction(kind, f.w, case["ref"], case["X_new"], pred.y_tilde,
                                pred.labels, pred.score)


@pytest.mark.parametrize("kind,model", KINDS)
def test_prediction_check_rejects_one_changed_w_entry(case, kind, model):
    f = case["fits"][model]
    pred = _predict(f, case["X_new"], kind)
    w = f.w.copy()
    w[case["signal"][0]] = 0.5
    with pytest.raises(checks.CheckFailed):
        checks.check_prediction(kind, w, case["ref"], case["X_new"], pred.y_tilde,
                                pred.labels, pred.score)


def test_prediction_check_rejects_a_flipped_label(case):
    f = case["fits"]["vlda"]
    pred = _predict(f, case["X_new"], "vlda")
    labels = pred.labels.copy()
    labels[0] = 1 - labels[0]
    with pytest.raises(checks.CheckFailed):
        checks.check_prediction("vlda", f.w, case["ref"], case["X_new"], pred.y_tilde,
                                labels)


def test_cv_check(case):
    y = case["y"]
    report = vbda.kfold_cv(vbda.Dataset(case["X"], y), 5, reps=2, seed=1)
    checks.check_cv_errors(report.errors, y)
    with pytest.raises(checks.CheckFailed):
        checks.check_cv_errors([0.0, 0.3], y)


def test_consistency_check():
    ns = (100, 400)
    zeros = np.zeros((2, 3))
    checks.check_consistency(ns, [[5.0, 6.0, 7.0], [0.1, 0.2, 0.0]], zeros, zeros)
    for bad in ({"E": [[0.1, 0.1, 0.1], [0.2, 0.3, 0.2]]},
                {"fp": [[0, 0, 0], [1, 1, 0]]},
                {"fn": [[3, 3, 3], [0, 2, 1]]}):
        args = {"E": [[5.0, 6.0, 7.0], [0.1, 0.2, 0.0]], "fp": zeros, "fn": zeros}
        args.update(bad)
        with pytest.raises(checks.CheckFailed):
            checks.check_consistency(ns, args["E"], args["fp"], args["fn"])


def test_benchmark_json_names_the_metrics_the_code_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS) == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER
