#!/usr/bin/env python3
"""Sweep the sixteen simulation settings with both models.

For every (setting, replicate) pair this draws train/test splits, fits the
linear and quadratic variants, and records test error plus selection quality
against the generating truth.  Medians per cell go to stdout, the full
replicate-level table to --out-dir/study.tsv.
"""

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from vbda import (
    Hyperparameters,
    classification_error,
    derive_seed,
    generate,
    mcc,
    predict,
    select_variables,
    setting_from_index,
)
from vbda.dataio import write_json, write_tsv
from vbda.rcvb import _FITTERS


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--settings", default="1-16",
                    help="comma list and/or a-b ranges, e.g. '1,5-8'")
    ap.add_argument("--reps", type=int, default=25)
    ap.add_argument("--p", type=int, default=None)
    ap.add_argument("--n-train", type=int, default=None)
    ap.add_argument("--n-test", type=int, default=None)
    ap.add_argument("--delta-sigma", type=float, default=None)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out-dir", default="study_out")
    return ap.parse_args()


def parse_settings(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if "-" in tok:
            lo, hi = tok.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        elif tok:
            out.append(int(tok))
    return out


def main():
    args = parse_args()
    h = Hyperparameters()
    overrides = {"n_valid": 0}
    if args.p is not None:
        overrides["p"] = args.p
    if args.n_train is not None:
        overrides["n_train"] = args.n_train
    if args.n_test is not None:
        overrides["n_test"] = args.n_test
    if args.delta_sigma is not None:
        overrides["delta_sigma"] = args.delta_sigma

    rows = [("setting", "model", "rep", "error", "mcc", "selected")]
    summary = {}
    for index in parse_settings(args.settings):
        setting = setting_from_index(index, **overrides)
        for model, fitter in _FITTERS.items():
            errs, mccs = [], []
            t0 = time.perf_counter()
            for rep_i in range(args.reps):
                rep = generate(replace(setting, seed=derive_seed(args.seed, index, rep_i)))
                f = fitter(rep.train, h)
                err = classification_error(predict(f, rep.test).labels, rep.test.y)
                selected = select_variables(f)
                quality = mcc(selected, rep.gamma_true)
                errs.append(err)
                mccs.append(quality)
                rows.append((index, model, rep_i, err, quality, len(selected)))
            summary[(index, model)] = (
                float(np.median(errs)), float(np.median(mccs)),
                time.perf_counter() - t0,
            )
            e, q, secs = summary[(index, model)]
            print(f"setting {index:>2} {model}: median error {e:.4f}, "
                  f"median mcc {q:.3f}  ({secs:.1f}s)")

    os.makedirs(args.out_dir, exist_ok=True)
    write_tsv(rows, os.path.join(args.out_dir, "study.tsv"))
    write_json(
        {f"{i}:{m}": {"median_error": e, "median_mcc": q}
         for (i, m), (e, q, _) in summary.items()},
        os.path.join(args.out_dir, "study_summary.json"),
    )
    print(f"wrote {len(rows) - 1} rows -> {args.out_dir}/study.tsv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
