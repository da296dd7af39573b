#!/usr/bin/env python3
"""Model ranking as group-variance separation grows.

Sweeps delta_sigma (the extra group-0 standard deviation on signal
variables) and reports the median test error of both models at each level.
The linear model should win near zero and the quadratic model should take
over once the variance signal dominates.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from vbda import (
    Hyperparameters,
    SimSetting,
    classification_error,
    derive_seed,
    generate,
    predict,
)
from vbda.dataio import write_json
from vbda.rcvb import _FITTERS


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deltas", default="0,0.4,0.8,1.2,1.6,2.0",
                    help="comma-separated delta_sigma values")
    ap.add_argument("--signal-count", type=int, default=25)
    ap.add_argument("--signal-mean", type=float, default=0.7)
    ap.add_argument("--p", type=int, default=500)
    ap.add_argument("--n-train", type=int, default=100)
    ap.add_argument("--n-test", type=int, default=1000)
    ap.add_argument("--reps", type=int, default=25)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out-dir", default="heterogeneity_out")
    return ap.parse_args()


def main():
    args = parse_args()
    h = Hyperparameters()
    deltas = [float(tok) for tok in args.deltas.split(",") if tok]

    doc = {}
    print(f"{'delta_sigma':>11} {'vlda':>8} {'vqda':>8}  better")
    for ds in deltas:
        setting = SimSetting(
            mean_spec="custom", cov_spec="independence",
            signal_count=args.signal_count, signal_mean=args.signal_mean,
            p=args.p, n_train=args.n_train, n_valid=0, n_test=args.n_test,
            delta_sigma=ds,
        )
        med = {}
        for model, fitter in _FITTERS.items():
            errs = [
                classification_error(
                    predict(fitter(rep.train, h), rep.test).labels, rep.test.y
                )
                for rep in (
                    generate(replace(setting, seed=derive_seed(args.seed, i)))
                    for i in range(args.reps)
                )
            ]
            med[model] = float(np.median(errs))
        winner = "vqda" if med["vqda"] < med["vlda"] else "vlda"
        doc[str(ds)] = med
        print(f"{ds:>11.2f} {med['vlda']:>8.4f} {med['vqda']:>8.4f}  {winner}")

    os.makedirs(args.out_dir, exist_ok=True)
    write_json(doc, os.path.join(args.out_dir, "heterogeneity.json"))
    print(f"wrote medians -> {args.out_dir}/heterogeneity.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
