"""Command-line front end.

Each subcommand takes only the flags its code reads, as the table
``_READS`` states: fit takes all nine hyperparameters, because they go into
the fit state that predict and select_variables read, while fit, predict
and oracle draw nothing and take no --seed.  Any other flag is a usage
error.

Every successful run writes its data files plus a metadata.json (its
flags, its seed or null, package version, wall-clock timing) into
--out-dir.  The data files are fit: fit_state.json, selection.tsv and
fit_diagnostics.json (cycle count, final delta, floored variables);
predict: predictions.tsv; simulate: train.csv, valid.csv and test.csv (each
when nonempty) and truth.json; cv: cv_report.tsv; consistency:
consistency.tsv and consistency.json (medians); oracle: oracle.tsv and
oracle.json.  Data files are deterministic given the flags and seed; only
the metadata record carries timing.  stdout is reserved for human-readable
progress.

Exit codes: 0 success, 1 internal error, 2 usage error, 3 data/domain
error, 4 capacity error.  Past argument parsing, every error is reported
as one ``error: ...`` line on stderr, with no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .core import (
    CapacityError,
    DataValidationError,
    DomainError,
    Hyperparameters,
    _column_names,
)
from .dataio import (
    align_to_columns,
    load_csv,
    load_state,
    prediction_rows,
    save_csv,
    save_state,
    selection_rows,
    write_json,
    write_tsv,
)
from .evalharness import consistency_experiment, kfold_cv
from .oracle import CHAIN_MAX_P, exact_posterior
from .rcvb import _FITTERS, predict, select_variables
from .simgen import SimSetting, generate, setting_from_index

__all__ = ["main", "build_parser"]

_HYPER_FLAGS = {
    # flag -> (Hyperparameters field, help); the field's default gives the type
    "--ay": ("a_y", "label prior pseudo-count for group 1"),
    "--by": ("b_y", "label prior pseudo-count for group 0"),
    "--agamma": ("a_gamma", "selection prior numerator constant"),
    "--r": ("r", "penalty exponent (< 1)"),
    "--kappa": ("kappa", "penalty growth constant (> 0)"),
    "--cw": ("c_w", "selection threshold on w"),
    "--cy": ("c_y", "label threshold on y_tilde"),
    "--eps": ("eps", "convergence tolerance on the squared w-step"),
    "--max-cycles": ("max_cycles", "update-cycle cap"),
}

# subcommand -> (the Hyperparameters fields its code reads, whether it takes
# --seed); build_parser gives each subcommand these flags and no others.
_READS = {
    "fit": (tuple(field for field, _ in _HYPER_FLAGS.values()), False),
    "predict": (("a_y", "b_y", "c_y", "eps", "max_cycles"), False),
    "simulate": ((), True),
    "cv": (("a_y", "b_y", "a_gamma", "r", "kappa", "c_y", "eps", "max_cycles"), True),
    "consistency": (("a_gamma", "r", "kappa", "c_w", "eps", "max_cycles"), True),
    "oracle": (("a_y", "b_y", "a_gamma", "r", "kappa"), False),
}


def _add_hyper_flags(p: argparse.ArgumentParser, fields) -> None:
    g = p.add_argument_group("model hyperparameters")
    for flag, (field, text) in _HYPER_FLAGS.items():
        if field in fields:
            g.add_argument(flag, type=type(getattr(Hyperparameters, field)), default=None,
                           help=text)


def _hyper_from_args(args, base: Hyperparameters | None = None) -> Hyperparameters:
    base = base or Hyperparameters()
    overrides = {}
    for flag, (field, _) in _HYPER_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)  # argparse's dest
        if value is not None:
            overrides[field] = value
    return replace(base, **overrides) if overrides else base


def _out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _write_metadata(args, seconds: float) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    doc = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timings": {"seconds": seconds},
    }
    write_json(doc, os.path.join(args.out_dir, "metadata.json"))


def cmd_fit(args) -> int:
    d = load_csv(args.data, label_column=args.label)
    h = _hyper_from_args(args)
    f = _FITTERS[args.model](d, h)
    out = _out_dir(args)
    save_state(f, os.path.join(out, "fit_state.json"))
    write_tsv(selection_rows(f), os.path.join(out, "selection.tsv"))
    names = _column_names(f.columns, f.p)
    diagnostics = {
        "cycles_run": f.cycles_run,
        "converged": f.converged,
        "final_delta": f.final_delta,
        "floored_variables": [names[j] for j in np.flatnonzero(f.stats.floored)],
        "selected_count": len(select_variables(f)),
    }
    write_json(diagnostics, os.path.join(out, "fit_diagnostics.json"))
    if not f.converged:
        print(
            f"warning: stopped after {f.cycles_run} cycles with squared step "
            f"{f.final_delta:.3e} > eps; fit not converged",
            file=sys.stderr,
        )
    print(
        f"fit {args.model}: p={f.p}, n={f.stats.n}, cycles={f.cycles_run}, "
        f"selected={diagnostics['selected_count']} -> {out}"
    )
    return 0


def cmd_predict(args) -> int:
    f = load_state(args.state)
    d = load_csv(args.data, label_column=args.label)
    aligned = align_to_columns(d, f.columns)
    h = _hyper_from_args(args, base=f.hyper)
    pred = predict(f, aligned, h, coupled=args.coupled)
    out = _out_dir(args)
    write_tsv(prediction_rows(pred), os.path.join(out, "predictions.tsv"))
    if not pred.converged:
        print("warning: coupled label updates did not converge", file=sys.stderr)
    print(f"predicted {pred.y_tilde.size} rows with {f.model} -> {out}")
    return 0


def _setting_from_args(args) -> SimSetting:
    overrides = {"seed": args.seed}
    if args.p is not None:
        overrides["p"] = args.p
    if args.n is not None:
        overrides["n_train"] = args.n
    if args.n_valid is not None:
        overrides["n_valid"] = args.n_valid
    if args.n_test is not None:
        overrides["n_test"] = args.n_test
    if args.delta_sigma is not None:
        overrides["delta_sigma"] = args.delta_sigma
    return setting_from_index(args.setting, **overrides)


def cmd_simulate(args) -> int:
    s = _setting_from_args(args)
    r = generate(s)
    out = _out_dir(args)
    save_csv(r.train, os.path.join(out, "train.csv"))
    for name, part in (("valid", r.valid), ("test", r.test)):
        if part is not None:
            save_csv(part, os.path.join(out, f"{name}.csv"))
    write_json(
        {
            "signal_indices": np.flatnonzero(r.gamma_true).tolist(),
            "mu1": r.mu1.tolist(),
            "sigma0": r.sigma0.tolist(),
        },
        os.path.join(out, "truth.json"),
    )
    print(
        f"simulated setting {args.setting}: p={s.p}, n_train={s.n_train}, "
        f"n_valid={s.n_valid}, n_test={s.n_test} -> {out}"
    )
    return 0


def cmd_cv(args) -> int:
    d = load_csv(args.data, label_column=args.label)
    h = _hyper_from_args(args)
    report = kfold_cv(
        d, args.k, reps=args.reps, model=args.model, h=h, seed=args.seed,
        coupled=args.coupled,
    )
    out = _out_dir(args)
    rows = [("rep", "misclassified", "error"),
            *((i, r.misclassified, r.error) for i, r in enumerate(report.reps))]
    write_tsv(rows, os.path.join(out, "cv_report.tsv"))
    med = float(np.median(report.errors))
    print(f"cv {args.model}: k={args.k}, reps={args.reps}, median error {med:.4f} -> {out}")
    return 0


def cmd_consistency(args) -> int:
    try:
        ns = tuple(int(tok) for tok in args.n.split(",") if tok)
    except ValueError:
        raise DataValidationError(f"--n must be a comma-separated integer list, got {args.n!r}")
    s = setting_from_index(args.setting, **({"p": args.p} if args.p is not None else {}))
    h = _hyper_from_args(args)
    result = consistency_experiment(s, ns, args.reps, h=h, seed=args.seed, model=args.model)
    out = _out_dir(args)
    fields = ("E", "e0", "e1", "fp", "fn")
    curves = (("tau1", result.at_tau1), ("converged", result.at_convergence))
    rows = [("variant", "n", "rep", *fields)]
    for tag, curve in curves:
        for i, n in enumerate(curve.ns):
            cells = zip(curve.E[i].tolist(), curve.e0[i].tolist(), curve.e1[i].tolist(),
                        curve.fp[i].astype(int).tolist(), curve.fn[i].astype(int).tolist())
            rows.extend((tag, n, rep, *c) for rep, c in enumerate(cells))
    write_tsv(rows, os.path.join(out, "consistency.tsv"))
    medians = {
        tag: {
            str(n): {f: float(curve.median(f)[i]) for f in fields}
            for i, n in enumerate(curve.ns)
        }
        for tag, curve in curves
    }
    write_json(medians, os.path.join(out, "consistency.json"))
    med_e = medians["converged"][str(ns[-1])]["E"]
    print(f"consistency {args.model}: ns={ns}, reps={args.reps}, "
          f"median E at n={ns[-1]}: {med_e:.3f} -> {out}")
    return 0


def cmd_oracle(args) -> int:
    d = load_csv(args.data, label_column=args.label)
    new = load_csv(args.new)
    if new.X.shape[0] != 1:
        raise DataValidationError(
            f"--new must contain exactly one data row, got {new.X.shape[0]}"
        )
    aligned = align_to_columns(new, d.columns)
    h = _hyper_from_args(args)
    ep = exact_posterior(d, aligned.X[0], h, model=args.model)
    out = _out_dir(args)
    rows = [("variable_id", "marginal"),
            *zip(_column_names(d.columns, d.p), ep.gamma_marginals.tolist())]
    write_tsv(rows, os.path.join(out, "oracle.tsv"))
    doc = {"model": args.model, "y_marginal": ep.y_marginal, "log_marginal": ep.log_marginal}
    write_json(doc, os.path.join(out, "oracle.json"))
    print(f"exact posterior over p={d.p}: P(new label 1) = {ep.y_marginal:.4f} -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbda",
        description="Variational discriminant analysis with variable selection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, command, model=True):
        fields, seeded = _READS[command]
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--out-dir", default=".", help="directory for outputs")
        if model:
            p.add_argument("--model", choices=tuple(_FITTERS), default="vlda")
        _add_hyper_flags(p, fields)

    p_fit = sub.add_parser("fit", help="fit selection probabilities on a labeled CSV")
    p_fit.add_argument("--data", required=True, help="training CSV path")
    p_fit.add_argument("--label", default="label", help="label column name")
    common(p_fit, "fit")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="score new rows with a saved fit state")
    p_pred.add_argument("--state", required=True, help="fit_state.json path")
    p_pred.add_argument("--data", required=True, help="CSV of rows to score")
    p_pred.add_argument("--label", default=None,
                        help="label column of --data to drop before scoring; "
                             "it must be present")
    p_pred.add_argument("--coupled", action="store_true",
                        help="couple the scored rows through the shared label-frequency posterior")
    common(p_pred, "predict", model=False)
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="draw one synthetic replicate")
    p_sim.add_argument("--setting", type=int, required=True, help="setting index 1..16")
    p_sim.add_argument("--n", type=int, default=None, help="training rows")
    p_sim.add_argument("--p", type=int, default=None, help="number of variables")
    p_sim.add_argument("--n-valid", type=int, default=None)
    p_sim.add_argument("--n-test", type=int, default=None)
    p_sim.add_argument("--delta-sigma", type=float, default=None,
                       help="extra group-0 SD on signal variables")
    common(p_sim, "simulate", model=False)
    p_sim.set_defaults(func=cmd_simulate)

    p_cv = sub.add_parser("cv", help="repeated stratified k-fold cross-validation")
    p_cv.add_argument("--data", required=True)
    p_cv.add_argument("--label", default="label")
    p_cv.add_argument("--k", type=int, default=5)
    p_cv.add_argument("--reps", type=int, default=1)
    p_cv.add_argument("--coupled", action="store_true")
    common(p_cv, "cv")
    p_cv.set_defaults(func=cmd_cv)

    p_con = sub.add_parser(
        "consistency", help="selection-error curves over growing n",
        description="Selection-error curves over growing n.  Every setting draws "
                    "each replicate's statistics, not data, from their exact laws: "
                    "O(p) per replicate at any n, so a large --n is cheap.  The curves "
                    "have the law of data draws, but not the values that earlier "
                    "releases drew at the same seed.")
    p_con.add_argument("--setting", type=int, default=1)
    p_con.add_argument("--n", default="100,400,1600",
                       help="comma-separated training sizes")
    p_con.add_argument("--p", type=int, default=None)
    p_con.add_argument("--reps", type=int, default=25)
    common(p_con, "consistency")
    p_con.set_defaults(func=cmd_consistency)

    p_or = sub.add_parser("oracle", help=f"exact posterior by a count chain (p <= {CHAIN_MAX_P})")
    p_or.add_argument("--data", required=True, help="training CSV path")
    p_or.add_argument("--label", default="label")
    p_or.add_argument("--new", required=True, help="CSV with exactly one unlabeled row")
    common(p_or, "oracle")
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        t0 = time.perf_counter()
        rc = args.func(args)
        if rc == 0:
            _write_metadata(args, time.perf_counter() - t0)
        return rc
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
