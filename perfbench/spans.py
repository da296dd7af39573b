"""Spans around the calls into each layer of vbda, taken from outside it.

``install`` replaces each traced public function wherever the package binds
it: in the defining module, in every module that took it with
``from .x import y``, in the package namespace, and in module-level dicts
such as the fitter table of ``evalharness``.  Wrapping only the defining
module would miss every call made through those other names.

Spans (name, start, end, parent, round) stay in memory and are written when
the run ends.  A span's self time is its duration minus that of its direct
children; each per-layer metric is the mean over rounds of the per-round
sum of a layer's self times or counts (means add up across layers, medians
do not).  Every round does the same work on the same inputs, so the counts
repeat exactly whatever the run's length.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

_MB = float(2**20)

# Per-layer metrics: name -> unit.
PER_LAYER = {
    "dataio.load_csv_s": "s",
    "dataio.align_to_columns_s": "s",
    "dataio.load_state_s": "s",
    "dataio.save_state_s": "s",
    "dataio.reports_s": "s",
    "dataio.state_mb": "MB",
    "dataio.reports_mb": "MB",
    "core.dataset_s": "s",
    "core.compute_stats_s": "s",
    "core.compute_stats_calls": "count",
    "core.stats_input_mb": "MB",
    "rcvb.fit_self_s": "s",
    "rcvb.fit_calls": "count",
    "rcvb.cycles": "count",
    "rcvb.cycle_elements": "count",
    "rcvb.predict_vlda_s": "s",
    "rcvb.predict_vqda_s": "s",
    "rcvb.predict_coupled_s": "s",
    "rcvb.coupled_iterations": "count",
    "evalharness.kfold_cv_self_s": "s",
    "evalharness.consistency_self_s": "s",
    "simgen.generate_s": "s",
    "simgen.generate_calls": "count",
    "cli.fit_self_s": "s",
    "cli.predict_self_s": "s",
    "cli.cv_self_s": "s",
    "cli.consistency_self_s": "s",
}

# Span name -> the per-layer metric its self time adds to.
SELF_TIME = {
    "dataio.load_csv": "dataio.load_csv_s",
    "dataio.align_to_columns": "dataio.align_to_columns_s",
    "dataio.load_state": "dataio.load_state_s",
    "dataio.save_state": "dataio.save_state_s",
    "dataio.selection_rows": "dataio.reports_s",
    "dataio.prediction_rows": "dataio.reports_s",
    "dataio.write_tsv": "dataio.reports_s",
    "dataio.write_json": "dataio.reports_s",
    "core.Dataset": "core.dataset_s",
    "core.validate_training": "core.dataset_s",
    "core.compute_stats": "core.compute_stats_s",
    "rcvb.fit_vlda": "rcvb.fit_self_s",
    "rcvb.fit_vqda": "rcvb.fit_self_s",
    "rcvb.predict_vlda": "rcvb.predict_vlda_s",
    "rcvb.predict_vqda": "rcvb.predict_vqda_s",
    "rcvb.predict_coupled_vlda": "rcvb.predict_coupled_s",
    "evalharness.kfold_cv": "evalharness.kfold_cv_self_s",
    "evalharness.consistency_experiment": "evalharness.consistency_self_s",
    "simgen.generate": "simgen.generate_s",
    "cli.fit": "cli.fit_self_s",
    "cli.predict": "cli.predict_self_s",
    "cli.cv": "cli.cv_self_s",
    "cli.consistency": "cli.consistency_self_s",
}


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, round]
        self.counts: list[dict] = []  # per round: metric -> amount
        self._stack: list[int] = []

    def begin_round(self) -> None:
        self.counts.append(defaultdict(float))

    def count(self, metric: str, amount: float) -> None:
        self.counts[-1][metric] += amount

    def wrap(self, name, fn, on_exit=None):
        """``fn`` recording one span per call; ``name`` may be a function of
        the call's positional arguments, ``on_exit(tracer, args, result)``
        records counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, len(tracer.counts) - 1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if on_exit is not None:
                on_exit(tracer, args, result)
            return result

        return traced

    def per_layer(self) -> dict:
        """Mean over rounds of each per-layer metric (0 where a layer is
        not called)."""
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        rounds = [defaultdict(float, c) for c in self.counts]
        for i, (name, start, end, _, rnd) in enumerate(self.spans):
            if name in SELF_TIME and rnd >= 0:
                rounds[rnd][SELF_TIME[name]] += end - start - children[i]
        return {m: statistics.fmean(r[m] for r in rounds) for m in PER_LAYER}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "round"],
                       "spans": self.spans}, fh)


def _file_mb(metric):
    def on_exit(tracer, args, result):
        tracer.count(metric, os.path.getsize(args[1]) / _MB)
    return on_exit


def _stats_input(tracer, args, result):
    d = args[0]
    tracer.count("core.compute_stats_calls", 1)
    tracer.count("core.stats_input_mb", d.n * d.p * 8 / _MB)


def _fit_counts(tracer, args, result):
    tracer.count("rcvb.fit_calls", 1)
    tracer.count("rcvb.cycles", result.cycles_run)
    tracer.count("rcvb.cycle_elements", result.cycles_run * result.p)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of cli, dataio, core, rcvb, evalharness and
    simgen at every name the package binds them to."""
    from vbda import cli, core, dataio, evalharness, rcvb, simgen

    targets = [
        (dataio, "load_csv", None),
        (dataio, "align_to_columns", None),
        (dataio, "load_state", None),
        (dataio, "save_state", _file_mb("dataio.state_mb")),
        (dataio, "selection_rows", None),
        (dataio, "prediction_rows", None),
        (dataio, "write_tsv", _file_mb("dataio.reports_mb")),
        (dataio, "write_json", _file_mb("dataio.reports_mb")),
        (core, "compute_stats", _stats_input),
        (rcvb, "fit_vlda", _fit_counts),
        (rcvb, "fit_vqda", _fit_counts),
        (rcvb, "predict_vlda", None),
        (rcvb, "predict_vqda", None),
        (rcvb, "predict_coupled_vlda",
         lambda t, a, r: t.count("rcvb.coupled_iterations", r.iterations)),
        (evalharness, "kfold_cv", None),
        (evalharness, "consistency_experiment", None),
        (simgen, "generate", lambda t, a, r: t.count("simgen.generate_calls", 1)),
    ]
    modules = [m for key, m in sys.modules.items() if key == "vbda" or key.startswith("vbda.")]
    for module, attr, on_exit in targets:
        layer = module.__name__.rsplit(".", 1)[-1]
        original = getattr(module, attr)
        _rebind(modules, original, tracer.wrap(f"{layer}.{attr}", original, on_exit))
    _rebind(modules, cli.main, tracer.wrap(lambda args: f"cli.{args[0][0]}", cli.main))
    dataset = core.Dataset
    dataset.__post_init__ = tracer.wrap("core.Dataset", dataset.__post_init__)
    dataset.validate_training = tracer.wrap("core.validate_training", dataset.validate_training)


def _rebind(modules, original, wrapped) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is original:
                        value[k] = wrapped
