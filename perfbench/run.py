"""Benchmark of vbda: fit, predict, cross-validation and the consistency
experiment in three regimes (see workloads.py and README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; vbda is imported from ``src/``.  One run sets
up three times (a fresh interpreter's imports, input generation and
warm-up), then repeats whole rounds of the workload's operations for at
least S seconds and checks the last round's outputs.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of spans.py with ``--trace 1``.
``--workload all`` runs every workload, each in a fresh process.
"""

import os

# One BLAS / OpenMP thread, fixed before numpy loads: the machine has few
# cores and the benchmark should load them from a single process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench-out")
NAMES = ("cli_wide_csv", "lib_xwide", "eval_sweeps")
END_TO_END = {"fit_s": "s", "predict_s": "s", "cv_s": "s", "consistency_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
SETUPS = 3  # set-ups per run; setup_s reports their median
IMPORTS = "import sys; sys.path.insert(0, sys.argv[1]); import vbda"


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing vbda and its dependencies;
    a process imports only once, so each set-up times its own."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS, os.path.join(ROOT, "src")], check=True)
    return time.perf_counter() - t0


def measure(workload, seconds: float, tracer=None):
    """Whole rounds of the workload's operations until ``seconds`` have
    passed.  Returns per-round seconds per end-to-end metric and the counts
    of operations attempted and failed."""
    rounds, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.begin_round()
        spent = defaultdict(float)
        for metric, op in workload.ops():
            attempted += 1
            t0 = time.perf_counter()
            try:
                op()
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
            spent[metric] += time.perf_counter() - t0
        rounds.append(spent)
    return rounds, attempted, failed


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "vbda", "__init__.py")):
        print(f"error: no vbda sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    import spans
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            setups = []
            for _ in range(SETUPS):
                spent = import_seconds()
                t0 = time.perf_counter()
                workload.generate()
                workload.warm_up()
                setups.append(spent + time.perf_counter() - t0)
            tracer = None
            if args.trace:
                tracer = spans.Tracer()
                spans.install(tracer)
            rounds, attempted, failed = measure(workload, args.seconds, tracer)
        # Before the checks, whose own arrays must not count as the program's.
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            workload.check()
            correct = True
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The mean over rounds, not the median: the host's speed switches between
    # two states, and the median of a run snaps to whichever state held most
    # of its rounds, while the mean moves with the share of each.
    e2e = {m: statistics.fmean(r[m] for r in rounds) for m in END_TO_END
           if m not in ("peak_rss_mb", "setup_s")}
    e2e["peak_rss_mb"] = peak_mb
    e2e["setup_s"] = statistics.median(setups)
    if tracer is None:
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in e2e.items()}
    else:
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        metrics = {m: {"value": v, "unit": spans.PER_LAYER[m]}
                   for m, v in tracer.per_layer().items()}
        print(f"traced end-to-end ({len(rounds)} rounds): {json.dumps(e2e)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    status = 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}")
        ok = proc.returncode == 0 and lines and json.loads(lines[-1])["correct"]
        status = status or (0 if ok else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
