"""Benchmark of scendo on the circle problem: ``solve``, ``certify`` and
``sequential`` workloads (see workloads.py for what each one exercises).

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout: scendo is imported from ``src/``.
Each workload is a closed loop with one client, and BLAS/OpenMP are pinned
to one thread in this process's environment before numpy loads.

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload is repeated on the same inputs until ``--seconds`` have passed
(at least ``MIN_RUNS`` times) and ``wall_s`` is the median run, scaled to
a reference host speed.  The speed of a shared 2-core host drifts by tens
of percent over minutes (identical certify runs took 12.6 to 19.8 s), so
each run's wall time is multiplied by ``CALIBRATION_REF_S`` over the mean
of the ``calibrate()`` times measured just before and after it; the raw
times are printed as well.  ``setup_s``
is the median over ``SETUP_PROBES`` fresh interpreters of the time from
launch to the first workload call (imports, spec, data); ``peak_rss_mb``
is this process's peak resident memory.

``--trace 1`` runs the workload once untraced and twice traced and reports
the per-layer metrics of layers.py.  The traced outputs must equal the
untraced ones, the two traced runs must agree on every count, and the
trace must attribute at least ``MIN_COVERAGE`` of the run to a layer.
Spans are written to ``perfbench/out/``.

Every run checks the workload's outputs: invariants always, and the
values recorded in reference.json at the default data seeds.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed check makes the exit
code 1.  Without ``src/scendo`` the command exits with code 1 and prints
no result.
"""

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

WORKLOADS = ("solve", "certify", "sequential")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_RUNS = 2
SETUP_PROBES = 3
MIN_COVERAGE = 0.9
#: calibrate() work, and the time it takes at the reference host speed
CALIBRATION_STEPS = 12000
CALIBRATION_REF_S = 1.0


def load_scendo():
    """Import scendo from the checkout's src/ and the benchmark modules."""
    init = SRC / "scendo" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a scendo checkout")
    sys.path.insert(0, str(SRC))
    import scendo
    import workloads

    if Path(scendo.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported scendo from {scendo.__file__}, not {init}")
    return workloads


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_omp_threads": int(os.environ["OMP_NUM_THREADS"]),
    }


def measure_setup(args) -> float:
    """Median time from launching an interpreter to its first workload call."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--data-seed", str(args.data_seed), "--seed", str(args.seed), "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]) - launched)
    return statistics.median(times)


class Tally:
    """Operations and failed checks over all runs of one process."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, runner, spec, data):
        """One run of the workload; returns (wall seconds, outputs or None)."""
        out = self.workloads.Outcome()
        start = time.perf_counter()
        try:
            runner(spec, data, out)
        except Exception:  # an operation raised: count it, report it, stop
            traceback.print_exc(file=sys.stderr)
            out.op("operation", False, "raised, see standard error")
            out.outputs = None
        wall = time.perf_counter() - start
        self.attempted += out.attempted
        self.failed += out.failed
        self.problems += out.problems
        return wall, out.outputs

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def check_reference(workloads, tally, name, data_seed, outputs) -> None:
    if outputs is None or data_seed != workloads.DEFAULT_SEEDS[name]:
        return
    reference = workloads.load_reference()[name]
    for problem in workloads.reference_problems(name, outputs, reference):
        tally.expect(False, f"reference: {problem}")


def calibrate() -> float:
    """Seconds taken by a fixed numpy kernel shaped like scendo's hot path:
    sorts, interpolation and reductions over short rows, driven from Python."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal((64, 12, 10))
    acc = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        s = np.sort(x + i * 1e-3, axis=-1)
        q = s[..., 8] + 0.5 * (s[..., 9] - s[..., 8])
        acc += float(np.sum(np.maximum(q, 0.0) ** 2))
    return time.perf_counter() - start


def untraced(args, workloads, spec, data, tally) -> dict:
    setup_s = measure_setup(args)
    runner = workloads.RUNNERS[args.workload]
    walls, scaled, first = [], [], None
    calibrations = [calibrate()]
    start = time.perf_counter()
    while True:
        wall, outputs = tally.run(runner, spec, data)
        calibrations.append(calibrate())
        walls.append(wall)
        # host speed around this run: the calibrations just before and after it
        scaled.append(wall * CALIBRATION_REF_S / statistics.mean(calibrations[-2:]))
        if outputs is None:
            break
        if first is None:
            first = outputs
        tally.expect(outputs == first, f"run {len(walls)} outputs differ from run 1")
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_RUNS and elapsed + statistics.median(walls) > args.seconds:
            break
    check_reference(workloads, tally, args.workload, args.data_seed, first)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"runs: {len(walls)}, wall per run (s): {' '.join(f'{w:.4f}' for w in walls)}, "
          f"median {statistics.median(walls):.4f}")
    print(f"calibrations (s): {' '.join(f'{c:.4f}' for c in calibrations)}")
    return {
        "wall_s": statistics.median(scaled),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }


def traced(args, workloads, spec, data, tally) -> dict:
    import layers

    runner = workloads.RUNNERS[args.workload]
    plain_wall, plain = tally.run(runner, spec, data)
    check_reference(workloads, tally, args.workload, args.data_seed, plain)
    tracers, walls, counts = [], [], []
    for i in range(2):
        tracer = layers.Tracer(f"{args.workload}-{args.data_seed}-{args.seed}-{i + 1}")
        traced_spec = layers.traced_spec(tracer, spec)
        with layers.installed(tracer):
            wall, outputs = tally.run(
                lambda *a: tracer.call(layers.ROOT, runner, *a), traced_spec, data
            )
        tally.expect(outputs == plain, f"traced run {i + 1} outputs differ from the untraced run")
        tracers.append(tracer)
        walls.append(wall)
        metrics = layers.layer_metrics(tracer)
        counts.append(layers.count_metrics(metrics))
        tally.expect(
            metrics["trace.coverage"] >= MIN_COVERAGE,
            f"traced run {i + 1}: coverage {metrics['trace.coverage']:.4f} < {MIN_COVERAGE}",
        )
    for key in counts[0]:
        tally.expect(counts[0][key] == counts[1][key],
                     f"{key} differs between traced runs: {counts[0][key]} vs {counts[1][key]}")
    OUT_DIR.mkdir(exist_ok=True)
    layers.write_spans(OUT_DIR / f"spans-{args.workload}-{args.data_seed}-{args.seed}.csv.gz", tracers)
    metrics = layers.layer_metrics(tracers[0])
    metrics["trace.overhead_s"] = statistics.median(walls) - plain_wall
    print(f"untraced wall {plain_wall:.4f} s, traced walls {' '.join(f'{w:.4f}' for w in walls)} s")
    return {k: (v, layers.METRICS[k]) for k, v in metrics.items()}


def run_one(args) -> int:
    workloads = load_scendo()
    if args.data_seed is None:
        args.data_seed = workloads.DEFAULT_SEEDS[args.workload]
    spec = workloads.base_spec()
    data = workloads.make_data(args.workload, args.data_seed, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0
    tally = Tally(workloads)
    if args.trace:
        metrics = traced(args, workloads, spec, data, tally)
    else:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in untraced(args, workloads, spec, data, tally).items()}
    print(f"workload {args.workload}, data seed {args.data_seed}, seed {args.seed}, trace {args.trace}")
    print(f"environment: {json.dumps(environment())}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    print(f"  {'failed_frac':32s} {tally.failed / max(tally.attempted, 1):14.6f} ratio"
          f"  ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not tally.problems and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table and one result."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        try:
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: exit code {proc.returncode}, no result")
            return proc.returncode or 1
        code = code or proc.returncode
    print(f"{'metric':32s} " + " ".join(f"{n:>14s}" for n in WORKLOADS) + "  unit")
    for key, metric in results[WORKLOADS[0]]["metrics"].items():
        print(f"{key:32s} " + " ".join(f"{results[n]['metrics'][key]['value']:14.6f}" for n in WORKLOADS)
              + f"  {metric['unit']}")
    print(f"{'failed_frac':32s} "
          + " ".join(f"{results[n]['failed'] / results[n]['attempted']:14.6f}" for n in WORKLOADS)
          + "  ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="seed of the scenario row order")
    parser.add_argument("--data-seed", type=int, default=None,
                        help="seed of the generated scenario sets (default: the workload's own); "
                             "reference values are checked only at the default")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
