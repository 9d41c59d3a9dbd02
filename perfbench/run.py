"""rmrll benchmark: one workload per process, the result as the last stdout line.

    python3 perfbench/run.py --workload bec-m10 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the benchmark imports rmrll from
its ``src`` directory and exits with status 2, printing no result, when
that is missing.  ``--trace 0`` prints the end-to-end metrics
(setup_s, ops_per_s, peak_rss_mib); ``--trace 1`` wraps rmrll's public
functions in spans, prints the per-layer metrics and writes the span
aggregate to perfbench/out/.  See perfbench/README.md.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread, before numpy loads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import spans  # noqa: E402
import workloads  # noqa: E402

# This process's set-up plus six in fresh processes, spread over the
# run so that the median does not rest on one moment of a shared host.
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mib": "MiB"}

# Per-layer metrics: "<span>.<field>"; see README.md for what each field means.
PER_LAYER = (
    "coset.build_plan.s",
    "coset.build_plan.self_s",
    "coset.encode.calls",
    "coset.encode.s",
    "coset.decode.calls",
    "coset.decode.s",
    "coset.decode.self_s",
    "coset.decode.message",
    "coset.decode.ambiguous",
    "coset.decode.failure",
    "coset.decode.useful_ratio",
    "gf2.column_submatrix.calls",
    "gf2.column_submatrix.s",
    "gf2.solve_right.calls",
    "gf2.solve_right.s",
    "gf2.vecmat.calls",
    "gf2.vecmat.s",
    "gf2.rref.s",
    "gf2.rank.s",
    "gf2.rank_of_columns.calls",
    "gf2.rank_of_columns.s",
    "rll.enumerative_encode.calls",
    "rll.enumerative_encode.s",
    "rll.enumerative_decode.calls",
    "rll.enumerative_decode.s",
    "rll.count_constrained.calls",
    "rm.RmCode.s",
    "rm.complement_basis.s",
    "ordering.run_profile.calls",
    "ordering.run_profile.s",
    "subcodes.build_subcode.s",
    "subcodes.RllSubcode.encode.calls",
    "channels.trial_stream.s",
    "channels.transmit.s",
    "cli.main.s",
    "cli.main.self_s",
    "bench.op.s",
)


def layer_unit(metric: str) -> str:
    field = metric.rsplit(".", 1)[1]
    if field == "useful_ratio":
        return "ratio"
    return "s" if field in ("s", "self_s") else "count"


def layer_value(tracer: spans.Tracer, metric: str, ops: int) -> float:
    base, field = metric.rsplit(".", 1)
    if field == "useful_ratio":
        calls = tracer.value(base, "calls", ops)
        return tracer.value(f"{base}.message", "count", ops) / calls if calls else 0.0
    if field in spans.DECODE_STATUSES:
        return tracer.value(metric, "count", ops)
    if base in {name for _, _, name in spans.COUNTERS}:
        return tracer.value(base, "count", ops)
    return tracer.value(base, field, ops)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="rmrll benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="do the workload's set-up only and print its seconds",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_rmrll():
    """rmrll and its command line from this checkout's src/, never from
    an installed copy."""
    if not (SRC / "rmrll" / "__init__.py").is_file():
        print(f"error: rmrll sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    rmrll = importlib.import_module("rmrll")
    importlib.import_module("rmrll.cli")  # not imported by the package itself
    if Path(rmrll.__file__).resolve().parent != (SRC / "rmrll").resolve():
        print(f"error: imported rmrll from {rmrll.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return rmrll


def reimport_rmrll():
    """A freshly imported rmrll, with every module-level cache empty, as
    a new process would start; numpy stays loaded."""
    for name in [n for n in sys.modules if n == "rmrll" or n.startswith("rmrll.")]:
        del sys.modules[name]
    gc.collect()  # the old modules sit in reference cycles with their functions
    rmrll = importlib.import_module("rmrll")
    importlib.import_module("rmrll.cli")
    return rmrll


def probe_setup(args) -> float:
    """Set-up seconds of one fresh process running the same workload."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-probe",
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    rmrll = import_rmrll()
    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, rmrll)
        tracer.begin("setup")
    workload.setup(rmrll)
    setup_s = time.perf_counter() - START
    if tracer is not None:
        tracer.end(setup_s)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s]
    probes = 0 if args.trace else SETUP_SAMPLES - 1

    workload.prepare(rmrll, args.seed)
    tally = workloads.Tally()
    rates = []  # operations completed per timed second, one per round
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < args.seconds:
        due = (time.perf_counter() - start) / args.seconds * probes
        while len(setup_samples) <= min(due, probes):
            setup_samples.append(probe_setup(args))
        if workload.fresh_import:
            rmrll = reimport_rmrll()
            if tracer is not None:
                spans.install(tracer, rmrll)
        completed, seconds = tally.completed, tally.seconds
        workload.run_round(rmrll, tracer, tally)
        rates.append((tally.completed - completed) / (tally.seconds - seconds))
    while len(setup_samples) <= probes:
        setup_samples.append(probe_setup(args))

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": statistics.median(rates),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        metrics = {m: layer_value(tracer, m, tally.attempted) for m in PER_LAYER}
        units = {m: layer_unit(m) for m in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        dump = {
            "workload": args.workload,
            "seed": args.seed,
            "operations": tally.attempted,
            "metrics": metrics,
            "trace": tracer.dump(),
        }
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dump, indent=1) + "\n", encoding="utf-8")
    print(
        f"{args.workload}: {tally.attempted} operations, {tally.failed} failed, "
        f"{tally.seconds:.3f} s timed"
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
