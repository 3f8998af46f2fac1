"""Benchmark runner for hamosc.

Run from the repository root:

    python3 bench/run.py --workload packaged_analyze --seed 1 --seconds 40 --trace 0

The untraced run (--trace 0) builds the workload's inputs, repeats whole
passes over its ops until --seconds would be exceeded (at least one
pass), checks every output against bench/references.json, and reports
the end-to-end metrics. The traced run (--trace 1) makes one untraced
pass and one pass with the library wrapped by tracing.Tracer, and
reports the per-layer metrics and the tracing overhead. Either run
prints a metric table, writes a result file under bench/results/, and
ends its standard output with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything runs in this one process on one thread; only the set-up
time is taken from fresh processes started one after another.
"""

import os
import sys

# one BLAS / OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the CLI's seed override would change the packaged inputs under the references
os.environ.pop("HAMOSC_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_PROBES = 5  # fresh processes whose median is setup_s
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_gmean_s": "s",
    "op_max_s": "s",
    "peak_rss_mb": "MB",
}


def import_library():
    """Put this checkout's src/ first on the path and import hamosc from it."""
    if not (SRC / "hamosc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hamosc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hamosc

    if Path(hamosc.__file__).resolve().parent != SRC / "hamosc":
        raise SystemExit(f"bench: imported hamosc from {hamosc.__file__}, not from {SRC}")


def set_up(workload: str, seed: int):
    """Everything between `import hamosc` and the first op; returns (ops, references)."""
    import_library()
    import workloads

    refs = workloads.load_references()
    ops = workloads.build(workload, seed, refs)
    op_refs = refs.get(workloads.reference_key(workload, seed), {})
    if workload != "campaign":
        missing = [op.name for op in ops if op.name not in op_refs]
        if missing:
            raise SystemExit(f"bench: no reference output for {missing}")
    return ops, op_refs


def setup_probe(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    set_up(workload, seed)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list:
    """Set-up times of SETUP_PROBES fresh processes, run one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Pass:
    wall_s: float
    times: dict  # op name -> seconds
    outputs: dict  # op name -> output summary
    failures: dict  # op name -> reason


def run_pass(ops, hook, op_refs: dict, tracer=None) -> Pass:
    import workloads
    from hamosc import criteria

    times, outputs, failures = {}, {}, {}
    t_pass = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        before = len(criteria.CONFLICT_LOG)
        output = error = None
        t0 = time.perf_counter()
        try:
            output = op.run(hook)
        except Exception as exc:  # a failing op is counted; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        times[op.name] = time.perf_counter() - t0
        outputs[op.name] = output
        conflicts = len(criteria.CONFLICT_LOG) - before
        why = workloads.check(output, error, conflicts, op_refs.get(op.name))
        if why is not None:
            failures[op.name] = why
    return Pass(time.perf_counter() - t_pass, times, outputs, failures)


def op_group_metrics(ops, times: dict) -> dict:
    """Median op time per group (one op per group, except campaign classes)."""
    import workloads

    groups = {}
    for op in ops:
        groups.setdefault(op.group, []).append(times[op.name])
    out = {name: 0.0 for name in workloads.PER_OP_METRICS}
    out.update({g: statistics.median(v) for g, v in groups.items()})
    return out


def untraced(ops, op_refs, seconds: float):
    """Whole passes until the next one would overrun `seconds`; at least one."""
    start = time.perf_counter()
    passes = [run_pass(ops, lambda s: s, op_refs)]
    while time.perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(run_pass(ops, lambda s: s, op_refs))
    op_s = {op.name: statistics.median(p.times[op.name] for p in passes) for op in ops}
    values = list(op_s.values())
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_p50_s": statistics.median(values),
        "op_gmean_s": statistics.geometric_mean(values),
        "op_max_s": max(values),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, metrics, op_group_metrics(ops, op_s)


def traced(ops, op_refs):
    """One untraced and one traced pass; per-layer metrics and overhead."""
    import tracing

    plain = run_pass(ops, lambda s: s, op_refs)
    tracer = tracing.Tracer()
    with tracer.installed():
        wrapped = run_pass(ops, tracer.scenario, op_refs, tracer)
    for name, out in plain.outputs.items():
        if wrapped.outputs[name] != out:
            wrapped.failures.setdefault(name, f"traced output {wrapped.outputs[name]} != untraced {out}")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = wrapped.wall_s / plain.wall_s
    metrics.update(op_group_metrics(ops, plain.times))
    return [plain, wrapped], metrics, tracer


def per_layer_units() -> dict:
    import tracing
    import workloads

    units = dict(tracing.LAYER_UNITS)
    units["trace.overhead"] = "ratio"
    units.update({name: "s" for name in workloads.PER_OP_METRICS})
    return units


def run_metadata(args) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    src_loc = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path) as fh:
            src_loc += sum(1 for _ in fh)
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "src_loc": src_loc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "unix_time": time.time(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark the hamosc library on one workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=20260816)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    ops, op_refs = set_up(args.workload, args.seed)
    tracer = None
    if args.trace:
        passes, values, tracer = traced(ops, op_refs)
        units = per_layer_units()
        units.update({k: "s" for k in values if k.startswith("op.")})
    else:
        setup_times = measure_setup(args.workload, args.seed)
        passes, values, group_values = untraced(ops, op_refs, args.seconds)
        values["setup_s"] = statistics.median(setup_times)
        units = END_TO_END_UNITS

    failures = {}
    for i, ps in enumerate(passes):
        failures.update({f"pass{i}:{k}": v for k, v in ps.failures.items()})
    attempted = sum(len(ps.times) for ps in passes)
    failed = sum(len(ps.failures) for ps in passes)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    meta = run_metadata(args)
    meta["tracing_overhead"] = values.get("trace.overhead")
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "meta": meta,
        "passes": [{"wall_s": ps.wall_s, "op_s": ps.times} for ps in passes],
        "failures": failures,
    }
    if args.trace:
        record["spans"] = tracer.spans
        record["counters"] = {k: [tracer.calls[k], tracer.total_s[k], tracer.self_s[k]] for k in tracer.calls}
    else:
        record["setup_s_probes"] = setup_times
        record["op_groups_s"] = group_values
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)

    for reason in failures.items():
        print("FAILED %s: %s" % reason)
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"result file: {out.relative_to(ROOT)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
