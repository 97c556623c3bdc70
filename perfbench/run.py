"""Benchmark of the nchsolver library: step cost, time to a result, set-up.

    python3 perfbench/run.py --workload implicit_n256 [--seed 0] [--seconds 10] [--trace 0]

Run from the repository root.  The library is imported from ``src/`` of the
checkout the script sits in; without those sources the script exits with
code 2.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it give each metric's median, the highest
percentile with at least ten samples beyond it and the sample count, the
run context and every failure.  A JSON record of the run (and, when traced,
the spans) is written under ``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Pin native thread pools before numpy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS_PER_CYCLE = 5
TRACED_SETUP_REPS = 3
PERCENTILES = (75, 90, 95, 99, 99.9)


COUNT_METRICS = (
    "solvers.newton_iters_per_step", "solvers.krylov_matvecs_per_newton",
    "solvers.precond_applies_per_step", "solvers.residual_evals_per_newton",
    "solvers.failed_solves", "fft.calls_per_step", "fft.bytes_per_step",
    "kernels.convolve_calls_per_step", "spectral.laplacian_apply_calls_per_step",
    "energetics.potential_calls_per_step", "steppers.check_solvability_calls_per_step",
    "driver.steps_completed", "driver.steps_to_eq", "fieldio.write_calls",
    "fieldio.bytes_written",
)


def describe(samples) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    text = f"median={statistics.median(samples):.6g}"
    usable = [p for p in PERCENTILES if len(samples) * (1.0 - p / 100.0) >= 10]
    if usable:
        text += f" p{usable[-1]:g}={float(numpy.percentile(samples, usable[-1])):.6g}"
    return text + f" n={len(samples)}"


def run_context() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": {v: os.environ[v] for v in THREAD_VARS}}


def check_cycles(reference, cycles) -> list[str]:
    """Every cycle must reproduce the reference cycle's diagnostics rows byte for byte."""
    want = {o.scheme: o.rows for o in reference}
    for index, outcomes in enumerate(cycles, start=1):
        for o in outcomes:
            if o.rows != want[o.scheme]:
                return [f"{o.scheme}: diagnostics rows of cycle {index} differ from the reference"]
    return []


def failures(outcomes) -> dict:
    """First failure message of each scheme, with the residual floor of a failed solve."""
    import workloads

    found = {}
    for o in outcomes:
        if o.failed and o.scheme not in found:
            entry = {"termination": o.termination, "detail": o.detail,
                     "violations": o.violations}
            floor = workloads.residual_floor(o.detail)
            if floor is not None:
                tol = workloads.scheme_config(o.scheme).newton_tol
                entry.update(residual_floor=floor, newton_tol=tol, floor_over_tol=floor / tol)
            found[o.scheme] = entry
    return found


def measure(workload, inputs, seconds):
    """Untraced closed loop: a warm-up cycle, then whole cycles until time is up.

    Each cycle is preceded by a few timed set-ups, so that the set-up samples
    span the same stretch of time as the cycles they are compared with.
    """
    import workloads

    setup_times = []

    def set_up():
        for _ in range(SETUP_REPS_PER_CYCLE):
            started = time.perf_counter()
            case = workload.setup(inputs)
            setup_times.append(time.perf_counter() - started)
        return case

    reference = workload.cycle(set_up())
    cycles = []
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        cycles.append(workload.cycle(set_up()))
    timed = [o for outcomes in cycles for o in outcomes]
    step_ms, run_s = {}, {}
    for scheme in workload.step_schemes:
        runs = [o for o in timed if o.scheme == scheme]
        step_ms[scheme] = [1e3 * o.wall_s / max(1, o.steps_attempted) for o in runs]
        run_s[scheme] = [o.wall_s for o in runs]
    everything = reference + timed
    completed = sum(not o.failed for o in everything)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "step_ms": workloads.geomean([statistics.median(v) for v in step_ms.values()]),
        "run_s": workloads.geomean([statistics.median(v) for v in run_s.values()]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_run_share": completed / len(everything),
    }
    report = {"setup_s": describe(setup_times)}
    for scheme in workload.step_schemes:
        report[f"step_ms.{scheme}"] = describe(step_ms[scheme])
        report[f"run_s.{scheme}"] = describe(run_s[scheme])
    return metrics, report, everything, check_cycles(reference, cycles), {}


def traced(workload, inputs, seconds):
    """Alternate untraced and traced cycles; per-layer metrics from the traced ones."""
    import tracer as tracing

    tracer = tracing.Tracer()
    left_wrapped = []
    tracer.install()
    try:
        for _ in range(TRACED_SETUP_REPS):
            case = workload.setup(inputs)
    finally:
        left_wrapped += tracer.remove()
    reference = workload.cycle(case)
    untraced_walls, traced_runs, cycles = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_runs) < 2 or time.perf_counter() < deadline:
        started = time.perf_counter()
        cycles.append(workload.cycle(case))
        untraced_walls.append(time.perf_counter() - started)
        first = len(tracer.spans)
        tracer.install()
        started = time.perf_counter()
        try:
            outcomes = workload.cycle(case)
        finally:
            wall = time.perf_counter() - started
            left_wrapped += tracer.remove()
        cycles.append(outcomes)
        traced_runs.append((tracing.aggregate(tracer.spans, first), outcomes, wall))

    per_cycle = [layer_metrics(agg, outcomes) for agg, outcomes, _ in traced_runs]
    violations = check_cycles(reference, cycles)
    if left_wrapped:
        violations.append("wrappers left installed: " + ", ".join(sorted(set(left_wrapped))))
    for name in COUNT_METRICS:
        values = {m[name] for m in per_cycle}
        if len(values) > 1:
            violations.append(f"count {name} differs between traced cycles: {sorted(values)}")
    metrics = {name: statistics.median(m[name] for m in per_cycle) for name in per_cycle[0]}
    whole = tracing.aggregate(tracer.spans)
    for metric, span in (("kernels.sample_ms", "kernels.sample"),
                         ("spectral.make_cache_ms", "spectral.make_cache"),
                         ("config.load_ms", "config.load")):
        metrics[metric] = per_call_ms(whole[span])
    traced_walls = [wall for _, _, wall in traced_runs]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced_walls)
                                             / statistics.median(untraced_walls) - 1.0)
    report = {"cycle_s.untraced": describe(untraced_walls),
              "cycle_s.traced": describe(traced_walls)}
    everything = reference + [o for outcomes in cycles for o in outcomes]
    extra = {"missing_hooks": tracer.missing, "spans": tracer.spans}
    return metrics, report, everything, violations, extra


def per_call_ms(entry) -> float:
    return entry["total_ns"] / 1e6 / entry["count"] if entry["count"] else 0.0


def layer_metrics(agg, outcomes) -> dict:
    """Per-layer metrics of one traced cycle, normalised by attempted steps."""
    steps = max(1, sum(o.steps_attempted for o in outcomes))
    newton_iters = agg["solvers.gmres"]["count"]

    def count(span):
        return agg[span]["count"]

    def ms(span, key="total_ns"):
        return agg[span][key] / 1e6

    def per_newton(value):
        return value / newton_iters if newton_iters else 0.0

    return {
        "solvers.newton_iters_per_step": newton_iters / steps,
        "solvers.krylov_matvecs_per_newton": per_newton(count("solvers.matvec")),
        "solvers.precond_applies_per_step": count("solvers.precond") / steps,
        "solvers.residual_evals_per_newton": per_newton(count("solvers.residual")),
        "solvers.newton_ms_per_step": ms("solvers.newton") / steps,
        "solvers.matvec_ms_per_step": ms("solvers.matvec") / steps,
        "solvers.precond_ms_per_step": ms("solvers.precond") / steps,
        "solvers.gmres_self_ms_per_step": ms("solvers.gmres", "self_ns") / steps,
        "solvers.failed_solves": agg["solvers.newton"]["errors"],
        "fft.calls_per_step": count("fft") / steps,
        "fft.ms_per_step": ms("fft") / steps,
        "fft.bytes_per_step": agg["fft"]["bytes"] / steps,
        "kernels.convolve_calls_per_step": count("kernels.convolve") / steps,
        "kernels.convolve_ms_per_step": ms("kernels.convolve") / steps,
        "spectral.laplacian_apply_calls_per_step": count("spectral.laplacian_apply") / steps,
        "spectral.laplacian_apply_ms_per_step": ms("spectral.laplacian_apply") / steps,
        "spectral.norm_neg1_ms_per_step": ms("spectral.norm_neg1") / steps,
        "energetics.potential_calls_per_step": count("energetics.potential") / steps,
        "energetics.potential_ms_per_step": ms("energetics.potential") / steps,
        "energetics.energy_ms_per_step": ms("energetics.energy") / steps,
        "steppers.advance_ms_per_step": ms("steppers.advance") / steps,
        "steppers.self_ms_per_step": ms("steppers.advance", "self_ns") / steps,
        "steppers.check_solvability_calls_per_step": count("steppers.check_solvability") / steps,
        "steppers.check_solvability_ms_per_step": ms("steppers.check_solvability") / steps,
        "driver.record_ms_per_step": ms("driver.record") / steps,
        "driver.self_ms_per_step": ms("driver.run", "self_ns") / steps,
        "driver.steps_completed": sum(o.steps for o in outcomes),
        "driver.steps_to_eq": sum(o.steps for o in outcomes if o.termination == "equilibrium"),
        "fieldio.write_calls": count("fieldio.write"),
        "fieldio.bytes_written": agg["fieldio.write"]["bytes"],
        "fieldio.write_ms": ms("fieldio.write"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        help="implicit_n256, linear_n512 or cli_eq_n128")
    parser.add_argument("--seed", type=int, default=0, help="seed of the initial field")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced cycles")
    args = parser.parse_args(argv)

    if not (SRC / "nchsolver" / "__init__.py").is_file():
        print(f"perfbench: no nchsolver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nchsolver
    import workloads

    if not Path(nchsolver.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: nchsolver imported from {nchsolver.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = workloads.WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{label}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.prepare(args.seed, workdir)
        run = traced if args.trace else measure
        metrics, report, outcomes, violations, extra = run(workload, inputs, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    for o in outcomes:
        violations += [f"{o.scheme}: {v}" for v in o.violations]
    violations = list(dict.fromkeys(violations))
    failed_runs = failures(outcomes)
    context = run_context()
    spans = extra.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context, "report": report,
              "failures": failed_runs, "violations": violations, "metrics": metrics, **extra}
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(OUT / f"{label}-spans.jsonl", "w") as sink:
            sink.writelines(json.dumps(rec) + "\n" for rec in spans)

    print(f"perfbench {label} seconds={args.seconds:g}")
    print("context " + json.dumps(context))
    for name, text in report.items():
        print(f"sample {name}: {text}")
    for scheme, entry in failed_runs.items():
        print(f"failure {scheme}: " + json.dumps(entry))
    for text in violations:
        print(f"check failed: {text}")
    for missing in extra.get("missing_hooks", []):
        print(f"hook target missing: {missing}")
    for name in units:
        print(f"metric {name} = {float(metrics[name])!r} {units[name]}")
    print(json.dumps({
        "correct": not violations,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
