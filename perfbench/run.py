"""End-to-end and per-layer benchmark of the `hyperplateau` CLI.

Runs a workload's fixed list of CLI jobs in this one process through
`cli.run(config)`, single-threaded, with exports in a temporary directory
under perfbench/out/.  Every job passes correctness gates outside its timed
region.  The last line of standard output is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric with its unit, workload and sample count, the machine, and
every failed job.

    python3 perfbench/run.py --workload ball-radial --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones, in which each layer function is wrapped at the name
its caller looks up, and reports the per-layer metrics; the spans go to
perfbench/out/trace-<workload>-seed<seed>.jsonl.  --workload all runs every
workload in turn, each in its own process.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import harness
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = tuple(workloads.JOBS)
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# (module, function, span): each function is wrapped at the name its caller
# looks up.  `solver` imported radial_principal_curvatures and solve_banded
# by name, `grid` imported splu by name, and `solver.continuation_solve`
# hands ellipses to `grid.continuation_solve_grid`.  The end-to-end metric
# each span should move is listed in perfbench/README.md.
LAYERS = (
    ("cli", "run", "cli"),
    ("symfunc", "eval_f", "symfunc.eval_f"),
    ("symfunc", "grad_f", "symfunc.grad_f"),
    ("symfunc", "hessian_f", "symfunc.hessian_f"),
    ("symfunc", "check_conditions", "symfunc.check_conditions"),
    ("symfunc", "cone_contains", "symfunc.cone_contains"),
    ("solver", "radial_principal_curvatures", "hypgeom.radial_principal_curvatures"),
    ("grid", "principal_curvatures_2d", "grid.principal_curvatures_2d"),
    ("grid", "residual_grid", "grid.residual"),
    ("grid", "_jacobian_grid", "grid.jacobian"),
    ("grid", "splu", "grid.factor"),
    ("solver", "residual", "solver.residual"),
    ("solver", "_jacobian_fd", "solver.jacobian"),
    ("solver", "solve_banded", "solver.banded_solve"),
    ("solver", "newton_step", "solver.newton_step"),
    ("solver", "continuation_solve", "solver.continuation"),
    ("grid", "continuation_solve_grid", "solver.continuation"),
    ("solver", "sweep_sigma", "solver.continuation"),
    ("solver", "refine_study", "solver.continuation"),
    ("verify", "gradient_estimate_check", "verify"),
    ("verify", "estimate_constants", "verify"),
    ("verify", "algebraic_subinequalities", "verify"),
)
SPANS = tuple(dict.fromkeys(span for _, _, span in LAYERS))

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_s.p50": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
}
# per-layer metrics besides `<span>.calls` and `<span>.self_share`
EXTRA_LAYER_UNITS = {
    "symfunc.eval_f.points_per_s": "1/s",
    "grid.factor.fill_nnz": "count",
    "solver.newton_iters": "count",
    "solver.continuation_steps": "count",
    "solver.residuals_per_iter": "ratio",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "accuracy.u0_err_max": "1",
}


def layer_units() -> dict:
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_share"] = "ratio"
    units.update(EXTRA_LAYER_UNITS)
    return units


# ---------------------------------------------------------------------------
# set-up


class Bench:
    """What set-up produces: the imported program, the job list, the export
    directory, and one untimed warm-up job run."""

    def __init__(self, workload: str, seed: int):
        sys.path.insert(0, str(SRC))
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401

        import hyperplateau
        from hyperplateau import cli, grid, hypgeom, solver, symfunc, verify

        if not Path(hyperplateau.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"hyperplateau imported from {hyperplateau.__file__}, not {SRC}")
        self.modules = {"cli": cli, "grid": grid, "solver": solver,
                        "symfunc": symfunc, "verify": verify}
        self.jobs = workloads.JOBS[workload](seed)
        OUT.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=OUT, prefix="exports-")
        self.apex = lambda R, sigma, eps: hypgeom.make_cap_with_boundary_height(
            R, sigma, eps).apex_height
        warm = harness.run_job(workloads.WARMUP[workload], cli.run, self.tmp, self.apex)
        if warm.failed:
            self.close()
            raise RuntimeError(f"warm-up job failed: {warm.reasons}")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run_pass(self, index: int, tracer=None) -> list:
        outcomes = []
        run = self.modules["cli"].run  # looked up now: tracing may have wrapped it
        for job in self.jobs:
            if tracer is not None:
                tracer.job = f"{index}/{job.name}"
            outcomes.append(harness.run_job(job, run, self.tmp, self.apex))
        return outcomes


def measure_setup(workload: str, seed: int) -> list:
    """Wall time from starting a fresh interpreter until set-up is done,
    once per probe process."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# runs


def install_tracer(bench, tracer) -> None:
    import numpy as np

    def count_points(t, args, result):
        t.counters[t.job, "eval_f.points"] += int(np.size(result))

    def count_fill(t, args, lu):
        # entries SuperLU stores for L and U, explicit zeros inside L's
        # supernodes included; building lu.L and lu.U to count them without
        # those would cost ~10 % of the factorization itself
        t.counters[t.job, "factor.fill_nnz"] += lu.nnz

    def count_steps(t, args, result):
        iterations = result[1]
        t.counters[t.job, "newton_iters"] += int(sum(iterations))
        t.counters[t.job, "continuation_steps"] += len(iterations)

    after = {"symfunc.eval_f": count_points, "grid.factor": count_fill}
    for module, attr, span in LAYERS:
        tracer.wrap(bench.modules[module], attr, span, after.get(span))
    # Newton iterations per accepted continuation step, as the reports count
    # them; every path marches through solver._march
    tracer.wrap(bench.modules["solver"], "_march", None, count_steps)


def layer_metrics(summary: dict, counters, outcomes: list) -> dict:
    """Per-layer metrics of one traced pass.  A span's self time is given as
    its share of the pass's job time: a layer a workload never enters then
    reads 0 as a share, not as a time."""
    counts = Counter()
    for (_, name), value in counters.items():
        counts[name] += value
    wall = sum(o.seconds for o in outcomes)
    metrics = {}
    for span in SPANS:
        calls, self_s = summary.get(span, (0, 0.0))
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_share"] = self_s / wall
    eval_s = summary.get("symfunc.eval_f", (0, 0.0))[1]
    metrics["symfunc.eval_f.points_per_s"] = counts["eval_f.points"] / eval_s if eval_s else 0.0
    factors = metrics["grid.factor.calls"]
    metrics["grid.factor.fill_nnz"] = counts["factor.fill_nnz"] / factors if factors else 0.0
    iters = counts["newton_iters"]
    metrics["solver.newton_iters"] = iters
    metrics["solver.continuation_steps"] = counts["continuation_steps"]
    residuals = metrics["solver.residual.calls"] + metrics["grid.residual.calls"]
    metrics["solver.residuals_per_iter"] = residuals / iters if iters else 0.0
    metrics["cli.bytes_written"] = sum(o.bytes_written for o in outcomes)
    metrics["trace.wall_s"] = wall
    return metrics


def run_untraced(bench, seconds: float) -> list:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(bench.run_pass(len(passes)))
    return passes


def run_traced(bench, seconds: float, trace_path: Path):
    """Alternate untraced and traced passes.  Returns every pass, the
    per-layer metrics (medians over traced passes) and a note per metric."""
    tracer = harness.Tracer()
    passes, per_pass, plain_walls = [], [], []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        plain = bench.run_pass(len(passes))
        passes.append(plain)
        plain_walls.append(sum(o.seconds for o in plain))
        first = len(tracer.spans)
        tracer.counters.clear()
        install_tracer(bench, tracer)
        try:
            traced = bench.run_pass(len(passes), tracer)
        finally:
            tracer.restore()
        passes.append(traced)
        per_pass.append(layer_metrics(tracer.summary(first), tracer.counters, traced))
    tracer.write(str(trace_path))
    print(f"spans: {trace_path.relative_to(ROOT)}")
    # exact work counts per job of the last traced pass
    last = len(passes) - 1
    factors = Counter(span[0] for span in tracer.spans[first:] if span[1] == "grid.factor")
    for job in bench.jobs:
        key = f"{last}/{job.name}"
        print(f"counts job={job.name} newton_iters={tracer.counters[key, 'newton_iters']} "
              f"continuation_steps={tracer.counters[key, 'continuation_steps']} "
              f"factorizations={factors[key]}")

    metrics = {name: statistics.median([m[name] for m in per_pass]) for name in per_pass[0]}
    note = dict.fromkeys(metrics, f"median of {len(per_pass)} traced passes")
    traced_wall, plain_wall = metrics["trace.wall_s"], statistics.median(plain_walls)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    note["trace.overhead_s"] = (f"median traced pass {traced_wall:.4f} s minus median of "
                                f"{len(plain_walls)} untraced passes {plain_wall:.4f} s")
    return passes, metrics, note


def run_end_to_end(bench, workload: str, seed: int, seconds: float):
    """Set-up probes, then untraced passes.  Returns every pass, the
    end-to-end metrics but ok_frac, and a note per metric."""
    setups = measure_setup(workload, seed)
    passes = run_untraced(bench, seconds)
    walls = [sum(o.seconds for o in p) for p in passes]
    jobs = [o.seconds for p in passes for o in p]
    # each job's median over the passes: a median of the pooled samples
    # would fall between the extremes of two jobs of different cost
    per_job = {}
    for outcomes in passes:
        for o in outcomes:
            per_job.setdefault(o.job, []).append(o.seconds)
    job_medians = [statistics.median(times) for times in per_job.values()]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "job_s.p50": statistics.median(job_medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = {"setup_s": f"median of {len(setups)} set-ups",
            "wall_s": f"median of {len(walls)} passes",
            "job_s.p50": f"median over {len(job_medians)} jobs of each job's median "
                         f"over {len(walls)} passes, {len(jobs)} samples",
            "peak_rss_mb": "ru_maxrss of the benchmark process"}
    p90 = harness.tail_percentile(jobs)
    print(f"info workload={workload} name=job_s.p90 " + (
        f"value={p90:.6g} unit=s samples={len(jobs)}" if p90 is not None else
        f"not reported: fewer than 10 of {len(jobs)} jobs lie beyond the 90th percentile"))
    return passes, metrics, note


# ---------------------------------------------------------------------------
# report


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def report_failures(workload: str, jobs: list, outcomes: list) -> bool:
    """Print every failing job; True when every failure is a known job
    failing in its known way."""
    failing = {}
    for o in outcomes:
        if o.failed:
            failing.setdefault(o.job, []).append(o)
    runs = len(outcomes) // len(jobs)
    only_known = True
    for name, bad in failing.items():
        known = all(workloads.is_known_failure(name, o.reasons) for o in bad)
        only_known &= known
        reasons = dict.fromkeys(r for o in bad for r in o.reasons)
        print(f"failure workload={workload} job={name} failed={len(bad)}/{runs} "
              f"known={'yes' if known else 'NO'} reason={'; '.join(reasons)}")
    return only_known


def report(bench, args) -> int:
    workload = args.workload
    print("machine: " + json.dumps(machine(), sort_keys=True))
    if args.trace:
        trace_path = OUT / f"trace-{workload}-seed{args.seed}.jsonl"
        passes, metrics, note = run_traced(bench, args.seconds, trace_path)
        units = layer_units()
    else:
        passes, metrics, note = run_end_to_end(bench, workload, args.seed, args.seconds)
        units = END_TO_END_UNITS

    harness.mark_nondeterministic(passes)
    outcomes = [o for p in passes for o in p]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    u0_errors = [e for o in outcomes for e in o.u0_errors]
    u0_err_max = max(u0_errors, default=0.0)
    if args.trace:
        metrics["accuracy.u0_err_max"] = u0_err_max
        note["accuracy.u0_err_max"] = f"max |u0 - cap apex| over {len(u0_errors)} solutions"
    else:
        metrics["ok_frac"] = (attempted - failed) / attempted
        note["ok_frac"] = f"{attempted - failed} of {attempted} jobs passed every gate"
        print(f"info workload={workload} name=u0_err_max value={u0_err_max:.6g} "
              f"solutions={len(u0_errors)}")
    for name, value in metrics.items():
        print(f"metric workload={workload} name={name} value={value:.6g} unit={units[name]} "
              f"({note[name]})")
    only_known = report_failures(workload, bench.jobs, outcomes)
    print(json.dumps({
        "correct": only_known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that set-up and peak memory are
    the workload's own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "hyperplateau" / "__init__.py").is_file():
        print(f"error: no hyperplateau sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    bench = Bench(args.workload, args.seed)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return report(bench, args)
    finally:
        bench.close()


if __name__ == "__main__":
    sys.exit(main())
