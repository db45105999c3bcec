"""Benchmark machinery: in-memory tracing of layer calls, job execution with
correctness gates, and the statistics the report uses.

Nothing here imports `hyperplateau` at module level, so the tests of the
machinery run on fakes.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

# Solver default `newton_tol` per discretization path; a converged solution
# must have reached it.
RESIDUAL_TOL = {"ball": 1e-10, "ellipse": 1e-8}
# The paper's gradient estimate nu^{n+1} >= sigma, with the tolerance of
# `verify.GRADIENT_TOL`.
GRADIENT_TOL = 0.01


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans around calls into the program's layers, recorded from outside
    by replacing each function at the name its caller looks up.

    A span is [job, name, start, end, parent]; `parent` is the index of the
    enclosing span or -1.  Self time is a span's duration minus the time its
    child spans cover; calls on one thread nest, so the children's
    durations add up to the covered time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = None
        self.spans = []
        self.child_time = []
        self.counters = Counter()  # keyed by (job, name)
        self._stack = []
        self._patches = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.job, name, self.clock(), None, parent])
        self.child_time.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[3] = self.clock()
        self._stack.pop()
        if span[4] >= 0:
            self.child_time[span[4]] += span[3] - span[2]

    def wrap(self, owner, attr: str, name: str | None, after=None) -> None:
        """Replace `owner.attr` by a wrapper that records a span `name` (none
        when `name` is None) and then calls `after(tracer, args, result)`
        outside the span, for counts taken from arguments or results."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                index = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(index)
            if after is not None:
                after(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self, first: int = 0) -> dict:
        """{span name: (calls, total self time)} over spans[first:]."""
        out = {}
        for i in range(first, len(self.spans)):
            _, name, start, end, _ = self.spans[i]
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - self.child_time[i])
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for job, name, start, end, parent in self.spans:
                f.write(json.dumps([job, name, start, end, parent]) + "\n")


# ---------------------------------------------------------------------------
# statistics


# The tail figure of the job times: the 90th percentile, reported only where
# at least ten samples lie beyond it; one backed by fewer samples is noise.
TAIL_Q = 90.0
TAIL_BEYOND = 10


def tail_percentile(samples):
    """The nearest-rank TAIL_Q-th percentile when at least TAIL_BEYOND
    samples lie above it, else None."""
    if not samples:
        return None
    ordered = sorted(samples)
    value = ordered[max(math.ceil(TAIL_Q / 100.0 * len(ordered)), 1) - 1]
    if sum(1 for s in ordered if s > value) < TAIL_BEYOND:
        return None
    return value


# ---------------------------------------------------------------------------
# jobs and correctness gates


@dataclass
class Outcome:
    job: str
    seconds: float
    reasons: list = field(default_factory=list)  # failed gates; empty = passed
    signature: str = ""  # deterministic result, compared across passes
    u0_errors: list = field(default_factory=list)
    bytes_written: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


def run_job(job, run, out_root: str, apex=None) -> Outcome:
    """Run one job through `run(config) -> exit code` with its exports in a
    fresh directory under `out_root`; only the call itself is timed.  A job
    that raises is a failed job, never an aborted benchmark."""
    out = tempfile.mkdtemp(dir=out_root)
    try:
        config = dict(job.config, out=out)
        code = error = None
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            start = time.perf_counter()
            try:
                code = run(config)
            except Exception as exc:  # the benchmark must survive any job
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        report = None
        path = os.path.join(out, "report.json")
        if os.path.exists(path):
            with open(path) as f:
                report = json.load(f)
        outcome = Outcome(job.name, seconds)
        outcome.bytes_written = sum(
            os.path.getsize(os.path.join(out, name)) for name in os.listdir(out))
        if error is not None:
            outcome.reasons.append(error)
        elif code != 0:
            message = err.getvalue().strip().splitlines()
            outcome.reasons.append(f"exit {code}" + (f" ({message[-1]})" if message else ""))
        else:
            outcome.reasons, outcome.u0_errors = check_report(job, report, apex)
        result = {k: v for k, v in (report or {}).items() if k != "config"}
        outcome.signature = json.dumps([code, error, result], sort_keys=True)
        return outcome
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _solutions(config: dict, report: dict) -> list:
    """(label, sigma, row) for every solution a report holds; a row has
    `converged` and some of `final_residual`, `min_nu_vertical`, `u0`."""
    command = config["command"]
    if command == "sweep":
        return [(f"sigma={r['sigma']}", r["sigma"], r) for r in report["sweep"]]
    if command == "refine":
        return [(f"N={r['grid_size']}", config["sigma"], r) for r in report["refine"]["rows"]]
    stats = report["statistics"]
    key = f"{config.get('epsilon_min', 1e-3):.12g}"
    row = dict(stats, u0=stats["u0_by_epsilon"][key])
    return [("solution", stats["sigma"], row)]


def check_report(job, report: dict | None, apex) -> tuple:
    """Correctness gates of a job that exited 0; returns (failed gates,
    |u0 - cap apex| of every gated solution).  `apex(R, sigma, epsilon)` is
    the apex of the exact umbilic cap."""
    config = job.config
    if report is None:
        return ["no report written"], []
    if config["command"] == "verify-f":
        conditions = report["condition_report"]
        reasons = [f"condition {r['condition']} margin {r['worst_margin']:.2g}"
                   for r in conditions["records"] if not r["passed"]]
        if conditions["cone_violations"]:
            reasons.append(f"{conditions['cone_violations']} samples outside the cone")
        return reasons, []

    reasons, errors = [], []
    shape = config.get("shape", "ball")
    epsilon = config.get("epsilon_min", 1e-3)
    radius = config["axes"][1] if shape == "ellipse" else config.get("radius", 1.0)
    for label, sigma, row in _solutions(config, report):
        if not row.get("converged"):
            reasons.append(f"{label}: {row.get('status', 'not converged')}")
            continue
        residual = row.get("final_residual")
        if residual is not None and residual > RESIDUAL_TOL[shape]:
            reasons.append(f"{label}: final residual {residual:.3g}")
        nu = row.get("min_nu_vertical")
        if nu is not None and nu < sigma - GRADIENT_TOL:
            reasons.append(f"{label}: min nu_vertical {nu:.4f} < {sigma - GRADIENT_TOL:.2f}")
        if job.u0_tol is not None:
            error = abs(row["u0"] - apex(radius, sigma, epsilon))
            errors.append(error)
            if error > job.u0_tol:
                reasons.append(f"{label}: |u0 - apex| {error:.3g} > {job.u0_tol:g}")
    if config["command"] == "check-estimates":
        if not report["gradient_estimate"]["passed"]:
            reasons.append("gradient estimate failed")
        if not report["algebraic_subinequalities"]["passed"]:
            reasons.append("algebraic sub-inequalities failed")
    return reasons, errors


def mark_nondeterministic(passes: list) -> None:
    """Fail every outcome whose result differs from the same job's result in
    the first pass."""
    first = {o.job: o.signature for o in passes[0]}
    for outcomes in passes[1:]:
        for o in outcomes:
            if o.signature != first[o.job]:
                o.reasons.append("result differs from the first pass")
