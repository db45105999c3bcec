"""Tests of the benchmark machinery on fakes: span self time, the tail
percentile rule, failure counting, and the metric names BENCHMARK.json
declares.  Run with `python3 -m pytest perfbench`."""

import json
import os
import sys
from pathlib import Path

import pytest

import harness
import run
import workloads


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    tracer = harness.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.job = "0/job"
    root = tracer.open("root")
    a = tracer.open("a")
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(a)
    b = tracer.open("a")
    tracer.close(b)
    tracer.close(root)
    summary = tracer.summary()
    assert summary["root"] == (1, 10 - 3 - 4)
    assert summary["a"] == (2, (3 - 1) + 4)
    assert summary["c"] == (1, 1)
    assert [span[4] for span in tracer.spans] == [-1, 0, 1, 0]
    assert {span[0] for span in tracer.spans} == {"0/job"}


def test_wrap_records_spans_and_restores():
    class Layer:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Layer.inner(x) * 2

    original = Layer.outer
    tracer = harness.Tracer()
    seen = []
    tracer.wrap(Layer, "outer", "outer", after=lambda t, args, result: seen.append(result))
    tracer.wrap(Layer, "inner", "inner")
    assert Layer.outer(1) == 4
    tracer.restore()
    assert Layer.outer is original
    assert seen == [4]
    assert [(span[1], span[4]) for span in tracer.spans] == [("outer", -1), ("inner", 0)]


def test_span_closes_when_the_call_raises():
    class Layer:
        @staticmethod
        def boom():
            raise ValueError("x")

    tracer = harness.Tracer()
    tracer.wrap(Layer, "boom", "boom")
    try:
        Layer.boom()
    except ValueError:
        pass
    tracer.restore()
    assert tracer.spans[0][3] is not None
    assert tracer._stack == []


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(list(range(1, 100))) is None  # 99 samples, 9 beyond
    assert harness.tail_percentile(list(range(1, 101))) == 90  # 100 samples, 10 beyond
    assert harness.tail_percentile([1.0] * 200) is None  # nothing lies beyond a tie
    assert harness.tail_percentile([]) is None


def _verify_job():
    return workloads.Job("verify", {"command": "verify-f", "samples": 10, "seed": 0})


def _write_report(config, report):
    with open(os.path.join(config["out"], "report.json"), "w") as f:
        json.dump(dict(report, config=config), f)
    return 0


def test_job_that_raises_counts_as_failed(tmp_path):
    def raising(config):
        raise TypeError("'NoneType' object is not subscriptable")

    def passing(config):
        return _write_report(config, {"condition_report": {
            "passed": True, "cone_violations": 0, "records": []}})

    job = _verify_job()
    outcomes = [harness.run_job(job, raising, str(tmp_path)),
                harness.run_job(job, passing, str(tmp_path))]
    assert [o.failed for o in outcomes] == [True, False]
    assert outcomes[0].reasons == ["TypeError: 'NoneType' object is not subscriptable"]
    assert list(tmp_path.iterdir()) == []  # export directories removed


def test_nonzero_exit_and_failed_gate_count_as_failed(tmp_path):
    def non_converged(config):
        print("non-convergence: stalled", file=sys.stderr)
        return 2

    def condition_fails(config):
        return _write_report(config, {"condition_report": {
            "passed": False, "cone_violations": 0,
            "records": [{"condition": "2.2", "worst_margin": -5e-8, "passed": False}]}})

    job = _verify_job()
    first = harness.run_job(job, non_converged, str(tmp_path))
    second = harness.run_job(job, condition_fails, str(tmp_path))
    assert first.reasons == ["exit 2 (non-convergence: stalled)"]
    assert second.reasons == ["condition 2.2 margin -5e-08"]


def test_solution_gates():
    job = workloads.Job("solve", {"command": "solve", "sigma": 0.5}, u0_tol=1e-4)
    stats = {"sigma": 0.5, "converged": True, "final_residual": 1e-11,
             "min_nu_vertical": 0.6, "u0_by_epsilon": {"0.001": 1.0}}
    apex = lambda R, sigma, eps: 1.0 + 5e-5  # noqa: E731
    reasons, errors = harness.check_report(job, {"statistics": stats}, apex)
    assert reasons == [] and errors == pytest.approx([5e-5])
    bad = dict(stats, final_residual=1e-9, min_nu_vertical=0.48)
    reasons, errors = harness.check_report(job, {"statistics": bad}, lambda *a: 1.0 + 2e-4)
    assert len(reasons) == 3 and len(errors) == 1


def test_result_that_changes_between_passes_fails():
    passes = [[harness.Outcome("a", 1.0, signature="x"),
               harness.Outcome("b", 1.0, signature="y")],
              [harness.Outcome("a", 1.0, signature="x"),
               harness.Outcome("b", 1.0, signature="z")]]
    harness.mark_nondeterministic(passes)
    assert [o.failed for p in passes for o in p] == [False, False, False, True]


def test_known_failure_counts_only_when_it_fails_the_known_way():
    known = workloads.is_known_failure
    verify = _verify_job()

    def condition_reasons(condition, margin, cone_violations=0):
        record = {"condition": condition, "worst_margin": margin, "passed": False}
        report = {"condition_report": {"cone_violations": cone_violations,
                                       "records": [record]}}
        return harness.check_report(verify, report, None)[0]

    assert known("verify-gq1-k4-n4", condition_reasons("2.2", -1.3e-8))
    assert not known("verify-gq1-k4-n4", condition_reasons("2.2", -0.01))
    assert not known("verify-gq1-k4-n4", condition_reasons("2.1", -1.3e-8))
    assert not known("verify-gq1-k4-n4", condition_reasons("2.2", -1.3e-8, cone_violations=3))
    assert not known("verify-cq-k2-n2", condition_reasons("2.2", -1.3e-8))

    solve = workloads.Job("solve", {"command": "solve", "shape": "ellipse",
                                        "axes": [1.5, 1.0], "sigma": 0.5})
    stats = {"sigma": 0.5, "converged": True, "final_residual": 1e-9,
             "min_nu_vertical": 0.4735, "u0_by_epsilon": {"0.001": 1.0}}
    nu_only = harness.check_report(solve, {"statistics": stats}, None)[0]
    assert known("solve-ellipse-s0.5-N128", nu_only)
    worse_nu = dict(stats, min_nu_vertical=0.40)
    assert not known("solve-ellipse-s0.5-N128",
                     harness.check_report(solve, {"statistics": worse_nu}, None)[0])
    bad_residual = dict(stats, final_residual=1e-6)
    assert not known("solve-ellipse-s0.5-N128",
                     harness.check_report(solve, {"statistics": bad_residual}, None)[0])

    refine_row = "N=2048: failed: NonConvergenceError"
    assert known("refine-h2h1-n2-s0.2", [refine_row])
    assert not known("refine-h2h1-n2-s0.2", ["N=1024: failed: NonConvergenceError"])
    assert not known("refine-h2h1-n2-s0.2", [refine_row, "N=512: |u0 - apex| 0.002 > 0.0001"])
    assert not known("sweep-ellipse-N32", ["TypeError: 'NoneType' object is not subscriptable",
                                           "result differs from the first pass"])
    assert not known("solve-h4h3-n4-s0.05-N1024", ["exit 3 (admissibility lost)"])


def test_workload_sizes():
    assert [len(workloads.JOBS[w](0)) for w in run.WORKLOADS] == [16, 4, 28]
    names = {job.name for w in run.WORKLOADS for job in workloads.JOBS[w](0)}
    assert set(workloads.KNOWN_FAILURES) <= names


def test_verdicts_do_not_depend_on_the_seed():
    # only check-estimates follows the workload seed; verify-f and solver
    # jobs, whose verdicts may hang on their inputs, are the same every seed
    for w in run.WORKLOADS:
        for a, b in zip(workloads.JOBS[w](0), workloads.JOBS[w](7)):
            if a.config["command"] != "check-estimates":
                assert a.config == b.config


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
