"""Job lists of the three benchmark workloads.

Every job is a flat `hyperplateau` CLI config, run in-process through
`cli.run`.  Which jobs fail must not depend on the seed, so only inputs
that no job's verdict hangs on follow it:

- Solver jobs are a fixed matrix: a sigma jitter would make the failure
  count depend on the seed, because H4/H3 at n = 4, N = 1024 fails at
  sigma = 0.05 but converges at 0.045 and 0.055.
- `verify-f` jobs sample with the fixed seed VERIFY_SAMPLE_SEED: on some
  sample seeds only, condition 2.2 misses its tolerance (see
  KNOWN_FAILURES).
- The seed sets the sample seed of `check-estimates`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# (label, family, k, l, n) of the six ball-radial solve families
_BALL_FAMILIES = (
    ("h1h0-n2", "consecutive_quotient", 1, None, 2),
    ("h2h1-n2", "consecutive_quotient", 2, None, 2),
    ("h2h1-n4", "consecutive_quotient", 2, None, 4),
    ("h4h3-n4", "consecutive_quotient", 4, None, 4),
    ("h2root-n3", "kth_root", 2, None, 3),
    ("h3h1root-n4", "general_quotient", 3, 1, 4),
)

def _matches(pattern: str):
    return lambda reason: re.fullmatch(pattern, reason) is not None


def _at_least(pattern: str, floor: float):
    """A failed gate that reads `pattern`, whose one number is >= floor."""
    def known(reason):
        match = re.fullmatch(pattern, reason)
        return match is not None and float(match[1]) >= floor
    return known


# On some sample seeds only, the families with a root power on the top cone
# K_n (root-k3-n3, root-k4-n4, gq1-k3-n3, gq1-k4-n4, gq2-k4-n4) miss the
# absolute concavity tolerance 1e-8 of condition 2.2, by 1e-8 to 3e-4, as the
# Hessian grows without bound towards the cone boundary.  Over sample seeds
# 0..399 one of them fails on 66 seeds, so the workload seed does not set
# the sample seed of `verify-f`.  With VERIFY_SAMPLE_SEED = 0, gq1-k4-n4
# misses by 5e-8 in every run.  A miss by more than 1e-3, another condition
# or a sample outside the cone is not this defect.
VERIFY_SAMPLE_SEED = 0
_CONDITION_22_MISS = _at_least(r"condition 2\.2 margin (\S+)", -1e-3)

# Jobs known to fail when this benchmark was written, each with the way it
# fails: a predicate that every failed gate of the job must meet.  They stay
# in the workloads so that the defects show; `failed` counts them and a fix
# shows as a lower count.  A job outside this table failing, or a job in it
# failing another way, makes the run incorrect.
KNOWN_FAILURES = {
    # only the finest refine row, N = 2048, fails: NonConvergenceError
    "refine-h2h1-n2-s0.2": _matches(r"N=2048: .*"),
    # backtracking exhausted at sigma = 0.05; converges at 0.045 and 0.055
    "solve-h4h3-n4-s0.05-N1024": _matches(r"exit 2 \(non-convergence: .*\)"),
    "sweep-ellipse-N32": _matches(r"TypeError: 'NoneType' object is not subscriptable"),
    # min nu_vertical 0.4735 < 0.49, falling with N on the grid path
    "solve-ellipse-s0.5-N128": _at_least(r"solution: min nu_vertical (\S+) < 0\.49", 0.46),
    "verify-gq1-k4-n4": _CONDITION_22_MISS,
}


def is_known_failure(job: str, reasons: list) -> bool:
    """True when `job` is in KNOWN_FAILURES and every failed gate in
    `reasons` is the known one."""
    known = KNOWN_FAILURES.get(job)
    return known is not None and all(known(reason) for reason in reasons)


@dataclass(frozen=True)
class Job:
    name: str
    config: dict = field(hash=False)
    # |u0 - cap apex| bound, for jobs whose exact solution is the umbilic cap
    u0_tol: float | None = None


def _spec(family, k, l, n):
    cfg = {"family": family, "k": k, "n": n}
    if l is not None:
        cfg["l"] = l
    return cfg


def _h2h1_n2():
    return _spec("consecutive_quotient", 2, None, 2)


def _ellipse(axes):
    return {**_h2h1_n2(), "shape": "ellipse", "axes": list(axes)}


def ball_radial(seed: int) -> list:
    jobs = []
    for label, family, k, l, n in _BALL_FAMILIES:
        export = "report-json,mesh-obj" if n == 2 else "report-json"
        for sigma in (0.5, 0.2):
            jobs.append(Job(f"solve-{label}-s{sigma}", {
                "command": "solve", **_spec(family, k, l, n), "sigma": sigma,
                "grid": 512, "export": export}, u0_tol=1e-4))
    jobs.append(Job("solve-h4h3-n4-s0.05-N1024", {
        "command": "solve", **_spec("consecutive_quotient", 4, None, 4),
        "sigma": 0.05, "grid": 1024}, u0_tol=1e-4))
    jobs.append(Job("sweep-h2h1-n2", {
        "command": "sweep", **_h2h1_n2(), "sigmas": [0.9, 0.7, 0.5, 0.3, 0.2, 0.1],
        "grid": 512, "export": "report-json,table-csv"}, u0_tol=1e-4))
    jobs.append(Job("refine-h2h1-n2-s0.2", {
        "command": "refine", **_h2h1_n2(), "sigma": 0.2, "grid": 512, "levels": 3},
        u0_tol=1e-4))
    jobs.append(Job("check-estimates-h2h1-n2-s0.2", {
        "command": "check-estimates", **_h2h1_n2(), "sigma": 0.2, "grid": 512,
        "samples": 100_000, "seed": seed}, u0_tol=1e-4))
    return jobs


def ellipse_grid(seed: int) -> list:
    return [
        Job("solve-ellipse-s0.5-N128", {
            "command": "solve", **_ellipse((1.5, 1.0)), "sigma": 0.5, "grid": 128,
            "export": "report-json,mesh-obj"}),
        Job("solve-ellipse-s0.2-N96", {
            "command": "solve", **_ellipse((1.5, 1.0)), "sigma": 0.2, "grid": 96}),
        # the circle is the cap oracle on the grid path; first order in h
        Job("solve-circle-s0.5-N64", {
            "command": "solve", **_ellipse((1.0, 1.0)), "sigma": 0.5, "grid": 64},
            u0_tol=1e-2),
        Job("sweep-ellipse-N32", {
            "command": "sweep", **_ellipse((1.5, 1.0)), "sigmas": [0.6, 0.5],
            "grid": 32}),
    ]


def conditions(seed: int) -> list:
    """verify-f for every family with n in {2, 3, 4}, the set of the
    condition-suite acceptance test.  The seed is not used: the jobs sample
    with VERIFY_SAMPLE_SEED."""
    jobs = []
    for n in range(2, 5):
        for k in range(1, n + 1):
            specs = [("cq", "consecutive_quotient", None), ("root", "kth_root", None)]
            specs += [(f"gq{l}", "general_quotient", l) for l in range(1, k)]
            for label, family, l in specs:
                jobs.append(Job(f"verify-{label}-k{k}-n{n}", {
                    "command": "verify-f", **_spec(family, k, l, n),
                    "samples": 10_000, "seed": VERIFY_SAMPLE_SEED}))
    return jobs


JOBS = {"ball-radial": ball_radial, "ellipse-grid": ellipse_grid, "conditions": conditions}

# One small untimed job per workload that touches the same code paths, so
# that lazy imports and first-call costs land in set-up, not in a timing.
WARMUP = {
    "ball-radial": Job("warmup", {
        "command": "solve", **_h2h1_n2(), "sigma": 0.5, "grid": 64,
        "export": "report-json,mesh-obj"}),
    "ellipse-grid": Job("warmup", {
        "command": "solve", **_ellipse((1.5, 1.0)), "sigma": 0.5, "grid": 16,
        "export": "report-json,mesh-obj"}),
    "conditions": Job("warmup", {
        "command": "verify-f", **_h2h1_n2(), "samples": 500, "seed": 0}),
}
