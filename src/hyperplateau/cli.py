"""Command-line front end: configuration parsing, run orchestration, and
export of reports (JSON), tables (CSV), and meshes (OBJ).

Exit codes: 0 success, 2 solver non-convergence or a singular Jacobian,
3 admissibility loss, 4 configuration error, a command-line usage error
(unknown flag, bad flag value or choice, missing subcommand) included.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import grid, hypgeom, solver, symfunc, verify
from .errors import (
    AdmissibilityLostError,
    ConfigError,
    NonConvergenceError,
    SingularJacobianError,
)

SCHEMA_VERSION = "3"

COMMANDS = ("verify-f", "solve", "sweep", "cap", "check-estimates", "refine")
FAMILIES = {
    "consecutive_quotient": symfunc.CONSECUTIVE_QUOTIENT,
    "general_quotient": symfunc.GENERAL_QUOTIENT,
    "kth_root": symfunc.KTH_ROOT,
}
EXPORTS = ("report-json", "table-csv", "mesh-obj")
# the commands whose result has a table, and those whose result is a graph
TABLE_COMMANDS = ("sweep", "refine")
MESH_COMMANDS = ("solve", "cap", "check-estimates")

_DEFAULTS = {
    "family": "consecutive_quotient",
    "k": 1,
    "l": None,
    "n": 2,
    "shape": "ball",
    "radius": 1.0,
    "axes": None,
    "sigma": None,
    "sigmas": None,
    "grid": 512,
    "epsilon_min": 1e-3,
    "seed": 0,
    "samples": 10000,
    "levels": 2,
    "out": ".",
    "export": ["report-json"],
}

_KNOWN_KEYS = {"command"} | set(_DEFAULTS)


# ---------------------------------------------------------------------------
# configuration


def _convert(cfg: dict, key: str, kind, violations: list) -> bool:
    """Convert cfg[key] in place with `kind` (_integer, _real, or a function
    of the value); on failure record a violation and return False."""
    try:
        cfg[key] = kind(cfg[key])
    except (TypeError, ValueError, OverflowError):
        violations.append(f"{key} has an invalid value {cfg[key]!r}")
        return False
    return True


def _real(value) -> float:
    """float(value); a boolean is not a number."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return float(value)


def _integer(value) -> int:
    """int(value) of an integral number, such as 64 or 1e4, not a boolean."""
    if _real(value) % 1.0:
        raise ValueError("not an integer")
    return int(value)


def _floats(values):
    return [_real(v) for v in values]


def validate_config(raw: dict) -> dict:
    """Normalize a raw config mapping: fill defaults, check every cross-field
    constraint, and reject unknown keys; all violations reported at once."""
    violations = []
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    for key in unknown:
        violations.append(f"unknown config key {key!r}")

    cfg = dict(_DEFAULTS)
    cfg.update({k: v for k, v in raw.items() if k in _KNOWN_KEYS})

    command = cfg.get("command")
    if command not in COMMANDS:
        violations.append(f"command must be one of {COMMANDS}, got {command!r}")

    if not isinstance(cfg["family"], str) or cfg["family"] not in FAMILIES:
        violations.append(f"family must be one of {sorted(FAMILIES)}, got {cfg['family']!r}")
    k_ok = _convert(cfg, "k", _integer, violations)
    if _convert(cfg, "n", _integer, violations) and k_ok:
        if cfg["n"] < 2:
            violations.append(f"n must be >= 2, got {cfg['n']}")
        if not 1 <= cfg["k"] <= cfg["n"]:
            violations.append(f"need 1 <= k <= n, got k={cfg['k']}, n={cfg['n']}")
        if cfg["family"] == "general_quotient":
            if cfg["l"] is None:
                violations.append("general_quotient requires l")
            elif _convert(cfg, "l", _integer, violations) and not 0 <= cfg["l"] < cfg["k"]:
                violations.append(f"general_quotient needs 0 <= l < k, got l={cfg['l']}, k={cfg['k']}")
        elif cfg["l"] is not None:
            violations.append("l is only meaningful for general_quotient")

    if cfg["shape"] not in (hypgeom.SHAPE_BALL, hypgeom.SHAPE_ELLIPSE):
        violations.append(f"unknown shape {cfg['shape']!r}")
    if cfg["shape"] == hypgeom.SHAPE_ELLIPSE:
        axes = cfg.get("axes")
        if not (isinstance(axes, (list, tuple)) and len(axes) == 2):
            violations.append("ellipse requires axes = [a_axis, b_axis]")
        elif _convert(cfg, "axes", _floats, violations):
            if not math.inf > cfg["axes"][0] >= cfg["axes"][1] > 0:
                violations.append("ellipse needs finite a_axis >= b_axis > 0")
        if cfg["n"] != 2:
            violations.append(f"ellipse domains are planar: need n = 2, got n={cfg['n']!r}")
    elif _convert(cfg, "radius", _real, violations) and not 0.0 < cfg["radius"] < math.inf:
        violations.append(f"radius must be positive and finite, got {cfg['radius']}")
    if command == "cap" and cfg["shape"] != hypgeom.SHAPE_BALL:
        violations.append(f"the umbilic cap is a ball solution: cap needs shape 'ball', "
                          f"got {cfg['shape']!r}")

    needs_sigma = command in ("solve", "cap", "check-estimates", "refine")
    if needs_sigma:
        if cfg["sigma"] is None:
            violations.append(f"command {command!r} requires sigma")
        elif _convert(cfg, "sigma", _real, violations) and not 0.0 < cfg["sigma"] < 1.0:
            violations.append(f"sigma must lie in (0, 1), got {cfg['sigma']}")
    if command == "sweep":
        if not cfg.get("sigmas"):
            violations.append("sweep requires sigmas")
        elif _convert(cfg, "sigmas", _floats, violations):
            if any(not 0.0 < s < 1.0 for s in cfg["sigmas"]):
                violations.append("every sweep sigma must lie in (0, 1)")
            if sorted(cfg["sigmas"], reverse=True) != cfg["sigmas"]:
                violations.append("sweep sigmas must be sorted descending")

    if _convert(cfg, "grid", _integer, violations) and cfg["grid"] < 8:
        violations.append(f"grid must be >= 8, got {cfg['grid']}")
    if _convert(cfg, "epsilon_min", _real, violations) and not 0.0 < cfg["epsilon_min"] < 0.1:
        violations.append("epsilon_min must lie in (0, 0.1)")
    if _convert(cfg, "seed", _integer, violations) and cfg["seed"] < 0:
        violations.append(f"seed must be >= 0, got {cfg['seed']}")
    if _convert(cfg, "samples", _integer, violations) and cfg["samples"] < 1:
        violations.append("samples must be >= 1")
    if _convert(cfg, "levels", _integer, violations) and command == "refine" and cfg["levels"] < 2:
        violations.append("refine needs levels >= 2")

    if not isinstance(cfg["out"], str):
        violations.append(f"out must be a directory path, got {cfg['out']!r}")
    if isinstance(cfg["export"], str):
        cfg["export"] = [e for e in cfg["export"].split(",") if e]
    if not (isinstance(cfg["export"], (list, tuple))
            and all(isinstance(e, str) for e in cfg["export"])):
        violations.append(f"export must be a list of formats, got {cfg['export']!r}")
        cfg["export"] = []
    bad = sorted(set(cfg["export"]) - set(EXPORTS))
    for e in bad:
        violations.append(f"unknown export format {e!r}")
    if "table-csv" in cfg["export"] and command not in TABLE_COMMANDS:
        violations.append(f"table-csv export needs one of {TABLE_COMMANDS}, got {command!r}")
    if "mesh-obj" in cfg["export"]:
        if command not in MESH_COMMANDS:
            violations.append(f"mesh-obj export needs one of {MESH_COMMANDS}, got {command!r}")
        if cfg["n"] != 2:
            violations.append(f"mesh-obj export requires n = 2, got n={cfg['n']!r}")

    if violations:
        raise ConfigError(violations)
    return cfg


def _curvature_spec(cfg: dict) -> symfunc.CurvatureSpec:
    if cfg["family"] == "consecutive_quotient":
        return symfunc.CurvatureSpec.consecutive_quotient(cfg["k"], cfg["n"])
    if cfg["family"] == "general_quotient":
        return symfunc.CurvatureSpec.general_quotient(cfg["k"], cfg["l"], cfg["n"])
    return symfunc.CurvatureSpec.kth_root(cfg["k"], cfg["n"])


def _domain(cfg: dict) -> hypgeom.Domain:
    if cfg["shape"] == hypgeom.SHAPE_ELLIPSE:
        return hypgeom.Domain.ellipse(*cfg["axes"])
    return hypgeom.Domain.ball(cfg["radius"], cfg["n"])


def _solver_config(cfg: dict) -> solver.SolverConfig:
    return solver.SolverConfig(
        spec=_curvature_spec(cfg),
        domain=_domain(cfg),
        sigma_target=cfg["sigma"],
        grid_size=cfg["grid"],
        epsilon_min=cfg["epsilon_min"],
    )


# ---------------------------------------------------------------------------
# artifact writers (atomic: write-temp-then-rename)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report_json(path: str, payload: dict, config: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "config": config, **payload}
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_table_csv(path: str, rows: list, columns: list) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _atomic_write(path, buf.getvalue())


def _obj_lines(fmt: str, rows: np.ndarray) -> str:
    """One OBJ line per row of `rows`, each formatted with `fmt`.  Rows go
    through `%` 4096 at a time, which bounds the Python numbers alive at
    once (all of them at once would raise the peak memory of an N = 512
    export by a few MB)."""
    parts = (rows[i:i + 4096] for i in range(0, len(rows), 4096))
    return "".join((fmt * len(p)) % tuple(p.ravel().tolist()) for p in parts)


def _ring_lines(heights: list, xy: np.ndarray) -> str:
    """OBJ vertex lines of rings at the given heights, with xy of shape
    (rings, sectors, 2).  Each height is formatted once, into its ring's
    line format, so only x and y go through `%` per vertex, about 4096
    vertices at a time, as in _obj_lines."""
    sectors = xy.shape[1]
    per = max(1, 4096 // sectors)
    return "".join(
        "".join(("v %.9g %.9g " + "%.9g\n" % h) * sectors for h in heights[i:i + per])
        % tuple(xy[i:i + per].ravel().tolist())
        for i in range(0, len(heights), per))


def mesh_from_radial(solution, n_theta: int = 64) -> str:
    """Revolve a radial profile into an OBJ mesh.  Vertices are (x, y, u) in
    upper half-space coordinates; faces wind counterclockwise seen from
    above (+u side)."""
    rho, u = solution.layout.rho, solution.u
    angles = [2.0 * math.pi * j / n_theta for j in range(n_theta)]
    # vertex 1 is the apex, then ring i >= 1 of the profile, sector j
    rings = np.empty((len(rho) - 1, n_theta, 2))
    rings[..., 0] = rho[1:, None] * np.array([math.cos(t) for t in angles])
    rings[..., 1] = rho[1:, None] * np.array([math.sin(t) for t in angles])
    # 1-based OBJ index of ring i >= 1, sector j: 2 + (i - 1) n_theta + j
    j = np.arange(n_theta)
    first = 2 + j
    fan = np.stack([np.ones_like(j), first, 2 + (j + 1) % n_theta], axis=-1)
    a = first + n_theta * np.arange(len(rho) - 2)[:, None]
    b = a - j + (j + 1) % n_theta
    c, d = a + n_theta, b + n_theta
    strips = np.stack([a, c, d, a, d, b], axis=-1)
    return ("# radial graph, revolved profile\n"
            + "v 0 0 %.9g\n" % u[0]
            + _ring_lines(u[1:].tolist(), rings)
            + _obj_lines("f %d %d %d\n", fan)
            + _obj_lines("f %d %d %d\n", strips.reshape(-1, 3)))


def mesh_from_grid(solution) -> str:
    """Tensor-grid solution to OBJ: vertices (x, y, u) for every node of a
    cell touching the interior; two triangles per cell, counterclockwise
    from above."""
    layout = solution.layout
    xs, ys, U, mask = layout.xs, layout.ys, solution.u.ravel()[layout.fold], layout.mask
    # cells with a corner inside, and the nodes of those cells
    cell = mask[:-1, :-1] | mask[1:, :-1] | mask[1:, 1:] | mask[:-1, 1:]
    used = np.zeros(mask.shape, dtype=bool)
    used[:-1, :-1] |= cell
    used[1:, :-1] |= cell
    used[1:, 1:] |= cell
    used[:-1, 1:] |= cell
    index = np.zeros(mask.shape, dtype=int)
    index[used] = np.arange(1, np.count_nonzero(used) + 1)
    vi, vj = np.nonzero(used)
    verts = np.stack([xs[vi], ys[vj], U[vi, vj]], axis=-1)
    ci, cj = np.nonzero(cell)
    a, b = index[ci, cj], index[ci + 1, cj]
    c, d = index[ci + 1, cj + 1], index[ci, cj + 1]
    faces = np.stack([a, b, c, a, c, d], axis=-1)
    return ("# tensor-grid graph over the ellipse\n"
            + _obj_lines("v %.9g %.9g %.9g\n", verts)
            + _obj_lines("f %d %d %d\n", faces.reshape(-1, 3)))


# ---------------------------------------------------------------------------
# command handlers


def _cmd_verify_f(cfg):
    spec = _curvature_spec(cfg)
    report = symfunc.check_conditions(spec, cfg["samples"], cfg["seed"])
    return {"condition_report": report.to_dict()}, None, None


def _cmd_cap(cfg):
    cap = hypgeom.make_cap(cfg["radius"], cfg["sigma"])
    payload = {
        "cap": {
            "R": cap.R, "sigma": cap.sigma, "r": cap.r, "c": cap.c,
            "u0": cap.apex_height,
        }
    }
    sol = solver.radial_solution_from_profile(
        _curvature_spec(cfg), hypgeom.Domain.ball(cfg["radius"], cfg["n"]),
        cfg["sigma"], cfg["grid"],
        hypgeom.make_cap_with_boundary_height(
            cfg["radius"], cfg["sigma"], cfg["epsilon_min"]).height,
        cfg["epsilon_min"],
    )
    return payload, sol, None


def _cmd_solve(cfg):
    sol = solver.continuation_solve(_solver_config(cfg))
    return {"statistics": sol.report.statistics()}, sol, None


def _cmd_sweep(cfg):
    base = _solver_config(dict(cfg, sigma=cfg["sigmas"][0]))
    rows = solver.sweep_sigma(base, cfg["sigmas"])
    columns = ["sigma", "status", "converged", "u0", "kappa_max",
               "min_nu_vertical", "iterations", "below_sigma0"]
    return {"sweep": rows}, None, (rows, columns)


def _cmd_refine(cfg):
    study = solver.refine_study(_solver_config(cfg), cfg["levels"])
    columns = ["grid_size", "converged", "u0", "kappa_max",
               "final_residual", "status"]
    return {"refine": study}, None, (study["rows"], columns)


def _cmd_check_estimates(cfg):
    sol = solver.continuation_solve(_solver_config(cfg))
    min_nu, grad_pass = verify.gradient_estimate_check(sol)
    consts, sets = verify.estimate_constants(sol)
    algebra = verify.algebraic_subinequalities(cfg["samples"], cfg["seed"])
    payload = {
        "statistics": sol.report.statistics(),
        "gradient_estimate": {"min_nu_vertical": min_nu, "passed": grad_pass},
        "estimate_constants": consts.to_dict(),
        "index_sets": sets.to_dict(),
        "algebraic_subinequalities": algebra,
    }
    return payload, sol, None


_HANDLERS = {
    "verify-f": _cmd_verify_f,
    "cap": _cmd_cap,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "refine": _cmd_refine,
    "check-estimates": _cmd_check_estimates,
}


def run(raw_config: dict) -> int:
    """Validate, dispatch, write artifacts; returns the process exit code."""
    try:
        cfg = validate_config(raw_config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 4

    try:
        payload, solution, table = _HANDLERS[cfg["command"]](cfg)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 4
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 2
    except SingularJacobianError as exc:
        print(f"singular Jacobian: {exc}", file=sys.stderr)
        return 2
    except AdmissibilityLostError as exc:
        print(f"admissibility lost: {exc}", file=sys.stderr)
        return 3

    artifacts = []
    if "report-json" in cfg["export"]:
        path = os.path.join(cfg["out"], "report.json")
        write_report_json(path, payload, cfg)
        artifacts.append(path)
    # validate_config admits table-csv only for commands that return a
    # table, and mesh-obj only for n = 2 commands that return a solution
    if "table-csv" in cfg["export"]:
        path = os.path.join(cfg["out"], "table.csv")
        write_table_csv(path, *table)
        artifacts.append(path)
    if "mesh-obj" in cfg["export"]:
        path = os.path.join(cfg["out"], "mesh.obj")
        writer = {solver.RadialLayout: mesh_from_radial, grid.GridLayout: mesh_from_grid}
        _atomic_write(path, writer[type(solution.layout)](solution))
        artifacts.append(path)

    for path in artifacts:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: usage and message go to
    stderr and the exit code is 4, not argparse's 2 (non-convergence here).
    Subcommand parsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hyperplateau",
        description="Constant-curvature graphs over planar domains in the "
                    "upper half-space model: solver, verification, exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("verify-f", "run the structural condition suite for a curvature function"),
        ("solve", "solve the Dirichlet problem at one sigma"),
        ("sweep", "solve over a descending list of sigmas"),
        ("cap", "evaluate the closed-form umbilic cap"),
        ("check-estimates", "solve, then check the gradient/curvature estimate machinery"),
        ("refine", "solve across grid refinement levels"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file with flat keys; flags override")
        p.add_argument("--family", choices=sorted(FAMILIES))
        p.add_argument("--k", type=int)
        p.add_argument("--l", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--shape", choices=["ball", "ellipse"])
        p.add_argument("--radius", type=float)
        p.add_argument("--axes", help="ellipse semi-axes as A,B")
        p.add_argument("--sigma", type=float)
        p.add_argument("--sigmas", help="comma-separated descending list")
        p.add_argument("--grid", type=int)
        p.add_argument("--epsilon-min", dest="epsilon_min", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--levels", type=int)
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--export", help="comma-separated subset of "
                                        "report-json,table-csv,mesh-obj")
    return parser


def _raw_config_from_args(args: argparse.Namespace) -> dict:
    raw = {}
    if args.config:
        try:
            with open(args.config) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError([f"cannot read config file: {exc}"]) from exc
        if not isinstance(raw, dict):
            raise ConfigError(["config file must contain a JSON object"])
    raw["command"] = args.command
    for key in ("family", "k", "l", "n", "shape", "radius", "sigma", "grid",
                "epsilon_min", "seed", "samples", "levels", "out", "export"):
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    if args.axes is not None:
        raw["axes"] = [float(x) for x in args.axes.split(",")]
    if args.sigmas is not None:
        raw["sigmas"] = [float(x) for x in args.sigmas.split(",")]
    return raw


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = _raw_config_from_args(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid flag value: {exc}", file=sys.stderr)
        return 4
    return run(raw)


if __name__ == "__main__":
    sys.exit(main())
