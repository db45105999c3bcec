"""Command-line front end: configuration parsing, run orchestration, and
export of reports (JSON), tables (CSV), and meshes (OBJ).

Exit codes: 0 success, 2 solver non-convergence or a singular Jacobian,
3 admissibility loss, 4 configuration error, a command-line usage error
(unknown flag, a flag without its value, missing subcommand) included.  A
flag's value is text that the config-file rules convert and check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from . import grid, hypgeom, solver, symfunc, verify
from .errors import (
    AdmissibilityLostError,
    ConfigError,
    NonConvergenceError,
    SingularJacobianError,
)

SCHEMA_VERSION = "3"

# the checked constructor of each family, called with the config's k, l, n
FAMILIES = {
    "consecutive_quotient": lambda k, l, n: symfunc.CurvatureSpec.consecutive_quotient(k, n),
    "general_quotient": symfunc.CurvatureSpec.general_quotient,
    "kth_root": lambda k, l, n: symfunc.CurvatureSpec.kth_root(k, n),
}
SHAPES = (hypgeom.SHAPE_BALL, hypgeom.SHAPE_ELLIPSE)
EXPORTS = ("report-json", "table-csv", "mesh-obj")
# the commands whose result has a table, and those whose result is a graph
TABLE_COMMANDS = ("sweep", "refine")
MESH_COMMANDS = ("solve", "cap", "check-estimates")
MESH_SECTORS = 64  # angular sectors of a radial profile revolved into a mesh

# upper bounds that keep a run within memory (see README.md)
MAX_GRID = {hypgeom.SHAPE_BALL: 2**14, hypgeom.SHAPE_ELLIPSE: 2**10}
MAX_SAMPLES = 10**6


def _real(value) -> float:
    """float(value); a boolean is not a number."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return float(value)


def _integer(value) -> int:
    """An integral number, such as 64, 1e4 or the text "1e3", as an int; not
    a boolean.  An int is returned as it is."""
    number = _real(value)
    if number % 1.0:
        raise ValueError("not an integer")
    return value if isinstance(value, int) else int(number)


def _floats(values) -> list:
    """_real of each item of a list, or of comma-separated text."""
    return [_real(v) for v in (values.split(",") if isinstance(values, str) else values)]


# every config key but "command": (default, kind, help), where kind converts
# a given value (see validate_config), or None to take it as it is
OPTIONS = {
    "family": ("consecutive_quotient", None,
               "curvature family: " + ", ".join(sorted(FAMILIES))),
    "k": (1, _integer, "order k of H_k"),
    "l": (None, _integer, "order l of (H_k/H_l)^(1/(k-l)), general_quotient only"),
    "n": (2, _integer, "dimension"),
    "shape": (hypgeom.SHAPE_BALL, None, "domain shape: " + ", ".join(SHAPES)),
    "radius": (1.0, _real, "ball radius"),
    "axes": (None, _floats, "ellipse semi-axes as A,B"),
    "sigma": (None, _real, "curvature target in (0, 1)"),
    "sigmas": (None, _floats, "comma-separated descending list"),
    "grid": (512, _integer, "grid size N"),
    "epsilon_min": (solver.EPSILON_MIN, _real,
                    "smallest boundary height, in [0, 0.1); 0 solves the limit problem"),
    "seed": (0, _integer, "sample seed"),
    "samples": (10000, _integer, "number of samples"),
    "levels": (2, _integer, "refinement levels"),
    "out": (".", None, "output directory (default: current)"),
    "export": (["report-json"], None,
               "comma-separated subset of report-json,table-csv,mesh-obj"),
}


# ---------------------------------------------------------------------------
# configuration


def _build(violations: list, make, *args):
    """make(*args), or None with the message of its ValueError a violation."""
    try:
        return make(*args)
    except ValueError as exc:
        violations.append(str(exc))
        return None


def validate_config(raw: dict) -> dict:
    """Normalize a raw config mapping (the defaults of OPTIONS, converted
    values) and report every violation at once, before any work.  Every
    value is converted by its OPTIONS kind, whether or not the command reads
    it; a None is left as it is where the default is None.  Beside the
    CLI's own rules (keys, command, l, sigmas, ranges, out, exports), it
    builds the CurvatureSpec and the Domain and checks epsilon_min and
    every sigma: each ValueError they raise is a violation.  Those are all
    the rules a SolverConfig checks, so none is built here."""
    violations = [f"unknown config key {key!r}" for key in sorted(set(raw) - {"command", *OPTIONS})]
    cfg = {key: raw.get(key, default) for key, (default, _, _) in OPTIONS.items()}
    cfg["command"] = command = raw.get("command")
    if not (isinstance(command, str) and command in COMMANDS):
        violations.append(f"command must be one of {tuple(COMMANDS)}, got {command!r}")
    failed = set()  # the keys whose value did not convert
    for key, (default, kind, _) in OPTIONS.items():
        if kind is not None and (cfg[key] is not None or default is not None):
            try:
                cfg[key] = kind(cfg[key])
            except (TypeError, ValueError, OverflowError):
                violations.append(f"{key} has an invalid value {cfg[key]!r}")
                failed.add(key)

    family_ok = isinstance(cfg["family"], str) and cfg["family"] in FAMILIES
    if not family_ok:
        violations.append(f"family must be one of {sorted(FAMILIES)}, got {cfg['family']!r}")
    if "n" not in failed and cfg["n"] > symfunc.MAX_DIMENSION:
        violations.append(f"n must be at most {symfunc.MAX_DIMENSION}, got {cfg['n']}")
    spec_ok = family_ok and not failed & {"k", "n", "l"}
    if cfg["family"] != "general_quotient":
        if cfg["l"] is not None:
            violations.append("l is only meaningful for general_quotient")
    elif cfg["l"] is None:
        violations.append("general_quotient requires l")
        spec_ok = False
    if spec_ok:
        _build(violations, _curvature_spec, cfg)

    ellipse = cfg["shape"] == hypgeom.SHAPE_ELLIPSE
    if cfg["shape"] not in SHAPES:
        violations.append(f"unknown shape {cfg['shape']!r}")
    elif ellipse and (cfg["axes"] is None or ("axes" not in failed and len(cfg["axes"]) != 2)):
        violations.append("ellipse requires axes = [a_axis, b_axis]")
    elif not failed & {"axes" if ellipse else "radius"}:
        _build(violations, _domain, cfg)
    if command == "cap" and cfg["shape"] != hypgeom.SHAPE_BALL:
        violations.append(f"the umbilic cap is a ball solution: cap needs shape 'ball', "
                          f"got {cfg['shape']!r}")

    if command == "sweep":
        if not cfg["sigmas"]:
            violations.append("sweep requires sigmas")
        elif "sigmas" not in failed:
            for sigma in cfg["sigmas"]:
                _build(violations, hypgeom.check_sigma, sigma)
            if sorted(cfg["sigmas"], reverse=True) != cfg["sigmas"]:
                violations.append("sweep sigmas must be sorted descending")

    refine = command == "refine" and "levels" not in failed
    if refine and cfg["levels"] < 2:
        violations.append("refine needs levels >= 2")
    if "grid" not in failed:
        # refine doubles the grid levels - 1 times; 63 doublings exceed every bound
        finest = cfg["grid"] * 2 ** (min(max(cfg["levels"], 1), 64) - 1 if refine else 0)
        if cfg["grid"] < solver.MIN_GRID:
            violations.append(f"grid must be >= {solver.MIN_GRID}, got {cfg['grid']}")
        elif cfg["shape"] in SHAPES and finest > MAX_GRID[cfg["shape"]]:
            violations.append(f"the finest grid (grid * 2**(levels - 1) on refine) must be at most "
                              f"{MAX_GRID[cfg['shape']]} for shape {cfg['shape']!r}, got {finest}")
    if "epsilon_min" not in failed:
        _build(violations, solver.check_epsilon_min, cfg["epsilon_min"])
    if "seed" not in failed and cfg["seed"] < 0:
        violations.append(f"seed must be >= 0, got {cfg['seed']}")
    if "samples" not in failed and not 1 <= cfg["samples"] <= MAX_SAMPLES:
        violations.append(f"samples must lie in [1, {MAX_SAMPLES}], got {cfg['samples']}")

    if command in ("solve", "cap", "check-estimates", "refine"):
        if cfg["sigma"] is None:
            violations.append(f"command {command!r} requires sigma")
        elif "sigma" not in failed:
            _build(violations, hypgeom.check_sigma, cfg["sigma"])

    if not isinstance(cfg["out"], str) or "\0" in cfg["out"]:  # no path holds a NUL
        violations.append(f"out must be a directory path, got {cfg['out']!r}")
    else:
        ancestor = _existing_ancestor(cfg["out"])
        if not os.path.isdir(ancestor):
            violations.append(f"out must be a directory path, got {cfg['out']!r}: "
                              f"{ancestor!r} is not a directory")
    if isinstance(cfg["export"], str):
        cfg["export"] = [e for e in cfg["export"].split(",") if e]
    if not (isinstance(cfg["export"], (list, tuple))
            and all(isinstance(e, str) for e in cfg["export"])):
        violations.append(f"export must be a list of formats, got {cfg['export']!r}")
        cfg["export"] = []
    violations += [f"unknown export format {e!r}"
                   for e in sorted(set(cfg["export"]) - set(EXPORTS))]
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


def _existing_ancestor(path: str) -> str:
    """The nearest existing ancestor of `path`, itself included."""
    path = os.path.abspath(path)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    return path


def _curvature_spec(cfg: dict) -> symfunc.CurvatureSpec:
    return FAMILIES[cfg["family"]](cfg["k"], cfg["l"], cfg["n"])


def _domain(cfg: dict) -> hypgeom.Domain:
    ellipse = cfg["shape"] == hypgeom.SHAPE_ELLIPSE
    domain = hypgeom.Domain.ellipse(*cfg["axes"]) if ellipse else hypgeom.Domain.ball(cfg["radius"])
    domain.check_dimension(cfg["n"])
    return domain


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


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of `chunks` to a temporary file beside `path` and
    rename it onto `path`, with the mode open(path, "w") gives; a failed
    chunk leaves `path` untouched and no temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report_json(path: str, payload: dict, config: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "config": config, **payload}
    _atomic_write(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n",))


def write_table_csv(path: str, rows: list, columns: list) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _atomic_write(path, (buf.getvalue(),))


def _obj_lines(fmt: str, rows: np.ndarray) -> str:
    """One OBJ line per row of `rows`, each formatted with `fmt`.  Rows go
    through `%` 4096 at a time, which bounds the Python numbers alive at
    once whatever the size of a grid mesh."""
    parts = (rows[i:i + 4096] for i in range(0, len(rows), 4096))
    return "".join((fmt * len(p)) % tuple(p.ravel().tolist()) for p in parts)


def mesh_from_radial(solution):
    """Revolve a radial profile into an OBJ mesh of MESH_SECTORS sectors,
    yielded ring by ring: each ring's vertices (x, y, u), in upper
    half-space coordinates, then its faces, counterclockwise seen from above
    (+u side).  Faces use OBJ's negative indices, which count back from the
    last vertex written, so every strip is the same text, formatted once."""
    rho, u = solution.layout.rho, solution.u
    angles = [2.0 * math.pi * j / MESH_SECTORS for j in range(MESH_SECTORS)]
    # (x, y) of ring i >= 1, sector j at rings[i - 1, j]
    rings = rho[1:, None, None] * np.array([[math.cos(t), math.sin(t)] for t in angles])
    # sector j of the ring just written is j - MESH_SECTORS, of the ring
    # before it j - 2 MESH_SECTORS; the apex, seen from ring 1, is -MESH_SECTORS - 1
    j = np.arange(MESH_SECTORS) - MESH_SECTORS
    k = np.roll(j, -1)
    fan = _obj_lines("f %d %d %d\n", np.stack([np.full_like(j, -MESH_SECTORS - 1), j, k], axis=-1))
    a, b = j - MESH_SECTORS, k - MESH_SECTORS
    strip = _obj_lines("f %d %d %d\n", np.stack([a, j, k, a, k, b], axis=-1).reshape(-1, 3))
    yield "# radial graph, revolved profile\n" + "v 0 0 %.9g\n" % u[0]
    for i in range(1, len(rho)):
        # the ring's height is formatted once, into its line format
        ring = tuple(rings[i - 1].ravel().tolist())
        yield ("v %.9g %.9g " + "%.9g\n" % u[i]) * MESH_SECTORS % ring
        yield fan if i == 1 else strip


def mesh_from_grid(solution):
    """Tensor-grid solution to OBJ, yielded as header, vertex block and face
    block: vertices (x, y, u) for every node of a cell touching the
    interior; two triangles per cell, counterclockwise from above, by
    absolute index, since the cells are irregular."""
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
    yield "# tensor-grid graph over the ellipse\n"
    yield _obj_lines("v %.9g %.9g %.9g\n", verts)
    yield _obj_lines("f %d %d %d\n", faces.reshape(-1, 3))


# ---------------------------------------------------------------------------
# command handlers


def _cmd_verify_f(cfg):
    spec = _curvature_spec(cfg)
    report = symfunc.check_conditions(spec, cfg["samples"], cfg["seed"])
    return {"condition_report": report.to_dict()}, None, None


def _cmd_cap(cfg):
    cap = hypgeom.make_cap_with_boundary_height(cfg["radius"], cfg["sigma"], cfg["epsilon_min"])
    payload = {"cap": {**asdict(cap), "u0": cap.apex_height}}
    sol = solver.cap_solution(_curvature_spec(cfg), _domain(cfg), cfg["sigma"], cfg["grid"],
                              cfg["epsilon_min"])
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
        "index_sets": asdict(sets),
        "algebraic_subinequalities": algebra,
    }
    return payload, sol, None


# every command: its handler and its help
COMMANDS = {
    "verify-f": (_cmd_verify_f, "run the structural condition suite for a curvature function"),
    "solve": (_cmd_solve, "solve the Dirichlet problem at one sigma"),
    "sweep": (_cmd_sweep, "solve over a descending list of sigmas"),
    "cap": (_cmd_cap, "evaluate the closed-form umbilic cap"),
    "check-estimates": (_cmd_check_estimates, "solve, then check the a priori estimates"),
    "refine": (_cmd_refine, "solve across grid refinement levels"),
}


def run(raw_config: dict) -> int:
    """Validate, dispatch, write artifacts; returns the process exit code."""
    try:
        cfg = validate_config(raw_config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 4

    # stderr holds one typed line: on extreme domains the solve meets
    # overflow and 0/0, which its finiteness and cone checks turn into the
    # typed errors below, so numpy's warnings are not printed
    try:
        with np.errstate(all="ignore"):
            payload, solution, table = COMMANDS[cfg["command"]][0](cfg)
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
    A token that starts with a minus and then a number, such as -1e-3, -5E-1
    or -inf, is an option's value, which the config rules then check;
    argparse by itself reads -1e-3 as a flag.  Subcommand parsers are made
    of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

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
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file with flat keys; flags override")
        for key, (_, _, text) in OPTIONS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=text)
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
    raw.update({key: getattr(args, key) for key in OPTIONS if getattr(args, key) is not None})
    return raw


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = _raw_config_from_args(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 4
    return run(raw)


if __name__ == "__main__":
    sys.exit(main())
