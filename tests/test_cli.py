"""CLI tests: config validation, dispatch, exit codes, and artifact files."""

import io
import json
import math
import os
import sys

import numpy as np
import pytest

from hyperplateau import cli, hypgeom, solver, symfunc
from hyperplateau.errors import ConfigError


@pytest.fixture(autouse=True)
def _quiet(monkeypatch):
    """cli.run prints the files it writes and its errors.  Each test writes
    them to buffers of its own, not to the suite output; a test that takes
    capsys reads them there, and what it leaves unread goes to the buffers.
    capsys alone does not keep them out: under the suite's -s it writes the
    output left unread back to the terminal at the end of each test."""
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    monkeypatch.setattr(sys, "stderr", io.StringIO())


def _mesh_from_radial_loops(solution, n_theta=64):
    """Oracle for cli.mesh_from_radial: the per-line writer it replaced."""
    rho = solution.layout.rho
    u = solution.u
    lines = ["# radial graph, revolved profile"]
    lines.append(f"v 0 0 {u[0]:.9g}")
    for i in range(1, len(rho)):
        for j in range(n_theta):
            t = 2.0 * math.pi * j / n_theta
            lines.append(f"v {rho[i] * math.cos(t):.9g} {rho[i] * math.sin(t):.9g} {u[i]:.9g}")

    def ring(i, j):
        return 2 + (i - 1) * n_theta + (j % n_theta)

    for j in range(n_theta):
        lines.append(f"f 1 {ring(1, j)} {ring(1, j + 1)}")
    for i in range(1, len(rho) - 1):
        for j in range(n_theta):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            lines.append(f"f {a} {c} {d}")
            lines.append(f"f {a} {d} {b}")
    return "\n".join(lines) + "\n"


def _obj_parts(text):
    """The vertex lines of OBJ text, and its faces as tuples of absolute
    1-based vertex indices: a negative index counts back from the last
    vertex written before its face."""
    vertices, faces = [], []
    for line in text.splitlines(keepends=True):
        if line.startswith("v "):
            vertices.append(line)
        elif line.startswith("f "):
            faces.append(tuple(i if i > 0 else len(vertices) + 1 + i
                               for i in map(int, line.split()[1:])))
    return vertices, faces


def _mesh_from_grid_loops(solution):
    """Oracle for cli.mesh_from_grid: the per-line writer it replaced."""
    layout = solution.layout
    xs, ys, U, mask = layout.xs, layout.ys, solution.u.ravel()[layout.fold], layout.mask
    nx, ny = U.shape
    index = -np.ones((nx, ny), dtype=int)
    lines = ["# tensor-grid graph over the ellipse"]
    used = np.zeros((nx, ny), dtype=bool)
    cells = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            if mask[i:i + 2, j:j + 2].any():
                cells.append((i, j))
                used[i:i + 2, j:j + 2] = True
    count = 0
    for i in range(nx):
        for j in range(ny):
            if used[i, j]:
                count += 1
                index[i, j] = count
                lines.append(f"v {xs[i]:.9g} {ys[j]:.9g} {U[i, j]:.9g}")
    for i, j in cells:
        a, b = index[i, j], index[i + 1, j]
        c, d = index[i + 1, j + 1], index[i, j + 1]
        lines.append(f"f {a} {b} {c}")
        lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"


class TestValidateConfig:
    def test_defaults_filled(self):
        cfg = cli.validate_config({"command": "solve", "sigma": 0.5})
        assert cfg["family"] == "consecutive_quotient"
        assert cfg["grid"] == 512
        assert cfg["export"] == ["report-json"]

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ConfigError) as exc:
            cli.validate_config({"command": "solve", "sigma": 1.5,
                                 "family": "general_quotient", "k": 1,
                                 "grid": 4, "bogus": 1})
        text = str(exc.value)
        assert "sigma" in text
        assert "general_quotient requires l" in text
        assert "grid" in text
        assert "bogus" in text

    def test_missing_sigma(self):
        with pytest.raises(ConfigError) as exc:
            cli.validate_config({"command": "solve"})
        assert "sigma" in str(exc.value)

    def test_l_only_for_general_quotient(self):
        with pytest.raises(ConfigError):
            cli.validate_config({"command": "solve", "sigma": 0.5, "l": 1})

    def test_sweep_needs_descending(self):
        with pytest.raises(ConfigError):
            cli.validate_config({"command": "sweep", "sigmas": [0.2, 0.5]})

    @pytest.mark.parametrize("bad", [
        {"grid": "abc"},
        {"sigma": "x"},
        {"shape": "ellipse", "axes": ["a", 1]},
        {"family": "general_quotient", "k": 2, "l": "z"},
    ], ids=["grid", "sigma", "axes", "l"])
    def test_non_numeric_value_exits_4(self, bad, capsys):
        assert cli.run({"command": "solve", "sigma": 0.5, **bad}) == 4
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"command": "solve", "sigma": 0.5, "export": "report-json,table-csv"},
        {"command": "solve", "sigma": 0.5, "k": 2, "n": 3, "export": "report-json,mesh-obj"},
        {"command": "sweep", "sigmas": [0.5, 0.2], "export": "report-json,mesh-obj"},
    ], ids=["solve-table", "solve-n3-mesh", "sweep-mesh"])
    def test_incompatible_export_exits_4_before_work(self, bad, tmp_path, capsys):
        assert cli.run({**bad, "grid": 64, "out": str(tmp_path)}) == 4
        assert "export" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_ellipse_needs_n_2(self, tmp_path, capsys):
        code = cli.run({"command": "solve", "shape": "ellipse", "axes": [1.5, 1],
                        "n": 3, "k": 2, "sigma": 0.5, "out": str(tmp_path)})
        assert code == 4
        assert "n = 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_cap_needs_ball(self, tmp_path, capsys):
        code = cli.run({"command": "cap", "shape": "ellipse", "axes": [1.5, 1],
                        "sigma": 0.5, "export": "report-json,mesh-obj",
                        "out": str(tmp_path)})
        assert code == 4
        assert "cap needs shape 'ball'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad, message", [
        ({"command": "verify-f", "seed": -1}, "seed must be >= 0"),
        ({"command": "check-estimates", "sigma": 0.5, "seed": -3}, "seed must be >= 0"),
        ({"command": "solve", "sigma": 0.5, "radius": math.inf}, "radius must be positive"),
        ({"command": "solve", "sigma": 0.5, "radius": math.nan}, "radius must be positive"),
        ({"command": "solve", "sigma": 0.5, "shape": "ellipse", "axes": [math.inf, 1]},
         "finite a_axis"),
        ({"command": "solve", "sigma": 0.5, "shape": "ellipse", "axes": [1.5, math.nan]},
         "finite a_axis"),
        ({"command": "solve", "sigma": 0.5, "export": None}, "export must be a list"),
        ({"command": "solve", "sigma": 0.5, "export": [["report-json"]]},
         "export must be a list"),
        ({"command": "solve", "sigma": 0.5, "grid": math.inf}, "grid has an invalid value"),
        ({"command": "solve", "sigma": 0.5, "family": ["kth_root"]}, "family must be one of"),
        ({"command": "cap", "sigma": 0.5, "out": 5}, "out must be a directory path"),
        # os.makedirs raised ValueError for it after the whole solve
        ({"command": "solve", "sigma": 0.5, "grid": 16, "out": "o\0o"},
         "out must be a directory path"),
        # the family rules are CurvatureSpec's: general_quotient needs l >= 1
        ({"command": "verify-f", "family": "general_quotient", "k": 2, "l": 0, "n": 2},
         "general quotient needs 1 <= l < k <= n"),
        ({"command": "solve", "sigma": 0.5, "family": "general_quotient", "k": 2, "l": 0},
         "general quotient needs 1 <= l < k <= n"),
        # sizes past Domain's bound overflowed the cap's r**2
        ({"command": "solve", "sigma": 0.5, "radius": 1e155}, "radius must be positive"),
        ({"command": "cap", "sigma": 0.5, "radius": 1e155}, "radius must be positive"),
        ({"command": "solve", "sigma": 0.5, "shape": "ellipse", "axes": [1e154, 1e154]},
         "finite a_axis"),
        # upper bounds, checked before anything is allocated
        ({"command": "verify-f", "samples": 10**20}, "samples must lie in [1, 1000000]"),
        ({"command": "solve", "sigma": 0.5, "grid": 10**12},
         "must be at most 16384 for shape 'ball'"),
        ({"command": "solve", "sigma": 0.5, "shape": "ellipse", "axes": [1.5, 1],
          "grid": 2048}, "must be at most 1024 for shape 'ellipse'"),
        ({"command": "refine", "sigma": 0.5, "grid": 2**40},
         "must be at most 16384 for shape 'ball'"),
        ({"command": "refine", "sigma": 0.5, "grid": 4096, "levels": 4},
         "finest grid (grid * 2**(levels - 1) on refine) must be at most 16384"),
        ({"command": "refine", "sigma": 0.5, "grid": 512, "levels": 10**20},
         "finest grid (grid * 2**(levels - 1) on refine)"),
        ({"command": "verify-f", "k": 1, "n": 10**6, "samples": 10}, "n must be at most 8"),
        ({"command": "solve", "sigma": 0.5, "k": 1, "n": 10**6}, "n must be at most 8"),
    ], ids=["verify-seed", "estimates-seed", "radius-inf", "radius-nan", "axes-inf",
            "axes-nan", "export-none", "export-nested", "grid-inf", "family-list", "out-int",
            "out-nul", "verify-l0", "solve-l0", "radius-huge", "cap-radius-huge", "axes-huge",
            "samples-huge", "grid-huge", "ellipse-grid-huge", "refine-grid-huge",
            "refine-finest-grid", "refine-levels-huge", "verify-n-huge", "solve-n-huge"])
    def test_out_of_range_exits_4_before_work(self, bad, message, tmp_path, capsys):
        assert cli.run({"out": str(tmp_path), **bad}) == 4
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_out_through_a_file_exits_4_before_work(self, sub, tmp_path, capsys):
        # a file as the directory, or as one of its ancestors, ended in
        # FileExistsError or NotADirectoryError after the whole solve
        blocker = tmp_path / "report"
        blocker.write_text("kept")
        out = blocker / sub if sub else blocker
        assert cli.main(["solve", "--sigma", "0.5", "--grid", "16", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"out must be a directory path, got {str(out)!r}" in err
        assert f"{str(blocker)!r} is not a directory" in err and "Traceback" not in err
        assert blocker.read_text() == "kept" and sorted(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize("bad, key", [
        ({"grid": 64.5}, "grid"),
        ({"seed": 1.5}, "seed"),
        ({"samples": 100.5}, "samples"),
        ({"levels": 2.5}, "levels"),
        ({"n": 2.5}, "n"),
        ({"family": "general_quotient", "k": 2, "l": 0.5}, "l"),
        ({"k": True}, "k"),
        ({"k": math.inf}, "k"),
        ({"grid": True}, "grid"),
        ({"radius": True}, "radius"),
        ({"sigma": True}, "sigma"),
        ({"epsilon_min": False}, "epsilon_min"),
        ({"shape": "ellipse", "axes": [True, True]}, "axes"),
        ({"command": "sweep", "sigmas": [0.5, True]}, "sigmas"),
    ], ids=["grid-frac", "seed-frac", "samples-frac", "levels-frac", "n-frac", "l-frac",
            "k-bool", "k-inf", "grid-bool", "radius-bool", "sigma-bool", "epsilon-bool", "axes-bool",
            "sigmas-bool"])
    def test_bool_or_non_integral_value_exits_4_before_work(self, bad, key, tmp_path, capsys):
        assert cli.run({"command": "solve", "sigma": 0.5, "out": str(tmp_path), **bad}) == 4
        assert f"{key} has an invalid value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_grid_below_minimum_is_one_violation(self):
        # the SolverConfig is built only after the grid passes the CLI's rule
        with pytest.raises(ConfigError) as exc:
            cli.validate_config({"command": "solve", "sigma": 0.5, "grid": 4})
        assert exc.value.violations == [f"grid must be >= {solver.MIN_GRID}, got 4"]

    @pytest.mark.parametrize("epsilon_min", [-1e-3, 0.1])
    def test_epsilon_min_out_of_range_exits_4(self, epsilon_min, tmp_path, capsys):
        assert cli.run({"command": "solve", "sigma": 0.5, "grid": 64, "epsilon_min": epsilon_min,
                        "out": str(tmp_path)}) == 4
        assert "epsilon_min must lie in [0, 0.1)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("epsilon_min", ["0.1", "-1e-3", "nan"])
    @pytest.mark.parametrize("argv", [
        ["solve", "--sigma", "0.5"],
        ["sweep", "--sigmas", "0.5,0.2"],
        ["refine", "--sigma", "0.5"],
        ["check-estimates", "--sigma", "0.5"],
        ["cap", "--sigma", "0.5"],
        ["verify-f"],
    ], ids=lambda argv: argv[0])
    def test_epsilon_min_checked_by_every_command(self, argv, epsilon_min, tmp_path, capsys):
        # sweep builds its SolverConfig only in its handler: without the CLI's
        # own call of the rule a ValueError escaped there
        out = tmp_path / "o"
        assert cli.main(argv + ["--epsilon-min", epsilon_min, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:\n  - epsilon_min must lie in [0, 0.1)")
        assert err.count("\n  - ") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_integral_floats_accepted(self):
        cfg = cli.validate_config({"command": "solve", "sigma": 0.5, "k": 2.0, "n": 2.0,
                                   "grid": 64.0, "seed": 3.0, "samples": 1e4})
        assert [cfg[key] for key in ("k", "n", "grid", "seed", "samples")] == [2, 2, 64, 3, 10000]
        assert all(type(cfg[key]) is int for key in ("k", "n", "grid", "seed", "samples"))

    def test_unread_values_converted(self, tmp_path):
        # a value was converted only where a rule read it: verify-f echoed
        # "sigma": "0.5", and a ball echoed "axes": [1, 2] as ints
        assert cli.main(["verify-f", "--sigma", "0.5", "--samples", "200",
                         "--out", str(tmp_path)]) == 0
        sigma = json.loads((tmp_path / "report.json").read_text())["config"]["sigma"]
        assert sigma == 0.5 and type(sigma) is float
        cfg = cli.validate_config({"command": "solve", "sigma": 0.5, "axes": [1, 2]})
        assert cfg["axes"] == [1.0, 2.0] and all(type(a) is float for a in cfg["axes"])

    def test_unread_invalid_value_exits_4(self, tmp_path, capsys):
        # verify-f exited 0 and echoed "abc"
        out = tmp_path / "o"
        assert cli.main(["verify-f", "--sigma", "abc", "--out", str(out)]) == 4
        assert "sigma has an invalid value 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_export(self):
        with pytest.raises(ConfigError):
            cli.validate_config({"command": "solve", "sigma": 0.5,
                                 "export": "report-json,mesh-stl"})


class TestRun:
    def test_cap_report(self, tmp_path, capsys):
        code = cli.run({"command": "cap", "sigma": 0.5, "radius": 1.0, "epsilon_min": 0,
                        "out": str(tmp_path)})
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["schema_version"] == cli.SCHEMA_VERSION
        assert doc["cap"]["u0"] == pytest.approx(math.sqrt(1 / 3), abs=1e-7)
        assert doc["config"]["command"] == "cap"

    def test_cap_report_is_the_exported_cap(self, tmp_path):
        # the report held the cap through the rim, 0.5773502692, while the
        # mesh's apex read the cap of boundary height epsilon_min, 0.577683987
        code = cli.run({"command": "cap", "sigma": 0.5, "grid": 16, "out": str(tmp_path),
                        "export": "report-json,mesh-obj"})
        assert code == 0
        cap = json.loads((tmp_path / "report.json").read_text())["cap"]
        apex = (tmp_path / "mesh.obj").read_text().splitlines()[1]
        assert apex.startswith("v 0 0 ")
        assert "%.9g" % cap["u0"] == apex.split()[3]

    def test_verify_f(self, tmp_path):
        code = cli.run({"command": "verify-f", "family": "consecutive_quotient",
                        "k": 2, "n": 3, "samples": 2000, "seed": 1,
                        "out": str(tmp_path)})
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["condition_report"]["passed"] is True

    def test_sweep_table(self, tmp_path):
        code = cli.run({"command": "sweep", "sigmas": [0.5, 0.2],
                        "grid": 128, "out": str(tmp_path),
                        "export": ["report-json", "table-csv"]})
        assert code == 0
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "sigma"
        assert len(lines) == 3
        assert lines[2].split(",")[-1] == "True"  # 0.2 below sigma0

    def test_sweep_ellipse_table(self, tmp_path):
        code = cli.run({"command": "sweep", "family": "consecutive_quotient",
                        "k": 2, "n": 2, "shape": "ellipse", "axes": [1.5, 1.0],
                        "sigmas": [0.6, 0.5], "grid": 32, "out": str(tmp_path),
                        "export": ["report-json", "table-csv"]})
        assert code == 0
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert len(lines) == 3
        assert all(",ok,True," in line for line in lines[1:])

    def test_solve_mesh(self, tmp_path):
        code = cli.run({"command": "solve", "sigma": 0.5, "grid": 64,
                        "out": str(tmp_path),
                        "export": ["report-json", "mesh-obj"]})
        assert code == 0
        obj = (tmp_path / "mesh.obj").read_text().splitlines()
        assert any(line.startswith("v ") for line in obj)
        assert any(line.startswith("f ") for line in obj)

    def test_config_error_exit_code(self):
        assert cli.run({"command": "solve"}) == 4

    def test_nonconvergence_exit_code(self, monkeypatch):
        from hyperplateau import solver
        from hyperplateau.errors import NonConvergenceError

        def boom(cfg):
            raise NonConvergenceError("forced")

        monkeypatch.setattr(solver, "continuation_solve", boom)
        assert cli.run({"command": "solve", "sigma": 0.5}) == 2

    def test_singular_jacobian_exit_code(self, monkeypatch, tmp_path, capsys):
        from hyperplateau import solver

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        # every banded solve fails: the seeded solve, then the march's first
        # solve, at sigma = 0.8 from the seed, so the SingularJacobianError
        # reaches cli.run
        monkeypatch.setattr(solver, "solve_banded", singular)
        out = tmp_path / "o"
        assert cli.run({"command": "solve", "sigma": 0.5, "grid": 64, "out": str(out)}) == 2
        assert capsys.readouterr().err.startswith("singular Jacobian: ")
        assert not out.exists()

    def test_admissibility_exit_code(self, monkeypatch):
        from hyperplateau import solver
        from hyperplateau.errors import AdmissibilityLostError

        def boom(cfg):
            raise AdmissibilityLostError([3])

        monkeypatch.setattr(solver, "continuation_solve", boom)
        assert cli.run({"command": "solve", "sigma": 0.5}) == 3

    def test_annulus_rejected(self):
        assert cli.run({"command": "solve", "sigma": 0.5, "shape": "annulus"}) == 4

    def test_determinism_of_reports(self, tmp_path):
        out = str(tmp_path / "same")
        cli.run({"command": "solve", "sigma": 0.3, "grid": 128, "out": out})
        first = (tmp_path / "same" / "report.json").read_bytes()
        cli.run({"command": "solve", "sigma": 0.3, "grid": 128, "out": out})
        second = (tmp_path / "same" / "report.json").read_bytes()
        assert first == second

    def test_check_estimates(self, tmp_path):
        code = cli.run({"command": "check-estimates", "family":
                        "consecutive_quotient", "k": 2, "n": 2, "sigma": 0.2,
                        "grid": 128, "samples": 20000, "out": str(tmp_path)})
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["gradient_estimate"]["passed"] is True
        assert doc["algebraic_subinequalities"]["passed"] is True

    @pytest.mark.parametrize("shape", [{"radius": 1.0}, {"shape": "ellipse", "axes": [1.5, 1]}],
                             ids=["ball", "ellipse"])
    def test_solve_limit_problem(self, shape, tmp_path):
        code = cli.run({"command": "solve", "sigma": 0.5, "grid": 32, "epsilon_min": 0,
                        "out": str(tmp_path), **shape})
        assert code == 0
        stats = json.loads((tmp_path / "report.json").read_text())["statistics"]
        assert stats["converged"] is True and stats["epsilon"] == 0.0
        assert "0" in stats["u0_by_epsilon"]

    def test_refine_csv(self, tmp_path):
        code = cli.run({"command": "refine", "sigma": 0.5, "grid": 64,
                        "levels": 2, "out": str(tmp_path),
                        "export": ["table-csv"]})
        assert code == 0
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert lines[0].startswith("grid_size,")
        assert len(lines) == 3


ESTIMATES = {"command": "check-estimates", "sigma": 0.5, "grid": 64, "samples": 100}


@pytest.mark.parametrize("config, records, keys", [
    (ESTIMATES, lambda doc: [doc["estimate_constants"]],
     ["a", "eta", "kappa1", "lambda", "theta", "mu", "M0", "x0_index", "theta_window",
      "window_empty", "kappa1_threshold", "boundary_attained"]),
    (ESTIMATES, lambda doc: [doc["index_sets"]], ["J", "L", "Neg"]),
    ({"command": "verify-f", "samples": 100}, lambda doc: doc["condition_report"]["records"],
     ["condition", "samples", "worst_margin", "tolerance", "passed"]),
    ({"command": "cap", "sigma": 0.5}, lambda doc: [doc["cap"]], ["R", "sigma", "r", "c", "u0"]),
], ids=["estimate_constants", "index_sets", "condition_records", "cap"])
def test_report_keys(config, records, keys, tmp_path):
    # the records are written from their dataclasses: a renamed field shows here
    assert cli.run({**config, "out": str(tmp_path)}) == 0
    found = records(json.loads((tmp_path / "report.json").read_text()))
    assert found and all(sorted(r) == sorted(keys) for r in found)


class TestMesh:
    H2H1 = symfunc.CurvatureSpec.consecutive_quotient(2, 2)

    def test_radial_matches_loop_writer(self):
        # the vertex lines byte for byte; the faces, relative in the mesh and
        # absolute in the oracle, as one ordered list of vertex indices
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=self.H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.5,
            grid_size=64))
        text = "".join(cli.mesh_from_radial(sol))
        assert _obj_parts(text) == _obj_parts(_mesh_from_radial_loops(sol))
        assert text.count("\nv ") == 1 + 64 * 64

    def test_radial_exponent_heights_match_loop_writer(self):
        # each ring's height is formatted once, into its ring's line format;
        # the rim ring's height 1e-5 prints in exponent notation
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=self.H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.5,
            grid_size=64, epsilon_min=1e-5))
        text = "".join(cli.mesh_from_radial(sol))
        assert _obj_parts(text) == _obj_parts(_mesh_from_radial_loops(sol))
        assert text.count(" 1e-05\n") == 64

    def test_radial_chunks_are_small_and_relative(self):
        # the finest cap the CLI admits: no chunk holds more than a ring's
        # lines, and every face index reaches back at most two rings
        sol = solver.cap_solution(self.H2H1, hypgeom.Domain.ball(1.0), 1e-9, 16384,
                                  solver.EPSILON_MIN)
        face_chunks, vertices = set(), 0
        for chunk in cli.mesh_from_radial(sol):
            assert len(chunk) <= 8192
            vertices += chunk.count("v ")
            if "f " in chunk:
                face_chunks.add(chunk)
        assert vertices == 1 + 16384 * cli.MESH_SECTORS
        indices = {int(i) for chunk in face_chunks for line in chunk.splitlines()
                   if line.startswith("f ") for i in line.split()[1:]}
        assert indices and min(indices) >= -129 and max(indices) <= -1

    def test_grid_matches_loop_writer(self):
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=self.H2H1, domain=hypgeom.Domain.ellipse(1.5, 1.0), sigma_target=0.6,
            grid_size=32))
        text = "".join(cli.mesh_from_grid(sol))
        assert text == _mesh_from_grid_loops(sol)
        assert text.count("\nf ") > 0

    def test_written_radial_mesh_matches_loop_writer(self, tmp_path):
        assert cli.run({"command": "solve", "sigma": 0.5, "k": 2, "grid": 64,
                        "out": str(tmp_path), "export": "mesh-obj"}) == 0
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=self.H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.5,
            grid_size=64))
        text = (tmp_path / "mesh.obj").read_text()
        assert _obj_parts(text) == _obj_parts(_mesh_from_radial_loops(sol))


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_umask(self, umask, mode, tmp_path):
        # the mode open(path, "w") gives, not the temporary file's 0o600
        saved = os.umask(umask)
        try:
            cli._atomic_write(str(tmp_path / "a.txt"), ("text\n",))
        finally:
            os.umask(saved)
        assert (tmp_path / "a.txt").stat().st_mode & 0o777 == mode

    def test_failed_write_leaves_no_trace(self, tmp_path):
        target = tmp_path / "mesh.obj"
        target.write_bytes(b"v 0 0 1\n")

        def chunks():
            yield "v 1 2 3\n"
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            cli._atomic_write(str(target), chunks())
        assert target.read_bytes() == b"v 0 0 1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["mesh.obj"]


class TestMain:
    def test_flag_parsing(self, tmp_path):
        for argv in (
            ["cap", "--sigma", "0.5", "--radius", "1"],
            # the sampled cap leaves the cone by O(h^2) at small sigma: the
            # cap's curvatures are the exact sigma, never a residual's
            ["cap", "--sigma", "1e-9", "--grid", "16384", "--export", "mesh-obj"],
            ["cap", "--family", "kth_root", "--k", "1", "--sigma", "0.001", "--grid", "16384",
             "--export", "mesh-obj"],
        ):
            code = cli.main(argv + ["--out", str(tmp_path)])
            assert code == 0, argv
            for path in tmp_path.iterdir():  # an N = 16384 mesh takes 71 MB
                assert path.stat().st_size > 0
                path.unlink()

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"sigma": 0.9, "grid": 64}))
        out = tmp_path / "o"
        code = cli.main(["cap", "--config", str(cfgfile), "--sigma", "0.5",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["sigma"] == 0.5  # flag wins

    def test_bad_flag_value(self):
        assert cli.main(["solve", "--sigma", "2.0"]) == 4

    def test_config_file_fractional_grid_exits_4(self, tmp_path, capsys):
        # a fractional grid size is an error, not a solve at N = 64
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"grid": 64.5, "sigma": 0.5}))
        out = tmp_path / "o"
        assert cli.main(["solve", "--config", str(cfgfile), "--out", str(out)]) == 4
        assert "grid has an invalid value 64.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--sigma"],                               # no value at all
        ["solve", "--sigma", "0.5", "--k"],                 # no value at the end
        ["solve", "--sigma", "0.5", "--epsilon-min", "--k", "3"],  # next flag taken for a value
        ["solve", "--sigma", "-x"],                         # a flag, not a value
    ])
    def test_usage_error_exits_4(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(out)])
        assert exc.value.code == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: hyperplateau solve") and "error: argument" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["verify-f", "--seed", "-1"],
        ["check-estimates", "--sigma", "0.5", "--seed", "-3"],
        ["solve", "--radius", "inf", "--sigma", "0.5"],
        ["solve", "--shape", "ellipse", "--axes", "inf,1", "--sigma", "0.5"],
        # a flag's value follows the config-file rules
        ["solve", "--sigma", "0.5", "--k", "abc"],          # not an int
        ["solve", "--sigma", "0.5", "--family", "bogus"],   # not a family
        ["solve", "--sigma", "0.5", "--shape", "annulus"],  # removed shape
    ])
    def test_config_error_exits_4(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("invalid configuration")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--sigma", "0.5", "--epsilon-min", "-1e-3"], "epsilon_min must lie in [0, 0.1)"),
        (["solve", "--sigma", "-5E-1"], "sigma must lie in (0, 1)"),
        (["solve", "--sigma", "0.5", "--epsilon-min", "-inf"], "epsilon_min must lie in [0, 0.1)"),
    ], ids=["exponent", "upper-exponent", "inf"])
    def test_negative_number_is_a_value(self, argv, message, tmp_path, capsys):
        # argparse read -1e-3 and -5E-1 as flags ("expected one argument")
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, key, value", [
        (["verify-f", "--k", "2", "--n", "3", "--samples", "1e3"], "samples", 1000),
        (["cap", "--sigma", "0.5", "--grid", "64.0"], "grid", 64),
    ], ids=["samples-1e3", "grid-64.0"])
    def test_integral_flag_values_accepted(self, argv, key, value, tmp_path):
        # as in a config file, 1e3 and 64.0 are integers
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "report.json").read_text())["config"]
        assert config[key] == value and type(config[key]) is int

    def test_missing_subcommand_exits_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: hyperplateau") and "required: command" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hyperplateau solve")

    def test_help_names_choices(self, capsys):
        # the flags take text, so the help names the families and shapes
        with pytest.raises(SystemExit):
            cli.main(["solve", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert all(name in out for name in [*cli.FAMILIES, *cli.SHAPES])


# Exit code and stderr of `solve --family kth_root --k 1` (H_1 on K_2), keyed
# by (n, N, sigma): the failures end in the bisected jump from sigma = 0.8
# at the first height, or in the predicted, bisected march of a later one.
H1_ON_K2 = {
    (2, 64, 0.01): (2, "backtracking exhausted 20 halvings at sigma=0.01, eps=0.0880859375"),
    (2, 64, 0.002): (2, "backtracking exhausted 20 halvings at "
                       "sigma=0.008234375000000002, eps=0.1"),
    (2, 64, 0.001): (2, "backtracking exhausted 20 halvings at sigma=0.0072421875, eps=0.1"),
    (2, 512, 0.01): (0, None),
    (2, 512, 0.002): (2, "backtracking exhausted 20 halvings at "
                       "sigma=0.002, eps=0.058007812500000006"),
    (2, 512, 0.001): (2, "backtracking exhausted 20 halvings at "
                       "sigma=0.001, eps=0.08906250000000002"),
    (2, 2048, 0.01): (0, None),
    (2, 2048, 0.002): (2, "backtracking exhausted 20 halvings at sigma=0.002, eps=0.0125"),
    (2, 2048, 0.001): (2, "backtracking exhausted 20 halvings at "
                       "sigma=0.001, eps=0.029003906250000003"),
    (4, 64, 0.01): (0, None),
    (4, 64, 0.002): (2, "backtracking exhausted 20 halvings at "
                       "sigma=0.005117187500000001, eps=0.1"),
    (4, 64, 0.001): (2, "backtracking exhausted 20 halvings at "
                       "sigma=0.004121093750000001, eps=0.1"),
    (4, 512, 0.01): (0, None),
    (4, 512, 0.002): (2, "backtracking exhausted 20 halvings at "
                       "sigma=0.002, eps=0.037402343750000004"),
    (4, 512, 0.001): (2, "backtracking exhausted 20 halvings at sigma=0.001, eps=0.0716796875"),
    (4, 2048, 0.01): (0, None),
    (4, 2048, 0.002): (0, None),
    (4, 2048, 0.001): (2, "backtracking exhausted 20 halvings at "
                       "sigma=0.001, eps=0.018701171875000002"),
}

# The statistics of `solve` (H_1, n = 2) on coarse grids where the seeded
# first height fails, keyed by (N, sigma): a step from the seed's solve at
# (0.8, 0.1) reaches it, the first point after the seed, and the later
# heights are seeded.  Each jump to sigma converges unbisected, its
# rejected trials counted in admissibility_violations.
SIGMA_MARCH_FIRST = {
    (8, 0.05): {
        "admissibility_violations": 1, "below_sigma0": True, "converged": True,
        "epsilon": 0.001, "final_residual": 2.360611706109239e-14, "grid_size": 8,
        "factorizations": [2, 6] + [3] * 5 + [2, 2],
        "kappa_max": 0.09528106058473829, "min_nu_vertical": 0.4032036774278771,
        "newton_iterations": [2, 6] + [3] * 5 + [2, 2], "sigma": 0.05,
        "u0_by_epsilon": {
            "0.001": 0.9195154785299902, "0.0015625": 0.9196167826062999,
            "0.003125": 0.9198989282562584, "0.00625": 0.920466523301393,
            "0.0125": 0.921615053817659, "0.025": 0.9239664787815117,
            "0.05": 0.9288947577110224, "0.1": 0.9397153243581704}},
    (8, 0.01): {
        "admissibility_violations": 2, "below_sigma0": True, "converged": True,
        "epsilon": 0.001, "final_residual": 2.002044363624833e-14, "grid_size": 8,
        "factorizations": [2, 6] + [3] * 5 + [2, 2],
        "kappa_max": 0.06331627068194134, "min_nu_vertical": 0.3860592308115123,
        "newton_iterations": [2, 6] + [3] * 5 + [2, 2], "sigma": 0.01,
        "u0_by_epsilon": {
            "0.001": 0.9526591132880178, "0.0015625": 0.9527515508623011,
            "0.003125": 0.9530090245096956, "0.00625": 0.9535270867466038,
            "0.0125": 0.9545757979000162, "0.025": 0.9567245839703685,
            "0.05": 0.9612357540301338, "0.1": 0.9711769852155021}},
    (64, 0.001): {
        "admissibility_violations": 5, "below_sigma0": True, "converged": True,
        "epsilon": 0.001, "final_residual": 4.560735469838484e-13, "grid_size": 64,
        "factorizations": [2, 9, 4, 4, 3, 3, 3, 3, 2],
        "kappa_max": 0.020533516240326247, "min_nu_vertical": 0.1351459506688725,
        "newton_iterations": [2, 9, 4, 4, 3, 3, 3, 3, 2], "sigma": 0.001,
        "u0_by_epsilon": {
            "0.001": 0.994563686366131, "0.0015625": 0.9945952727331534,
            "0.003125": 0.9946837088023853, "0.00625": 0.9948636997202169,
            "0.0125": 0.9952365567925099, "0.025": 0.9960370338250931,
            "0.05": 0.9978836883694612, "0.1": 1.0027668309506863}},
}


# Config, exit code and stderr of `solve` on the grid path where it fails:
# on the circle at N = 256 the cap seed at the march's first point, sigma =
# 0.8, leaves the cone, as when a single Newton state still had no row axis,
# and H_1 on K_2 on the 1.5 x 1 ellipse exhausts its backtracking in the
# bisected jump from 0.8 to sigma at the first boundary height.
GRID_FAILURES = {
    "circle-N256": ({"axes": [1.0, 1.0], "k": 2, "sigma": 0.5, "grid": 256}, 3,
                    "admissibility lost: curvature left the cone at nodes "
                    "[7760, 8313, 8852, 9167, 9270, 9676, 9775, 10355]..."),
    "h1-on-k2-ellipse-N32": ({"axes": [1.5, 1.0], "family": "kth_root", "k": 1, "sigma": 0.2,
                              "grid": 32}, 2,
                             "non-convergence: backtracking exhausted 20 halvings at "
                             "sigma=0.4203125, eps=0.1"),
}


class TestFailurePaths:
    """Solves whose boundary heights are not all reached by the seeded
    Newton solve keep the outcome they had before the heights were solved
    as one stack, and failed grid solves the one they had before every
    Newton state became a stack of rows."""

    @pytest.mark.parametrize("n, grid_size, sigma", list(H1_ON_K2))
    def test_h1_on_k2(self, n, grid_size, sigma, capsys):
        code, message = H1_ON_K2[n, grid_size, sigma]
        assert cli.run({"command": "solve", "family": "kth_root", "k": 1, "n": n,
                        "sigma": sigma, "grid": grid_size, "export": ""}) == code
        assert capsys.readouterr().err == ("" if message is None
                                           else f"non-convergence: {message}\n")

    @pytest.mark.parametrize("grid_size, sigma", list(SIGMA_MARCH_FIRST))
    def test_sigma_march_at_first_height(self, grid_size, sigma, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.run({"command": "solve", "sigma": sigma, "grid": grid_size,
                        "export": "report-json", "out": str(out)}) == 0
        assert capsys.readouterr().out == f"{out / 'report.json'}\n"
        report = json.loads((out / "report.json").read_text())
        assert report["statistics"] == SIGMA_MARCH_FIRST[grid_size, sigma]

    @pytest.mark.parametrize("name", list(GRID_FAILURES))
    def test_grid_path(self, name, capsys):
        config, code, message = GRID_FAILURES[name]
        assert cli.run({"command": "solve", "shape": "ellipse", **config, "export": ""}) == code
        assert capsys.readouterr().err == message + "\n"
