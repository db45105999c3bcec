"""CLI tests: config validation, dispatch, exit codes, and artifact files."""

import json
import math
import os

import numpy as np
import pytest

from hyperplateau import cli, hypgeom, solver, symfunc
from hyperplateau.errors import ConfigError


def _mesh_from_radial_loops(solution, n_theta=64):
    """Oracle for cli.mesh_from_radial: the per-line writer it replaced."""
    rho = solution.rho
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


def _mesh_from_grid_loops(solution):
    """Oracle for cli.mesh_from_grid: the per-line writer it replaced."""
    xs, ys, U, mask = solution.xs, solution.ys, solution.u2d, solution.mask
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
    ], ids=["verify-seed", "estimates-seed", "radius-inf", "radius-nan", "axes-inf",
            "axes-nan", "export-none", "export-nested", "grid-inf", "family-list", "out-int"])
    def test_out_of_range_exits_4_before_work(self, bad, message, tmp_path, capsys):
        assert cli.run({"out": str(tmp_path), **bad}) == 4
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_export(self):
        with pytest.raises(ConfigError):
            cli.validate_config({"command": "solve", "sigma": 0.5,
                                 "export": "report-json,mesh-stl"})


class TestRun:
    def test_cap_report(self, tmp_path, capsys):
        code = cli.run({"command": "cap", "sigma": 0.5, "radius": 1.0,
                        "out": str(tmp_path)})
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["schema_version"] == cli.SCHEMA_VERSION
        assert doc["cap"]["u0"] == pytest.approx(math.sqrt(1 / 3), abs=1e-7)
        assert doc["config"]["command"] == "cap"

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

        # every banded solve fails: the seeded solve, then the sigma march's
        # first step, so the SingularJacobianError reaches cli.run
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

    def test_refine_csv(self, tmp_path):
        code = cli.run({"command": "refine", "sigma": 0.5, "grid": 64,
                        "levels": 2, "out": str(tmp_path),
                        "export": ["table-csv"]})
        assert code == 0
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert lines[0].startswith("grid_size,")
        assert len(lines) == 3


class TestMesh:
    H2H1 = symfunc.CurvatureSpec.consecutive_quotient(2, 2)

    def test_radial_matches_loop_writer(self):
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=self.H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.5,
            grid_size=64))
        text = cli.mesh_from_radial(sol)
        assert text == _mesh_from_radial_loops(sol)
        assert text.count("\nv ") == 1 + 64 * 64

    def test_radial_exponent_heights_match_loop_writer(self):
        # each ring's height is formatted once, into its ring's line format;
        # the rim ring's height 1e-5 prints in exponent notation
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=self.H2H1, domain=hypgeom.Domain.ball(1.0), sigma_target=0.5,
            grid_size=64, epsilon_min=1e-5))
        text = cli.mesh_from_radial(sol)
        assert text == _mesh_from_radial_loops(sol)
        assert text.count(" 1e-05\n") == 64

    def test_grid_matches_loop_writer(self):
        sol = solver.continuation_solve(solver.SolverConfig(
            spec=self.H2H1, domain=hypgeom.Domain.ellipse(1.5, 1.0), sigma_target=0.6,
            grid_size=32))
        text = cli.mesh_from_grid(sol)
        assert text == _mesh_from_grid_loops(sol)
        assert text.count("\nf ") > 0


class TestMain:
    def test_flag_parsing(self, tmp_path):
        code = cli.main(["cap", "--sigma", "0.5", "--radius", "1",
                         "--out", str(tmp_path)])
        assert code == 0

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

    @pytest.mark.parametrize("argv", [
        ["solve", "--sigma", "0.5", "--k", "abc"],          # not an int
        ["solve", "--sigma", "0.5", "--family", "bogus"],   # not a choice
        ["solve", "--sigma", "0.5", "--shape", "annulus"],  # removed shape
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
    ])
    def test_config_error_exits_4(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("invalid configuration")
        assert not out.exists()

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
