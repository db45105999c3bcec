"""The CLI's contract on drawn configurations: every valid configuration
converges or ends in a typed error (exit 0, 2 or 3, never a traceback, one
line of stderr), and one key out of range is a configuration error (exit 4)
that names the key, found before any work."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperplateau import cli, solver

# the typed first words of the one stderr line of each failing exit code
PREFIXES = {2: ("non-convergence: ", "singular Jacobian: "), 3: ("admissibility lost: ",)}

SIGMA = st.floats(math.log(1e-3), math.log(0.99)).map(math.exp)  # log-uniform


@st.composite
def configs(draw):
    """A valid solve, sweep, refine or check-estimates config: a ball with
    n <= 4, radius 0.5-3 and N <= 64, or an ellipse with N <= 16."""
    command = draw(st.sampled_from(["solve", "sweep", "refine", "check-estimates"]))
    family = draw(st.sampled_from(sorted(cli.FAMILIES)))
    if draw(st.booleans()):
        a = draw(st.floats(0.5, 2.0))
        cfg = {"shape": "ellipse", "axes": [a, draw(st.floats(0.5, a))], "n": 2,
               "grid": draw(st.sampled_from([8, 12, 16]))}
    else:
        cfg = {"radius": draw(st.floats(0.5, 3.0)), "n": draw(st.integers(2, 4)),
               "grid": draw(st.sampled_from([8, 9, 16, 33, 64]))}
    general = family == "general_quotient"
    cfg.update(command=command, family=family, k=draw(st.integers(1 + general, cfg["n"])),
               epsilon_min=draw(st.sampled_from([0.0, 1e-3, 0.01])))
    if general:
        cfg["l"] = draw(st.integers(1, cfg["k"] - 1))
    if command == "sweep":
        sigmas = draw(st.lists(SIGMA, min_size=1, max_size=3, unique=True))
        cfg["sigmas"] = sorted(sigmas, reverse=True)
    else:
        cfg["sigma"] = draw(SIGMA)
    if command == "refine":
        cfg["levels"] = 2
    if command == "check-estimates":
        cfg["samples"] = draw(st.integers(1, 200))
    return cfg


def _run(cfg, out):
    """cli.run on cfg writing to the directory `out`: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.run({**cfg, "out": out})
    return code, err.getvalue()


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(configs())
def test_valid_config_converges_or_fails_typed(cfg):
    with tempfile.TemporaryDirectory() as out:
        code, err = _run(cfg, out)
        assert code in (0, 2, 3), (cfg, err)
        if code == 0:
            assert err == ""
            if cfg["command"] == "solve":
                with open(os.path.join(out, "report.json")) as f:
                    assert json.load(f)["statistics"]["converged"] is True
            if cfg["command"] == "check-estimates":
                with open(os.path.join(out, "report.json")) as f:
                    report = json.load(f)
                assert "gradient_estimate" in report and "estimate_constants" in report
        else:
            assert err.endswith("\n") and err.count("\n") == 1, err
            assert err.startswith(PREFIXES[code]), err


def _mutations(cfg):
    """(key, value out of range, text the violation reads) for every key of
    cfg that can be put out of range."""
    out = [("grid", 4, f"grid must be >= {solver.MIN_GRID}"),
           ("epsilon_min", 0.1, "epsilon_min must lie in [0, 0.1)"),
           ("epsilon_min", -1e-3, "epsilon_min must lie in [0, 0.1)"),
           ("k", cfg["n"] + 1, "k <= n"),
           ("n", 9, "n must be at most 8")]
    if "sigma" in cfg:
        out += [("sigma", value, "sigma must lie in (0, 1)") for value in (0.0, 1.0)]
    if len(cfg.get("sigmas", [])) > 1:
        out.append(("sigmas", cfg["sigmas"][::-1], "sweep sigmas must be sorted descending"))
    if "radius" in cfg:
        out.append(("radius", -1.0, "radius must be positive"))
    if "levels" in cfg:
        out.append(("levels", 1, "refine needs levels >= 2"))
    if "samples" in cfg:
        out.append(("samples", 0, "samples must lie in [1, "))
    return out


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.data())
def test_key_out_of_range_exits_4_naming_it(data):
    cfg = data.draw(configs())
    key, value, text = data.draw(st.sampled_from(_mutations(cfg)))
    with tempfile.TemporaryDirectory() as out:
        code, err = _run({**cfg, key: value}, out)
        assert code == 4, (cfg, key, value)
        assert err.startswith("invalid configuration:") and text in err, err
        assert key in text and "Traceback" not in err
        assert os.listdir(out) == []


@pytest.mark.parametrize("domain", [
    {"radius": 1e-300, "grid": 16},
    {"shape": "ellipse", "axes": [1.5e-100, 1e-100], "n": 2, "grid": 32},
    {"shape": "ellipse", "axes": [1e-300, 1e-300], "n": 2, "grid": 16},
], ids=["ball-1e-300", "ellipse-1.5e-100", "ellipse-1e-300"])
def test_extreme_domain_fails_in_one_typed_line(domain):
    # the solve meets overflow and 0/0 on these valid domains; numpy's
    # RuntimeWarnings took stderr's first lines.  As errors here, whichever
    # tests ran before, a warning that escapes fails the test
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as out:
        warnings.simplefilter("error", RuntimeWarning)
        code, err = _run({"command": "solve", "sigma": 0.5, **domain}, out)
    assert code in (2, 3), err
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith(PREFIXES[code]), err
