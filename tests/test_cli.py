"""End-to-end checks of the command line front end."""
import json
import math
import subprocess
import sys

import pytest

from nprox import cli
from nprox.cli import main
from nprox.config import read_config
from nprox.experiments import ExperimentReport
from nprox.extremal import RhoEstimate, fit_decay_rate
from nprox.zoo import projector_from_spec


def run(tmp_path, command, cfg, *flags):
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    return main([command, "--config", str(cfg_path), "--out", str(out_dir),
                 *flags])


RATES = "d,sup_error,root_error,seconds"
EXPERIMENT_KEYS = {"config", "extras", "metadata", "rate", "rows"}

# command, config, exit code, {file name: CSV header line or JSON top-level keys}
SUBCOMMAND_CASES = [
    ("points", {"family": "leja_disk", "count": 8}, 0,
     {"points_leja_disk.csv": "index,re,im",
      "points_leja_disk.json": {"count", "family", "points"}}),
    ("ortho", {"measure": {"kind": "chebyshev", "mnodes": 32}, "degree": 4}, 0,
     {"ortho.csv": "i,j,re,im",
      "ortho.json": {"basis_size", "degree", "gram_residual", "measure"}}),
    ("project", {"projector": {"kind": "lagrange", "nodes": "real_leja"},
                 "degree": 4, "function": ["exp", ["affine", [1.0], 0.0]]}, 0,
     {"project.csv": "rank,re,im",
      "project.json": {"coeff_count", "degree", "level_cond_bounds", "level_conds",
                       "nvars", "solve_residual"}}),
    ("converge", {"name": "conv",
                  "projector": {"kind": "lagrange", "nodes": "real_leja"},
                  "function": ["exp", ["affine", [1.0], 0.0]],
                  "compact": "interval", "degrees": [2, 4, 6], "grid": 64}, 0,
     {"conv.csv": RATES, "conv.json": EXPERIMENT_KEYS}),
    ("cylinder", {"name": "cyl", "degrees": [2, 3], "grid": 64}, 0,
     {"cyl.csv": RATES, "cyl_nodes.csv": "ax,ay,b", "cyl.json": EXPERIMENT_KEYS}),
    ("polya", {"lambdas": [0.3, 0.8], "dmax": 30}, 0,
     {"polya_0.csv": RATES, "polya_1.csv": RATES, "polya.json": {"dmax", "runs"}}),
    ("polya", {"lambda": 0.4, "dmax": 30, "bisect": True}, 0,
     {"polya.csv": RATES, "polya.json": {"bisect", "dmax", "runs"}}),
    ("gelfond", {"omegas": [0.5, 1.0, 2.0]}, 0,
     {"gelfond.csv": "omega,value", "gelfond.json": {"omegas", "values"}}),
    ("rho", {"function": ["recip", ["affine", [1.0], -2.0]],
             "compact": "interval",
             "measure": {"kind": "chebyshev", "mnodes": 64},
             "dmax": 16, "expected_rho": 2.0 + math.sqrt(3.0)}, 0,
     {"rho.csv": RATES,
      "rho.json": {"dmax", "floor_hit", "rho", "slope_stderr"}}),
    ("density", {"sequence": {"kind": "integers", "count": 512},
                 "omega": 1.0, "rmax": 256, "expected": 1.0}, 0,
     {"density.csv": "omega,rmax,density",
      "density.json": {"count", "density", "omega", "rmax"}}),
]


@pytest.mark.parametrize(
    "command,cfg,code,files", SUBCOMMAND_CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(SUBCOMMAND_CASES)])
def test_subcommand_reports(tmp_path, command, cfg, code, files):
    assert run(tmp_path, command, cfg, "--check") == code
    out = tmp_path / "out"
    assert {p.name for p in out.iterdir()} == set(files)
    for name, expected in files.items():
        text = (out / name).read_text()
        assert text.endswith("\n")
        if name.endswith(".csv"):
            assert text.splitlines()[0] == expected
        else:
            assert set(json.loads(text)) == expected


RHO_CFG = {"function": ["recip", ["affine", [1.0], -2.0]], "compact": "interval",
           "measure": {"kind": "chebyshev", "mnodes": 64}, "dmax": 16}


@pytest.mark.parametrize("command,cfg,message", [
    ("rho", {**RHO_CFG, "expected_rh0": 50.0}, "unknown config key 'expected_rh0'"),
    ("density", {"sequence": {"kind": "integers", "count": 512}, "rmax": 256,
                 "expectd": 7.0}, "unknown config key 'expectd'"),
    ("polya", {"lambdas": [0.3, 0.8], "dmax": 30, "bisekt": True},
     "unknown config key 'bisekt'"),
    ("ortho", {"measure": {"kind": "chebyshev", "mnodes": 32}},
     "missing config key 'degree'"),
    # nested objects: zoo and product specs, measures, the density sequence
    ("project", {"projector": {"kind": "lagrange", "nodes": "real_leja",
                               "cond_treshold": 1.5},
                 "degree": 4, "function": ["exp", ["affine", [1.0], 0.0]]},
     "unknown config key 'cond_treshold'"),
    ("project", {"projector": {"kind": "newton_product", "degree": 2,
                               "factors": [{"kind": "taylor"}, {"kind": "taylor"}]},
                 "degree": 2, "function": ["exp", ["affine", [1.0, 1.0], 0.0]]},
     "unknown config key 'degree'"),
    ("ortho", {"measure": {"kind": "chebyshev"}, "degree": 4},
     "missing config key 'mnodes'"),
    ("rho", {**RHO_CFG, "measure": {"kind": "product", "factors": [
        {"kind": "chebyshev", "mnodes": 64}, {"kind": "circle", "nodes": 8}]}},
     "unknown config key 'nodes'"),
    ("density", {"sequence": {"kind": "integers", "cuont": 4096}, "rmax": 2048,
                 "expected": 1.0}, "unknown config key 'cuont'"),
    ("density", {"sequence": {"kind": "primes", "count": 4096}, "rmax": 2048,
                 "expected": 1.0}, "unknown sequence kind 'primes'"),
    # norm and compact specs
    ("density", {"sequence": {"kind": "integers", "count": 199}, "rmax": 50,
                 "norm": {"kind": "l2", "nvar": 2}}, "unknown config key 'nvar'"),
    ("rho", {**RHO_CFG, "compact": {"kind": "interval", "radius": 3}},
     "unknown config key 'radius'"),
], ids=["rho-expected_rh0", "density-expectd", "polya-bisekt", "ortho-no-degree",
        "project-cond_treshold", "product-degree", "ortho-no-mnodes",
        "rho-factor-nodes", "density-cuont", "density-primes", "density-norm-nvar",
        "rho-compact-radius"])
def test_bad_config_keys_exit_one(tmp_path, capsys, command, cfg, message):
    # a misspelled key must not quietly drop part of --check
    assert run(tmp_path, command, cfg, "--check") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


LAGRANGE_4 = {"projector": {"kind": "lagrange", "nodes": "real_leja"}, "degree": 4,
              "function": ["exp", ["affine", [1.0], 0.0]]}
TAYLOR_2D = {"projector": {"kind": "taylor", "nvars": 2}, "degree": 2}
CONVERGE = {"projector": {"kind": "lagrange", "nodes": "real_leja"},
            "function": ["exp", ["affine", [1.0], 0.0]], "compact": "interval",
            "degrees": [2, 4], "grid": 64}


# each value used to be floored, parsed or read as true, and the run exit 0
@pytest.mark.parametrize("command,cfg,message", [
    ("points", {"count": 16.7}, "count must be an integer, got 16.7"),
    ("points", {"count": True}, "count must be an integer, got True"),
    ("polya", {"lambda": 0.5, "dmax": "30"}, "dmax must be an integer, got '30'"),
    ("polya", {"lambda": "0.5", "dmax": 30}, "lambda must be a number, got '0.5'"),
    ("polya", {"lambda": 0.5, "dmax": 30, "bisect": "no"},
     "bisect must be true or false, got 'no'"),
    ("gelfond", {"omegas": ["1.0", 2]}, "omegas must be a number, got '1.0'"),
    ("ortho", {"measure": {"kind": "chebyshev", "mnodes": 32}, "degree": 4.5},
     "degree must be a nonnegative integer, got 4.5"),
    ("ortho", {"measure": {"kind": "chebyshev", "mnodes": 32.9}, "degree": 4},
     "mnodes must be an integer, got 32.9"),
    ("rho", {**RHO_CFG, "dmax": 16.9}, "dmax must be a nonnegative integer, got 16.9"),
    ("rho", {**RHO_CFG, "grid": "256"}, "grid must be an integer, got '256'"),
    # these two failed inside the fit with messages that did not name the key
    ("rho", {**RHO_CFG, "dmax": -1}, "dmax must be a nonnegative integer, got -1"),
    ("rho", {**RHO_CFG, "grid": 0}, "grid must be at least 1, got 0"),
    ("density", {"sequence": {"kind": "integers", "count": 199.5}, "rmax": 50},
     "count must be an integer, got 199.5"),
    ("density", {"sequence": {"kind": "integers", "count": 199, "step": "1"}, "rmax": 50},
     "step must be a number, got '1'"),
    ("density", {"sequence": {"kind": "integers", "count": 199}, "rmax": 50,
                 "norm": {"kind": "l2", "nvars": 1.9}}, "nvars must be an integer, got 1.9"),
    ("project", {**LAGRANGE_4, "degree": 4.6}, "degree must be a nonnegative integer, got 4.6"),
    ("project", {**LAGRANGE_4, "degree": True},
     "degree must be a nonnegative integer, got True"),
    ("project", {**LAGRANGE_4, "projector": {"kind": "taylor", "nvars": 1.2}},
     "nvars must be an integer, got 1.2"),
    ("cylinder", {"degrees": [2.7, 4.2], "grid": 64},
     "degrees must be a nonnegative integer, got 2.7"),
    ("cylinder", {"degrees": [2, 3], "grid": 64.9}, "grid must be an integer, got 64.9"),
    ("converge", {**CONVERGE, "expected_rho": "3"}, "expected_rho must be a number, got '3'"),
    # these two exited 1 before, with messages that did not name the key
    ("project", {**LAGRANGE_4, "projector": {"kind": "lagrange", "nodes": "real_leja",
                                             "planar": "no"}},
     "planar must be true or false, got 'no'"),
    ("project", {**LAGRANGE_4, "projector": {"kind": "lagrange", "nodes": "real_leja",
                                             "cond_threshold": "1e12"}},
     "cond_threshold must be a number, got '1e12'"),
    # only one of each pair ran
    ("polya", {"lambda": 0.9, "lambdas": [0.3], "dmax": 20},
     "config keys 'lambda' and 'lambdas' exclude each other"),
    ("gelfond", {"omega": 2.0, "omegas": [0.5]},
     "config keys 'omega' and 'omegas' exclude each other"),
    # this one failed inside int(None)
    ("project", {"projector": {"kind": "lagrange", "nodes": "real_leja"},
                 "function": ["exp", ["affine", [1.0], 0.0]]},
     "missing config key 'degree' for a lagrange projector"),
    # function trees: the index was floored or wrapped, an extra argument
    # ignored and a bool read as 1
    ("project", {**LAGRANGE_4, "function": ["exp", ["coord", 0.7]]},
     "index of ['coord', 0.7] must be a nonnegative integer, got 0.7"),
    ("project", {**TAYLOR_2D, "function": ["exp", ["coord", -1]]},
     "index of ['coord', -1] must be a nonnegative integer, got -1"),
    ("project", {**TAYLOR_2D, "function": ["exp", ["coord", True]]},
     "index of ['coord', True] must be a nonnegative integer, got True"),
    ("project", {**TAYLOR_2D, "function": ["exp", ["coord", 2]]},
     "index of ['coord', 2] must be below nvars=2"),
    ("project", {**LAGRANGE_4, "function": ["exp", ["coord", 0], "junk"]},
     "function node ['exp', ['coord', 0], 'junk'] has 2 arguments; 'exp' takes 1"),
    ("project", {**LAGRANGE_4, "function": ["const", True]},
     "value of ['const', True] must be a number or an [re, im] pair, got True"),
    ("project", {**LAGRANGE_4, "function": ["poly", {"nvars": 1.5, "degree": 0,
                                                     "coeffs": [[1.0, 0.0]]}]},
     "nvars must be an integer, got 1.5"),
    ("project", {**LAGRANGE_4, "function": ["poly", {"nvars": 1, "degree": 0,
                                                     "coeffs": [["1", 0]]}]},
     "coeffs must be a number or an [re, im] pair, got ['1', 0]"),
    ("project", {**LAGRANGE_4, "function": ["poly", {"nvars": 2, "degree": 0,
                                                     "coeffs": [[1.0, 0.0]]}]},
     "has nvars=2, not 1"),
    # point lists: strings were parsed as numbers
    ("project", {**LAGRANGE_4, "projector": {"kind": "lagrange", "nodes": [["0"], ["1"]]}},
     "nodes coordinate must be a number or an [re, im] pair, got '0'"),
    ("density", {"sequence": ["1", "2", "3", "4"]},
     "sequence coordinate must be a number, got '1'"),
    # these two exited 1 before, with messages that did not name the key
    ("ortho", {"measure": {"kind": "custom", "nodes": [[["1", 0]]], "weights": [1.0],
                           "exactness": 0}, "degree": 0},
     "nodes coordinate must be a number or an [re, im] pair, got ['1', 0]"),
    ("density", {"sequence": [[1.0, 2.0]],
                 "norm": {"kind": "combined", "factors": [{"kind": "l2"}] * 3}},
     "a combined norm takes exactly two factors"),
], ids=["points-count-float", "points-count-bool", "polya-dmax-str", "polya-lambda-str",
        "polya-bisect-str", "gelfond-omegas-str", "ortho-degree-float",
        "ortho-mnodes-float", "rho-dmax-float", "rho-grid-str", "rho-dmax-negative",
        "rho-grid-zero", "density-count-float",
        "density-step-str", "density-nvars-float", "project-degree-float",
        "project-degree-bool", "project-taylor-nvars-float", "cylinder-degrees-float",
        "cylinder-grid-float", "converge-expected_rho-str", "project-planar-str",
        "project-cond_threshold-str", "polya-lambda-and-lambdas",
        "gelfond-omega-and-omegas", "project-no-degree", "project-coord-float",
        "project-coord-negative", "project-coord-bool", "project-coord-past-nvars",
        "project-exp-extra-argument", "project-const-bool", "project-poly-nvars-float",
        "project-poly-coeff-str", "project-poly-nvars-mismatch", "project-nodes-str",
        "density-sequence-str", "ortho-custom-node-str", "density-combined-three-factors"])
def test_bad_config_values_exit_one(tmp_path, capsys, command, cfg, message):
    assert run(tmp_path, command, cfg, "--check") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", [0, -3])
def test_points_count_below_one_exits_one(tmp_path, capsys, count):
    assert run(tmp_path, "points", {"count": count}, "--check") == 1
    assert "count must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,cfg,message", [
    ("converge", {"projector": {"kind": "lagrange", "nodes": "real_leja"},
                  "function": ["exp", ["affine", [1.0], 0.0]],
                  "compact": "interval", "degrees": [], "grid": 64}, "degrees"),
    ("cylinder", {"degrees": [], "grid": 64}, "degrees"),
    ("cylinder", {"degrees": [-1, 2], "grid": 64}, "degrees"),
    ("polya", {"lambda": 0.5, "dmax": 2}, "dmax must be at least 3"),
    ("polya", {"lambda": 0.5, "dmax": 0}, "dmax must be at least 3"),
], ids=["converge-no-degrees", "cylinder-no-degrees", "cylinder-negative-degree",
        "polya-dmax-2", "polya-dmax-0"])
def test_out_of_range_sizes_exit_one(tmp_path, capsys, command, cfg, message):
    assert run(tmp_path, command, cfg, "--check") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gelfond_values_and_check(tmp_path):
    code = run(tmp_path, "gelfond", {"omegas": [0.5, 1.0, 2.0]}, "--check")
    assert code == 0
    rows = (tmp_path / "out" / "gelfond.csv").read_text().splitlines()
    assert rows[0] == "omega,value"
    vals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    assert abs(vals[1.0] - math.log(2.0)) < 1e-10


def test_points_emits_the_sequence(tmp_path):
    code = run(tmp_path, "points", {"family": "leja_disk", "count": 16},
               "--check")
    assert code == 0
    rows = (tmp_path / "out" / "points_leja_disk.csv").read_text().splitlines()
    assert len(rows) == 17
    assert rows[1] == "0,1.0,0.0"
    payload = json.loads((tmp_path / "out" / "points_leja_disk.json").read_text())
    assert len(payload["points"]) == 16


def test_ortho_gram_residual_gate(tmp_path):
    code = run(tmp_path, "ortho",
               {"measure": {"kind": "chebyshev", "mnodes": 64}, "degree": 8},
               "--check")
    assert code == 0
    payload = json.loads((tmp_path / "out" / "ortho.json").read_text())
    assert payload["gram_residual"] < 1e-10
    assert payload["basis_size"] == 9


def test_project_writes_coefficients(tmp_path):
    cfg = {
        "projector": {"kind": "lagrange", "nodes": "real_leja"},
        "degree": 6,
        "function": ["exp", ["affine", [1.0], 0.0]],
    }
    code = run(tmp_path, "project", cfg, "--check")
    assert code == 0
    rows = (tmp_path / "out" / "project.csv").read_text().splitlines()
    assert len(rows) == 8  # header + 7 coefficients


CHEB_LEJA_24 = {
    "projector": {"kind": "newton_product", "factors": [
        {"kind": "lagrange", "nodes": "chebyshev_leja"},
        {"kind": "lagrange", "nodes": "chebyshev_leja"}]},
    "degree": 24,
    "function": ["exp", ["affine", [1.0, 0.5], 0.0]],
}


def test_project_check_passes_an_ill_conditioned_projector(tmp_path):
    # leading blocks up to cond 4.8e9: re-solving moves the monomial
    # coefficients by 3.6e-8, the condition values by 4.5e-15 of 4.47
    assert run(tmp_path, "project", CHEB_LEJA_24, "--check") == 0


NESTED_PRODUCT = {
    "projector": {"kind": "newton_product", "factors": [
        {"kind": "newton_product", "factors": [
            {"kind": "kergin", "nodes": "leja_disk", "planar": True},
            {"kind": "lagrange", "nodes": "chebyshev_leja"}]},
        {"kind": "taylor", "nvars": 1, "center": [0.1]}]},
    "degree": 5,
    "function": ["exp", ["affine", [0.5, 0.25, -0.3, 0.2], 0.0]],
}


def test_project_check_passes_a_nested_product_spec(tmp_path):
    # a product factor may itself be a product: (Kergin x Lagrange) x Taylor
    assert run(tmp_path, "project", NESTED_PRODUCT, "--check") == 0


CHEBYSHEV_LEJA_SQUARED = {"kind": "newton_product", "factors": [
    {"kind": "lagrange", "nodes": "chebyshev_leja"},
    {"kind": "lagrange", "nodes": "chebyshev_leja"}]}
# (CL x CL) x (CL x CL) on a pole function that does not split along the factors
FOUR_VARIABLE_POLE = {
    "projector": {"kind": "newton_product",
                  "factors": [CHEBYSHEV_LEJA_SQUARED, CHEBYSHEV_LEJA_SQUARED]},
    "degree": 12,
    "function": ["recip", ["affine", [0.5, 0.25, -0.3, 0.2], -3.0]],
}


def test_project_check_assembles_no_product_matrix():
    # the check reads the condition values as apply does: in factor form on a
    # product that solves through its factors, whose matrix (325 x 325 and
    # 1,820 x 1,820 here) stays unassembled
    for cfg in (CHEB_LEJA_24, FOUR_VARIABLE_POLE):
        facts = cli.run_project(read_config("project", cfg))[1]
        proj = facts[0]
        assert proj._factorwise and proj._matrix is None
        assert cli.check_project(facts) is None
        assert proj._matrix is None


def test_project_reports_the_solve_residual(tmp_path):
    # null where the projector does not solve through its factors
    small = {**FOUR_VARIABLE_POLE, "projector": CHEBYSHEV_LEJA_SQUARED, "degree": 4,
             "function": ["exp", ["affine", [1.0, 0.5], 0.0]]}
    single = {"projector": {"kind": "lagrange", "nodes": "real_leja"}, "degree": 6,
              "function": ["exp", ["affine", [1.0], 0.0]]}
    for cfg, factorwise in ((FOUR_VARIABLE_POLE, True), (NESTED_PRODUCT, True),
                            (CHEB_LEJA_24, True), (small, False), (single, False)):
        assert run(tmp_path, "project", cfg, "--check") == 0
        residual = json.loads((tmp_path / "out" / "project.json").read_text())["solve_residual"]
        if factorwise:
            assert 0.0 < residual < 1e-12
        else:
            assert residual is None


def test_project_check_fails_an_operator_that_is_not_a_projector(
        tmp_path, monkeypatch, capsys):
    def scaled(spec, degree):
        # (1 + 1e-6) P maps its own result to (1 + 1e-6)^2 P f
        proj = projector_from_spec(spec, degree)
        apply = proj.apply
        proj.apply = lambda f, exactness=None: (1 + 1e-6) * apply(f, exactness)
        return proj

    monkeypatch.setattr(cli, "projector_from_spec", scaled)
    assert run(tmp_path, "project", CHEB_LEJA_24, "--check") == 2
    assert "projection not idempotent" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg", [
    ("project", {"projector": {"kind": "kergin", "nodes": "real_leja"}, "degree": 6,
                 "function": ["exp", ["affine", [0.9], 0.0]], "exactness": -5}),
    ("converge", {"projector": {"kind": "lagrange", "nodes": "real_leja"},
                  "function": ["exp", ["affine", [1.0], 0.0]], "compact": "interval",
                  "degrees": [2, 4], "grid": 64, "exactness": 2.7}),
    ("cylinder", {"degrees": [2, 3], "grid": 64, "exactness": -3}),
], ids=["project", "converge", "cylinder"])
def test_bad_exactness_exits_one(tmp_path, capsys, command, cfg):
    # project --check used to pass with exactness -5, read as exactness 1
    assert run(tmp_path, command, cfg, "--check") == 1
    assert "exactness must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rho_check_against_expected(tmp_path):
    cfg = {
        "function": ["recip", ["affine", [1.0], -2.0]],
        "compact": "interval",
        "measure": {"kind": "chebyshev", "mnodes": 128},
        "dmax": 20,
        "expected_rho": 2.0 + math.sqrt(3.0),
    }
    assert run(tmp_path, "rho", cfg, "--check") == 0
    cfg["expected_rho"] = 50.0
    cfg["name"] = "rho_bad"
    assert run(tmp_path, "rho", cfg, "--check") == 2


def test_converge_runs_and_checks(tmp_path):
    cfg = {
        "name": "conv",
        "projector": {"kind": "lagrange", "nodes": "real_leja"},
        "function": ["exp", ["affine", [1.0], 0.0]],
        "compact": "interval",
        "degrees": [2, 4, 6, 8],
        "grid": 64,
    }
    assert run(tmp_path, "converge", cfg, "--check") == 0
    lines = (tmp_path / "out" / "conv.csv").read_text().splitlines()
    assert lines[0] == "d,sup_error,root_error,seconds"
    assert len(lines) == 5


def test_converge_check_fails_on_wrong_expectation(tmp_path):
    cfg = {
        "name": "conv_bad",
        "projector": {"kind": "lagrange", "nodes": "real_leja"},
        "function": ["recip", ["affine", [1.0], -2.0]],
        "compact": "interval",
        "degrees": [2, 4, 6, 8, 10],
        "grid": 64,
        "expected_rho": 100.0,
    }
    assert run(tmp_path, "converge", cfg, "--check") == 2


# a pole at 1.05, just off [-1, 1]
NEAR_POLE = ["recip", ["affine", [1.0], -1.05]]


@pytest.mark.parametrize("command,cfg,message", [
    # sup errors 13.5 and 10.5: the unfitted rate 0.0 read as convergence
    ("converge", {"projector": {"kind": "lagrange", "nodes": "chebyshev"},
                  "function": NEAR_POLE, "compact": "interval", "degrees": [2, 3]},
     "rate off-scale: 2 degrees above the roundoff floor, none at it"),
    # errors 16.9, 12.3 and 9.0: the null rho read as an entire function
    ("rho", {"function": NEAR_POLE, "compact": "interval",
             "measure": {"kind": "chebyshev", "mnodes": 64}, "dmax": 2},
     "rho off-scale: 3 degrees above the roundoff floor, none at it"),
], ids=["converge", "rho"])
def test_check_fails_a_sweep_too_short_to_fit(tmp_path, capsys, command, cfg, message):
    assert run(tmp_path, command, cfg, "--check") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_checks_fail_a_nonfinite_sup_error(bad):
    # an inf pushed the roundoff cut to inf, leaving no degree above it, and
    # every comparison with a NaN is False: each check read the sweep as fine
    degrees, errors = [2, 3, 4, 5], [1.0, bad, 1e-4, 1e-5]
    rows = [{"d": d, "sup_error": e} for d, e in zip(degrees, errors)]
    rate = fit_decay_rate(degrees, errors)[0]
    converge = ExperimentReport({"degrees": degrees}, rows, rate)
    cylinder = ExperimentReport({"degrees": degrees}, rows, rate, {"node_residual": 1e-14})
    rho = RhoEstimate(degrees, errors, math.inf, 0.0, True)
    message = f"sup error {bad} at degree 3"
    assert cli.check_converge(converge) == message
    assert cli.check_cylinder(cylinder) == message
    assert cli.check_rho((rho, None)) == message
    assert cli.check_rho((rho, 2.0)) == message


def test_converge_check_passes_a_short_sweep_at_the_roundoff_floor(tmp_path):
    # exp(x) at degrees 20 and 24 reads 1.3e-15 and 1.8e-15: converged
    cfg = {"name": "exp_floor", "projector": {"kind": "lagrange", "nodes": "chebyshev"},
           "function": ["exp", ["affine", [1.0], 0.0]], "compact": "interval",
           "degrees": [20, 24]}
    assert run(tmp_path, "converge", cfg, "--check") == 0
    report = json.loads((tmp_path / "out" / "exp_floor.json").read_text())
    assert max(r["sup_error"] for r in report["rows"]) < 1e-13
    assert report["rate"] == 0.0


def test_polya_verdicts(tmp_path):
    cfg = {"lambdas": [0.3, 0.8], "dmax": 40, "bisect": True}
    assert run(tmp_path, "polya", cfg, "--check") == 0
    payload = json.loads((tmp_path / "out" / "polya.json").read_text())
    assert [r["verdict"] for r in payload["runs"]] == ["converge", "diverge"]
    assert payload["bisect"]["high"] - payload["bisect"]["low"] < 1e-3


def test_cylinder_small(tmp_path):
    cfg = {"name": "cyl", "degrees": [2, 3], "grid": 64}
    assert run(tmp_path, "cylinder", cfg, "--check") == 0
    nodes = (tmp_path / "out" / "cyl_nodes.csv").read_text().splitlines()
    assert nodes[0] == "ax,ay,b"
    assert len(nodes) == 11  # header + C(3+2, 2) pairs


def test_density_integer_sequence(tmp_path):
    cfg = {"sequence": {"kind": "integers", "count": 4096},
           "omega": 1.0, "rmax": 2048, "expected": 1.0}
    assert run(tmp_path, "density", cfg, "--check") == 0


def test_missing_config_exits_one(tmp_path):
    code = main(["gelfond", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1


def test_bad_spec_exits_one(tmp_path):
    code = run(tmp_path, "points", {"family": "no_such_family"})
    assert code == 1


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = {
        "name": "det",
        "projector": {"kind": "lagrange", "nodes": "real_leja"},
        "function": ["recip", ["affine", [1.0], -2.0]],
        "compact": "interval",
        "degrees": [2, 4, 6],
        "grid": 64,
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        assert main(["converge", "--config", str(cfg_path),
                     "--out", str(out_dir)]) == 0
        outs.append((out_dir / "det.csv").read_bytes())
    assert outs[0] == outs[1]


def test_module_entry_point(tmp_path):
    cfg_path = tmp_path / "g.json"
    cfg_path.write_text(json.dumps({"omega": 1.0}))
    proc = subprocess.run(
        [sys.executable, "-m", "nprox.cli", "gelfond",
         "--config", str(cfg_path), "--out", str(tmp_path / "out"),
         "--check"],
        capture_output=True,
    )
    assert proc.returncode == 0


def test_import_loads_no_scipy():
    # nprox runs on numpy alone; scipy serves the tests and the benchmark only.
    # Sweeps run in process: loading the process pool's modules with nprox
    # would cost every run about 27 ms and 1.3 MB for nothing
    pool = ("multiprocessing", "concurrent.futures.process")
    for module in ("nprox", "nprox.cli"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; print(' '.join(m for m in sys.modules"
             f" if m.split('.')[0] == 'scipy' or m in {pool!r}))"],
            capture_output=True, text=True, check=True)
        assert proc.stdout.split() == [], module


def test_nprox_runs_without_scipy(tmp_path):
    # with scipy's import blocked, projectors, a product and a converge
    # --check run to the end
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({
        "name": "conv", "projector": {"kind": "lagrange", "nodes": "chebyshev_leja"},
        "function": ["exp", ["affine", [1.0], 0.0]], "compact": "interval",
        "degrees": [2, 4, 6, 8], "grid": 64}))
    code = f"""
import sys
sys.modules["scipy"] = None
from nprox.cli import main
from nprox.config import read_config
from nprox.testfunctions import Affine, Exp
from nprox.zoo import kergin_projector, lagrange_projector, nodes_by_name

f1, f2 = Exp(Affine([0.5], 0.1)), Exp(Affine([0.7], 0.0))
lagrange = lagrange_projector(nodes_by_name("chebyshev_leja", 5))
product = kergin_projector(nodes_by_name("real_leja", 4)).newton_product(lagrange)
f = Exp(Affine([0.5, 0.7], 0.1))
for P, g in ((lagrange, f1), (product, f)):
    P.apply(g)
    assert len(P.truncations(g)) == len(P.newton_summands(g)) == P.degree + 1
sys.exit(main(["converge", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r},
               "--check"]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
