"""Experiment harness: configs, reports, sweeps, the integer-node runs."""
import json
import pathlib
import math

import numpy as np
import pytest

import nprox.polynomials
from nprox import experiments
from nprox.cli import check_converge
from nprox.experiments import (
    ExperimentConfig,
    ExperimentReport,
    convergence_run,
    cylinder_blocks,
    cylinder_run,
    divided_differences_exp,
    polya_bisect,
    polya_run,
    report_write,
)
from nprox.extremal import parse_compact, rho_estimate
from nprox.functionals import KerginCondition
from nprox.measures import parse_measure
from nprox.points import cartesian
from nprox.polynomials import evaluate_grid
from nprox.projectors import NestedUnisolvenceFailure
from nprox.testfunctions import Affine, Exp, PoleOnSupportError, parse_function
from nprox.zoo import nodes_by_name, orthogonal_projector, projector_from_spec


def small_config(**overrides):
    base = dict(
        name="unit",
        projector={"kind": "lagrange", "nodes": "real_leja"},
        function=["exp", ["affine", [1.0], 0.0]],
        compact="interval",
        degrees=[2, 4, 6],
        grid=64,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_rejects_unordered_degrees():
    with pytest.raises(ValueError, match="strictly increasing"):
        small_config(degrees=[2, 2, 4])
    with pytest.raises(ValueError, match="strictly increasing"):
        small_config(degrees=[4, 2])


def test_config_rejects_empty_or_negative_degrees():
    for degrees in ([], [-1, 2]):
        with pytest.raises(ValueError, match="degrees"):
            small_config(degrees=degrees)
    # the cylinder run read parts[-1], the degree-2 values, into a d=-1 row
    with pytest.raises(ValueError, match="degrees"):
        cylinder_run(ExperimentConfig(
            name="cyl", projector=None, compact=None,
            function=["exp", ["affine", [1.0, 1.0, 1.0], 0.0]],
            degrees=[-1, 2], grid=64))


def test_config_rejects_coarse_grid():
    with pytest.raises(ValueError, match="at least 64"):
        small_config(grid=32)


def test_config_hash_tracks_content():
    a = small_config()
    b = small_config()
    assert a.config_hash() == b.config_hash()
    c = small_config(degrees=[2, 4, 8])
    assert a.config_hash() != c.config_hash()


def test_config_json_round_trip():
    cfg = small_config(exactness=15, expected_rho=2.5)
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again.config_hash() == cfg.config_hash()
    assert again.exactness == 15
    assert again.expected_rho == 2.5


def test_config_hash_is_pinned():
    # the hash keys reports across versions; a change of field list or
    # serialisation must not move it
    assert small_config().config_hash() == "42329ed953687191"
    rate_biv = small_config(
        name="rate_biv",
        projector={"kind": "newton_product", "factors": [
            {"kind": "lagrange", "nodes": "chebyshev_leja"},
            {"kind": "lagrange", "nodes": "chebyshev_leja"}]},
        function=["product", ["recip", ["affine", [1.0, 0.0], -2.0]],
                  ["recip", ["affine", [0.0, 1.0], -5.0]]],
        compact={"kind": "product", "factors": ["interval", "interval"]},
        degrees=list(range(2, 30, 2)), expected_rho=3.732050807568877)
    assert rate_biv.config_hash() == "cef7347bb08b08fb"


def test_config_to_json_keeps_required_nulls_and_drops_optional_ones():
    # a cylinder config has no projector or compact, and says so
    cyl = ExperimentConfig(name="cyl", projector=None, compact=None,
                           function=["exp", ["affine", [1.0, 1.0, 1.0], 0.0]],
                           degrees=[2, 3], grid=64)
    assert cyl.to_json() == {"name": "cyl", "projector": None, "compact": None,
                             "function": ["exp", ["affine", [1.0, 1.0, 1.0], 0.0]],
                             "degrees": [2, 3], "grid": 64}
    assert set(small_config().to_json()) == {
        "name", "projector", "function", "compact", "degrees", "grid"}
    assert set(small_config(exactness=0, expected_rho=2.5).to_json()) == {
        "name", "projector", "function", "compact", "degrees", "grid",
        "exactness", "expected_rho"}


def test_config_rejects_unknown_keys():
    cfg = small_config().to_json()
    cfg["expected_rh0"] = 2.5
    with pytest.raises(ValueError, match="expected_rh0"):
        ExperimentConfig.from_json(cfg)


@pytest.mark.parametrize("bad", [-3, 2.7, True])
def test_config_rejects_a_bad_exactness(bad):
    # -3 used to be kept and 2.7 floored to 2
    with pytest.raises(ValueError, match="exactness"):
        small_config(exactness=bad)
    assert small_config(exactness=0).exactness == 0


def test_level_cond_max_says_whether_an_svd_read_it():
    # a degree-16 product (153 conditions) certifies every level on its
    # bound, so its largest entry is a bound; below it every level is an SVD
    product = {"kind": "newton_product",
               "factors": [{"kind": "lagrange", "nodes": "chebyshev_leja"}] * 2}
    for degrees, exact in (([4, 8], True), ([14, 16], False)):
        cfg = small_config(projector=product, function=["exp", ["affine", [1.0, 0.5], 0.0]],
                           compact={"kind": "product", "factors": ["interval", "interval"]},
                           degrees=degrees)
        metadata = convergence_run(cfg).metadata
        top = projector_from_spec(cfg.projector, degrees[-1])
        assert metadata["level_cond_max"] == max(top.level_conds)
        assert metadata["level_cond_max_exact"] is exact
        assert all(top.svd_levels()) is exact


def test_convergence_entire_function_decreases_fast():
    cfg = small_config(degrees=[2, 4, 6, 8])
    report = convergence_run(cfg)
    assert report.metadata["eval_s"] > 0
    assert report.metadata["level_cond_max"] == max(
        max(projector_from_spec(cfg.projector, d).level_conds) for d in cfg.degrees)
    sups = [r["sup_error"] for r in report.rows]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 1e-6
    for r in report.rows:
        if r["sup_error"] > 0:
            want = r["sup_error"] ** (1.0 / max(r["d"], 1))
            assert abs(r["root_error"] - want) < 1e-15


def test_convergence_rate_recovers_pole_distance():
    cfg = small_config(
        function=["recip", ["affine", [1.0], -2.0]],
        projector={"kind": "lagrange", "nodes": "chebyshev", "cond_threshold": None},
        degrees=list(range(2, 31, 2)),
        grid=128,
    )
    report = convergence_run(cfg)
    want = 1.0 / (2.0 + math.sqrt(3.0))
    assert abs(report.rate - want) < 0.05 * want
    assert report.metadata["config_hash"] == cfg.config_hash()


def test_report_json_round_trip():
    report = convergence_run(small_config())
    again = ExperimentReport.from_json(
        json.loads(json.dumps(report.to_json()))
    )
    assert again.rows == report.rows
    assert again.rate == report.rate


def test_report_write_is_deterministic(tmp_path):
    report = convergence_run(small_config())
    d1, d2 = tmp_path / "a", tmp_path / "b"
    p1 = report_write(report, d1)
    p2 = report_write(report, d2)
    csv1 = pathlib.Path(p1[0]).read_bytes()
    csv2 = pathlib.Path(p2[0]).read_bytes()
    assert csv1 == csv2
    # zeroed seconds column unless timings are requested
    assert all(line.endswith(b",0.0") for line in csv1.splitlines()[1:])
    header = csv1.splitlines()[0]
    assert header == b"d,sup_error,root_error,seconds"


def test_report_write_with_timings(tmp_path):
    report = convergence_run(small_config())
    paths = report_write(report, tmp_path, timings=True)
    lines = pathlib.Path(paths[0]).read_text().splitlines()[1:]
    secs = [float(row.split(",")[3]) for row in lines]
    assert any(s > 0 for s in secs)


def test_report_write_empty_degrees(tmp_path):
    report = ExperimentReport(config={"name": "empty"}, rows=[], rate=0.0)
    paths = report_write(report, tmp_path)
    assert pathlib.Path(paths[0]).read_text() == "d,sup_error,root_error,seconds\n"


def test_convergence_refuses_pole_on_the_compact():
    cfg = small_config(function=["recip", ["affine", [1.0], -0.5]])
    with pytest.raises(Exception):
        convergence_run(cfg)


# -- a failing sweep ---------------------------------------------------------------
# (the two tests' names date from when large sweeps ran on a fork pool; they
# now check the one in-process loop)


def _assert_lowest_failing_degree_raises(cfg, build, expected):
    """The sweep raises what its lowest failing degree raises alone."""
    errors = []
    for d in cfg.degrees:
        try:
            build(d)
        except expected as err:
            errors.append(err)
    # the failing degrees raise different messages, so the order shows
    assert len(errors) >= 2 and str(errors[0]) != str(errors[-1])
    with pytest.raises(expected) as info:
        convergence_run(cfg)
    assert type(info.value) is expected and str(info.value) == str(errors[0])


def test_sweep_raises_the_lowest_failing_nesting_error():
    # sorted Chebyshev nodes fail the default gate from d=28 on, at a level
    # and estimate that differ by degree
    spec = {"kind": "lagrange", "nodes": "chebyshev"}
    cfg = small_config(projector=spec, function=["recip", ["affine", [1.0], -2.0]],
                       degrees=[20, 24, 28, 32, 36])
    _assert_lowest_failing_degree_raises(
        cfg, lambda d: projector_from_spec(spec, d), NestedUnisolvenceFailure)


def test_sweep_raises_the_lowest_failing_pole_error():
    # one pole at a Chebyshev node of degree 2, one at a node of degree 4;
    # the samples miss both, so only a degree's right-hand side meets them
    spec = {"kind": "lagrange", "nodes": "chebyshev"}
    poles = [float(nodes_by_name("chebyshev", d)[0].real) for d in (2, 4)]
    function = ["product"] + [["recip", ["affine", [1.0], -p]] for p in poles]
    cfg = small_config(projector=spec, function=function, degrees=[1, 2, 3, 4])
    f = parse_function(function, 1)
    _assert_lowest_failing_degree_raises(
        cfg, lambda d: projector_from_spec(spec, d).apply(f), PoleOnSupportError)


# -- cylinder --------------------------------------------------------------------


def test_cylinder_grid_shape_and_range():
    pts = cartesian(*cylinder_blocks(64))
    xy = pts[:, :2]
    assert np.max(np.abs(xy)) <= 1.0 + 1e-12
    assert np.max(np.sqrt(np.sum(xy.real**2, axis=1))) <= 1.0 + 1e-12
    assert np.max(np.abs(pts[:, 2])) <= 1.0 + 1e-12
    # the rim and the segment ends are present
    assert np.min(np.abs(np.sqrt(np.sum(xy.real**2, axis=1)) - 1.0)) < 1e-12
    assert np.max(pts[:, 2].real) == 1.0


def test_cylinder_run_small_degrees():
    cfg = ExperimentConfig(
        name="cyl",
        projector=None,
        function=["exp", ["affine", [1.0, 1.0, 1.0], 0.0]],
        compact=None,
        degrees=[2, 3, 4],
        grid=64,
    )
    report = cylinder_run(cfg)
    sups = [r["sup_error"] for r in report.rows]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    # nodes (a_i, b_j) with i + j <= 4: 5 + 4 + 3 + 2 + 1 pairs
    assert report.metadata["node_count"] == 15
    assert report.metadata["node_residual"] < 1e-8
    # 35 conditions: the product takes the dense solves and has no guard
    assert report.metadata["solve_residual"] is None
    assert len(report.extras["nodes"]) == 15
    # the one build is on the first row; evaluation is timed apart
    assert [r["seconds"] > 0 for r in report.rows] == [True, False, False]
    assert report.metadata["eval_s"] > 0


def test_cylinder_run_at_the_degree_cap():
    cfg = ExperimentConfig(
        name="cyl12", projector=None, compact=None,
        function=["exp", ["affine", [1.0, 1.0, 1.0], 0.0]],
        degrees=[12], grid=64,
    )
    report = cylinder_run(cfg)
    assert report.metadata["node_residual"] < 1e-8
    # below the degree-10 sup error of the same sweep (5.14e-6)
    assert report.rows[0]["sup_error"] < 5.2e-6
    # 455 conditions solved through the factors' blocks; it reads 2.7e-16
    assert 0.0 < report.metadata["solve_residual"] < 1e-14
    assert json.loads(json.dumps(report.to_json()))["metadata"]["solve_residual"] == \
        report.metadata["solve_residual"]


def test_cylinder_run_with_a_pole_function_holds_its_nodes():
    # 1 / (0.5x + 0.5y + 0.3z - 1.6) has its pole near the cylinder; the
    # residual reads about 1e-9.  Right-hand-side rules at exactness 21 - j
    # for order j (order-aware, like the collocation rows) raised it to 1e-7
    cfg = ExperimentConfig(
        name="cyl_pole", projector=None, compact=None,
        function=["recip", ["affine", [0.5, 0.5, 0.3], -1.6]],
        degrees=list(range(2, 9)), grid=128,
    )
    report = cylinder_run(cfg)
    assert report.metadata["node_residual"] < 1e-8


def test_cylinder_degree_cap():
    cfg = ExperimentConfig(
        name="cyl", projector=None, compact=None,
        function=["exp", ["affine", [1.0, 1.0, 1.0], 0.0]],
        degrees=[2, 13], grid=64,
    )
    with pytest.raises(ValueError, match="capped"):
        cylinder_run(cfg)
    # the run fixes its own projector and compact; it must not ignore others
    for fixed in ({"projector": {"kind": "cylinder"}, "compact": None},
                  {"projector": None,
                   "compact": {"kind": "product", "factors": ["disk", "interval"]}}):
        cfg = ExperimentConfig(
            name="cyl", function=["exp", ["affine", [1.0, 1.0, 1.0], 0.0]],
            degrees=[2, 3], grid=64, **fixed,
        )
        with pytest.raises(ValueError, match="fixes its projector and compact"):
            cylinder_run(cfg)


# -- integer nodes ---------------------------------------------------------------


def test_divided_differences_match_simplex_quadrature():
    # the closed form (e^lam - 1)^k / k! against the library's own
    # simplex-integral functionals at nodes 0..k
    lam = 0.7
    f = Exp(Affine(np.array([lam]), 0.0))
    logs = divided_differences_exp(lam, 6)
    for k in range(1, 7):
        nodes = np.arange(k + 1, dtype=float).reshape(-1, 1)
        cond = KerginCondition((k,), nodes)
        got = cond.apply_to_function(f, exactness=25)
        want = math.exp(logs[k])
        assert abs(got - want) < 1e-8 * want


def test_polya_ratio_tracks_the_driving_factor():
    for lam in (0.3, 0.5, 0.8):
        out = polya_run(lam, 40)
        drift = abs(out["ratio"] - out["driving_ratio"]) / out["driving_ratio"]
        assert drift < 0.02
        assert out["verdict"] == ("converge" if lam < math.log(2) else "diverge")


def test_polya_raw_ratios_are_biased_downward():
    # successive term ratios carry a k/(k+1) factor from the factorial;
    # the 1/(k+1) extrapolation removes most of it
    out = polya_run(0.5, 40)
    raw_tail = out["ratios"][-1]
    assert raw_tail < out["driving_ratio"]
    assert abs(out["ratio"] - out["driving_ratio"]) < abs(
        raw_tail - out["driving_ratio"]
    )


def test_polya_term_norms_monotone_once_settled():
    out = polya_run(0.3, 40)
    logs = out["term_logs"]
    assert all(b < a for a, b in zip(logs[10:], logs[11:]))


def test_polya_dmax_cap():
    with pytest.raises(ValueError, match="capped"):
        polya_run(0.5, 61)
    # below 3 the tail fit has one ratio or none
    for dmax in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="at least 3"):
            polya_run(0.5, dmax)
    assert polya_run(0.5, 3)["dmax"] == 3


def test_polya_bisection_brackets_the_threshold():
    out = polya_bisect(40)
    assert out["low"] < math.log(2.0) < out["high"] + 0.05
    assert out["high"] - out["low"] < 1e-3
    assert out["low"] - 0.05 < math.log(2.0)


def test_polya_bisection_validates_endpoints():
    with pytest.raises(ValueError):
        polya_bisect(40, lo=0.9, hi=1.0)
    with pytest.raises(ValueError):
        polya_bisect(40, lo=0.3, hi=0.5)


# -- sup errors from float64 grid rows -----------------------------------------------


def complex_sup_errors(approxs, blocks, target):
    """Oracle: the grid values and the target in complex128, errors by complex abs."""
    values = evaluate_grid(approxs, blocks)
    target = np.asarray(target, dtype=np.complex128)
    return [float(np.max(np.abs(target - col))) for col in values.T]


def scored_sweeps(monkeypatch):
    """Every ``_score`` call's approximations, blocks, target and report; and the
    dtype of every grid-rows evaluation made by the scoring."""
    scores, dtypes = [], []
    score, rows = experiments._score, nprox.polynomials._grid_rows

    def spy_score(config, t0, approxs, seconds, blocks, target, metadata, extras=None):
        report = score(config, t0, approxs, seconds, blocks, target, metadata, extras)
        scores.append((approxs, blocks, target, report))
        return report

    def spy_rows(polys, blocks):
        out = rows(polys, blocks)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(experiments, "_score", spy_score)
    monkeypatch.setattr(nprox.polynomials, "_grid_rows", spy_rows)
    return scores, dtypes


RATE_BIV = dict(
    name="rate_biv",
    projector={"kind": "newton_product",
               "factors": [{"kind": "lagrange", "nodes": "chebyshev_leja"}] * 2},
    function=["product", ["recip", ["affine", [1.0, 0.0], -2.0]],
              ["recip", ["affine", [0.0, 1.0], -5.0]]],
    compact={"kind": "product", "factors": ["interval", "interval"]},
    degrees=list(range(2, 29, 2)), grid=64, expected_rho=2.0 + math.sqrt(3.0),
)


@pytest.mark.parametrize("case", ["cylinder", "rate_biv"])
def test_real_sweeps_score_float64_rows_with_the_complex_bits(monkeypatch, case):
    scores, dtypes = scored_sweeps(monkeypatch)
    if case == "cylinder":
        cylinder_run(ExperimentConfig(name="cyl", projector=None, compact=None,
                                      function=["exp", ["affine", [1.0, 1.0, 1.0], 0.0]],
                                      degrees=list(range(2, 9)), grid=64))
    else:
        convergence_run(ExperimentConfig(**RATE_BIV))
    assert dtypes == [np.float64]
    (approxs, blocks, target, report), = scores
    want = complex_sup_errors(approxs, blocks, target)
    assert [r["sup_error"] for r in report.rows] == want
    assert all(math.isfinite(e) for e in want)


def test_rho_estimate_scores_float64_rows_with_the_complex_bits(monkeypatch):
    _, dtypes = scored_sweeps(monkeypatch)
    compact = parse_compact({"kind": "product", "factors": ["interval", "interval"]})
    f = parse_function(RATE_BIV["function"], 2)
    measure = parse_measure({"kind": "product",
                             "factors": [{"kind": "chebyshev", "mnodes": 32}] * 2})
    est = rho_estimate(f, compact, 16, measure, grid=1024)
    assert dtypes == [np.float64]
    blocks = compact.sample_blocks(1024)
    approxs = orthogonal_projector(measure, 16).truncations(f)
    assert est.errors == complex_sup_errors(approxs, blocks, f.grid_values(blocks))


@pytest.mark.parametrize("case", ["complex_nodes", "complex_values"])
def test_complex_sweeps_keep_the_complex_path(monkeypatch, case):
    scores, dtypes = scored_sweeps(monkeypatch)
    if case == "complex_nodes":
        cfg = small_config(projector={"kind": "lagrange", "nodes": "leja_disk"},
                           function=["recip", ["affine", [1.0], -2.0]], compact="disk")
    else:
        cfg = small_config(function=["exp", ["affine", [[0.0, 1.5]], 0.0]])
    convergence_run(cfg)
    assert dtypes == [np.complex128]
    (approxs, blocks, target, report), = scores
    assert [r["sup_error"] for r in report.rows] == complex_sup_errors(approxs, blocks, target)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("imag", [0.0, 0.5])
def test_a_non_finite_target_value_fails_the_check(bad, imag):
    cfg = small_config()
    f = parse_function(cfg.function, 1)
    blocks = parse_compact(cfg.compact).sample_blocks(cfg.grid)
    target = f.grid_values(blocks) + 1j * imag
    target[7] = complex(bad, imag)
    approxs = [projector_from_spec(cfg.projector, d).apply(f) for d in cfg.degrees]
    report = experiments._score(cfg, 0.0, approxs, [0.0] * 3, blocks, target, {})
    assert not any(math.isfinite(r["sup_error"]) for r in report.rows)
    assert check_converge(report) == f"sup error {report.rows[0]['sup_error']} at degree 2"
