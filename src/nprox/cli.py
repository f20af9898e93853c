"""Command line front end.

Each subcommand in ``COMMANDS`` reads a JSON config against its entry of
``config.SCHEMA``, which types every value and fills in the defaults, and
writes CSV tables plus a JSON file into the output directory through
``experiments.report_write``.  With --check it also verifies the
subcommand's invariant and exits 2 if it fails.  Any other failure (unknown
or missing config key, a value of the wrong type or out of range, degenerate
input) exits 1.
--timings fills the converge and cylinder seconds columns with wall times.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .config import read_config, read_points
from .experiments import (RATE_HEADER, ExperimentConfig, TableReport, _row, convergence_run,
                          cylinder_run, polya_bisect, polya_run, report_write)
from .extremal import above_floor, parse_compact, rho_estimate
from .growth import gelfond_constant, omega_density, parse_norm
from .measures import gram_schmidt_basis, parse_measure
from .points import leja_greedy_gap
from .testfunctions import parse_function
from .zoo import nodes_by_name, projector_from_spec


def run_points(cfg):
    family, count = cfg["family"], cfg["count"]
    pts = np.asarray(nodes_by_name(family, count - 1), dtype=np.complex128)[:count]
    report = TableReport(
        f"points_{family}" if cfg["name"] is None else cfg["name"],
        [("", "index,re,im",
          [(k, float(z.real), float(z.imag)) for k, z in enumerate(pts)])],
        {"family": family, "count": count,
         "points": [[float(z.real), float(z.imag)] for z in pts]},
    )
    return report, (family, pts)


def check_points(facts):
    family, pts = facts
    if family == "leja_disk":
        gap = leja_greedy_gap(pts)
        if gap > 1e-6:
            return f"greedy optimality gap {gap:.3e}"
    return None


def run_ortho(cfg):
    measure = parse_measure(cfg["measure"])
    degree = cfg["degree"]
    basis = gram_schmidt_basis(measure, degree)
    rows = []
    C = basis.coeff_matrix
    for i in range(C.shape[0]):
        for j in range(C.shape[1]):
            if C[i, j] != 0:
                rows.append((i, j, float(C[i, j].real), float(C[i, j].imag)))
    resid = basis.gram_residual()
    report = TableReport(cfg["name"], [("", "i,j,re,im", rows)], {
        "degree": degree,
        "measure": measure.to_json(),
        "gram_residual": resid,
        "basis_size": len(basis),
    })
    return report, resid


def check_ortho(resid):
    if resid > 1e-10:
        return f"Gram residual {resid:.3e}"
    return None


def run_project(cfg):
    proj = projector_from_spec(cfg["projector"], cfg["degree"])
    f = parse_function(cfg["function"], proj.nvars)
    result = proj.apply(f, exactness=cfg["exactness"])
    report = TableReport(
        cfg["name"],
        [("", "rank,re,im",
          [(k, float(c.real), float(c.imag)) for k, c in enumerate(result.coeffs)])],
        {"degree": proj.degree,
         "nvars": proj.nvars,
         "coeff_count": int(result.coeffs.size),
         "level_conds": [float(c) for c in proj.level_conds],
         "level_cond_bounds": proj.level_cond_bounds,
         "solve_residual": getattr(proj, "solve_residual", None)},
    )
    return report, (proj, result)


def check_project(facts):
    # idempotence at the conditions: re-solving moves the monomial
    # coefficients by up to cond x eps (3.6e-8 on the degree-24
    # Chebyshev-Leja product), but not the condition values that define them.
    # They are read as apply reads a polynomial's (``_rhs``), so a product
    # that solves through its factors assembles no product matrix for them
    proj, result = facts
    again = proj.apply(result)
    gap = float(np.max(np.abs(proj._rhs(again - result, None))))
    scale = float(np.max(np.abs(proj._rhs(result, None))))
    if gap > 1e-8 * scale:
        return f"projection not idempotent, gap {gap:.3e}"
    return None


def run_converge(cfg):
    report = convergence_run(ExperimentConfig(**cfg))
    return report, report


def check_finite(degrees, errors):
    """The first degree whose sup error is not finite, as a failure, or None.

    An inf or NaN error would otherwise pass: ``above_floor`` cuts relative
    to the largest error, so an inf leaves no degree above the floor, and
    every comparison with a NaN is False.
    """
    for d, e in zip(degrees, errors):
        if not math.isfinite(e):
            return f"sup error {e} at degree {d}"
    return None


def check_converge(report):
    sups = [r["sup_error"] for r in report.rows]
    bad = check_finite([r["d"] for r in report.rows], sups)
    if bad:
        return bad
    # fit_decay_rate's off-scale rate 0.0 means converged only if some
    # degree reached the roundoff floor; otherwise the sweep was too short
    clean = above_floor(sups).size
    if report.rate == 0.0 and clean == len(report.rows):
        return f"rate off-scale: {clean} degrees above the roundoff floor, none at it"
    expected_rho = report.config.get("expected_rho")
    if expected_rho is not None:
        want = 1.0 / expected_rho
        if report.rate <= 0 or abs(report.rate - want) > 0.10 * want:
            return f"rate {report.rate:.4f}, expected {want:.4f}"
    elif not (0.0 <= report.rate < 1.0):
        return f"no geometric decay, rate {report.rate:.4f}"
    return None


def run_cylinder(cfg):
    # cylinder_run fixes the projector and compact; None keeps the config layout
    report = cylinder_run(ExperimentConfig(projector=None, compact=None, **cfg))
    return report, report


def check_cylinder(report):
    sups = [r["sup_error"] for r in report.rows]
    bad = check_finite([r["d"] for r in report.rows], sups)
    if bad:
        return bad
    if any(b >= a for a, b in zip(sups, sups[1:])):
        return "sup errors not strictly decreasing"
    resid = report.metadata.get("node_residual")
    if resid is None or resid > 1e-8:
        return f"node residual {resid}"
    if max(report.config["degrees"]) >= 10 and sups[-1] >= 1e-3:
        return f"final error {sups[-1]:.3e}"
    return None


def run_polya(cfg):
    lams = cfg["lambdas"] or [cfg["lambda"]]
    dmax = cfg["dmax"]
    results = [polya_run(lam, dmax) for lam in lams]
    tables = []
    for idx, out in enumerate(results):
        rows = []
        for k, tl in enumerate(out["term_logs"]):
            norm = math.exp(tl)
            rows.append((k, norm, math.exp(tl / k) if k else norm, 0.0))
        tables.append(("" if len(lams) == 1 else f"_{idx}", RATE_HEADER, rows))
    payload = {
        "dmax": dmax,
        "runs": [
            {k: v for k, v in r.items() if k not in ("term_logs", "ratios")}
            for r in results
        ],
    }
    if cfg["bisect"]:
        payload["bisect"] = polya_bisect(dmax)
    return TableReport(cfg["name"], tables, payload), payload


def check_polya(payload):
    for r in payload["runs"]:
        drift = abs(r["ratio"] - r["driving_ratio"]) / r["driving_ratio"]
        if drift > 0.02:
            return f"ratio drift {drift:.3%} at lambda {r['lambda']}"
        expected = "converge" if r["lambda"] < math.log(2.0) else "diverge"
        if r["verdict"] != expected:
            return f"verdict {r['verdict']} at lambda {r['lambda']}"
    if "bisect" in payload:
        b = payload["bisect"]
        if not (b["low"] - 0.05 <= math.log(2.0) <= b["high"] + 0.05):
            return "bisection bracket misses the threshold"
    return None


def run_gelfond(cfg):
    omegas = cfg["omegas"] or [cfg["omega"]]
    values = [gelfond_constant(w) for w in omegas]
    report = TableReport(cfg["name"],
                         [("", "omega,value", list(zip(omegas, values)))],
                         {"omegas": omegas, "values": values})
    return report, list(zip(omegas, values))


def check_gelfond(pairs):
    for w, v in pairs:
        if w == 1.0 and abs(v - math.log(2.0)) > 1e-8:
            return f"value at 1 is {v!r}"
    pairs = sorted(pairs)
    if any(v2 >= v1 for (_, v1), (_, v2) in zip(pairs, pairs[1:])):
        return "values not decreasing in the exponent"
    return None


def run_rho(cfg):
    model = parse_compact(cfg["compact"])
    f = parse_function(cfg["function"], model.nvars)
    measure = parse_measure(cfg["measure"])
    dmax = cfg["dmax"]
    est = rho_estimate(f, model, dmax, measure, grid=cfg["grid"])
    rows = [tuple(_row(d, e, 0.0).values()) for d, e in zip(est.degrees, est.errors)]
    report = TableReport(cfg["name"], [("", RATE_HEADER, rows)], {
        "rho": None if math.isinf(est.rho) else est.rho,
        "slope_stderr": est.slope_stderr,
        "floor_hit": est.floor_hit,
        "dmax": dmax,
    })
    return report, (est, cfg["expected_rho"])


def check_rho(facts):
    est, expected = facts
    bad = check_finite(est.degrees, est.errors)
    if bad:
        return bad
    rho = est.rho
    if expected is not None:
        if math.isinf(rho) or abs(rho - expected) > 0.10 * expected:
            return f"rho {rho}, expected {expected}"
    elif math.isinf(rho) and not est.floor_hit:
        return f"rho off-scale: {len(est.errors)} degrees above the roundoff floor, none at it"
    elif not (math.isinf(rho) or rho > 1.0):
        return f"rho {rho} not above 1"
    return None


def run_density(cfg):
    seq = cfg["sequence"]
    if isinstance(seq, dict):
        seq = read_config("sequence", seq)
        if seq["kind"] != "integers":
            raise ValueError(f"unknown sequence kind {seq['kind']!r}")
        pts = np.arange(1, seq["count"] + 1, dtype=float).reshape(-1, 1) * seq["step"]
    else:
        pts = read_points("sequence", seq, real=True)
    norm = cfg["norm"]
    norm = parse_norm({"kind": "linf", "nvars": pts.shape[1]} if norm is None else norm)
    omega, rmax = cfg["omega"], cfg["rmax"]
    if rmax is None:
        rmax = float(np.max(np.abs(pts)))
    dens = omega_density(pts, norm, omega, rmax)
    report = TableReport(cfg["name"],
                         [("", "omega,rmax,density", [(omega, rmax, dens)])],
                         {"omega": omega, "rmax": rmax, "density": dens,
                          "count": int(pts.shape[0])})
    return report, (dens, cfg["expected"])


def check_density(facts):
    dens, expected = facts
    if expected is not None and abs(dens - expected) > 0.05 * max(1.0, expected):
        return f"density {dens}, expected {expected}"
    return None


# name -> (run, check); run(cfg) takes the config that config.read_config
# returns for the name and returns the report and the facts that
# check(facts) reads to return a failure or None
COMMANDS = {
    "points": (run_points, check_points),
    "ortho": (run_ortho, check_ortho),
    "project": (run_project, check_project),
    "converge": (run_converge, check_converge),
    "cylinder": (run_cylinder, check_cylinder),
    "polya": (run_polya, check_polya),
    "gelfond": (run_gelfond, check_gelfond),
    "rho": (run_rho, check_rho),
    "density": (run_density, check_density),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nprox",
        description="Newton-structured projector experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--check", action="store_true",
                       help="verify invariants, exit 2 on failure")
        p.add_argument("--timings", action="store_true",
                       help="write real wall times into the CSV seconds column")
    args = parser.parse_args(argv)
    run, check = COMMANDS[args.command]
    try:
        with open(args.config) as fh:
            cfg = read_config(args.command, json.load(fh))
        report, facts = run(cfg)
        report_write(report, args.out, timings=args.timings)
        failure = check(facts) if args.check else None
    except BrokenPipeError:
        return 1
    except Exception as exc:  # config errors, degenerate inputs
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if failure is not None:
        print(f"check failed: {failure}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
