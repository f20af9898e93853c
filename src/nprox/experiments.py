"""Experiment harness: sweeps, the cylinder build, the integer-node test.

Reports are written as CSV plus JSON metadata.  The CSV is the determinism
contract: identical configs must produce identical bytes, so wall-clock
timings are kept out of it by default (the seconds column holds zeros unless
timings are explicitly requested) and live in the JSON metadata, which is
deterministic except for its wall_time fields.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from typing import NamedTuple

import numpy as np

from .config import check_config_keys
from .extremal import fit_decay_rate, parse_compact
from .points import cartesian
from .polynomials import evaluate
from .testfunctions import parse_function
from .zoo import kergin_projector, lagrange_projector, nodes_by_name, projector_from_spec


RATE_HEADER = "d,sup_error,root_error,seconds"


class ExperimentConfig:
    """Validated bundle of everything a sweep needs.

    Fields: name, projector spec (possibly a newton_product composition),
    function tree, compact model, strictly increasing degree list, per-axis
    grid resolution (at least 64), optional quadrature exactness and
    expected rate parameter.
    """

    FIELDS = ("name", "projector", "function", "compact", "degrees",
              "grid", "exactness", "expected_rho")
    REQUIRED = ("projector", "function", "compact", "degrees")

    def __init__(self, name, projector, function, compact, degrees,
                 grid=128, exactness=None, expected_rho=None):
        self.name = str(name)
        self.projector = projector
        self.function = function
        self.compact = compact
        self.degrees = [int(d) for d in degrees]
        self.grid = int(grid)
        self.exactness = None if exactness is None else int(exactness)
        self.expected_rho = None if expected_rho is None else float(expected_rho)
        if any(b <= a for a, b in zip(self.degrees, self.degrees[1:])):
            raise ValueError("degrees must be strictly increasing")
        if self.grid < 64:
            raise ValueError("grid resolution must be at least 64 per dimension")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        check_config_keys(obj, cls.REQUIRED, cls.FIELDS)
        return cls(**{"name": "experiment", **obj})

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "projector": self.projector,
            "function": self.function,
            "compact": self.compact,
            "degrees": self.degrees,
            "grid": self.grid,
        }
        if self.exactness is not None:
            out["exactness"] = self.exactness
        if self.expected_rho is not None:
            out["expected_rho"] = self.expected_rho
        return out

    def config_hash(self) -> str:
        canon = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


class ExperimentReport:
    """Per-degree records plus the fitted rate and run metadata."""

    def __init__(self, config: dict, rows, rate, metadata=None, extras=None):
        self.config = config
        self.rows = rows
        self.rate = rate
        self.metadata = dict(metadata or {})
        self.extras = dict(extras or {})

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "rows": self.rows,
            "rate": self.rate,
            "metadata": self.metadata,
            "extras": self.extras,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentReport":
        return cls(obj["config"], obj["rows"], obj["rate"],
                   obj.get("metadata"), obj.get("extras"))


def build_projector(spec: dict, degree: int):
    """Zoo spec or a newton_product composition of two zoo specs."""
    if spec.get("kind") == "newton_product":
        check_config_keys(spec, ("kind", "factors"), ("cond_threshold",))
        f1, f2 = spec["factors"]
        left = projector_from_spec(f1, degree)
        right = projector_from_spec(f2, degree)
        return left.newton_product(
            right, cond_threshold=spec.get("cond_threshold", 1e12)
        )
    return projector_from_spec(spec, degree)


def _row(d, sup, seconds):
    root = sup ** (1.0 / max(d, 1)) if sup > 0 else 0.0
    return {"d": int(d), "sup_error": float(sup), "root_error": float(root),
            "seconds": float(seconds)}


def convergence_run(config: ExperimentConfig) -> ExperimentReport:
    """Build the projector family across degrees and track sup errors.

    A row's seconds cover that degree's build, right-hand side and solve.
    All degrees are then evaluated on the samples in one batch, whose time
    is the metadata's ``eval_s``.  The metadata's ``level_cond_max`` is the
    largest leading-block condition estimate of the projectors applied.
    """
    t0 = time.perf_counter()
    model = parse_compact(config.compact)
    f = parse_function(config.function, model.nvars)
    samples = model.sample_points(config.grid ** model.nvars)
    target = f.values(samples)  # raises if a pole sits on the compact
    approxs, seconds, cond_max = [], [], 0.0
    for d in config.degrees:
        tick = time.perf_counter()
        proj = build_projector(config.projector, d)
        approxs.append(proj.apply(f, exactness=config.exactness))
        seconds.append(time.perf_counter() - tick)
        cond_max = max(cond_max, *proj.level_conds)
    tick = time.perf_counter()
    values = evaluate(approxs, samples)
    eval_s = time.perf_counter() - tick
    rows = [_row(d, float(np.max(np.abs(target - col))), s)
            for d, col, s in zip(config.degrees, values.T, seconds)]
    rate, stderr, _ = fit_decay_rate([r["d"] for r in rows],
                                     [r["sup_error"] for r in rows])
    metadata = {
        "config_hash": config.config_hash(),
        "wall_time_s": time.perf_counter() - t0,
        "eval_s": eval_s,
        "fit_stderr": stderr,
        "grid": config.grid,
        "level_cond_max": cond_max,
    }
    if config.expected_rho is not None:
        metadata["expected_rate"] = 1.0 / config.expected_rho
    return ExperimentReport(config.to_json(), rows, rate, metadata)


# -- the cylinder experiment -----------------------------------------------------


def cylinder_nodes(degree: int):
    """Planar disk Leja nodes and real Leja interval nodes, degree+1 each."""
    disk = nodes_by_name("leja_disk", degree)
    return np.stack([disk.real, disk.imag], axis=1), nodes_by_name("real_leja", degree)


def cylinder_grid(resolution: int):
    """Deterministic samples of the solid unit disk times [-1, 1].

    The disk is scanned on equiangular by radial rings (including the rim),
    the segment on Chebyshev-distributed abscissas.
    """
    nr = max(4, resolution // 16)
    radii = np.linspace(0.0, 1.0, nr)
    angles = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    disk = np.stack(
        [np.outer(radii, np.cos(angles)).ravel(),
         np.outer(radii, np.sin(angles)).ravel()], axis=1
    )
    seg = np.cos(np.linspace(0.0, np.pi, resolution))
    return cartesian(disk, seg.reshape(-1, 1)).astype(np.complex128)


def cylinder_run(config: ExperimentConfig) -> ExperimentReport:
    """Kergin on the disk crossed with Lagrange on the segment.

    One Newton product at planar disk-Leja and real-Leja nodes of the largest
    degree.  Both node families nest by prefix, so its degree-d truncation is
    the degree-d product: every row is read off one right-hand side (at the
    top degree's exactness) and all rows are evaluated on the cylinder grid
    in one batch.  The first row's seconds cover the one build, right-hand
    side and solve, the other rows' read 0, and the batch's time is the
    metadata's ``eval_s``.  The extras carry the product node set (a_i, b_j)
    with i + j <= d for the largest degree and the residual there.
    """
    if config.projector is not None or config.compact is not None:
        raise ValueError("cylinder_run fixes its projector and compact; pass None")
    dmax = max(config.degrees)
    if dmax > 12:
        raise ValueError("cylinder degrees are capped at 12")
    t0 = time.perf_counter()
    f = parse_function(config.function, 3)
    samples = cylinder_grid(config.grid)
    target = f.values(samples)
    tick = time.perf_counter()
    planar, line = cylinder_nodes(dmax)
    prod = kergin_projector(planar).newton_product(lagrange_projector(line))
    parts = prod.truncations(f, exactness=config.exactness)
    seconds = time.perf_counter() - tick
    tick = time.perf_counter()
    values = evaluate([parts[d] for d in config.degrees], samples)
    eval_s = time.perf_counter() - tick
    rows = [_row(d, float(np.max(np.abs(target - col))), seconds if i == 0 else 0.0)
            for i, (d, col) in enumerate(zip(config.degrees, values.T))]
    nodes = [
        (planar[i, 0].real, planar[i, 1].real, line[j].real)
        for i in range(dmax + 1)
        for j in range(dmax + 1 - i)
    ]
    node_pts = np.array(nodes, dtype=np.complex128)
    resid = float(np.max(np.abs(f.values(node_pts) - parts[dmax].eval_many(node_pts))))
    rate, stderr, _ = fit_decay_rate([r["d"] for r in rows],
                                     [r["sup_error"] for r in rows])
    metadata = {
        "config_hash": config.config_hash(),
        "wall_time_s": time.perf_counter() - t0,
        "eval_s": eval_s,
        "fit_stderr": stderr,
        "node_residual": resid,
        "node_count": len(nodes),
    }
    return ExperimentReport(config.to_json(), rows, rate, metadata,
                            extras={"nodes": nodes})


# -- integer-node threshold experiment ---------------------------------------------


def _omega_sup_logs(dmax: int, gridsize: int = 4097):
    """log of max over [0,1] of the running node products prod |x - i|."""
    x = np.linspace(0.0, 1.0, gridsize)
    logs = np.zeros(gridsize)
    out = [0.0]  # empty product
    with np.errstate(divide="ignore"):
        for k in range(dmax):
            logs += np.log(np.abs(x - k))
            out.append(float(np.max(logs)))
    return out


def divided_differences_exp(lam: float, dmax: int):
    """Divided differences of exp(lam x) at 0..dmax, exact closed form.

    The k-th difference equals (e^lam - 1)^k / k!; returned in log magnitude
    to survive large k.
    """
    base = math.expm1(lam)
    logs = []
    for k in range(dmax + 1):
        logs.append(k * math.log(abs(base)) - math.lgamma(k + 1) if base != 0 else
                    (0.0 if k == 0 else -math.inf))
    return logs


def polya_run(lam: float, dmax: int) -> dict:
    """Newton-series term norms of exp(lam x) at integer nodes on [0, 1].

    Works in log magnitude throughout (factorial-sized factors overflow
    doubles near degree 50).  The geometric ratio of successive term norms
    drives the convergence verdict; the raw ratios carry a 1/(k+1) bias from
    the factorial, so the reported ratio extrapolates them linearly in
    1/(k+1).  The limiting value is |e^lam - 1|, below 1 exactly when
    lam < ln 2 for positive lam.
    """
    if dmax > 60:
        raise ValueError("dmax capped at 60")
    dd_logs = divided_differences_exp(lam, dmax)
    sup_logs = _omega_sup_logs(dmax)
    term_logs = [dd + sup for dd, sup in zip(dd_logs, sup_logs)]
    ratios = [math.exp(term_logs[k + 1] - term_logs[k]) for k in range(dmax)]
    # drop the earliest ratios (pre-asymptotic), fit r_k ~ q + c/(k+1)
    ks = np.arange(dmax // 2, dmax)
    x = 1.0 / (ks + 1.0)
    y = np.array([ratios[k] for k in ks])
    slope, intercept = np.polyfit(x, y, 1)
    ratio = float(intercept)
    return {
        "lambda": lam,
        "dmax": dmax,
        "term_logs": term_logs,
        "ratios": ratios,
        "ratio": ratio,
        "driving_ratio": abs(math.expm1(lam)),
        "verdict": "converge" if ratio < 1.0 else "diverge",
    }


def polya_bisect(dmax: int = 40, lo: float = 0.3, hi: float = 1.0,
                 steps: int = 12) -> dict:
    """Bisect the convergence verdict to bracket the threshold parameter."""
    if polya_run(lo, dmax)["verdict"] != "converge":
        raise ValueError("lower endpoint must converge")
    if polya_run(hi, dmax)["verdict"] != "diverge":
        raise ValueError("upper endpoint must diverge")
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if polya_run(mid, dmax)["verdict"] == "converge":
            lo = mid
        else:
            hi = mid
    return {"low": lo, "high": hi, "dmax": dmax, "width": hi - lo}


# -- report files ---------------------------------------------------------------------


class TableReport(NamedTuple):
    """What report_write writes under one name.

    Each ``(suffix, header, rows)`` in ``tables`` becomes
    ``<name><suffix>.csv``, floats written with ``repr`` and everything else
    with ``str``; ``payload`` becomes ``<name>.json``.
    """

    name: str
    tables: list
    payload: dict


def report_write(report, out_dir, timings: bool = False):
    """Write a report's CSV tables and JSON payload; return the paths written.

    ``report`` is a TableReport or an ExperimentReport.  For the latter the
    seconds column is zeroed unless timings are requested, because wall
    clock readings would break byte-for-byte reproducibility; real timings
    always live in the JSON metadata and per-row records.
    """
    if isinstance(report, ExperimentReport):
        tables = [("", RATE_HEADER, [
            (r["d"], r["sup_error"], r["root_error"],
             float(r["seconds"]) if timings else 0.0) for r in report.rows])]
        nodes = report.extras.get("nodes")
        if nodes:
            tables.append(("_nodes", "ax,ay,b",
                           [tuple(float(v) for v in node) for node in nodes]))
        report = TableReport(report.config.get("name", "report"), tables,
                             report.to_json())
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for suffix, header, rows in report.tables:
        path = os.path.join(out_dir, f"{report.name}{suffix}.csv")
        lines = [header] + [
            ",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
            for row in rows
        ]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(path)
    path = os.path.join(out_dir, f"{report.name}.json")
    with open(path, "w") as fh:
        json.dump(report.payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written + [path]
