"""Experiment harness: sweeps, the cylinder build, the integer-node test.

Reports are written as CSV plus JSON metadata.  The CSV is the determinism
contract: identical configs at a fixed BLAS thread count must produce
identical bytes (threading changes the rounding of BLAS sums; see the
README's "pin BLAS to one thread" section), so wall-clock timings are kept
out of it by default (the seconds column holds zeros unless timings are
explicitly requested) and live in the JSON metadata, which is deterministic
except for its wall_time fields.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from typing import NamedTuple

import numpy as np

from .config import read_config
from .extremal import fit_decay_rate, parse_compact
from .indexing import monomial_count
from .points import cartesian
from .polynomials import evaluate_grid
from .testfunctions import parse_function
from .zoo import kergin_projector, lagrange_projector, nodes_by_name, projector_from_spec


RATE_HEADER = "d,sup_error,root_error,seconds"

# samples of [0, 1] on which polya_run takes the node products' maxima
_OMEGA_GRID = 4097

# Conditions of a sweep's top-degree projector from which its degrees run on
# forked workers.  A two-worker pool costs 6-7 ms to start, run four
# trivial jobs and shut down, and its workers share the CPUs with the target's
# evaluation.  Median sweep times on a 2-core host, one BLAS thread, grid 64,
# broke even between 41 and 61 conditions in one variable (Chebyshev-Leja to
# d = 40 and 60), near 153 in two (the Chebyshev-Leja product to d = 16) and
# between 220 and 286 in three (that product times Chebyshev-Leja, 262,144
# samples).
_POOL_CONDITIONS = 250

# A BLAS takes its thread count from the first of these that is set, and
# starts one thread per core when none is.  Each forked worker starts that
# many threads, and oversubscribed cores cost more than the pool saves: with
# BLAS unpinned on a 2-core host, the rate_biv sweep (the Chebyshev-Leja
# product at d = 2..28) took 1.1-3.9 s on two workers against 0.46-0.55 s
# in process (medians of 5 sweeps).
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


class ExperimentConfig:
    """Validated bundle of everything a sweep needs.

    The keyword fields are the keys of the ``converge`` entry of
    ``config.SCHEMA``, read by the same rule as a JSON config: name,
    projector spec (possibly a newton_product composition), function tree,
    compact model, a non-empty strictly increasing list of nonnegative
    degrees, per-axis grid resolution (at least 64), optional quadrature
    exactness and expected rate parameter.
    """

    def __init__(self, **fields):
        cfg = read_config("converge", fields)
        self.name = cfg["name"]
        self.projector = cfg["projector"]
        self.function = cfg["function"]
        self.compact = cfg["compact"]
        self.degrees = cfg["degrees"]
        self.grid = cfg["grid"]
        self.exactness = cfg["exactness"]
        self.expected_rho = cfg["expected_rho"]
        if any(b <= a for a, b in zip(self.degrees, self.degrees[1:])):
            raise ValueError("degrees must be strictly increasing")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        return cls(**read_config("converge", obj))

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


def _row(d, sup, seconds):
    root = sup ** (1.0 / max(d, 1)) if sup > 0 else 0.0
    return {"d": int(d), "sup_error": float(sup), "root_error": float(root),
            "seconds": float(seconds)}


def _degree_step(spec: dict, degree: int, f, exactness) -> tuple:
    """One degree of a sweep: the build, its nesting gate, right-hand side and solve.

    Returns the projection of f, the seconds these took, and the projector's
    ``level_conds`` as ``(estimate, whether an SVD read it)`` pairs.
    """
    tick = time.perf_counter()
    proj = projector_from_spec(spec, degree)
    approx = proj.apply(f, exactness=exactness)
    return approx, time.perf_counter() - tick, list(zip(proj.level_conds, proj.svd_levels()))


def _sweep_workers(degrees, nvars: int) -> int:
    """Worker processes for a sweep's degrees; 1 runs them in this process.

    A sweep forks as many workers as the usable CPUs (``taskset`` limits
    them) hold at the BLAS thread count of ``_BLAS_THREAD_VARS``, but no
    more than it has degrees; so a sweep with BLAS unpinned stays in
    process.  So does a sweep of one degree, one whose top degree has fewer
    conditions than ``_POOL_CONDITIONS``, one without a ``fork`` start
    method, one in a daemonic process (which may not have children) and one
    while other threads run (a forked child copies only the calling thread,
    so a lock another thread holds stays held in it).  The cheap tests come
    first, so a small sweep never imports ``multiprocessing``.
    """
    if len(degrees) < 2 or monomial_count(nvars, degrees[-1]) < _POOL_CONDITIONS:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else 1
    blas = next((int(v) for v in map(os.environ.get, _BLAS_THREAD_VARS)
                 if (v or "").isdigit() and int(v) > 0), cpus)
    workers = min(cpus // blas, len(degrees))
    if workers < 2:
        return 1
    import multiprocessing
    import threading

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 1
    return workers


def convergence_run(config: ExperimentConfig) -> ExperimentReport:
    """Build the projector family across degrees and track sup errors.

    Each degree's build, nesting gate, right-hand side and solve is one
    independent step (``_degree_step``); a row's seconds cover that step,
    measured where it ran.  Large sweeps run the steps on forked worker
    processes, one per usable CPU at one BLAS thread (``_sweep_workers``),
    largest degree first, while this process evaluates the target on the
    samples; the results are read back in degree order, so a failing sweep
    raises the lowest failing degree's error, as the in-process loop does.
    All degrees are then evaluated on the samples in one batch, from one
    monomial table per leaf of the compact (``evaluate_grid``), whose time
    is the metadata's ``eval_s``.  The metadata's ``level_cond_max`` is the
    largest leading-block condition estimate of the projectors applied, and
    ``level_cond_max_exact`` says whether an SVD read it (true) or it is a
    certified bound that stood in for one (``NewtonProduct._cond_bounds``).
    """
    t0 = time.perf_counter()
    model = parse_compact(config.compact)
    f = parse_function(config.function, model.nvars)
    blocks = model.sample_blocks(config.grid ** model.nvars)
    workers = _sweep_workers(config.degrees, model.nvars)
    if workers == 1:
        target = f.values(cartesian(*blocks))  # raises if a pole sits on the compact
        steps = [_degree_step(config.projector, d, f, config.exactness)
                 for d in config.degrees]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            futures = {d: pool.submit(_degree_step, config.projector, d, f, config.exactness)
                       for d in reversed(config.degrees)}
            target = f.values(cartesian(*blocks))  # while the workers build
            steps = [futures[d].result() for d in config.degrees]
        finally:
            pool.shutdown(cancel_futures=True)
    approxs, seconds, conds = zip(*steps)
    cond_max, cond_exact = max(pair for levels in conds for pair in levels)
    tick = time.perf_counter()
    values = evaluate_grid(approxs, blocks)
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
        "level_cond_max_exact": cond_exact,
    }
    if config.expected_rho is not None:
        metadata["expected_rate"] = 1.0 / config.expected_rho
    return ExperimentReport(config.to_json(), rows, rate, metadata)


# -- the cylinder experiment -----------------------------------------------------


def cylinder_nodes(degree: int):
    """Planar disk Leja nodes and real Leja interval nodes, degree+1 each."""
    disk = nodes_by_name("leja_disk", degree)
    return np.stack([disk.real, disk.imag], axis=1), nodes_by_name("real_leja", degree)


def cylinder_blocks(resolution: int):
    """The two factors of the cylinder grid: disk points and segment points.

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
    return disk.astype(np.complex128), seg.reshape(-1, 1).astype(np.complex128)


def cylinder_run(config: ExperimentConfig) -> ExperimentReport:
    """Kergin on the disk crossed with Lagrange on the segment.

    One Newton product at planar disk-Leja and real-Leja nodes of the largest
    degree.  Both node families nest by prefix, so its degree-d truncation is
    the degree-d product: every row is read off one right-hand side (at the
    top degree's exactness) and all rows are evaluated on the cylinder grid
    in one batch, from one monomial table for the disk factor and one for
    the segment (``evaluate_grid``).  The first row's seconds cover the one
    build, right-hand side and solve, the other rows' read 0, and the
    batch's time is the metadata's ``eval_s``.  The extras carry the
    product node set (a_i, b_j) with i + j <= d for the largest degree and
    the residual there.
    """
    if config.projector is not None or config.compact is not None:
        raise ValueError("cylinder_run fixes its projector and compact; pass None")
    dmax = max(config.degrees)
    if dmax > 12:
        raise ValueError("cylinder degrees are capped at 12")
    t0 = time.perf_counter()
    f = parse_function(config.function, 3)
    blocks = cylinder_blocks(config.grid)
    target = f.values(cartesian(*blocks))
    tick = time.perf_counter()
    planar, line = cylinder_nodes(dmax)
    prod = kergin_projector(planar).newton_product(lagrange_projector(line))
    parts = prod.truncations(f, exactness=config.exactness)
    seconds = time.perf_counter() - tick
    tick = time.perf_counter()
    values = evaluate_grid([parts[d] for d in config.degrees], blocks)
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


def _omega_sup_logs(dmax: int):
    """log of max over [0,1] of the running node products prod |x - i|."""
    x = np.linspace(0.0, 1.0, _OMEGA_GRID)
    logs = np.zeros(_OMEGA_GRID)
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
    lam < ln 2 for positive lam.  ``dmax`` runs from 3, where the fit first
    has two ratios, to 60.
    """
    if dmax < 3:
        raise ValueError(f"dmax must be at least 3 to fit the ratio tail, got {dmax}")
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
