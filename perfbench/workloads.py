"""One benchmark workload in one process: set up, warm up, measure, check.

Run from the root of a checkout (``run.py`` does this); the library is
imported from ``src/``.  The process prints one JSON object as its last
stdout line.  Set-up is everything from process start to the end of one
untimed warm-up pass: interpreter start, imports, input generation and the
library's lazily filled tables.  Then, by mode:

  measure  timed passes for --seconds (at least one)
  trace    one untraced pass, then traced passes for --seconds

Every operation is checked; a failed check or an exception is recorded with
its inputs and counted, and the run goes on.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import nprox  # noqa: E402
from tracing import ROOT, Tracer, layer_metrics  # noqa: E402
from nprox import cli, experiments, zoo  # noqa: E402
from nprox.indexing import monomial_count  # noqa: E402
from nprox.measures import chebyshev_measure, circle_measure  # noqa: E402
from nprox.polynomials import Polynomial, tensor_product  # noqa: E402
from nprox.testfunctions import Affine, Exp  # noqa: E402

WORK = os.path.join(os.getcwd(), ".bench_work")
LAW_TOL = 1e-8


def rel_gap(a, b) -> float:
    """Largest coefficient difference relative to the larger array's scale."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a - b))) / scale


class PassResult:
    """Per-operation latencies, failures with their inputs, accuracy readings."""

    def __init__(self):
        self.attempted = 1
        self.failed: int | None = None  # operations with a failure; None: 0 or 1
        self.op_s: list[float] = []
        self.failures: list[dict] = []
        self.accuracy: dict[str, float] = {}
        self.notes: dict = {}
        self.ref_s: float | None = None


# -- cylinder: the criterion-11 sweep, stopped at degree 8 -----------------------


class Cylinder:
    """Kergin on disk-Leja nodes times Lagrange on real Leja nodes, exp(x+y+z).

    Fixed inputs (the acceptance gate's); the seed is not used.  Assembly
    bound: planar Kergin monomial values dominate.  A pass is one sweep,
    checked as a whole; its latency samples are the degree steps.
    """

    REFERENCE = ("interpreter",)

    def __init__(self, seed: int, toy: bool):
        self.config = experiments.ExperimentConfig(
            name="cylinder", projector=None, compact=None,
            function=["exp", ["affine", [1.0, 1.0, 1.0], 0.0]],
            degrees=list(range(2, 5 if toy else 9)), grid=64,
        )

    def run_pass(self) -> PassResult:
        out = PassResult()
        report = experiments.cylinder_run(self.config)
        out.op_s = [r["seconds"] for r in report.rows]
        sups = [r["sup_error"] for r in report.rows]
        resid = report.metadata["node_residual"]
        out.accuracy = {"sup_error_final": sups[-1], "node_residual": resid}
        if any(b >= a for a, b in zip(sups, sups[1:])):
            out.failures.append({"check": "sup errors strictly decrease", "sup_errors": sups})
        if not resid < 1e-8:
            out.failures.append({"check": "node_residual < 1e-8", "node_residual": resid})
        return out

    def close(self):
        pass


# -- rate_biv: the criterion-7 bivariate sweep through the CLI ---------------------


class RateBiv:
    """``nprox converge --check`` in-process on the Chebyshev-Leja product.

    Fixed inputs; the seed is not used.  Point conditions only, so the time
    goes to the leading-block check, grid evaluation, right-hand sides and
    solves, plus config parsing and report writing.  The family is not
    nested.  A pass is one CLI call, checked by its exit code; its latency
    samples are the degree steps the report records.
    """

    # large SVDs and grid evaluation slow less than interpreter work
    REFERENCE = ("interpreter", "dense", "stream")

    RHO = 2.0 + math.sqrt(3.0)

    def __init__(self, seed: int, toy: bool):
        self.dir = os.path.join(WORK, f"rate_biv-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.config_path = os.path.join(self.dir, "rate_biv.json")
        self.out_dir = os.path.join(self.dir, "out")
        config = {
            "name": "rate_biv",
            "projector": {"kind": "newton_product",
                          "factors": [{"kind": "lagrange", "nodes": "chebyshev_leja"},
                                      {"kind": "lagrange", "nodes": "chebyshev_leja"}]},
            "function": ["product", ["recip", ["affine", [1.0, 0.0], -2.0]],
                         ["recip", ["affine", [0.0, 1.0], -5.0]]],
            "compact": {"kind": "product", "factors": ["interval", "interval"]},
            "degrees": list(range(2, 9 if toy else 29, 2)),
            "grid": 64,
        }
        if not toy:  # too few degrees at toy size for the fitted rate to settle
            config["expected_rho"] = self.RHO
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)

    def run_pass(self) -> PassResult:
        out = PassResult()
        code = cli.main(["converge", "--config", self.config_path,
                         "--out", self.out_dir, "--check"])
        with open(os.path.join(self.out_dir, "rate_biv.json")) as fh:
            report = json.load(fh)
        out.op_s = [r["seconds"] for r in report["rows"]]
        rate = report["rate"]
        out.accuracy = {"rate_rel_err": abs(rate - 1.0 / self.RHO) * self.RHO,
                        "sup_error_final": report["rows"][-1]["sup_error"]}
        if code != 0:
            out.failures.append({"check": "converge --check exits 0", "exit": code,
                                 "rate": rate})
        return out

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# -- zoo_laws: build once, apply many, across the whole zoo ---------------------------


def _planar_leja(degree):
    pts = zoo.nodes_by_name("leja_disk", degree)
    return np.stack([pts.real, pts.imag], axis=1)


# name -> (variables, degree range, build(degree, center, measures))
FAMILIES = {
    "taylor": (1, (2, 14), lambda d, c, m: zoo.taylor_projector(1, d, center=c)),
    "lagrange_real_leja": (1, (2, 14), lambda d, c, m: zoo.lagrange_projector(
        zoo.nodes_by_name("real_leja", d).reshape(-1, 1))),
    "lagrange_leja_disk": (1, (2, 14), lambda d, c, m: zoo.lagrange_projector(
        zoo.nodes_by_name("leja_disk", d).reshape(-1, 1))),
    "orthogonal_chebyshev": (1, (2, 14), lambda d, c, m: zoo.orthogonal_projector(
        m["chebyshev"], d)),
    "orthogonal_circle": (1, (2, 14), lambda d, c, m: zoo.orthogonal_projector(
        m["circle"], d)),
    "taylor_2d": (2, (2, 4), lambda d, c, m: zoo.taylor_projector(2, d, center=c)),
    "kergin_2d": (2, (2, 4), lambda d, c, m: zoo.kergin_projector(_planar_leja(d))),
}


def degree_schedule(toy: bool):
    """Every ordered family pair once, degrees spread over each range.

    The shapes are fixed so that pass time does not depend on the seed; the
    seed draws the data.  A factor's degree walks its range with a stride
    coprime to its length, so the 70 one-variable slots cover 2..14 evenly.
    """
    names = list(FAMILIES)
    cursor = {1: 0, 2: 0}
    shapes = []
    for a in names:
        for b in names:
            degs = []
            for fam in (a, b):
                nv, (lo, hi) = FAMILIES[fam][:2]
                if toy:
                    hi = min(hi, lo + 1)
                span = hi - lo + 1
                degs.append(lo + (cursor[nv] * 5) % span)
                cursor[nv] += 1
            shapes.append((a, degs[0], b, degs[1]))
    return shapes


def _random_poly(rng, nvars, degree):
    n = monomial_count(nvars, degree)
    return Polynomial(nvars, degree, rng.standard_normal(n) + 1j * rng.standard_normal(n))


class Trial:
    """Inputs of one zoo trial, drawn once from the seed."""

    def __init__(self, rng, fam_a, deg_a, fam_b, deg_b):
        self.fam_a, self.deg_a, self.fam_b, self.deg_b = fam_a, deg_a, fam_b, deg_b
        na, nb = FAMILIES[fam_a][0], FAMILIES[fam_b][0]
        self.center_a = rng.uniform(-0.25, 0.25, na)
        self.center_b = rng.uniform(-0.25, 0.25, nb)
        self.c_a = rng.uniform(-1.0, 1.0, na)
        self.c_b = rng.uniform(-1.0, 1.0, nb)
        dp = min(deg_a, deg_b)
        # one degree past the product degree: the residual set is not empty
        # and the inputs stay at the product's scale
        self.p_a = _random_poly(rng, na, min(deg_a, dp + 1))
        self.p_b = _random_poly(rng, nb, min(deg_b, dp + 1))
        self.p = _random_poly(rng, na + nb, dp)

    def describe(self) -> dict:
        return {"left": [self.fam_a, self.deg_a], "right": [self.fam_b, self.deg_b],
                "affine_left": self.c_a.tolist(), "affine_right": self.c_b.tolist()}


class ZooLaws:
    """Seeded trials over every ordered pair of zoo families.

    Each trial builds both factors and their product, projects a separable
    exp(affine) through the engine and the product formula, truncates it at
    every degree, and checks the exact laws (criteria 1-3) to 1e-8 on random
    complex polynomials.  One operation is one trial.
    """

    REFERENCE = ("interpreter",)

    def __init__(self, seed: int, toy: bool):
        rng = np.random.default_rng(seed)
        self.measures = {"chebyshev": chebyshev_measure(64), "circle": circle_measure(64)}
        self.trials = [Trial(rng, *shape) for shape in degree_schedule(toy)]
        order = rng.permutation(len(self.trials))
        self.trials = [self.trials[i] for i in order]

    def run_trial(self, t: Trial, out: PassResult) -> float:
        build_a, build_b = FAMILIES[t.fam_a][2], FAMILIES[t.fam_b][2]
        left = build_a(t.deg_a, t.center_a, self.measures)
        right = build_b(t.deg_b, t.center_b, self.measures)
        prod = left.newton_product(right)
        f_a, f_b = Exp(Affine(t.c_a)), Exp(Affine(t.c_b))
        f = Exp(Affine(np.concatenate([t.c_a, t.c_b])))
        engine = prod.apply(f)
        formula = prod.apply_product_formula(f_a, f_b)
        for k in range(prod.degree + 1):
            prod.truncate(k, f)
        gaps = {
            "reproduction": rel_gap(prod.apply(t.p).coeffs, t.p.coeffs),
            "idempotence": rel_gap(prod.apply(engine).coeffs, engine.coeffs),
            "truncation": max(rel_gap(prod.truncate(k, t.p.truncated(k)).coeffs,
                                      t.p.truncated(k).coeffs)
                              for k in range(prod.degree + 1)),
        }
        joint = tensor_product(t.p_a, t.p_b)
        projected = prod.apply(joint)
        gaps["product_formula"] = rel_gap(
            projected.coeffs, prod.apply_product_formula(t.p_a, t.p_b).coeffs)
        terms, _ = prod.residual_expansion(t.p_a, t.p_b)
        total = np.zeros(monomial_count(joint.nvars, joint.degree), dtype=np.complex128)
        for _, _, term in terms:
            total += term.embedded(joint.degree).coeffs
        gaps["residual_expansion"] = rel_gap(
            total, joint.coeffs - projected.embedded(joint.degree).coeffs)
        for law, gap in gaps.items():
            if not gap < LAW_TOL:
                out.failures.append({"check": f"{law} gap < {LAW_TOL}", "gap": gap,
                                     **t.describe()})
        return rel_gap(engine.coeffs, formula.coeffs)

    def run_pass(self) -> PassResult:
        out = PassResult()
        fn_gap, worst = 0.0, None
        out.failed = 0
        for t in self.trials:
            before = len(out.failures)
            tick = time.perf_counter()
            try:
                gap = self.run_trial(t, out)
                if gap >= fn_gap:
                    fn_gap, worst = gap, t
            except Exception as exc:  # a failed trial is recorded, the pass goes on
                out.failures.append({"check": "no exception", "error": repr(exc),
                                     **t.describe()})
            out.op_s.append(time.perf_counter() - tick)
            out.failed += len(out.failures) > before
        out.attempted = len(self.trials)
        out.accuracy = {"fn_law_gap_max": fn_gap}
        if worst is not None:
            out.notes = {"fn_law_gap_trial": worst.describe()}
        return out

    def close(self):
        pass


WORKLOADS = {"cylinder": Cylinder, "rate_biv": RateBiv, "zoo_laws": ZooLaws}


# -- environment -----------------------------------------------------------------


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def library_env() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = None
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": vendor, "blas_threads": threads,
            "nprox_file": os.path.relpath(nprox.__file__)}


# -- the process -------------------------------------------------------------------


def _checked_pass(workload, failures: list) -> tuple[float, PassResult]:
    tick = time.perf_counter()
    try:
        res = workload.run_pass()
    except Exception as exc:  # a failed sweep is recorded, the run goes on
        res = PassResult()
        res.failures.append({"check": "no exception", "error": repr(exc),
                             "traceback": traceback.format_exc(limit=3)})
    elapsed = time.perf_counter() - tick
    if res.failed is None:
        res.failed = int(bool(res.failures))
    failures.extend(res.failures)
    return elapsed, res


class ReferenceKernel:
    """A fixed mix of work that does not touch nprox, timed before each pass.

    On a shared machine the processor can run in phases of different speed,
    up to 1.5x apart on the 2-vCPU Xeon described in NOTES.md.  Dividing a
    pass by the kernel timed just before it cancels most of the phase, when
    the kernel slows the way the workload does.  Workloads differ in how they slow, so
    each names the parts that resemble it:

      interpreter  tuple-keyed dict lookups, small complex solves and SVDs,
                   power tables; five chunks, reported as five times the
                   median chunk so that a short stall does not count
      dense        a dense 300x300 complex SVD
      stream       matrix-vector products on a 28 MB matrix, larger than
                   the cache
    """

    def __init__(self, parts):
        self.parts = tuple(parts)
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self.rhs = rng.standard_normal(48) + 0j
        self.pts = 0.5 * rng.standard_normal((2048, 3)) + 0j
        self.keys = [tuple(row) for row in rng.integers(0, 12, (6000, 3)).tolist()]
        self.table = {k: i for i, k in enumerate(sorted(set(self.keys)))}
        if "dense" in self.parts:
            self.square = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
        if "stream" in self.parts:
            self.tall = rng.standard_normal((4096, 435)) + 1j * rng.standard_normal((4096, 435))
            self.vec = rng.standard_normal(435) + 0j

    def _interpreter(self) -> float:
        chunks = []
        for _ in range(5):
            tick = time.perf_counter()
            for _ in range(8):
                self.acc += sum(self.table[k] for k in self.keys)
                for _ in range(20):
                    self.acc += abs(np.linalg.solve(self.small, self.rhs)[0])
                    self.acc += np.linalg.svd(self.small[:24, :24], compute_uv=False)[0]
                powers = self.pts[:, :, None] ** np.arange(10)
                self.acc += abs(np.exp(0.1 * powers.prod(axis=1)).sum())
            chunks.append(time.perf_counter() - tick)
        return 5 * statistics.median(chunks)

    def _dense(self) -> float:
        tick = time.perf_counter()
        for _ in range(3):
            self.acc += np.linalg.svd(self.square, compute_uv=False)[0]
        return time.perf_counter() - tick

    def _stream(self) -> float:
        tick = time.perf_counter()
        for _ in range(10):
            self.acc += abs((self.tall @ self.vec).sum()) + float(np.abs(self.tall).max())
        return time.perf_counter() - tick

    def __call__(self) -> float:
        """Seconds spent in this workload's parts."""
        self.acc = 0.0
        total = sum(getattr(self, "_" + part)() for part in self.parts)
        if not math.isfinite(self.acc):
            raise FloatingPointError("reference kernel produced a non-finite value")
        return total


def _timed_passes(workload, seconds, failures, tracer=None):
    """Passes until ``seconds`` have elapsed, at least one.

    Untraced, the reference kernel runs just before each pass.  With a
    tracer, each pass is a root span and its span range and counts are kept
    for the per-layer figures.
    """
    passes, traced = [], []
    reference = ReferenceKernel(workload.REFERENCE) if tracer is None else None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is None:
            ref_s = reference()
            passes.append(_checked_pass(workload, failures))
            passes[-1][1].ref_s = ref_s
            continue
        first = len(tracer.names)
        tracer.reset_counts()
        with tracer.span(ROOT):
            passes.append(_checked_pass(workload, failures))
        traced.append((first, len(tracer.names), dict(tracer.counts),
                       tracer.level_cond_max, passes[-1][0]))
    return passes, traced


def run(args, workload) -> dict:
    failures: list[dict] = []
    _, warm = _checked_pass(workload, failures)
    setup_s = time.monotonic() - args.spawned_at
    # before the reference kernel allocates; the warm-up pass ran the same
    # work as every timed pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = warm.attempted, warm.failed
    result = {"setup_s": setup_s, "env": library_env()}
    if args.mode == "trace":
        untraced_s, untraced = _checked_pass(workload, failures)
        attempted += untraced.attempted
        failed += untraced.failed
        tracer = Tracer()
        tracer.install()
        try:
            passes, traced = _timed_passes(workload, args.seconds, failures, tracer)
        finally:
            tracer.remove()
        path = os.path.join(WORK, "trace", f"{args.workload}.spans.csv")
        tracer.write(path)
        result["per_layer"] = layer_metrics(tracer, traced, untraced_s)
        result["spans_file"] = os.path.relpath(path)
    else:
        passes, _ = _timed_passes(workload, args.seconds, failures)

    accuracy: dict[str, float] = {}
    for _, res in passes:
        attempted += res.attempted
        failed += res.failed
        for key, val in res.accuracy.items():
            accuracy[key] = max(accuracy.get(key, 0.0), val)
    result.update(
        attempted=attempted, failed=failed, failures=failures,
        passes=[{"s": s, "ref_s": res.ref_s, "op_s": res.op_s} for s, res in passes],
        peak_rss_mb=peak_rss_mb,
        accuracy=accuracy, notes=passes[-1][1].notes,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    if not os.path.abspath(nprox.__file__).startswith(SRC + os.sep):
        print(f"nprox imported from {nprox.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload](args.seed, args.toy)
    try:
        result = run(args, workload)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
