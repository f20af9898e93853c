"""Acceptance gate: one desk-scale quantitative criterion per test.

Each test is the pass/fail line for its criterion; run with -v to get the
ledger.  Tolerances are pinned here and nowhere else, so a regression in
any underlying module trips exactly the criterion it breaks.
"""
import json
import math
import time

import numpy as np
import pytest

from nprox.cli import main
from nprox.experiments import (ExperimentConfig, convergence_run,
                               cylinder_run, polya_bisect, polya_run)
from nprox.extremal import CompactModel, bws_check
from nprox.growth import CombinedNorm, GrowthParams, LpNorm, gelfond_constant, growth_norm_monomial
from nprox.indexing import exponents, monomial_count
from nprox.measures import chebyshev_measure, circle_measure, gram_schmidt_basis, product_measure
from nprox.points import leja_disk, leja_greedy_gap, real_leja
from nprox.polynomials import Polynomial, coeff_distance, tensor_product
from nprox.projectors import BSet
from nprox.testfunctions import Affine, Exp, Recip
from nprox.zoo import (kergin_projector, lagrange_projector, nodes_by_name,
                       orthogonal_projector, projector_from_spec,
                       taylor_projector)

from scipy.optimize import minimize, minimize_scalar


def random_poly(rng, nvars, degree, cplx=True):
    n = monomial_count(nvars, degree)
    c = rng.standard_normal(n)
    if cplx:
        c = c + 1j * rng.standard_normal(n)
    return Polynomial(nvars, degree, c)


def rel_gap(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-30)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


# -- criterion 1: projector laws --------------------------------------------------


def test_criterion_01_projector_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    cases = [
        taylor_projector(1, 10),
        taylor_projector(2, 7, center=[0.3, -0.2]),
        taylor_projector(3, 4),
        lagrange_projector(nodes_by_name("real_leja", 15).reshape(-1, 1)),
        kergin_projector(np.stack([leja_disk(16)[:9].real,
                                   leja_disk(16)[:9].imag], axis=1)),
        orthogonal_projector(chebyshev_measure(128), 20),
        orthogonal_projector(circle_measure(128), 12),
    ]
    for proj in cases:
        p = random_poly(rng, proj.nvars, proj.degree)
        repro = proj.apply(p)
        assert rel_gap(repro.coeffs, p.coeffs) < 1e-8

        f = Exp(Affine(0.4 * np.ones(proj.nvars), 0.1))
        once = proj.apply(f)
        twice = proj.apply(once)
        assert rel_gap(twice.coeffs, once.coeffs) < 1e-8

        rhs = proj._rhs(f, None)
        lhs = proj.matrix @ once.coeffs
        assert rel_gap(lhs, rhs) < 1e-8
    assert time.perf_counter() - t0 < 30.0


# -- criteria 2 and 3: product formula and residual expansion ---------------------


def _factor_menu(rng, low=2, high=6):
    d1 = int(rng.integers(low, high))
    d2 = int(rng.integers(low, high))
    menu1 = [
        taylor_projector(1, d1),
        lagrange_projector(nodes_by_name("real_leja", d1).reshape(-1, 1)),
        orthogonal_projector(chebyshev_measure(64), d1),
    ]
    menu2 = [
        taylor_projector(1, d2),
        lagrange_projector(nodes_by_name("leja_disk", d2).reshape(-1, 1)),
        orthogonal_projector(circle_measure(64), d2),
    ]
    left = menu1[int(rng.integers(len(menu1)))]
    right = menu2[int(rng.integers(len(menu2)))]
    return left, right


def test_criterion_02_product_formula():
    rng = np.random.default_rng(202)
    for _ in range(24):
        left, right = _factor_menu(rng)
        prod = left.newton_product(right)
        f1 = random_poly(rng, 1, left.degree)
        f2 = random_poly(rng, 1, right.degree)
        via_engine = prod.apply(tensor_product(f1, f2))
        via_formula = prod.apply_product_formula(f1, f2)
        assert rel_gap(via_engine.coeffs, via_formula.coeffs) < 1e-8


def test_criterion_02_product_formula_past_the_bound_size(monkeypatch):
    # a product of at least 150 conditions solves through its factors' blocks,
    # as the formula does; the engine side here takes the dense solve on the
    # product matrix, so the two sides stay independent
    rng = np.random.default_rng(212)
    for _ in range(6):
        left, right = _factor_menu(rng, 16, 20)
        prod = left.newton_product(right)
        assert len(prod.conditions) >= 150 and prod._factorwise
        f1 = random_poly(rng, 1, left.degree)
        f2 = random_poly(rng, 1, right.degree)
        with monkeypatch.context() as m:
            m.setattr(prod, "_factorwise", False)
            via_engine = prod.apply(tensor_product(f1, f2))
        assert prod._matrix is not None
        via_formula = prod.apply_product_formula(f1, f2)
        assert rel_gap(via_engine.coeffs, via_formula.coeffs) < 1e-8


def test_criterion_03_residual_expansion():
    rng = np.random.default_rng(303)
    for _ in range(22):
        left, right = _factor_menu(rng)
        prod = left.newton_product(right)
        f1 = random_poly(rng, 1, left.degree)
        f2 = random_poly(rng, 1, right.degree)
        joint = tensor_product(f1, f2)
        projected = prod.apply(joint)
        direct = joint.coeffs - projected.embedded(joint.degree).coeffs
        terms, bset = prod.residual_expansion(f1, f2)
        total = np.zeros_like(direct)
        for _, _, term in terms:
            total += term.embedded(joint.degree).coeffs
        assert rel_gap(total, direct) < 1e-8
    # cardinality bound, exhaustively at small degree
    for d in range(7):
        for a1 in range(9):
            for a2 in range(9):
                assert BSet(d, a1, a2).cardinality() <= (a1 + 1) * (a2 + 1)


# -- criterion 4: product of truncated series --------------------------------------


def test_criterion_04_taylor_product_is_taylor_at_joined_point():
    rng = np.random.default_rng(404)
    for d in (2, 4, 6):
        for n1, n2, a, b in [(1, 1, [0.3], [-0.2]), (2, 1, [0.1, -0.4], [0.25])]:
            left = taylor_projector(n1, d, center=a)
            right = taylor_projector(n2, d, center=b)
            joined = taylor_projector(n1 + n2, d, center=list(a) + list(b))
            prod = left.newton_product(right)
            p = random_poly(rng, n1 + n2, d + 2)
            got = prod.apply(p)
            want = joined.apply(p)
            assert coeff_distance(got, want) < 1e-12


# -- criterion 5: interpolation grid of a product of interpolators ------------------


def test_criterion_05_product_grid_node_residuals():
    d = 15
    line1 = nodes_by_name("real_leja", d)
    line2 = nodes_by_name("real_leja", d)
    left = lagrange_projector(line1.reshape(-1, 1))
    right = lagrange_projector(line2.reshape(-1, 1))
    prod = left.newton_product(right)
    f = Exp(Affine(np.array([1.0, 0.5]), 0.0))
    p = prod.apply(f)
    nodes = np.array([[line1[i], line2[j]]
                      for i in range(d + 1) for j in range(d + 1 - i)],
                     dtype=np.complex128)
    assert nodes.shape[0] == (d + 1) * (d + 2) // 2
    resid = np.max(np.abs(p.eval_many(nodes) - f.values(nodes)))
    assert resid < 1e-9


# -- criterion 6: orthonormal bases of product measures ------------------------------


def test_criterion_06_product_basis_factorizes():
    degree = 12
    m1 = circle_measure(64)
    m2 = chebyshev_measure(64)
    prod = product_measure(m1, m2)
    basis = gram_schmidt_basis(prod, degree)
    b1 = gram_schmidt_basis(m1, degree)
    b2 = gram_schmidt_basis(m2, degree)
    exps = exponents(2, degree)
    worst = 0.0
    for k in range(len(basis)):
        i, j = int(exps[k, 0]), int(exps[k, 1])
        q = tensor_product(b1.polys[i], b2.polys[j])
        got = basis.polys[k].embedded(degree)
        # the tensor's storage bound is 2*degree but everything above the
        # factor degrees is zero, so truncation loses nothing
        qq = q.truncated(degree)
        # align the free phase on the largest coefficient; compare relative
        # to the coefficient scale, which grows like 2^degree for the
        # Chebyshev factor
        pivot = int(np.argmax(np.abs(qq.coeffs)))
        phase = got.coeffs[pivot] / qq.coeffs[pivot]
        scale = max(1.0, float(np.max(np.abs(qq.coeffs))))
        worst = max(worst,
                    float(np.max(np.abs(got.coeffs - phase * qq.coeffs))) / scale)
    assert worst < 1e-10


# -- criterion 7: geometric convergence rates ----------------------------------------


def test_criterion_07_rate_reproduction():
    t0 = time.perf_counter()
    want = 1.0 / (2.0 + math.sqrt(3.0))
    uni = convergence_run(ExperimentConfig(
        name="rate_uni",
        projector={"kind": "lagrange", "nodes": "chebyshev",
                   "cond_threshold": None},
        function=["recip", ["affine", [1.0], -2.0]],
        compact="interval",
        degrees=list(range(2, 41, 2)),
        grid=256,
    ))
    assert abs(uni.rate - want) < 0.10 * want
    biv = convergence_run(ExperimentConfig(
        name="rate_biv",
        projector={"kind": "newton_product",
                   "factors": [{"kind": "lagrange", "nodes": "chebyshev_leja"},
                               {"kind": "lagrange", "nodes": "chebyshev_leja"}]},
        function=["product", ["recip", ["affine", [1.0, 0.0], -2.0]],
                  ["recip", ["affine", [0.0, 1.0], -5.0]]],
        compact={"kind": "product", "factors": ["interval", "interval"]},
        degrees=list(range(2, 23, 2)),
        grid=64,
    ))
    assert abs(biv.rate - want) < 0.10 * want
    assert time.perf_counter() - t0 < 60.0


# -- criterion 8: the doubling sequence is greedy ------------------------------------


def test_criterion_08_leja_sequence_matches_greedy_oracle():
    assert leja_greedy_gap(leja_disk(16)) < 1e-6


# -- criteria 9 and 10: the threshold constants ---------------------------------------


def test_criterion_09_gelfond_constant():
    t0 = time.perf_counter()
    assert abs(gelfond_constant(1.0) - math.log(2.0)) < 1e-8
    assert time.perf_counter() - t0 < 1.0


def test_criterion_10_polya_threshold():
    t0 = time.perf_counter()
    assert polya_run(0.5, 40)["verdict"] == "converge"
    assert polya_run(0.8, 40)["verdict"] == "diverge"
    bracket = polya_bisect(40)
    assert bracket["low"] - 0.05 <= math.log(2.0) <= bracket["high"] + 0.05
    assert time.perf_counter() - t0 < 10.0


# -- criterion 11: the cylinder experiment --------------------------------------------


def test_criterion_11_cylinder_experiment():
    t0 = time.perf_counter()
    report = cylinder_run(ExperimentConfig(
        name="cyl_acc",
        projector=None,
        compact=None,
        function=["exp", ["affine", [1.0, 1.0, 1.0], 0.0]],
        degrees=list(range(2, 11)),
        grid=64,
    ))
    sups = [r["sup_error"] for r in report.rows]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 1e-3
    assert report.metadata["node_residual"] < 1e-8
    assert time.perf_counter() - t0 < 120.0


# -- criterion 12: growth closed forms -------------------------------------------------


def _delta_oracle(norm, alpha, rng, samples=20000):
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.size
    sup = alpha > 0
    if not sup.any():
        return 1.0
    total = float(alpha.sum())
    x0 = np.abs(rng.standard_normal((samples, n)))
    x0[:, ~sup] = 0.0
    x0 /= norm.value(x0)[:, None]
    logs = np.full(samples, -np.inf)
    pos = np.all(x0[:, sup] > 0, axis=1)
    logs[pos] = np.log(x0[np.ix_(pos, sup)]) @ alpha[sup]

    def embed(u):
        x = np.zeros(n)
        x[sup] = np.exp(u)
        return x

    def negobj(u):
        return -(float(alpha[sup] @ u)
                 - total * math.log(float(norm.value(embed(u))[0])))

    res = minimize(negobj, np.log(x0[int(np.argmax(logs))][sup]),
                   method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    return math.exp(max(float(np.max(logs)), -float(res.fun)))


def test_criterion_12_growth_formulas():
    rng = np.random.default_rng(1212)
    norms = [
        LpNorm(1, 2), LpNorm(2, 2), LpNorm(math.inf, 2),
        LpNorm(1, 3), LpNorm(2, 3), LpNorm(math.inf, 3),
        CombinedNorm(LpNorm(1, 1), LpNorm(math.inf, 2), weights=(2.0, 0.5)),
        CombinedNorm(LpNorm(2, 2), LpNorm(1, 1), weights=(1.0, 3.0), omega=2.0),
    ]
    for norm in norms:
        for _ in range(5):
            alpha = rng.integers(0, 4, size=norm.nvars)
            while alpha.sum() > 10:
                alpha = rng.integers(0, 4, size=norm.nvars)
            want = _delta_oracle(norm, alpha, rng)
            got = norm.delta(alpha)
            assert abs(got - want) < 1e-6 * max(want, 1e-9)

            params = GrowthParams(1.5, 0.8, norm)
            total = int(alpha.sum())
            d = norm.delta(alpha)
            got_g = growth_norm_monomial(alpha, params)
            if total == 0:
                assert got_g == d
                continue
            res = minimize_scalar(
                lambda s: -(math.log(d) + total * s - 0.8 * math.exp(1.5 * s)),
                bounds=(-30.0, 30.0), method="bounded",
                options={"xatol": 1e-13},
            )
            want_g = math.exp(-res.fun)
            assert abs(got_g - want_g) < 1e-6 * want_g


# -- criterion 13: growth across level sets ---------------------------------------------


def test_criterion_13_level_set_growth_inequality():
    rng = np.random.default_rng(1313)
    models = [CompactModel("interval"), CompactModel("disk"),
              CompactModel("product", ["interval", "disk"])]
    count = 0
    for model in models:
        for _ in range(34):
            degree = int(rng.integers(1, 9))
            p = random_poly(rng, model.nvars, degree)
            for R in (1.5, 2.0):
                assert bws_check(p, model, R) <= 1.0 + 1e-9
            count += 1
    assert count >= 100


# -- criterion 14: determinism -----------------------------------------------------------


def test_criterion_14_csv_determinism(tmp_path):
    cfg = {
        "name": "det",
        "projector": {"kind": "lagrange", "nodes": "real_leja"},
        "function": ["recip", ["affine", [1.0], -2.0]],
        "compact": "interval",
        "degrees": [2, 4, 6, 8, 10],
        "grid": 64,
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["converge", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        blobs.append((out / "det.csv").read_bytes())
    assert blobs[0] == blobs[1]

    gcfg = tmp_path / "g.json"
    gcfg.write_text(json.dumps({"omegas": [0.5, 1.0, 2.0]}))
    gblobs = []
    for sub in ("ga", "gb"):
        out = tmp_path / sub
        assert main(["gelfond", "--config", str(gcfg),
                     "--out", str(out)]) == 0
        gblobs.append((out / "gelfond.csv").read_bytes())
    assert gblobs[0] == gblobs[1]
