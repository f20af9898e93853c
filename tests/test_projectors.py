"""Projector engine: nesting checks, truncation, summands, products."""
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import nprox.functionals
import nprox.projectors
import nprox.zoo
from nprox.experiments import cylinder_nodes
from nprox.functionals import KerginCondition, PointEval, rhs
from nprox.indexing import DESK_LIMIT, degree_starts, exponents, monomial_count
from nprox.measures import chebyshev_measure, circle_measure
from nprox.points import chebyshev_nodes, leja_disk, real_leja
from nprox.polynomials import Polynomial, coeff_distance, tensor_product
from nprox.projectors import (
    BSet,
    NestedUnisolvenceFailure,
    NewtonProduct,
    NewtonStructuredProjector,
)
from nprox.testfunctions import Affine, Exp, PolynomialFunction, Recip
from nprox.zoo import (
    kergin_projector,
    lagrange_projector,
    nodes_by_name,
    orthogonal_projector,
    projector_from_spec,
    taylor_projector,
)


def random_poly(rng, nvars, degree, cplx=False):
    n = monomial_count(nvars, degree)
    c = rng.standard_normal(n)
    if cplx:
        c = c + 1j * rng.standard_normal(n)
    return Polynomial(nvars, degree, c)


def all_families(degree):
    return [
        taylor_projector(1, degree),
        taylor_projector(2, degree, center=[0.3, -0.2]),
        lagrange_projector(nodes_by_name("real_leja", degree)),
        lagrange_projector(nodes_by_name("leja_disk", degree)),
        kergin_projector(nodes_by_name("leja_disk", degree)),
        orthogonal_projector(chebyshev_measure(2 * degree + 1), degree),
        orthogonal_projector(circle_measure(2 * degree + 1), degree),
    ]


# -- constructor validation ------------------------------------------------------


def test_level_cardinality_enforced():
    # in two variables dim P_0, P_1, P_2 = 1, 3, 6: 2 and 4 conditions fill none
    points = [PointEval([0.1 * i, 0.3 * i * i]) for i in range(4)]
    for count in (2, 4):
        with pytest.raises(ValueError, match="graded"):
            NewtonStructuredProjector(points[:count])
    P = NewtonStructuredProjector(points[:3])
    assert P.degree == 1
    assert [len(level) for level in P.levels] == [1, 2]
    with pytest.raises(ValueError):
        NewtonStructuredProjector([])
    # builders that list one condition per exponent row have none to list
    for build in (lambda: kergin_projector([]), lambda: taylor_projector(1, -1)):
        with pytest.raises(ValueError, match="level-0 condition"):
            build()


def test_mixed_variable_counts_rejected():
    with pytest.raises(ValueError, match="variable counts"):
        NewtonStructuredProjector([PointEval([0.0]), PointEval([1.0, 2.0])])


def test_lagrange_needs_graded_count():
    with pytest.raises(ValueError, match="graded"):
        lagrange_projector(np.zeros((4, 2)))  # dim P_1 = 3, dim P_2 = 6


@pytest.mark.parametrize("target, value, error, message", [
    ("degree", -1, ValueError, "degree bound must be >= 0"),
    ("degree", True, TypeError, "degree must be an integer, got True"),
    ("degree", 2.0, TypeError, r"degree must be an integer, got 2\.0"),
    ("degree", np.int64(2), None, None),
    ("truncate", -1, ValueError, "truncation degree out of range"),
    ("truncate", 4, ValueError, "truncation degree out of range"),
    ("truncate", True, TypeError, "truncation degree must be an integer, got True"),
    ("truncate", 1.0, TypeError, r"truncation degree must be an integer, got 1\.0"),
    ("truncate", np.int32(2), None, None),
])
def test_degrees_are_integers_not_bools(target, value, error, message):
    def call():
        if target == "degree":
            return Polynomial(1, value)
        P = lagrange_projector(nodes_by_name("chebyshev_leja", 3))
        return P.truncate(value, Exp(Affine([1.0], 0.0)))

    if error is None:
        result = call()
        assert type(result.degree) is int and result.degree == value
    else:
        with pytest.raises(error, match=message):
            call()


def test_results_own_their_read_only_coefficients():
    a = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
    p = Polynomial(1, 2, a)
    a[0] = 99.0
    assert p.coeffs[0] == 1.0
    q = Polynomial(1, 1, [0.5, -1.0])
    f = Exp(Affine([0.5], 0.1))
    lagrange = lagrange_projector(nodes_by_name("chebyshev_leja", 3))
    prod = lagrange.newton_product(lagrange)
    results = [p + q, p - q, q - p, -p, 2.0 * p, p * 2.0, p * q, p.truncated(1),
               p.embedded(4), p.derivative((1,)), tensor_product(p, q),
               Polynomial(2, 1, [1.0, 2.0, 3.0]) * Polynomial(2, 1, [0.0, 1.0, 1.0]),
               lagrange.apply(f), lagrange.truncate(1, f), lagrange.apply(p),
               *lagrange.truncations(f), *lagrange.newton_summands(f),
               prod.apply_product_formula(f, f), *prod.newton_summands(tensor_product(p, q))]
    for r in results:
        assert r.coeffs.dtype == np.complex128 and r.coeffs.ndim == 1
        assert not r.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            r.coeffs[0] = 1.0


def test_duplicate_point_fails_nesting():
    with pytest.raises(NestedUnisolvenceFailure, match="level 1"):
        lagrange_projector([0.0, 0.0])
    # with the gate off the build succeeds, but the singular block cannot solve
    P = lagrange_projector([0.0, 0.5, 0.0], cond_threshold=None)
    with pytest.raises(np.linalg.LinAlgError, match="level 2"):
        P.apply(Exp(Affine([1.0], 0.0)))


def test_a_truncation_sweep_names_the_singular_level():
    # the batched solve fails as a whole; the level-by-level retry names it
    P = lagrange_projector([0.0, 0.5, 0.0], cond_threshold=None)
    assert P._stacked
    with pytest.raises(np.linalg.LinAlgError, match="level 2"):
        P.truncations(Exp(Affine([1.0], 0.0)))


def test_singular_gate_reads_np_linalg_cond_without_warning():
    # the repeated node makes the level-2 block singular; the gate's s[0] / s[-1]
    # must read what np.linalg.cond reads (inf or a huge finite value) silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P = lagrange_projector([0.0, 0.5, 0.0], cond_threshold=None)
    want = []
    for j in range(P.degree + 1):
        block = P.matrix[:j + 1, :j + 1].real
        want.append(float(np.linalg.cond(block / np.max(np.abs(block), axis=1)[:, None])))
    assert np.array_equal(P.level_conds, want)
    assert P.level_conds[2] > 1e15


def test_overflowing_function_raises_from_the_solve():
    P = lagrange_projector(nodes_by_name("real_leja", 4))
    f = Exp(Affine([800.0]))
    # exp(800) overflows to inf, and inf * 0 in its complex product is nan
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            P.apply(f)
        with pytest.raises(ValueError, match="not finite"):
            P.truncate(2, f)



def test_unpadded_solves_name_the_level_that_fails():
    # 17 conditions: every solve takes an unpadded block, level by level
    nodes = nodes_by_name("real_leja", 16)
    P = lagrange_projector(nodes)
    assert not P._stacked
    # exp(-800 x) overflows at the level-1 node -1 only
    f = Exp(Affine([-800.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^degree-16 right-hand side is not finite"):
            P.apply(f)
        with pytest.raises(ValueError, match="^degree-3 right-hand side is not finite"):
            P.truncate(3, f)
        with pytest.raises(ValueError, match="^degree-1 right-hand side is not finite"):
            P.truncations(f)
        assert np.isfinite(P.truncate(0, f).coeffs).all()
    # a product that solves through its factors names the same levels: the
    # line's level-1 node enters the product at level 1.  The check comes
    # before any solve, so no path assembles the product matrix
    prod = cylinder_product(8)
    assert prod._factorwise
    f = Exp(Affine([0.0, 0.0, -800.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^degree-8 right-hand side is not finite"):
            prod.apply(f)
        assert prod._matrix is None
        with pytest.raises(ValueError, match="^degree-3 right-hand side is not finite"):
            prod.truncate(3, f)
        assert prod._matrix is None
        with pytest.raises(ValueError, match="^degree-1 right-hand side is not finite"):
            prod.truncations(f)
        assert prod._matrix is None
        assert np.isfinite(prod.truncate(0, f).coeffs).all()
    # the level-2 node repeats the level-0 node: levels 2..16 are singular,
    # and the gate is off so the build succeeds
    Q = lagrange_projector(np.concatenate([nodes[:2], nodes[:1], nodes[2:16]]),
                           cond_threshold=None)
    assert not Q._stacked
    g = Exp(Affine([1.0]))
    with pytest.raises(np.linalg.LinAlgError, match="^level 16: leading block is singular"):
        Q.apply(g)
    with pytest.raises(np.linalg.LinAlgError, match="^level 2: leading block is singular"):
        Q.truncate(2, g)
    with pytest.raises(np.linalg.LinAlgError, match="^level 2: leading block is singular"):
        Q.truncations(g)
    assert np.isfinite(Q.truncate(1, g).coeffs).all()


@pytest.mark.parametrize("case", ["stacked", "unpadded", "product_above_degree"])
def test_a_polynomial_is_evaluated_once_for_apply_truncate_and_truncations(case, monkeypatch):
    rng = np.random.default_rng(29)
    make, p = {
        "stacked": (lambda: lagrange_projector(nodes_by_name("real_leja", 6)),
                    random_poly(rng, 1, 6)),
        # above the degree: rows are assembled past the matrix
        "unpadded": (lambda: lagrange_projector(nodes_by_name("real_leja", 16)),
                     random_poly(rng, 1, 19, cplx=True)),
        # above the product degree: the factor form (L C R^T)[a, b]
        "product_above_degree": (lambda: lagrange_projector(nodes_by_name("real_leja", 4))
                                 .newton_product(taylor_projector(1, 5, center=[0.2])),
                                 random_poly(rng, 2, 7)),
    }[case]
    P = make()
    calls = []
    evaluate = P._polynomial_rhs

    def spy(q, n):
        calls.append(n)
        return evaluate(q, n)

    monkeypatch.setattr(P, "_polynomial_rhs", spy)
    k = P.degree - 2
    got = [P.apply(p), P.truncate(k, p), *P.truncations(p)]
    assert calls == [len(P.conditions)]
    # each bit for bit what a projector without a memo entry reads
    want = [make().apply(p), make().truncate(k, p), *make().truncations(p)]
    for a, b in zip(got, want, strict=True):
        assert a.degree == b.degree and np.array_equal(a.coeffs, b.coeffs)


def stack_zoo():
    """Every stock family and product with at most 16 conditions, gate off."""
    for d in (2, 3, 4, 8, 15):
        singles = [taylor_projector(1, d, center=[0.3], cond_threshold=None),
                   orthogonal_projector(chebyshev_measure(2 * d + 1), d, cond_threshold=None),
                   orthogonal_projector(circle_measure(2 * d + 1), d, cond_threshold=None)]
        for name in NODE_FAMILIES:
            nodes = nodes_by_name(name, d)
            singles.append(lagrange_projector(nodes, cond_threshold=None))
            singles.append(kergin_projector(nodes, cond_threshold=None))
        yield from singles
        if d <= 4:  # 15 conditions in two variables at d=4
            yield taylor_projector(2, d, center=[0.3, -0.2], cond_threshold=None)
            yield kergin_projector(cylinder_nodes(d)[0], cond_threshold=None)
            for P in singles:
                yield P.newton_product(singles[2], cond_threshold=None)


def test_stacked_solves_agree_with_unpadded_blocks():
    # the padded LU factors its block with other column splits, so the two
    # round apart; the normwise forward error bound of either is about
    # cond x eps relative (0.88 of it at worst here)
    rng = np.random.default_rng(41)
    eps = np.finfo(float).eps
    checked = 0
    for P in stack_zoo():
        assert P._stacked
        f = Exp(Affine(rng.uniform(-1.0, 1.0, P.nvars)))
        parts = P.truncations(f, 15)
        values = P._rhs(f, 15)
        for k, part in enumerate(parts):
            m = monomial_count(P.nvars, k)
            block = P.matrix[:m, :m]
            scale = np.max(np.abs(block), axis=1)
            want = np.linalg.solve(block / scale[:, None], values[:m] / scale)
            gap = np.linalg.norm(part.coeffs - want) / np.linalg.norm(want)
            assert gap <= P.level_conds[k] * eps
            # a single truncation reads the same padded block
            assert np.array_equal(P.truncate(k, f, 15).coeffs, part.coeffs)
        checked += 1
    assert checked > 100


def test_projectors_past_the_stack_limit_never_build_it(monkeypatch):
    built = []
    padded = NewtonStructuredProjector._padded_blocks

    def spy(self):
        built.append(self.matrix.shape[0])
        return padded(self)

    monkeypatch.setattr(NewtonStructuredProjector, "_padded_blocks", spy)
    f = Exp(Affine([0.5, -0.25]))
    line = lagrange_projector(nodes_by_name("real_leja", 16))  # 17 conditions
    prod = line.newton_product(line)  # 153 conditions
    for P, g in ((line, Exp(Affine([0.5]))), (prod, f)):
        P.apply(g)
        P.truncate(3, g)
        P.truncations(g)
    prod.apply_product_formula(Exp(Affine([0.5])), Exp(Affine([-0.25])))
    assert built == []
    small = lagrange_projector(nodes_by_name("real_leja", 15))  # 16 conditions
    small.truncations(Exp(Affine([0.5])))
    small.apply(Exp(Affine([0.5])))
    assert built == [16, 16]


def test_a_vanishing_condition_names_its_level_after_the_lower_estimates():
    from nprox.functionals import DerivativeEval
    # D^2 vanishes on 1 and x: the level-1 block has a zero row
    conditions = [PointEval([0.0]), DerivativeEval((2,), [0.0]), DerivativeEval((1,), [0.0])]
    with pytest.raises(NestedUnisolvenceFailure, match="^level 1: a condition vanishes"):
        NewtonStructuredProjector(conditions)
    # level 0's estimate (1) above the threshold is reported first
    with pytest.raises(NestedUnisolvenceFailure, match="^level 0: leading block"):
        NewtonStructuredProjector(conditions, cond_threshold=0.5)


def test_threshold_is_adjustable():
    pts = nodes_by_name("real_leja", 5)
    with pytest.raises(NestedUnisolvenceFailure, match="exceeds threshold"):
        lagrange_projector(pts, cond_threshold=1.5)
    P = lagrange_projector(pts, cond_threshold=None)  # disabled
    assert len(P.level_conds) == 6
    # past the gate, sorted Chebyshev nodes still solve to rounding at d=40
    P = lagrange_projector(chebyshev_nodes(40), cond_threshold=None)
    f = Recip(Affine([1.0], -2.0))
    grid = np.linspace(-1.0, 1.0, 2001).reshape(-1, 1)
    assert np.max(np.abs(P.apply(f).eval_many(grid) - f.values(grid))) < 1e-13


def test_product_nesting_failure_names_the_factor_level_pairs(monkeypatch):
    # the bivariate Chebyshev-Leja product stays under 1e12 through level 29
    cheb = [lagrange_projector(nodes_by_name("chebyshev_leja", d)) for d in (29, 30)]
    assert max(cheb[0].newton_product(cheb[0]).level_conds) < 1e12
    pairs = ", ".join(f"({i1}, {30 - i1})" for i1 in range(31))
    shapes = []
    svd = np.linalg.svd

    def recording(x, *args, **kwargs):
        shapes.append(x.shape)
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    with pytest.raises(NestedUnisolvenceFailure) as info:
        cheb[1].newton_product(cheb[1])
    assert str(info.value).startswith(f"level 30 (factor level pairs {pairs}): ")
    assert "1.284e+12 exceeds threshold" in str(info.value)
    # the estimate is the SVD of the level-30 block, which a product that
    # takes bounds from its factors assembles for the levels its bounds miss
    assert shapes[-1] == (496, 496)
    monkeypatch.undo()
    # its level-30 block (about 1.2838e12) is read by a real SVD: the two
    # estimates differ by about cond x 1e-17, far from the threshold
    prod = cheb[1].newton_product(cheb[1], cond_threshold=None)
    want = complex_svd_conds(prod)[30]
    assert want > 1e12
    assert abs(prod.level_conds[30] - want) < 1e-5 * want


# -- the nesting gate against a complex SVD ----------------------------------------


def complex_svd_conds(P):
    """Oracle: np.linalg.cond of each complex row-equilibrated leading block."""
    conds = []
    for j in range(P.degree + 1):
        m = monomial_count(P.nvars, j)
        block = P.matrix[:m, :m].astype(np.complex128)
        conds.append(float(np.linalg.cond(block / np.max(np.abs(block), axis=1)[:, None])))
    return np.array(conds)


NODE_FAMILIES = ("chebyshev", "chebyshev_leja", "real_leja", "leja_disk", "equiangular",
                 "integer")


def gate_zoo(d):
    """Every stock family at degree d with the gate off, then their products."""
    circle = orthogonal_projector(circle_measure(2 * d + 1), d, cond_threshold=None)
    singles = [taylor_projector(1, d, center=[0.3], cond_threshold=None),
               orthogonal_projector(chebyshev_measure(2 * d + 1), d, cond_threshold=None),
               circle]
    for name in NODE_FAMILIES:
        nodes = nodes_by_name(name, d)
        singles.append(lagrange_projector(nodes, cond_threshold=None))
        singles.append(kergin_projector(nodes, cond_threshold=None))
    yield from singles
    yield taylor_projector(2, d, center=[0.3, -0.2], cond_threshold=None)
    for P in singles:
        yield P.newton_product(P, cond_threshold=None)
    if d <= 8:  # planar Kergin rules and 4-variable products grow fast past this
        planar = kergin_projector(cylinder_nodes(d)[0], cond_threshold=None)
        yield planar
        cheb_leja = lagrange_projector(nodes_by_name("chebyshev_leja", d), cond_threshold=None)
        kergin_x_lagrange = planar.newton_product(cheb_leja, cond_threshold=None)
        yield kergin_x_lagrange
        yield kergin_x_lagrange.newton_product(circle, cond_threshold=None)


@pytest.mark.parametrize("d", [3, 8, 14])
def test_gate_matches_the_complex_svd_oracle(d):
    crossed = 0
    for P in gate_zoo(d):
        want = complex_svd_conds(P)
        got = np.array(P.level_conds)
        assert np.all(np.abs(got - want) <= np.maximum(1e-13, want * 1e-15) * want)
        assert np.array_equal(got < 1e12, want < 1e12)
        crossed += not np.all(want < 1e12)
    # at d=14 sorted Chebyshev and integer nodes cross the default threshold
    assert crossed == (0 if d < 14 else 5)


def test_gate_takes_real_svds_of_a_real_matrix(monkeypatch):
    handed = []
    svd = np.linalg.svd

    def recording(x, *args, **kwargs):
        handed.append(x.dtype)
        return svd(x, *args, **kwargs)

    cheb = lagrange_projector(nodes_by_name("chebyshev_leja", 6))
    monkeypatch.setattr(np.linalg, "svd", recording)
    cheb.newton_product(cheb)
    assert handed == [np.dtype(np.float64)] * 7
    handed.clear()
    lagrange_projector(nodes_by_name("leja_disk", 6))
    assert handed == [np.dtype(np.complex128)] * 7


# -- the certified product gate --------------------------------------------------


def cheb_leja_product(d, cond_threshold=1e12):
    cheb = lagrange_projector(nodes_by_name("chebyshev_leja", d))
    return cheb.newton_product(cheb, cond_threshold=cond_threshold)


def cylinder_product(d, cond_threshold=1e12):
    planar, line = cylinder_nodes(d)
    return kergin_projector(planar).newton_product(lagrange_projector(line),
                                                   cond_threshold=cond_threshold)


def ungated_products(case):
    """Products with the gate off, so ``level_conds`` are every level's SVD value."""
    if case.startswith("zoo"):
        return [P for P in gate_zoo(int(case[3:])) if isinstance(P, NewtonProduct)]
    if case.startswith("nested"):
        return list(nested_zoo(int(case[6:]), None))
    if case == "chebyshev_leja":
        return [cheb_leja_product(d, None) for d in range(2, 31)]
    return [cylinder_product(d, None) for d in range(2, 13)]


@pytest.mark.parametrize("case", ["zoo3", "zoo8", "zoo14", "chebyshev_leja", "cylinder",
                                  "nested6", "nested8", "nested10"])
def test_factor_bounds_hold_the_svd_estimates(case):
    # complex nodes, Taylor, orthogonal and Kergin factors, ungated factors up
    # to cond 1e17 in the zoo, blocks past 1e12 in the d=30 product, and
    # product factors; the smallest bound/SVD ratio of the nested products
    # reads 1.0, at level 0
    products = ungated_products(case)
    assert len(products) >= 11
    for P in products:
        bounds = np.array(P._factor_bounds())
        assert np.all(bounds >= np.array(P.level_conds) * (1 - 1e-12))
        assert bounds[0] == pytest.approx(1.0)


def explicit_bounds(P):
    """Oracle: ||D_k^-1 A_k||_F ||inv(A_k) (S1_k (x) S2_k)||_F from each product block."""
    a, b = P._pairs
    bounds = []
    for k in range(P.degree + 1):
        m = monomial_count(P.nvars, k)
        block = P.matrix[:m, :m].astype(np.complex128)
        scaled = np.linalg.norm(block / P._scales[k, :m, None])
        columns = P.left._scales[k, a[:m]] * P.right._scales[k, b[:m]]
        bounds.append(scaled * np.linalg.norm(np.linalg.inv(block) * columns))
    return np.array(bounds)


def triangle_bounds(P):
    """The triangle-inequality bound the Gram identity replaced.

    ||D_k^-1 A_k||_F times sum over i of ||Delta1_i S1_k||_2 ||B2_{k-i} S2_k||_2,
    each factor norm from its own SVD.
    """
    d = P.degree

    def norms(factor, summands):
        out = np.zeros((d + 1, d + 1))
        before = np.zeros((0, 0))
        for i in range(d + 1):
            m = monomial_count(factor.nvars, i)
            inverse = np.linalg.inv(factor.matrix[:m, :m].astype(np.complex128))
            x = inverse.copy()
            if summands:
                x[:before.shape[0], :before.shape[1]] -= before
            before = inverse
            for k in range(i, d + 1):
                out[i, k] = np.linalg.norm(x * factor._scales[k, :m], 2)
        return out

    left, right = norms(P.left, True), norms(P.right, False)
    return np.array([np.linalg.norm(P.matrix[:m, :m] / P._scales[k, :m, None])
                     * (left[:k + 1, k] @ right[k::-1, k])
                     for k, m in enumerate(degree_starts(P.nvars, d)[1:])])


@pytest.mark.parametrize("case", ["zoo3", "zoo8", "cylinder"])
def test_factor_bounds_read_the_exact_inverse_norm(case):
    # the Gram sum is an identity: it equals the Frobenius norm of the
    # product block's explicit inverse under the factors' row scales
    products = [P for P in ungated_products(case) if P.degree <= 8]
    assert len(products) >= 5
    for P in products:
        want = explicit_bounds(P)
        assert np.max(np.abs(np.array(P._factor_bounds()) / want - 1)) <= 1e-10


@pytest.mark.parametrize("case", ["zoo3", "zoo8", "zoo14", "chebyshev_leja", "cylinder"])
def test_factor_bounds_never_exceed_the_triangle_bound(case):
    for P in ungated_products(case):
        bounds = np.array(P._factor_bounds())
        assert np.all(bounds <= triangle_bounds(P) * (1 + 1e-12))


def gate_outcome(P):
    """``(level_conds, None)`` if P's gate passes at its threshold, else ``(None, message)``."""
    try:
        return P._check_nesting(), None
    except NestedUnisolvenceFailure as err:
        return None, str(err)


@pytest.mark.parametrize("build, d, lowest", [(cheb_leja_product, 20, 0),
                                              (cylinder_product, 8, 0),
                                              (cheb_leja_product, 28, 23)],
                         ids=["chebyshev_leja20", "cylinder8", "chebyshev_leja28"])
def test_certified_gate_decides_as_the_svd_gate(monkeypatch, build, d, lowest):
    # thresholds just above and below each level's SVD value: the certified
    # gate passes or fails where the SVD gate does, with its message.  At
    # d=28 the sweep starts at level 23, below 25, the last level certified
    # at 1e12.  The SVD values come from an ungated build, and the sweep
    # runs on a gated one, whose factor-wise decision is made at build
    exact = list(build(d, None).level_conds)
    P = build(d)
    certified = 0
    for j in range(lowest, d + 1):
        for factor in (1 - 1e-3, 1 + 1e-3):
            P.cond_threshold = exact[j] * factor
            with monkeypatch.context() as m:
                m.setattr(P, "_cond_bounds", lambda: None)
                want, want_error = gate_outcome(P)
            got, error = gate_outcome(P)
            assert error == want_error
            if got is None:
                assert error.startswith(f"{P._level_name(j if factor < 1 else j + 1)}: ")
                continue
            for k, svd in enumerate(P.svd_levels()):
                if svd:
                    assert got[k] == want[k]
                else:
                    assert got[k] == P.level_cond_bounds[k] >= want[k] * (1 - 1e-12)
                    assert got[k] * nprox.projectors._BOUND_MARGIN < P.cond_threshold
                    certified += 1
    assert certified > 0


def test_certified_levels_take_no_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(x, *args, **kwargs):
        calls.append(x.ndim)
        return svd(x, *args, **kwargs)

    cheb = lagrange_projector(nodes_by_name("chebyshev_leja", 28))
    monkeypatch.setattr(np.linalg, "svd", counting)
    prod = cheb.newton_product(cheb)
    uncertified = sum(prod.svd_levels())
    # one call per uncertified level; the factor bounds take no SVD
    assert calls == [2] * uncertified and uncertified == 3
    assert prod.svd_levels() == [False] * 26 + [True] * 3
    for k in range(26):
        assert prod.level_conds[k] == prod.level_cond_bounds[k]
    assert max(prod.level_conds) == prod.level_conds[-1] > 1e11
    # the SVD path keeps no bounds: gate off or too small
    assert cheb.newton_product(cheb, cond_threshold=None).level_cond_bounds is None
    small = lagrange_projector(nodes_by_name("chebyshev_leja", 8))
    assert small.newton_product(small).level_cond_bounds is None
    assert all(small.newton_product(small).svd_levels())
    # a product factor counts like any other: the nested product certifies
    # every level from its factors and takes no SVD of its own
    inner = small.newton_product(small)
    calls.clear()
    nested = inner.newton_product(small)  # 165 conditions
    assert len(nested.conditions) >= nprox.projectors._BOUND_CONDITIONS
    assert nested._factorwise and nested.level_cond_bounds is not None
    assert not any(nested.svd_levels()) and calls == []


def test_uncertified_levels_read_the_factors_real_rows(monkeypatch):
    handed = []
    svd = np.linalg.svd

    def recording(x, *args, **kwargs):
        handed.append(x)
        return svd(x, *args, **kwargs)

    cheb = lagrange_projector(nodes_by_name("chebyshev_leja", 28))
    monkeypatch.setattr(np.linalg, "svd", recording)
    prod = cheb.newton_product(cheb)
    # levels 26-28 take their SVDs, of blocks gathered from the factors'
    # float64 rows at their own size: the build keeps no product matrix
    assert prod._factorwise and prod._matrix is None
    levels = [j for j, svd_level in enumerate(prod.svd_levels()) if svd_level]
    assert levels == [26, 27, 28] and len(handed) == 3
    # a dense build assembles the matrix and takes an SVD of every level
    monkeypatch.setattr(nprox.projectors, "_BOUND_CONDITIONS", math.inf)
    dense = cheb.newton_product(cheb)
    assert not dense._factorwise and dense.level_cond_bounds is None
    for j, block in zip(levels, handed):
        assert block.dtype == np.float64
        assert np.array_equal(block, prod._equilibrated(j))
        assert np.array_equal(block, dense._equilibrated(j))
        assert prod.level_conds[j] == dense.level_conds[j]


def test_a_complex_factorwise_product_gathers_its_svd_blocks(monkeypatch):
    handed = []
    svd = np.linalg.svd

    def recording(x, *args, **kwargs):
        handed.append(x)
        return svd(x, *args, **kwargs)

    rotated = lagrange_projector(nodes_by_name("chebyshev_leja", 26) * np.exp(0.1j))
    f = Exp(Affine([1.0, 0.5]))
    monkeypatch.setattr(np.linalg, "svd", recording)
    prod = rotated.newton_product(rotated)
    # level 26 takes its SVD, of a complex block gathered from the factors'
    # rows at its own size: the build assembles no product matrix
    assert prod._factorwise and prod._matrix is None
    assert prod.svd_levels() == [False] * 26 + [True] and len(handed) == 1
    # the same product whose gate reads the assembled matrix's block
    monkeypatch.setattr(NewtonProduct, "_gate_block", NewtonStructuredProjector._gate_block)
    assembled = rotated.newton_product(rotated)
    assert assembled._matrix is not None and len(handed) == 2
    assert np.array_equal(handed[0], handed[1])
    assert prod.level_conds == assembled.level_conds
    assert prod.apply(f).coeffs.tobytes() == assembled.apply(f).coeffs.tobytes()
    # a dense build takes an SVD of every level; level 26's block and
    # estimate are the gathered ones.  Its solve is one LU of the product
    # matrix, so its apply agrees to rounding only
    monkeypatch.setattr(nprox.projectors, "_BOUND_CONDITIONS", math.inf)
    dense = rotated.newton_product(rotated)
    assert not dense._factorwise and dense.level_cond_bounds is None
    assert handed[0].dtype == np.complex128
    assert np.array_equal(handed[0], dense._equilibrated(26))
    assert prod.level_conds[26] == dense.level_conds[26]
    assert coeff_distance(prod.apply(f), dense.apply(f)) < 1e-5


@pytest.mark.parametrize("d", [8, 20], ids=["stacked", "level_by_level"])
def test_real_rows_solve_as_their_complex_cast(d):
    # the solves divide a float64 matrix by its row scales in complex128, so
    # they read the bits of the same matrix kept as complex128: numpy's
    # complex division by a real scale rounds apart from float64 division.
    # The nodes lie on [-1.7, 1.7], so the row scales are not all 1
    f = Exp(Affine([0.9]))
    real = lagrange_projector(1.7 * nodes_by_name("chebyshev_leja", d))
    cast = lagrange_projector(1.7 * nodes_by_name("chebyshev_leja", d))
    cast._matrix = cast.matrix.astype(np.complex128)
    assert real.matrix.dtype == np.float64 and real._stacked == (d == 8)
    for p, q in zip(real.truncations(f), cast.truncations(f), strict=True):
        assert p.coeffs.tobytes() == q.coeffs.tobytes()


def einsum_grams(P, degree, summands):
    """Oracle: the same scaled inverses' Gram tensor, one ``einsum`` per level k."""
    n = monomial_count(P.nvars, degree)
    x = np.zeros((degree + 1, n, n), dtype=P.matrix.dtype)
    for i, m in enumerate(degree_starts(P.nvars, degree)[1:]):
        x[i, :m, :m] = np.linalg.inv(P._equilibrated(i)) / P._scales[i, :m]
    if summands:
        x[1:] = x[1:] - x[:-1]
    return np.stack([np.einsum("irc,jrc->ij", (x * s).conj(), x * s)
                     for s in P._scales[:degree + 1, :n]])


@pytest.mark.parametrize("d", [3, 8])
def test_scaled_inverse_grams_match_an_einsum_oracle(d):
    # real and complex nodes, Taylor, orthogonal and Kergin factors, one and
    # two variables
    for P in factorwise_zoo(d):
        for summands in (False, True):
            inverses = nprox.projectors._scaled_inverses(P, d)
            got = nprox.projectors._scaled_inverse_grams(P, inverses, summands)
            want = einsum_grams(P, d, summands)
            assert got.dtype == (np.complex128 if np.any(P.matrix.imag) else np.float64)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# -- factor-wise product solves ----------------------------------------------------


def factorwise_zoo(d):
    """Gated factors of degree d: Taylor, orthogonal (real and circle), Lagrange
    at complex disk-Leja and Chebyshev-Leja nodes, real Kergin, and two in two
    variables (Taylor and planar Kergin)."""
    return [taylor_projector(1, d, center=[0.3]),
            orthogonal_projector(chebyshev_measure(2 * d + 1), d),
            orthogonal_projector(circle_measure(2 * d + 1), d),
            lagrange_projector(nodes_by_name("leja_disk", d)),
            lagrange_projector(nodes_by_name("chebyshev_leja", d)),
            kergin_projector(nodes_by_name("real_leja", d)),
            taylor_projector(2, d, center=[0.3, -0.2]),
            kergin_projector(cylinder_nodes(d)[0])]


def factorwise_products(monkeypatch, d):
    """Every ordered pair of ``factorwise_zoo(d)``, solving through its factors."""
    monkeypatch.setattr(nprox.projectors, "_BOUND_CONDITIONS", 1)
    singles = factorwise_zoo(d)
    for left in singles:
        for right in singles:
            prod = left.newton_product(right)
            assert prod._factorwise
            yield prod


def dense_truncations(P, values):
    """Oracle: ``np.linalg.solve`` on each leading block of the assembled matrix."""
    out = []
    for k in range(P.degree + 1):
        m = monomial_count(P.nvars, k)
        out.append(np.linalg.solve(P.matrix[:m, :m], values[:m]))
    return out


def factorwise_inputs(P, rng):
    """A separable and a non-separable test function, and polynomials within
    and above the degree."""
    split = Exp(Affine(rng.uniform(-1.0, 1.0, P.nvars)))
    joint = Exp(Affine(rng.uniform(-0.5, 0.5, P.nvars))) * Recip(Affine(
        rng.uniform(-0.3, 0.3, P.nvars), 4.0))
    return [split, joint, random_poly(rng, P.nvars, P.degree, cplx=True),
            random_poly(rng, P.nvars, P.degree + 2, cplx=True)]


@pytest.mark.parametrize("d", [2, 3])
def test_factorwise_solves_match_a_dense_solve(monkeypatch, d):
    # the forward errors of either solve are about cond x eps relative; the
    # worst level here reads 0.06 of the certified bound times eps
    eps = np.finfo(float).eps
    rng = np.random.default_rng(53 + d)
    checked = 0
    for P in factorwise_products(monkeypatch, d):
        inputs = factorwise_inputs(P, rng)
        results = []
        for f in inputs:
            P._memo = None
            results.append(([P.apply(f), *P.truncations(f), *P.newton_summands(f)],
                            [P.truncate(k, f) for k in range(d + 1)], P._rhs(f, None)))
            assert P.solve_residual < nprox.projectors._SOLVE_TOLERANCE
        assert P._matrix is None
        # the gate's row scales, from the factor rows: each product row's
        # own maxima, bit for bit on a real matrix
        dense_scales = NewtonStructuredProjector._row_scales(P)
        if np.any(P.matrix.imag):
            assert np.allclose(P._scales, dense_scales, rtol=4 * eps, atol=0.0)
        else:
            assert np.array_equal(P._scales, dense_scales)
        for f, (parts, singles, values) in zip(inputs, results):
            if isinstance(f, Polynomial):
                rows = (P.matrix[:, :monomial_count(P.nvars, f.degree)] if f.degree <= d
                        else np.array([mu.on_monomials(f.degree) for mu in P.conditions]))
                want = rows @ f.coeffs
                assert np.max(np.abs(values - want)) <= 1e-14 * np.max(np.abs(want))
            want = dense_truncations(P, values)
            for k, (got, single) in enumerate(zip(parts[1:d + 2], singles)):
                gap = np.linalg.norm(got.coeffs - want[k]) / np.linalg.norm(want[k])
                assert gap <= P.level_conds[k] * eps
                assert np.array_equal(single.coeffs, got.coeffs)
            assert np.array_equal(parts[0].coeffs, parts[d + 1].coeffs)
            for got, step in zip(parts[d + 2:], _summands_from(want), strict=True):
                assert np.linalg.norm(got.coeffs - step) <= P.level_conds[-1] * eps * \
                    np.linalg.norm(want[-1])
            # with the matrix assembled the solves still read the factors:
            # the same bits as before
            P._memo = None
            fresh = [P.apply(f), *P.truncations(f)]
            assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(fresh, parts))
            checked += 1
    assert checked == 4 * 64


def test_the_certified_cylinder_assembles_no_product_matrix(monkeypatch):
    assembled, inverses = [], []
    assemble, inv = NewtonProduct._assemble, np.linalg.inv

    def spy(self, degree):
        assembled.append(degree)
        return assemble(self, degree)

    def counting(x):
        inverses.append(x.shape)
        return inv(x)

    monkeypatch.setattr(NewtonProduct, "_assemble", spy)
    P = cylinder_product(8)
    assert len(P.conditions) == 165 and P._factorwise and not any(P.svd_levels())
    assert P.solve_residual is None
    monkeypatch.setattr(np.linalg, "inv", counting)
    f = Exp(Affine([1.0, 1.0, 1.0]))
    P.truncations(f)
    assert P.solve_residual < nprox.projectors._SOLVE_TOLERANCE
    P.apply(f)
    P.truncate(3, f)
    P.newton_summands(f)
    rng = np.random.default_rng(59)
    for degree in (6, 8, 10):
        P.apply(random_poly(rng, 3, degree, cplx=True))
    # no product row and no explicit inverse on the factor-wise path
    assert assembled == [] and inverses == []
    assert P._matrix is None
    # whatever reads the matrix assembles it once
    assert P.matrix.shape == (165, 165) and P.matrix is P.matrix
    assert assembled == [8]


def test_a_failed_guard_falls_back_to_the_dense_bits(monkeypatch):
    # the gate off keeps the dense path: its solves are the ones every
    # product took before the factor-wise path
    f = Recip(Affine([0.5, 0.5, 0.3], -1.6))
    dense = cylinder_product(8, None)
    assert not dense._factorwise
    want = [dense.apply(f), *dense.truncations(f), dense.truncate(5, f)]
    P = cylinder_product(8)
    got = [P.apply(f), *P.truncations(f), P.truncate(5, f)]
    assert not all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(got, want))
    assert P._matrix is None
    monkeypatch.setattr(nprox.projectors, "_SOLVE_TOLERANCE", 0.0)
    P = cylinder_product(8)
    got = [P.apply(f), *P.truncations(f), P.truncate(5, f)]
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.coeffs, b.coeffs)
    # the residual the guard read stays reported
    assert 0.0 < P.solve_residual < 1e-14
    assert P._matrix is not None


def _summands_from(truncations):
    """Consecutive differences of truncation coefficient vectors, each at its own length."""
    out = [truncations[0]]
    for lower, upper in zip(truncations, truncations[1:]):
        step = upper.copy()
        step[:len(lower)] -= lower
        out.append(step)
    return out


def test_polynomial_rhs_reads_the_collocation_rows():
    rng = np.random.default_rng(41)
    left, _ = make_pair(4, 4)
    prod = left.newton_product(taylor_projector(1, 5, center=[0.1]))
    for degree in (0, 2, 4):  # within the projector degree: rows of the matrix
        p = random_poly(rng, 2, degree, cplx=True)
        for k in (None, 1, 4):
            conditions = prod.conditions[:None if k is None else monomial_count(2, k)]
            want = np.array([mu.apply_to_polynomial(p) for mu in conditions])
            got = prod._rhs(p, None, k)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # above it the factors' rows take the coefficients arranged by factor ranks
    p = random_poly(rng, 2, 6, cplx=True)
    want = np.array([mu.apply_to_polynomial(p) for mu in prod.conditions])
    got = prod._rhs(p, None)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="variable count"):
        prod.apply(random_poly(rng, 3, 2))


def factor_form_products():
    """Lagrange x Taylor, planar Kergin x Lagrange and a product of that product."""
    lagrange = lagrange_projector(nodes_by_name("real_leja", 5))
    yield lagrange.newton_product(taylor_projector(1, 4, center=[0.1]))
    planar = kergin_projector(cylinder_nodes(3)[0], cond_threshold=None)
    kergin_x_lagrange = planar.newton_product(
        lagrange_projector(nodes_by_name("chebyshev_leja", 4)), cond_threshold=None)
    yield kergin_x_lagrange
    circle = orthogonal_projector(circle_measure(9), 4, cond_threshold=None)
    yield kergin_x_lagrange.newton_product(circle, cond_threshold=None)


def above_degree_polynomials(prod, rng):
    """Tensor polynomials within the factor degrees, then general ones whose
    block degrees pass a factor degree, all above the product degree."""
    n1, n2 = prod.left.nvars, prod.right.nvars
    for d1, d2 in ((prod.left.degree, prod.right.degree), (prod.degree, 1)):
        yield tensor_product(random_poly(rng, n1, d1, cplx=True),
                             random_poly(rng, n2, d2, cplx=True))
    yield random_poly(rng, prod.nvars, prod.degree + 1, cplx=True)
    yield random_poly(rng, prod.nvars, max(prod.left.degree, prod.right.degree) + 2, cplx=True)


def test_polynomial_rhs_above_the_degree_matches_the_conditions():
    rng = np.random.default_rng(43)
    for prod in factor_form_products():
        for p in above_degree_polynomials(prod, rng):
            assert p.degree > prod.degree
            want = np.array([mu.apply_to_polynomial(p) for mu in prod.conditions])
            got = prod._rhs(p, None)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            # the values of levels 0..k do not depend on k
            for k in range(prod.degree + 1):
                assert np.array_equal(prod._rhs(p, None, k),
                                      got[:monomial_count(prod.nvars, k)])
        zero = Polynomial(prod.nvars, prod.degree + 2)
        assert np.array_equal(prod._rhs(zero, None), np.zeros(len(prod.conditions)))


def test_tensor_polynomials_within_the_factor_degrees_assemble_no_rows(monkeypatch):
    rng = np.random.default_rng(47)
    products = list(factor_form_products())
    calls = []
    assemble = nprox.projectors.rows

    def spy(conditions, degree):
        calls.append(degree)
        return assemble(conditions, degree)

    monkeypatch.setattr(nprox.projectors, "rows", spy)
    for prod in products:
        p_a = random_poly(rng, prod.left.nvars, prod.left.degree, cplx=True)
        p_b = random_poly(rng, prod.right.nvars, prod.right.degree, cplx=True)
        prod.apply(tensor_product(p_a, p_b))
    assert calls == []
    # a block degree past one factor's degree assembles that factor's rows only
    prod = products[0]  # Lagrange at degree 5 x Taylor at degree 4
    prod.apply(tensor_product(random_poly(rng, 1, 5), random_poly(rng, 1, 5)))
    assert calls == [5]


CHEBYSHEV_LEJA = {"kind": "lagrange", "nodes": "chebyshev_leja"}


@pytest.mark.parametrize("d", [8, 12, 28])
def test_a_spec_built_self_product_equals_two_builds_bit_for_bit(monkeypatch, d):
    # the bivariate rate sweep's family: below the factor-wise size at d=8,
    # certified at d=12, and with three levels read by SVDs at d=28
    f = Exp(Affine([0.4, -0.7], 0.1)) * Recip(Affine([0.0, 1.0], -5.0))
    builds = []
    build = nprox.zoo.lagrange_projector

    def counting(*args, **kwargs):
        builds.append(d)
        return build(*args, **kwargs)

    monkeypatch.setattr(nprox.zoo, "lagrange_projector", counting)
    once = projector_from_spec({"kind": "newton_product",
                                "factors": [CHEBYSHEV_LEJA, dict(CHEBYSHEV_LEJA)]}, d)
    assert builds == [d] and once._twin and once.right is once.left
    twice = NewtonProduct(projector_from_spec(CHEBYSHEV_LEJA, d),
                          projector_from_spec(CHEBYSHEV_LEJA, d))
    assert len(builds) == 3 and not twice._twin
    assert once._factorwise == twice._factorwise == (d > 8)
    assert once.level_conds == twice.level_conds
    for a, b in zip(once.truncations(f), twice.truncations(f)):
        assert np.array_equal(a.coeffs, b.coeffs)
    assert once.solve_residual == twice.solve_residual
    assert (once.solve_residual is None) == (d == 8)


def test_factor_specs_equal_only_to_python_are_built_apart():
    # True == 1 in Python, but not in JSON: the second spec is read, and refused
    kergin = {"kind": "kergin", "nodes": "leja_disk", "planar": True}
    spec = {"kind": "newton_product", "factors": [kergin, {**kergin, "planar": 1}]}
    with pytest.raises(ValueError, match="planar must be true or false"):
        projector_from_spec(spec, 3)
    # a product spec of a product factor twice builds that factor once too
    inner = {"kind": "newton_product", "factors": [CHEBYSHEV_LEJA, CHEBYSHEV_LEJA]}
    outer = projector_from_spec({"kind": "newton_product", "factors": [inner, inner]}, 4)
    assert outer._twin and outer.left._twin


def test_a_twin_product_factor_assembles_its_matrix_once(monkeypatch):
    # (CL x CL) x (CL x CL) at d=12: the inner products (91 conditions) are
    # factor-wise, so neither has a matrix at build; the outer one's bounds
    # read the inner rows, which one object in both slots assembles once
    assembled = []
    assemble = NewtonProduct._assemble

    def spy(self, degree):
        assembled.append(len(self._pairs.T))
        return assemble(self, degree)

    monkeypatch.setattr(NewtonProduct, "_assemble", spy)
    inner = {"kind": "newton_product", "factors": [CHEBYSHEV_LEJA, CHEBYSHEV_LEJA]}
    outer = projector_from_spec({"kind": "newton_product", "factors": [inner, inner]}, 12)
    assert outer._factorwise and outer.left._factorwise and outer._matrix is None
    assert assembled == [91]
    assert outer.left is outer.right and outer.left.matrix is outer.right.matrix
    # one memo serves both slots: each reader takes its part before the other asks
    g, h = Exp(Affine([0.4, -0.7], 0.1)), Recip(Affine([0.5, 0.25], -2.0))
    split = Exp(Affine([0.4, -0.7, 0.0, 0.0], 0.1)) * Recip(Affine([0.0, 0.0, 0.5, 0.25], -2.0))
    apart = NewtonProduct(projector_from_spec(inner, 12), projector_from_spec(inner, 12))
    for got, want in ((outer.apply(split), apart.apply(split)),
                      (outer.apply_product_formula(g, h), apart.apply_product_formula(g, h))):
        assert np.array_equal(got.coeffs, want.coeffs)


# -- products of products ----------------------------------------------------------


def nested_zoo(d, cond_threshold=1e12):
    """Products of a two-factor product and one more factor, in both orders:
    Lagrange at complex disk-Leja nodes, real and planar Kergin, Taylor and
    orthogonal factors, gated factor-wise unless ``cond_threshold`` is None.
    The four-variable ones (1,001 conditions at d=10, where an SVD of every
    level costs about a second) stop at d=8."""
    build = {"disk": lambda: lagrange_projector(nodes_by_name("leja_disk", d)),
             "kergin": lambda: kergin_projector(nodes_by_name("real_leja", d)),
             "planar": lambda: kergin_projector(cylinder_nodes(d)[0]),
             "taylor": lambda: taylor_projector(1, d, center=[0.3]),
             "ortho": lambda: orthogonal_projector(chebyshev_measure(2 * d + 1), d)}
    triples = [("disk", "kergin", "taylor"), ("disk", "kergin", "ortho"),
               ("taylor", "ortho", "disk"), ("taylor", "ortho", "kergin"),
               ("kergin", "disk", "ortho"), ("ortho", "taylor", "kergin")]
    if d <= 8:
        triples += [("planar", "taylor", "disk"), ("disk", "planar", "taylor")]
    for first, second, third in triples:
        inner = build[first]().newton_product(build[second]())
        other = build[third]()
        for left, right in ((inner, other), (other, inner)):
            P = left.newton_product(right, cond_threshold=cond_threshold)
            assert P._factorwise == (cond_threshold is not None)
            yield P


@pytest.mark.parametrize("d", [6, 8, 10])
def test_nested_product_tables_match_the_dense_solves(d):
    # the factor-wise table against the base class's solves on the assembled
    # product matrix; the worst level reads 0.22 of level_conds[k] x eps
    eps = np.finfo(float).eps
    rng = np.random.default_rng(61 + d)
    for P in nested_zoo(d):
        values = P._rhs(Exp(Affine(rng.uniform(-1.0, 1.0, P.nvars))), None)
        got = P._solve_levels(d, values)
        assert P.solve_residual < nprox.projectors._SOLVE_TOLERANCE and P._matrix is None
        want = NewtonStructuredProjector._solve_range(P, range(d + 1), values)
        for k in range(d + 1):
            gap = np.linalg.norm(got[k] - want[k]) / np.linalg.norm(want[k])
            assert gap <= P.level_conds[k] * eps


@pytest.mark.parametrize("d", [6, 8, 10])
def test_nested_product_formula_matches_apply(d):
    # on split functions; the worst relative gap reads 1.1e-15
    eps = np.finfo(float).eps
    rng = np.random.default_rng(67 + d)
    for P in nested_zoo(d):
        f = Exp(Affine(rng.uniform(-1.0, 1.0, P.nvars)))
        want = P.apply(f).coeffs
        got = P.apply_product_formula(*f.split(P.left.nvars)).coeffs
        assert np.linalg.norm(got - want) <= max(P.level_conds) * eps * np.linalg.norm(want)


NESTED_CHEBYSHEV_LEJA = {"kind": "newton_product", "factors": [
    {"kind": "newton_product", "factors": [CHEBYSHEV_LEJA, CHEBYSHEV_LEJA]},
    {"kind": "newton_product", "factors": [CHEBYSHEV_LEJA, CHEBYSHEV_LEJA]}]}


def test_a_failed_guard_refuses_a_product_matrix_past_the_desk_limit(monkeypatch):
    # (CL x CL) x (CL x CL): at d=20 the 10,626 x 10,626 product matrix
    # passes DESK_LIMIT entries, so the fallback raises rather than assemble
    # it; at d=8 its 495 x 495 still falls back densely
    f = Exp(Affine([0.4, -0.3, 0.2, 0.5]))
    monkeypatch.setattr(nprox.projectors, "_SOLVE_TOLERANCE", 0.0)
    P = projector_from_spec(NESTED_CHEBYSHEV_LEJA, 20)
    assert P._factorwise and monomial_count(4, 20) ** 2 > DESK_LIMIT
    with pytest.raises(ValueError, match=r"solve_residual .* _SOLVE_TOLERANCE .* 10626 x 10626"):
        P.apply(f)
    assert P._matrix is None
    P = projector_from_spec(NESTED_CHEBYSHEV_LEJA, 8)
    assert P._factorwise and monomial_count(4, 8) == 495
    got = P.apply(f)
    assert P._matrix is not None
    dense = NewtonProduct(P.left, P.right, cond_threshold=None)
    assert np.array_equal(got.coeffs, dense.apply(f).coeffs)


# -- product rows gathered from the factors' rows ----------------------------------


def tensor_rows_oracle(P, degree):
    """Each condition's own values on the monomials, one condition at a time.

    A product's conditions are tensor pairs, which reach this through their
    discretization: the factor rules multiplied out over Cartesian points.
    """
    return np.array([mu.on_monomials(degree) for mu in P.conditions])


def gather_zoo(d):
    """Ordered products of the stock families at degree d, and a product of a product."""
    singles = [taylor_projector(1, d, center=[0.3], cond_threshold=None),
               orthogonal_projector(chebyshev_measure(2 * d + 1), d, cond_threshold=None),
               orthogonal_projector(circle_measure(2 * d + 1), d, cond_threshold=None)]
    for name in ("chebyshev_leja", "real_leja", "leja_disk"):
        nodes = nodes_by_name(name, d)
        singles.append(lagrange_projector(nodes, cond_threshold=None))
        singles.append(kergin_projector(nodes, cond_threshold=None))
    for left in singles:
        for right in singles:
            yield left.newton_product(right, cond_threshold=None)
    planar = kergin_projector(cylinder_nodes(d)[0], cond_threshold=None)
    inner = planar.newton_product(singles[3], cond_threshold=None)
    yield inner.newton_product(singles[2], cond_threshold=None)


def assert_rows_close(got, want):
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


# The gather and the oracle round the Kergin rules' alternating weights
# differently; that gap grows with the degree (worst 2.0e-14 at d=4, 3.6e-12
# for the degree-10 rows at d=7), so the row-relative 1e-13 holds through d=4.
@pytest.mark.parametrize("d", [2, 4])
def test_product_rows_match_the_per_condition_oracle(d):
    for prod in gather_zoo(d):
        assert_rows_close(prod.matrix, tensor_rows_oracle(prod, d))
        # above the projector degree the rows are gathered afresh
        assert_rows_close(prod._rows(d + 3), tensor_rows_oracle(prod, d + 3))


def test_collocation_rows_do_not_depend_on_history():
    K = kergin_projector(nodes_by_name("leja_disk", 6))
    L = lagrange_projector(nodes_by_name("real_leja", 6))
    first = K.newton_product(L).matrix
    # a polynomial above the product degree asks the factors for degree-12 rows
    K.newton_product(L).apply(random_poly(np.random.default_rng(5), 2, 12))
    assert np.array_equal(K.newton_product(L).matrix, first)
    mu = KerginCondition((6,), nodes_by_name("leja_disk", 6))
    before = mu.on_monomials(6)
    mu.on_monomials(15)
    assert np.array_equal(mu.on_monomials(6), before)


# -- projector identities ----------------------------------------------------------


def test_families_reproduce_polynomials():
    rng = np.random.default_rng(7)
    for P in all_families(5):
        p = random_poly(rng, P.nvars, P.degree, cplx=True)
        assert coeff_distance(P.apply(p), p) < 1e-10


def test_idempotence_on_functions():
    rng = np.random.default_rng(11)
    for P in all_families(4):
        f = Exp(Affine(0.4 * rng.standard_normal(P.nvars), 0.1))
        once = P.apply(f)
        twice = P.apply(once)
        assert coeff_distance(once, twice) < 1e-10


def test_truncation_matches_smaller_family():
    f = Exp(Affine([0.8], 0.0))
    pts = nodes_by_name("real_leja", 7)
    big = lagrange_projector(pts)
    for k in (0, 2, 5):
        small = lagrange_projector(pts[: k + 1])
        assert coeff_distance(big.truncate(k, f), small.apply(f)) < 1e-12
    # a truncation reads only its own conditions: a pole at the last node is
    # outside every lower truncation's support
    g = Recip(Affine([1.0], -pts[-1].real))
    for k in (0, 2, 5):
        small = lagrange_projector(pts[: k + 1])
        assert coeff_distance(big.truncate(k, g), small.apply(g)) < 1e-12

    O = orthogonal_projector(chebyshev_measure(17), 7)
    Ok = orthogonal_projector(chebyshev_measure(17), 4)
    assert coeff_distance(O.truncate(4, f), Ok.apply(f)) < 1e-12

    # the cylinder sweep reads its lower degrees off the top product: disk
    # and real Leja nodes nest by prefix, so the products nest too
    h = Exp(Affine([1.0, 1.0, 1.0], 0.0))
    planar, line = cylinder_nodes(8)
    top = kergin_projector(planar).newton_product(lagrange_projector(line))
    for k in (2, 5):
        planar_k, line_k = cylinder_nodes(k)
        assert np.array_equal(planar_k, planar[: k + 1])
        small = kergin_projector(planar_k).newton_product(lagrange_projector(line_k))
        assert coeff_distance(top.truncate(k, h, 21), small.apply(h, 21)) < 1e-10


def test_newton_summands_telescope_and_grade():
    rng = np.random.default_rng(3)
    for P in all_families(5):
        f = Exp(Affine(0.5 * rng.standard_normal(P.nvars), 0.0))
        summands = P.newton_summands(f)
        assert [s.degree for s in summands] == list(range(P.degree + 1))
        # one right-hand side for every truncation, bit for bit
        parts = P.truncations(f)
        for k, part in enumerate(parts):
            assert np.array_equal(part.coeffs, P.truncate(k, f).coeffs)
            step = part - parts[k - 1].embedded(k) if k else part
            assert np.array_equal(summands[k].coeffs, step.coeffs)
        total = Polynomial.zero(P.nvars, P.degree)
        for s in summands:
            total = total + s.embedded(P.degree)
        assert coeff_distance(total, P.apply(f)) < 1e-11


def test_summands_of_polynomial_input_are_its_newton_pieces():
    # for an exactly reproduced input the summands sum back to the input
    rng = np.random.default_rng(19)
    P = kergin_projector(nodes_by_name("leja_disk", 6))
    p = random_poly(rng, 1, 6, cplx=True)
    parts = P.newton_summands(p)
    total = Polynomial.zero(1, 6)
    for s in parts:
        total = total + s.embedded(6)
    assert coeff_distance(total, p) < 1e-12


def test_high_degree_taylor_reproduces_exp_coefficients():
    # rows of degree >= 21 carry falling factorials beyond the int64 range
    P = taylor_projector(1, 25)
    got = P.apply(Exp(Affine([1.0], 0.0))).coeffs
    want = np.array([1 / math.factorial(k) for k in range(26)])
    assert np.max(np.abs(got - want) / want) < 1e-12


def _hermite_genocchi_values(P, c):
    # By Hermite-Genocchi a Kergin condition of order j on exp(c.z) is
    # c^alpha times the divided difference of exp at u = nodes @ c, which is
    # entry (0, j) of expm(diag(u) + superdiagonal ones).
    return np.array([
        np.prod(c ** np.array(mu.alpha))
        * expm(np.diag(mu.nodes @ c) + np.diag(np.ones(mu.order), 1))[0, mu.order]
        for mu in P.conditions
    ])


@pytest.mark.parametrize("d", [8, 11, 12])
def test_kergin_default_exactness_matches_hermite_genocchi_oracle(d):
    # At d = 11 and 12 an uncapped 2d + 5 rule passes DESK_LIMIT.
    c = np.array([1.0, 1.0])
    P = kergin_projector(cylinder_nodes(d)[0])
    p = P.apply(Exp(Affine(c, 0.0)))
    want = _hermite_genocchi_values(P, c)
    assert np.max(np.abs(P.matrix @ p.coeffs - want) / np.abs(want)) < 1e-9
    # a bare top-level condition integrates at the same capped default
    top = want[monomial_count(2, d - 1):]
    bare = np.array([mu.apply_to_function(Exp(Affine(c, 0.0))) for mu in P.levels[-1]])
    assert np.max(np.abs(bare - top) / np.abs(top)) < 1e-9


def test_kergin_rhs_past_the_default_exactness_matches_hermite_genocchi_oracle():
    # with each alternating Grundmann-Moller weight rounded once from its
    # exact ratio, the d = 10 right-hand side at exactness 25 is off by 1.5e-11
    c = np.array([1.0, 1.0])
    P = kergin_projector(cylinder_nodes(10)[0])
    got = rhs(P.conditions, Exp(Affine(c, 0.0)), 25)
    want = _hermite_genocchi_values(P, c)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10


def test_kergin_at_coincident_nodes_is_taylor():
    c = 0.3
    K = kergin_projector(np.full(5, c))
    T = taylor_projector(1, 4, center=[c])
    f = Exp(Affine([1.0], 0.0))
    assert coeff_distance(K.apply(f), T.apply(f)) < 1e-12


def test_kergin_univariate_is_divided_difference_interpolation():
    pts = np.array([0.0, 1.0, -0.5, 0.25])
    K = kergin_projector(pts)
    f = Recip(Affine([1.0], 3.0))
    p = K.apply(f, exactness=15)  # quadrature sweet spot for this integrand
    vals = p.eval_many(pts.reshape(-1, 1))
    want = f.values(pts.reshape(-1, 1))
    assert np.max(np.abs(vals - want)) < 1e-12


def test_orthogonal_action_matches_direct_expansion():
    m = chebyshev_measure(15)
    from nprox.measures import gram_schmidt_basis

    basis = gram_schmidt_basis(m, 5)
    P = orthogonal_projector(m, 5)
    f = Recip(Affine([1.0], -2.0))
    got = P.apply(f)
    fvals = f.values(m.nodes)
    want = Polynomial.zero(1, 5)
    for i, q in enumerate(basis.polys):
        c = m.integrate_values(fvals, basis.node_values[i])
        want = want + c * q
    assert coeff_distance(got, want) < 1e-12


def test_spec_keys_are_checked():
    assert projector_from_spec({"kind": "lagrange", "nodes": "real_leja"}, 4).degree == 4
    with pytest.raises(ValueError, match="unknown projector kind"):
        projector_from_spec({"family": "lagrange", "nodes": "real_leja"}, 4)
    with pytest.raises(ValueError, match="unknown config key 'points'"):
        projector_from_spec({"kind": "lagrange", "points": "real_leja"}, 4)
    leaf = {"kind": "lagrange", "nodes": "real_leja"}
    with pytest.raises(ValueError, match="exactly two factors"):
        projector_from_spec({"kind": "newton_product", "factors": [leaf] * 3}, 4)
    with pytest.raises(ValueError, match="unknown config key 'degree'"):
        projector_from_spec({"kind": "newton_product", "factors": [leaf] * 2, "degree": 4})



# -- the last right-hand side --------------------------------------------------------


def zoo_families(degree):
    """The benchmark's zoo families: five in one variable, two in two."""
    disk = nodes_by_name("leja_disk", degree)
    return [
        taylor_projector(1, degree, center=[0.1]),
        lagrange_projector(nodes_by_name("real_leja", degree)),
        lagrange_projector(disk),
        orthogonal_projector(chebyshev_measure(64), degree),
        orthogonal_projector(circle_measure(64), degree),
        taylor_projector(2, degree, center=[0.1, -0.2]),
        kergin_projector(np.stack([disk.real, disk.imag], axis=1)),
    ]


def assert_truncations_read_alike(build, f):
    """truncate(k, f) fresh, after apply(f), and truncations(f)[k], bit for bit."""
    prod = build()
    fresh = [build().truncate(k, f) for k in range(prod.degree + 1)]
    parts = build().truncations(f)
    prod.apply(f)
    for k in range(prod.degree + 1):
        after = prod.truncate(k, f)
        assert np.array_equal(after.coeffs, fresh[k].coeffs)
        assert np.array_equal(after.coeffs, parts[k].coeffs)


def test_truncations_after_apply_match_fresh_ones_on_every_zoo_pair():
    # separable f: the product gathers its values from the factors'
    rng = np.random.default_rng(15)
    for left in zoo_families(3):
        for right in zoo_families(4):
            f = Exp(Affine(rng.uniform(-1.0, 1.0, left.nvars + right.nvars)))
            assert_truncations_read_alike(lambda: left.newton_product(right), f)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_truncations_after_apply_match_fresh_ones_unsplit(d):
    # every variable in one affine form: the batched tensor right-hand side
    planar, line = cylinder_nodes(d)
    factors = kergin_projector(planar), lagrange_projector(line)
    recip = Recip(Affine([0.5, 0.25, -0.3], -3.0))
    for f in (recip, Exp(Affine([0.3, -0.2, 0.7])) * recip):
        assert f.split(2) is None
        assert_truncations_read_alike(lambda: factors[0].newton_product(factors[1]), f)


@pytest.mark.parametrize("bad", [-5, -1, 2.7, 2.0, True, "21"])
def test_a_bad_exactness_raises(bad):
    # -5 used to act as exactness 1: the coefficients of exp(0.9 x) moved by 0.15
    P = kergin_projector(nodes_by_name("real_leja", 6))
    f = Exp(Affine([0.9]))
    for call in (lambda: P.apply(f, exactness=bad), lambda: P.truncations(f, bad),
                 lambda: P.apply(Polynomial.monomial(1, (2,)), exactness=bad),
                 lambda: rhs(P.conditions, f, bad)):
        with pytest.raises(ValueError, match="exactness"):
            call()
    # a call that would read the last right-hand side fails alike
    P.apply(f)
    with pytest.raises(ValueError, match="exactness"):
        P.truncate(3, f, bad)
    prod = P.newton_product(lagrange_projector(nodes_by_name("real_leja", 6)))
    with pytest.raises(ValueError, match="exactness"):
        prod.apply_product_formula(f, f, exactness=bad)


def test_exactness_zero_and_numpy_integers_are_valid():
    P = kergin_projector(nodes_by_name("real_leja", 6))
    f = Exp(Affine([0.9]))
    assert np.array_equal(P.apply(f, exactness=np.int64(9)).coeffs, P.apply(f, 9).coeffs)
    assert P.apply(f, exactness=0).degree == 6

# -- product structure ---------------------------------------------------------------


def make_pair(d1, d2):
    left = kergin_projector(nodes_by_name("leja_disk", d1))
    right = lagrange_projector(nodes_by_name("real_leja", d2))
    return left, right


def test_product_degree_and_level_counts():
    left, right = make_pair(5, 3)
    prod = left.newton_product(right)
    assert prod.degree == 3
    assert prod.nvars == 2
    for j, level in enumerate(prod.levels):
        assert len(level) == monomial_count(2, j) - monomial_count(2, j - 1)


def test_product_reproduces_bivariate_polynomials():
    rng = np.random.default_rng(23)
    left, right = make_pair(4, 4)
    prod = left.newton_product(right)
    p = random_poly(rng, 2, 4, cplx=True)
    assert coeff_distance(prod.apply(p), p) < 1e-10


def test_product_formula_equals_direct_application():
    left, right = make_pair(5, 5)
    prod = left.newton_product(right)
    f1 = Exp(Affine([1.0], 0.0))
    f2 = Recip(Affine([1.0], 3.0))
    joint = Exp(Affine([1.0, 0.0], 0.0)) * Recip(Affine([0.0, 1.0], 3.0))
    direct = prod.apply(joint)
    formula = prod.apply_product_formula(f1, f2)
    assert coeff_distance(direct, formula) < 1e-10

    # a factor of higher degree than the product: both paths integrate its
    # Kergin simplex means with the product's rule
    disk = leja_disk(8)[:5]
    kergin = kergin_projector(np.stack([disk.real, disk.imag], axis=1))
    prod = kergin.newton_product(taylor_projector(1, 2, center=[0.2]))
    direct = prod.apply(Exp(Affine([-0.916, 0.046, -0.407])))
    formula = prod.apply_product_formula(Exp(Affine([-0.916, 0.046])), Exp(Affine([-0.407])))
    assert coeff_distance(direct, formula) < 1e-12 * np.max(np.abs(direct.coeffs))


def summand_double_sum(prod, f1, f2, exactness=None):
    """Oracle: sum over i1 + i2 <= d of the factor summands' tensor products."""
    exactness = prod._exactness(exactness)
    s1 = prod.left.newton_summands(f1, exactness=exactness)
    s2 = prod.right.newton_summands(f2, exactness=exactness)
    d = prod.degree
    total = Polynomial.zero(prod.nvars, d)
    for i1 in range(d + 1):
        for i2 in range(d - i1 + 1):
            total = total + tensor_product(s1[i1], s2[i2]).embedded(d)
    return total


def tensor_loop_formula(prod, f1, f2, exactness=None):
    """Oracle: the sum over i1 of Delta1_i1 (x) P2_{d-i1}, one tensor product each."""
    exactness = prod._exactness(exactness)
    d = prod.degree
    s1 = prod.left.newton_summands(f1, exactness=exactness)
    p2 = prod.right.truncations(f2, exactness=exactness)
    total = Polynomial.zero(prod.nvars, d)
    for i1 in range(d + 1):
        total = total + tensor_product(s1[i1], p2[d - i1]).embedded(d)
    return total


def test_product_formula_contraction_matches_the_tensor_product_loop():
    rng = np.random.default_rng(59)
    for left in zoo_families(3):
        for right in zoo_families(4):
            prod = left.newton_product(right)
            f1 = Exp(Affine(rng.uniform(-1.0, 1.0, left.nvars)))
            f2 = Exp(Affine(rng.uniform(-1.0, 1.0, right.nvars)))
            p1 = random_poly(rng, left.nvars, prod.degree + 1, cplx=True)
            p2 = random_poly(rng, right.nvars, prod.degree + 1, cplx=True)
            for g1, g2 in ((f1, f2), (p1, p2)):
                want = tensor_loop_formula(prod, g1, g2)
                got = prod.apply_product_formula(g1, g2)
                assert got.degree == prod.degree
                assert coeff_distance(got, want) <= 1e-14 * np.max(np.abs(want.coeffs))


def test_product_formula_matches_the_summand_double_sum():
    # Kergin x Taylor on exp at an explicit exactness; the Kergin factor's
    # degree passes the product's
    disk = leja_disk(8)[:5]
    kergin = kergin_projector(np.stack([disk.real, disk.imag], axis=1))
    prod = kergin.newton_product(taylor_projector(1, 3, center=[0.2]))
    assert (kergin.degree, prod.degree) == (4, 3)
    f1, f2 = Exp(Affine([-0.916, 0.046])), Exp(Affine([-0.407], 0.1))
    want = summand_double_sum(prod, f1, f2, exactness=13)
    got = prod.apply_product_formula(f1, f2, exactness=13)
    assert coeff_distance(got, want) <= 1e-12 * np.max(np.abs(want.coeffs))
    # Lagrange x orthogonal on random complex polynomials, above and below
    # the factor degrees
    rng = np.random.default_rng(53)
    for d1, d2, deg in ((6, 4, 2), (6, 4, 7), (3, 8, 5)):
        prod = lagrange_projector(nodes_by_name("leja_disk", d1)).newton_product(
            orthogonal_projector(chebyshev_measure(2 * d2 + 1), d2))
        p1, p2 = random_poly(rng, 1, deg, cplx=True), random_poly(rng, 1, deg, cplx=True)
        want = summand_double_sum(prod, p1, p2)
        got = prod.apply_product_formula(p1, p2)
        assert coeff_distance(got, want) <= 1e-12 * np.max(np.abs(want.coeffs))


def test_residual_expansion_is_exact():
    rng = np.random.default_rng(29)
    left, right = make_pair(5, 4)
    prod = left.newton_product(right)
    p1 = random_poly(rng, 1, 5, cplx=True)
    p2 = random_poly(rng, 1, 4)
    joint = tensor_product(p1, p2)
    deg = joint.degree
    residual = joint - prod.apply(joint).embedded(deg)
    terms, bset = prod.residual_expansion(p1, p2)
    total = Polynomial.zero(2, deg)
    for i1, i2, t in terms:
        total = total + t.embedded(deg)
    assert coeff_distance(total, residual) < 1e-10
    assert bset.cardinality() == len(terms)
    assert bset.cardinality() <= (5 + 1) * (4 + 1)


def test_residual_terms_are_the_tensor_products_of_the_summands():
    rng = np.random.default_rng(31)
    for left in zoo_families(3):
        for right in zoo_families(4):
            prod = left.newton_product(right)
            p1 = random_poly(rng, left.nvars, left.degree, cplx=True)
            p2 = random_poly(rng, right.nvars, prod.degree + 1, cplx=True)
            s1, s2 = left.newton_summands(p1), right.newton_summands(p2)
            # after the product formula, as the summands' tables are kept
            prod.apply_product_formula(p1, p2)
            terms, bset = prod.residual_expansion(p1, p2)
            assert [(i1, i2) for i1, i2, _ in terms] == list(bset)
            for i1, i2, term in terms:
                want = tensor_product(s1[i1], s2[i2])
                assert (term.nvars, term.degree) == (want.nvars, want.degree)
                assert np.array_equal(term.coeffs, want.coeffs)
                assert not term.coeffs.flags.writeable


def test_apply_then_the_product_formula_evaluates_each_factor_once(monkeypatch):
    calls = []
    table = Exp.deriv_table

    def spy(self, alphas, pts):
        calls.append(self.nvars)
        return table(self, alphas, pts)

    monkeypatch.setattr(Exp, "deriv_table", spy)
    rng = np.random.default_rng(37)
    # each factor is its own object here; the next test puts one in both slots
    families = [lambda: taylor_projector(1, 6, center=[0.1]),
                lambda: lagrange_projector(nodes_by_name("real_leja", 5)),
                lambda: orthogonal_projector(chebyshev_measure(64), 8),
                lambda: taylor_projector(2, 4, center=[0.1, -0.2])]
    for build_left in families:
        for build_right in families:
            left, right = build_left(), build_right()
            prod = left.newton_product(right)
            f = Exp(Affine(rng.uniform(-1.0, 1.0, prod.nvars)))
            calls.clear()
            engine = prod.apply(f)
            assert calls == [left.nvars, right.nvars]
            formula = prod.apply_product_formula(*f.split(left.nvars))
            assert calls == [left.nvars, right.nvars]
            assert coeff_distance(engine, formula) <= 1e-12 * np.max(np.abs(engine.coeffs))


def test_one_projector_as_both_factors_shares_its_memo(monkeypatch):
    calls = []
    table = Exp.deriv_table

    def spy(self, alphas, pts):
        calls.append(self.nvars)
        return table(self, alphas, pts)

    P = taylor_projector(1, 6, center=[0.1])
    prod = P.newton_product(P)
    # one object sits in both slots, so one memo entry serves both parts
    assert prod._twin and prod.left is P and prod.right is P
    monkeypatch.setattr(Exp, "deriv_table", spy)
    f = Exp(Affine([0.4, -0.7]))
    engine = prod.apply(f)
    formula = prod.apply_product_formula(*f.split(1))
    # each reader takes one part's values before it asks for the other's, so
    # a part is evaluated again only where the other replaced it
    assert calls == [1, 1, 1, 1]
    assert coeff_distance(engine, formula) <= 1e-12 * np.max(np.abs(engine.coeffs))
    again = NewtonProduct(P, taylor_projector(1, 6, center=[0.1]))
    assert np.array_equal(engine.coeffs, again.apply(f).coeffs)
    assert np.array_equal(formula.coeffs, again.apply_product_formula(*f.split(1)).coeffs)


def test_truncations_summands_and_the_formula_share_one_table(monkeypatch):
    solves = []
    levels = NewtonStructuredProjector._solve_levels

    def spy(self, top, values):
        solves.append(top)
        return levels(self, top, values)

    monkeypatch.setattr(NewtonStructuredProjector, "_solve_levels", spy)
    left, right = lagrange_projector(nodes_by_name("real_leja", 6)), taylor_projector(1, 4)
    prod = left.newton_product(right)
    f = Exp(Affine([0.4, -0.7]))
    f1, f2 = f.split(1)
    parts = left.truncations(f1, prod._exactness(None))
    left.newton_summands(f1, prod._exactness(None))
    prod.apply_product_formula(f1, f2)
    # the left factor solved levels 0..6 once, the right factor 0..4
    assert solves == [6, 4]
    # a smaller top reads the leading rows, bit for bit a fresh table's
    fresh = lagrange_projector(nodes_by_name("real_leja", 6))
    table = left._truncation_table(f1, prod._exactness(None), 2)
    assert np.array_equal(table, fresh._truncation_table(f1, prod._exactness(None), 2))
    assert np.array_equal(table[2, :3], parts[2].coeffs)
    assert not table.flags.writeable
    assert solves == [6, 4, 2]
    # another exactness is another table
    left.truncations(f1)
    assert solves == [6, 4, 2, 6]


def test_residual_expansion_rejects_oversized_factors():
    left, right = make_pair(3, 3)
    prod = left.newton_product(right)
    with pytest.raises(ValueError, match="exceed"):
        prod.residual_expansion(
            Polynomial.monomial(1, (4,)), Polynomial.monomial(1, (1,))
        )


def test_bset_membership_and_order():
    b = BSet(4, 3, 3)
    pairs = list(b)
    assert pairs == sorted(pairs)  # ascending i1, then i2
    for i1, i2 in pairs:
        assert i1 + i2 >= 5 and i1 <= 3 and i2 <= 3
    assert (2, 3) in b and (3, 2) in b
    assert (1, 2) not in b  # sum too small
    assert (4, 4) not in b  # outside the moduli box
    assert b.cardinality() == len(pairs) == 3
    assert BSet(5, 3, 3).cardinality() == 1  # only (3, 3)
    assert BSet(6, 3, 3).cardinality() == 0  # degree at the moduli sum: empty


def test_product_on_nonseparable_function():
    # the product projector is a genuine projector on joint functions, not
    # only on separable ones: check reproduction after one application
    left, right = make_pair(4, 4)
    prod = left.newton_product(right)
    f = Exp(Affine([0.5, 0.5], 0.0)) * Recip(Affine([0.25, -0.5], 2.0))
    once = prod.apply(f)
    assert coeff_distance(prod.apply(once), once) < 1e-10


# -- tensor conditions as an index table -------------------------------------------


def comprehension_pairs(n1, n2, d):
    """Oracle: the product's (a, b) pairs, level by level, as a list comprehension."""
    s1, s2 = degree_starts(n1, d), degree_starts(n2, d)
    return [(a, b) for i in range(d + 1) for i1 in range(i + 1)
            for a in range(s1[i1], s1[i1 + 1]) for b in range(s2[i - i1], s2[i - i1 + 1])]


def test_the_pair_table_lists_the_tensor_conditions_level_by_level():
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            for d in range(11):
                pairs = nprox.projectors._tensor_pairs((n1, n2), d)
                want = np.array(comprehension_pairs(n1, n2, d), dtype=np.intp).T
                assert pairs.dtype == np.intp and np.array_equal(pairs, want)
                assert not pairs.flags.writeable
                assert nprox.projectors._tensor_pairs((n1, n2), d) is pairs


def counting_tensors(monkeypatch):
    built = []
    init = nprox.functionals.Tensor.__init__

    def spy(self, left, right):
        built.append(1)
        init(self, left, right)

    monkeypatch.setattr(nprox.functionals.Tensor, "__init__", spy)
    return built


def test_a_split_function_builds_no_tensor_condition(monkeypatch):
    built = counting_tensors(monkeypatch)
    # the factor-wise cylinder at degree 8, as the cylinder sweep runs it
    prod = cylinder_product(8)
    prod.truncations(Exp(Affine([1.0, 1.0, 1.0])))
    assert prod._factorwise and monomial_count(3, 8) == 165 and not built
    # a dense product of the zoo's size
    left, right = lagrange_projector(nodes_by_name("real_leja", 5)), taylor_projector(1, 4)
    prod = left.newton_product(right)
    f = Exp(Affine([0.4, -0.7]))
    prod.apply(f)
    for k in range(prod.degree + 1):
        prod.truncate(k, f)
    prod.apply_product_formula(*f.split(1))
    assert not prod._factorwise and not built
    # a function that does not split reads the tensor conditions, once
    prod.apply(Exp(Affine([0.5, 0.5])) * Recip(Affine([0.25, -0.5], 2.0)))
    assert len(built) == 15


def test_tensor_conditions_are_built_at_their_first_read():
    planar, line = cylinder_nodes(4)
    left, right = kergin_projector(planar), lagrange_projector(line)
    prod = left.newton_product(right)
    conditions = prod.conditions
    pairs = comprehension_pairs(2, 1, 4)
    assert len(conditions) == len(pairs) == 35
    for mu, (a, b) in zip(conditions, pairs):
        assert mu.left is left.conditions[a] and mu.right is right.conditions[b]
        assert mu.nvars == 3
    assert prod.conditions is conditions
    starts = degree_starts(3, 4)
    assert [len(level) for level in prod.levels] == [1, 3, 6, 10, 15]
    for level, lo, hi in zip(prod.levels, starts, starts[1:]):
        assert all(mu is nu for mu, nu in zip(level, conditions[lo:hi]))


@pytest.mark.parametrize("case", ["twin", "nested", "shared"])
def test_lazy_tensor_conditions_change_no_bit(case):
    def build():
        if case == "twin":
            P = lagrange_projector(nodes_by_name("chebyshev_leja", 12))
            return [P.newton_product(P)]
        if case == "nested":
            inner = kergin_projector(nodes_by_name("leja_disk", 6)).newton_product(
                lagrange_projector(nodes_by_name("real_leja", 6)))
            return [inner.newton_product(kergin_projector(nodes_by_name("real_leja", 6)))]
        # one factor object in two products, neither of them a twin
        shared = lagrange_projector(nodes_by_name("chebyshev_leja", 12))
        return [shared.newton_product(lagrange_projector(nodes_by_name("real_leja", 12))),
                lagrange_projector(nodes_by_name("real_leja", 12)).newton_product(shared)]

    eager = build()
    # each lazy product from a build of its own: on factors it shares with no
    # other product in use
    lazy = [build()[i] for i in range(len(eager))]
    for P in eager:
        P.conditions
    split = Exp(Affine(np.linspace(0.3, -0.4, lazy[0].nvars)))
    joint = split * Recip(Affine(np.full(lazy[0].nvars, 0.25), -3.0))
    for P, Q in zip(eager, lazy):
        assert Q._conditions is None
        assert P._factorwise and Q._factorwise
        assert P.level_conds == Q.level_conds
    # the eager products' solves interleave on the shared factor
    for f in (split, joint):
        for P, Q in zip(eager, lazy):
            assert np.array_equal(P.apply(f).coeffs, Q.apply(f).coeffs)
            assert P.solve_residual == Q.solve_residual
    for P, Q in zip(eager, lazy):
        assert np.array_equal(P.matrix, Q.matrix)


def scalar_level_outer(ufunc, x1, x2):
    """Oracle: entry (k, a, b) reduced in scalars, j = 0..k in turn, from 0.

    x2 is reduced over j2 <= t first, so each term is x1[a, j] times that
    reduction at t = k - j, as in a loop over j.
    """
    d = x1.shape[1] - 1
    out = np.zeros((d + 1, x1.shape[0], x2.shape[0]))
    for b in range(x2.shape[0]):
        acc = [x2[b, 0]]
        for t in range(1, d + 1):
            acc.append(float(ufunc(acc[-1], x2[b, t])))
        for a in range(x1.shape[0]):
            for k in range(d + 1):
                value = 0.0
                for j in range(k + 1):
                    value = float(ufunc(value, x1[a, j] * acc[k - j]))
                out[k, a, b] = value
    return out


def test_level_outer_reduces_each_level_in_order():
    rng = np.random.default_rng(41)
    for d in range(13):
        for n1, n2 in ((1, 1), (d + 2, 3), (2, d + 3)):
            # nonnegative, spread over decades, so the order of a sum shows
            x1 = rng.random((n1, d + 1)) * 10.0 ** rng.integers(-6, 6, (n1, d + 1))
            x2 = rng.random((n2, d + 1)) * 10.0 ** rng.integers(-6, 6, (n2, d + 1))
            for ufunc in (np.maximum, np.add):
                got = nprox.projectors._level_outer(ufunc, x1, x2)
                assert np.array_equal(got, scalar_level_outer(ufunc, x1, x2))
