"""Functionals, test functions, and simplex quadrature.

Oracles:
  * nested 1-D Gauss-Legendre quadrature for simplex integrals,
  * the exact moment expansion of Kergin conditions on monomials,
  * central finite differences for expression-tree derivatives,
  * direct closed forms for tiny cases worked by hand.
"""
import math

import numpy as np
import pytest

from nprox.functionals import (
    DerivativeEval,
    InnerProduct,
    KerginCondition,
    PointEval,
    Tensor,
    rhs,
)
from nprox.indexing import exponents
from nprox.measures import chebyshev_measure, circle_measure
from nprox.points import leja_disk, real_leja
from nprox.polynomials import Polynomial, multiply
from nprox.simplex import (
    grundmann_moller_rule,
    simplex_moment_vector,
    simplex_monomial_moment,
)
from nprox.testfunctions import (
    Affine,
    Const,
    Exp,
    PoleOnSupportError,
    PolynomialFunction,
    Product,
    Recip,
    Sum,
    TestFunction,
    coordinate,
    parse_function,
)
from nprox.zoo import (
    kergin_projector,
    lagrange_projector,
    nodes_by_name,
    orthogonal_projector,
    taylor_projector,
)


# -- oracles -----------------------------------------------------------------


def nested_simplex_quad(f, ndim, npts=24):
    """Integrate f over the unit simplex by recursive 1-D Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w

    def recurse(prefix, scale):
        depth = len(prefix)
        if depth == ndim:
            return f(np.array(prefix))
        total = 0.0
        for xi, wi in zip(x, w):
            t = scale * xi
            total += wi * scale * recurse(prefix + [t], scale - t)
        return total

    return recurse([], 1.0)


def fd_derivative(f, alpha, point, h=None):
    """Central finite differences, one variable at a time.

    The step balances truncation against roundoff, which grows like
    eps / h**order once the stencils are composed.
    """
    point = np.asarray(point, dtype=float)
    order = int(sum(alpha))
    if h is None:
        h = np.finfo(float).eps ** (1.0 / (order + 2))

    def diff(g, var):
        def out(p):
            e = np.zeros_like(p)
            e[var] = h
            return (g(p + e) - g(p - e)) / (2 * h)

        return out

    g = lambda p: f.eval(p)
    for v, a in enumerate(alpha):
        for _ in range(a):
            g = diff(g, v)
    return g(point)


def kergin_moment_values(mu, degree):
    """Exact values of a Kergin condition on the monomials of degree <= degree.

    ``D^alpha z^gamma`` is a falling-factorial multiple of ``z^(gamma-alpha)``;
    the affine simplex map t -> z0 + sum t_i (z_i - z0) turns that power into
    a polynomial in t, expanded with exact polynomial products and integrated
    term by term with the closed-form simplex moments.
    """
    j = mu.order
    E = exponents(mu.nvars, degree)
    alpha = np.asarray(mu.alpha)
    mask = np.all(E >= alpha, axis=1)
    F = np.maximum(E - alpha, 0)
    fall = np.ones(E.shape[0])
    for v, a in enumerate(mu.alpha):
        for t in range(1, a + 1):
            fall *= F[:, v] + t
    if j == 0:
        return np.prod(mu.nodes[0] ** F, axis=1)
    moments = simplex_moment_vector(j, max(degree - j, 0))
    z0 = mu.nodes[0]
    span = mu.nodes[1:] - z0
    pows = []
    for v in range(mu.nvars):
        affine = Polynomial(j, 1, np.concatenate([[z0[v]], span[:, v]]))
        col = [Polynomial.constant(j, 1.0)]
        for _ in range(int(F[:, v].max())):
            col.append(multiply(col[-1], affine))
        pows.append(col)
    vals = np.zeros(E.shape[0], dtype=np.complex128)
    for idx in np.flatnonzero(mask):
        comp = pows[0][F[idx, 0]]
        for v in range(1, mu.nvars):
            if F[idx, v]:
                comp = multiply(comp, pows[v][F[idx, v]])
        vals[idx] = fall[idx] * np.dot(comp.coeffs, moments[: comp.coeffs.shape[0]])
    return vals


# -- simplex moments and cubature ---------------------------------------------


def test_moment_closed_forms():
    assert simplex_monomial_moment([0, 0]) == pytest.approx(0.5)  # area of T_2
    assert simplex_monomial_moment([1]) == pytest.approx(0.5)  # int_0^1 t dt
    assert simplex_monomial_moment([1, 1]) == pytest.approx(1 / 24)
    assert simplex_monomial_moment([]) == 1.0


def test_moments_match_nested_quadrature():
    for beta in [(2,), (3, 1), (1, 2), (1, 1, 1), (0, 2, 1)]:
        want = nested_simplex_quad(lambda t: np.prod(t ** np.array(beta)), len(beta))
        assert simplex_monomial_moment(beta) == pytest.approx(want, rel=1e-9)


def test_moment_degree_recursion():
    # int t^(b+e_i) = int t^b * (b_i + 1) / (|b| + k + 1), from the factorials
    beta = (2, 1, 0)
    base = simplex_monomial_moment(beta)
    for i in range(3):
        bumped = list(beta)
        bumped[i] += 1
        ratio = (beta[i] + 1) / (sum(beta) + 3 + 1)
        assert simplex_monomial_moment(bumped) == pytest.approx(base * ratio, rel=1e-12)


def test_grundmann_moller_exactness():
    for ndim in (1, 2, 3, 4):
        for s in (0, 1, 2, 4):
            nodes, weights = grundmann_moller_rule(ndim, s)
            E = exponents(ndim, 2 * s + 1)
            vals = np.ones((nodes.shape[0], E.shape[0]))
            for v in range(ndim):
                vals *= nodes[:, v][:, None] ** E[:, v][None, :]
            got = weights @ vals
            want = simplex_moment_vector(ndim, 2 * s + 1)
            assert np.max(np.abs(got - want)) < 1e-13


def test_grundmann_moller_weight_sum_is_volume():
    for ndim in (1, 3, 5):
        _, weights = grundmann_moller_rule(ndim, 3)
        assert weights.sum() == pytest.approx(1 / math.factorial(ndim), rel=1e-13)


# -- test functions ------------------------------------------------------------


def test_tree_values():
    f = Exp(Affine([0.5], 0.0))
    assert f.eval([2.0]) == pytest.approx(math.e)
    g = Recip(Affine([1.0], -2.0))
    assert g.eval([0.0]) == pytest.approx(-0.5)
    h = Sum([coordinate(2, 0), Product([coordinate(2, 1), Const(2, 3.0)])])
    assert h.eval([1.0, 2.0]) == pytest.approx(7.0)


def test_tree_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    cases = [
        (Exp(Affine([0.7, -0.4], 0.1)), (1, 2)),
        (Recip(Affine([1.0, 0.5], 4.0)), (2, 1)),
        (
            Product([Exp(Affine([0.3, 0.2], 0.0)), Recip(Affine([0.5, -0.25], 3.0))]),
            (1, 1),
        ),
        (Sum([Exp(Affine([1.0, 0.0], 0.0)), coordinate(2, 1)]), (0, 1)),
    ]
    for f, alpha in cases:
        pt = rng.uniform(-0.5, 0.5, size=2)
        got = f.deriv_eval(alpha, pt)
        want = fd_derivative(f, alpha, pt)
        assert got == pytest.approx(want, rel=2e-4, abs=2e-4)


def test_tree_derivatives_vectorize():
    f = Product([Exp(Affine([1.0, 1.0], 0.0)), coordinate(2, 0)])
    pts = np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.0]])
    vals = f.deriv_values((1, 0), pts)
    singles = [f.deriv_eval((1, 0), p) for p in pts]
    assert np.allclose(vals, singles)


def test_polynomial_leaf_agrees_with_poly_calculus():
    p = Polynomial.monomial(2, (2, 1), 3.0)
    f = PolynomialFunction(p)
    assert f.deriv_eval((1, 1), [2.0, 5.0]) == pytest.approx(
        p.derivative((1, 1)).eval([2.0, 5.0])
    )


def test_pole_detection_reports_locus():
    f = Recip(Affine([1.0], -0.5))
    with pytest.raises(PoleOnSupportError) as err:
        f.eval([0.5])
    assert "pole locus" in str(err.value)
    assert f.poles()[0][1] == pytest.approx(-0.5)


def test_prefix_grammar_round_trip():
    trees = [
        ["exp", ["affine", [0.5], 0.0]],
        ["product", ["coord", 0], ["recip", ["affine", [1.0, 0.0], -2.0]]],
        ["sum", ["const", 1.5], ["affine", [[0.0, 1.0], 2.0], 0.25]],
    ]
    for tree, nvars in zip(trees, (1, 2, 2)):
        f = parse_function(tree, nvars)
        g = parse_function(f.to_tree(), nvars)
        pts = np.full((3, nvars), 0.3) + 0.1j
        assert np.allclose(f.values(pts), g.values(pts))


def test_prefix_grammar_rejects_garbage():
    with pytest.raises(ValueError):
        parse_function(["spline", 1, 2], 1)
    with pytest.raises(ValueError):
        parse_function(["affine", [1.0, 2.0], 0.0], 1)  # wrong arity
    with pytest.raises(ValueError):
        parse_function(["exp", ["sum", ["coord", 0], ["coord", 0]]], 1)


# -- functionals ----------------------------------------------------------------


def test_point_eval_is_evaluation():
    mu = PointEval([2.0, -1.0])
    p = Polynomial.monomial(2, (2, 1), 1.0)
    assert mu.apply_to_polynomial(p) == pytest.approx(-4.0)
    f = Exp(Affine([1.0, 1.0], 0.0))
    assert mu.apply_to_function(f) == pytest.approx(math.e)


def test_derivative_eval_on_monomials():
    mu = DerivativeEval((2, 0), [0.0, 0.0])
    p = Polynomial.monomial(2, (2, 0), 1.0)
    assert mu.apply_to_polynomial(p) == pytest.approx(2.0)
    q = Polynomial.monomial(2, (1, 1), 1.0)
    assert mu.apply_to_polynomial(q) == 0.0


def test_kergin_condition_hand_case():
    # alpha = (1,), nodes 0 and 1: int_0^1 (x^2)'(t) dt = 1
    mu = KerginCondition((1,), [[0.0], [1.0]])
    assert mu.apply_to_polynomial(Polynomial.monomial(1, (2,))) == pytest.approx(1.0)


def test_kergin_order_zero_is_point_eval():
    mu = KerginCondition((0, 0), [[0.3, 0.7]])
    nu = PointEval([0.3, 0.7])
    p = Polynomial.monomial(2, (2, 1), 2.0) + Polynomial.constant(2, 1.0)
    assert mu.apply_to_polynomial(p) == pytest.approx(nu.apply_to_polynomial(p))


def test_kergin_exact_values_match_quadrature_oracle():
    """Simplex-quadrature evaluation of the same condition on polynomials."""
    rng = np.random.default_rng(4)
    nodes = rng.uniform(-1, 1, size=(3, 2))
    mu = KerginCondition((1, 1), nodes)
    p = Polynomial(2, 4, rng.standard_normal(15))

    dp = p.derivative((1, 1))
    z0, d1, d2 = nodes[0], nodes[1] - nodes[0], nodes[2] - nodes[0]

    def integrand(t):
        point = z0 + t[0] * d1 + t[1] * d2
        return dp.eval(point).real

    want = nested_simplex_quad(integrand, 2)
    assert mu.apply_to_polynomial(p).real == pytest.approx(want, rel=1e-9)
    assert abs(mu.apply_to_polynomial(p).imag) < 1e-12


def test_kergin_function_path_agrees_with_polynomial_path():
    rng = np.random.default_rng(9)
    nodes = rng.uniform(-1, 1, size=(4, 2))
    mu = KerginCondition((2, 1), nodes)
    p = Polynomial(2, 5, rng.standard_normal(21) + 1j * rng.standard_normal(21))
    exact = np.dot(p.coeffs, kergin_moment_values(mu, 5))
    viaquad = mu.apply_to_function(PolynomialFunction(p), exactness=11)
    assert viaquad == pytest.approx(exact, rel=1e-10)
    assert mu.apply_to_polynomial(p) == pytest.approx(exact, rel=1e-10)


def _kergin_node_sets():
    # up to degree 10; at 12 the oracle's expansion passes DESK_LIMIT
    for d in range(1, 11):
        disk = leja_disk(16)[: d + 1]  # Leja sequences nest by prefix
        yield np.stack([disk.real, disk.imag], axis=1)
    yield real_leja(leja_disk(64))[:9].reshape(-1, 1)
    yield np.random.default_rng(17).uniform(-1, 1, size=(5, 3))


@pytest.mark.parametrize("nodes", list(_kergin_node_sets()),
                         ids=lambda nodes: f"n{nodes.shape[1]}d{nodes.shape[0] - 1}")
def test_kergin_monomial_values_match_moment_oracle(nodes):
    proj = kergin_projector(nodes, cond_threshold=None)
    for mu in proj.conditions:
        want = kergin_moment_values(mu, proj.degree)
        got = mu.on_monomials(proj.degree)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_inner_product_circle_orthonormality():
    m = circle_measure(16)
    for k in range(4):
        b = Polynomial.monomial(1, (k,))
        mu = InnerProduct(b, m)
        for l in range(4):
            val = mu.apply_to_polynomial(Polynomial.monomial(1, (l,)))
            assert val == pytest.approx(1.0 if k == l else 0.0, abs=1e-14)


def test_inner_product_conjugates_the_basis():
    m = circle_measure(8)
    b = Polynomial.monomial(1, (1,), 2j)
    mu = InnerProduct(b, m)
    # <z, (2i) z> = conj(2i) <z, z> = -2i
    assert mu.apply_to_polynomial(Polynomial.monomial(1, (1,))) == pytest.approx(-2j)


def test_tensor_of_derivative_evals_is_joint_derivative():
    a, b = [0.2], [0.4, -0.1]
    joint = DerivativeEval((1, 0, 2), np.concatenate([a, b]))
    split = Tensor(DerivativeEval((1,), a), DerivativeEval((0, 2), b))
    rng = np.random.default_rng(12)
    p = Polynomial(3, 4, rng.standard_normal(35))
    assert split.apply_to_polynomial(p) == pytest.approx(joint.apply_to_polynomial(p), rel=1e-12)


def test_tensor_factorizes_on_products():
    rng = np.random.default_rng(21)
    from nprox.polynomials import tensor_product

    p = Polynomial(1, 3, rng.standard_normal(4))
    q = Polynomial(2, 2, rng.standard_normal(6))
    combos = [
        (PointEval([0.5]), PointEval([0.1, 0.2])),
        (DerivativeEval((2,), [0.3]), PointEval([0.4, -0.2])),
        (PointEval([1.1]), KerginCondition((1, 0), [[0.0, 0.0], [1.0, 0.5]])),
    ]
    for mu, nu in combos:
        ten = Tensor(mu, nu)
        want = mu.apply_to_polynomial(p) * nu.apply_to_polynomial(q)
        got = ten.apply_to_polynomial(tensor_product(p, q))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_tensor_function_path_mixed_quadrature():
    """Tensor of point eval and Kergin condition on a separable function."""
    mu = PointEval([0.5])
    nu = KerginCondition((1, 0), [[0.0, 0.0], [0.6, 0.3]])
    ten = Tensor(mu, nu)
    # f(x, y, z) = exp(x) * exp(y + 2 z): separable, so the tensor action is
    # the product of the factor actions
    f = Product([Exp(Affine([1.0, 0.0, 0.0], 0.0)), Exp(Affine([0.0, 1.0, 2.0], 0.0))])
    fx = Exp(Affine([1.0], 0.0))
    fyz = Exp(Affine([1.0, 2.0], 0.0))
    want = mu.apply_to_function(fx) * nu.apply_to_function(fyz)
    got = ten.apply_to_function(f, exactness=15)
    assert got == pytest.approx(want, rel=1e-10)


def test_functional_linearity_sweep():
    rng = np.random.default_rng(30)
    m = chebyshev_measure(9)
    basis = Polynomial.monomial(1, (2,), 1.0)
    functionals = [
        PointEval([0.7]),
        DerivativeEval((3,), [0.2]),
        KerginCondition((2,), [[0.0], [0.5], [1.0]]),
        InnerProduct(basis, m),
    ]
    for mu in functionals:
        for _ in range(5):
            p = Polynomial(1, 4, rng.standard_normal(5) + 1j * rng.standard_normal(5))
            q = Polynomial(1, 4, rng.standard_normal(5))
            a, b = complex(rng.standard_normal()), complex(rng.standard_normal())
            left = mu.apply_to_polynomial(a * p + b * q)
            right = a * mu.apply_to_polynomial(p) + b * mu.apply_to_polynomial(q)
            assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


def test_apply_dispatch():
    mu = PointEval([0.25])
    p = Polynomial.monomial(1, (2,))
    assert mu(p) == pytest.approx(0.0625)
    assert mu(PolynomialFunction(p)) == pytest.approx(0.0625)
    with pytest.raises(TypeError):
        mu(lambda x: x)


# -- the batched right-hand side ---------------------------------------------------


def per_condition_rhs(conditions, f, exactness):
    """One condition at a time: the sum of ``w . D^alpha f(p)`` over its batches.

    Also returns each condition's absolute sum ``sum |w D^alpha f(p)|``, the
    scale of its rounding: the Grundmann-Moller weights alternate in sign, so
    a value can be far smaller than the terms that cancel into it.
    """
    values, scales = [], []
    for mu in conditions:
        total, scale = 0j, 0.0
        for w, p, a in mu.discretize(exactness):
            v = f.deriv_values(a, p)
            total += np.dot(w, v)
            scale += float(np.sum(np.abs(w * v)))
        values.append(total)
        scales.append(scale)
    return np.array(values), np.array(scales)


def assert_matches_oracle(conditions, f, exactness):
    want, scale = per_condition_rhs(conditions, f, exactness)
    got = rhs(conditions, f, exactness)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def _cheb_leja(d):
    return lagrange_projector(nodes_by_name("chebyshev_leja", d))


def _rhs_cases():
    disk = nodes_by_name("leja_disk", 6)
    planar = np.stack([disk.real, disk.imag], axis=1)
    cyl = kergin_projector(planar).newton_product(lagrange_projector(nodes_by_name("real_leja", 6)))
    yield "kergin_x_lagrange", cyl, Exp(Affine([1.0, 1.0, 1.0]))
    # Product and Recip differentiate through the Leibniz rule
    yield "kergin_x_lagrange_leibniz", cyl, Product(
        [Recip(Affine([0.5, 0.0, 0.25], -2.0)), Exp(Affine([0.3, -0.2, 0.7]))])
    yield "chebyshev_leja_squared", _cheb_leja(12).newton_product(_cheb_leja(12)), Product(
        [Recip(Affine([1.0, 0.0], -2.0)), Recip(Affine([0.0, 1.0], -5.0))])
    yield "taylor_x_orthogonal", taylor_projector(1, 6, center=[0.2]).newton_product(
        orthogonal_projector(chebyshev_measure(13), 6)), Exp(Affine([0.7, -1.1], 0.2))
    # nested products on either side; Taylor and Kergin ask derivatives of the right factor
    inner = kergin_projector(nodes_by_name("real_leja", 4)).newton_product(_cheb_leja(4))
    yield "product_of_a_product", inner.newton_product(
        taylor_projector(1, 4, center=[0.1])), Exp(Affine([0.4, 0.3, -0.6]))
    yield "product_with_a_product", orthogonal_projector(circle_measure(9), 4).newton_product(
        inner), Exp(Affine([0.4, 0.3, -0.6]))


@pytest.mark.parametrize("case", list(_rhs_cases()), ids=lambda case: case[0])
def test_rhs_matches_per_condition_oracle(case):
    _, proj, f = case
    assert_matches_oracle(proj.conditions, f, proj._exactness(None))
    # the projector's own right-hand side is the batched one
    assert np.array_equal(proj._rhs(f, None), rhs(proj.conditions, f, proj._exactness(None)))


class CountingFunction(TestFunction):
    """Wraps a test function and records the point count of each derivative call."""

    def __init__(self, inner):
        self.inner = inner
        self.nvars = inner.nvars
        self.sizes = []

    @property
    def calls(self):
        return len(self.sizes)

    def deriv_values(self, alpha, pts):
        self.sizes.append(len(pts))
        return self.inner.deriv_values(alpha, pts)


@pytest.mark.parametrize("npoints", [4095, 4096, 4097])
def test_rhs_matches_oracle_around_the_point_budget(npoints):
    f = Exp(Affine([0.9, -0.4], 0.1))

    def evaluated_sizes(conditions, f):
        counting = CountingFunction(f)
        rhs(conditions, counting, 7)
        assert max(counting.sizes) <= 4096
        return counting.sizes

    # one leaf batch of npoints rows, cut past the budget
    flat = chebyshev_measure(npoints)
    leaf = InnerProduct(Polynomial.monomial(1, (3,)), flat)
    assert_matches_oracle([leaf], Exp(Affine([0.9])), 7)
    assert len(evaluated_sizes([leaf], Exp(Affine([0.9])))) == (1 if npoints <= 4096 else 2)
    # one tensor batch of n1 x n2 = npoints rows, cut into whole left rows
    n1, n2 = {4095: (63, 65), 4096: (64, 64), 4097: (17, 241)}[npoints]
    m1, m2 = circle_measure(n1), chebyshev_measure(n2)
    lefts = [InnerProduct(Polynomial.monomial(1, (k,)), m1) for k in range(3)]
    rights = [InnerProduct(Polynomial.monomial(1, (k,)), m2) for k in range(3)]
    tensors = [Tensor(mu, nu) for mu in lefts for nu in rights]
    assert_matches_oracle(tensors, f, 7)
    # the nine conditions share their pieces while the pieces fit the budget
    # together; past it each left factor's three conditions share them
    assert sum(evaluated_sizes(tensors, f)) == (npoints if npoints <= 4096 else 3 * npoints)
    # n1 distinct pieces of n2 points each, merged into one call up to the budget
    rng = np.random.default_rng(npoints)
    n1, n2 = {4095: (63, 65), 4096: (64, 64), 4097: (17, 241)}[npoints]
    m2 = circle_measure(n2)
    merged = [Tensor(PointEval([x]), InnerProduct(Polynomial.monomial(1, (1,)), m2))
              for x in rng.uniform(-1, 1, n1)]
    assert_matches_oracle(merged, f, 7)
    assert len(evaluated_sizes(merged, f)) == (1 if npoints <= 4096 else 2)
    # npoints one-point conditions of two orders
    pts = rng.uniform(-1, 1, (npoints, 2))
    single = [PointEval(p) if i % 3 else DerivativeEval((1, 0), p) for i, p in enumerate(pts)]
    assert_matches_oracle(single, f, 7)


def test_rhs_of_one_condition_is_apply_to_function():
    mu = KerginCondition((1, 1), [[0.0, 0.0], [0.5, 0.2], [0.1, 0.9]])
    f = Exp(Affine([1.0, -0.5]))
    assert mu.apply_to_function(f, exactness=9) == rhs([mu], f, 9)[0]
    assert rhs([], f).shape == (0,)


def test_rhs_rejects_a_wrong_variable_count_before_evaluating():
    f = CountingFunction(Exp(Affine([1.0, 1.0])))
    conditions = [PointEval([0.1, 0.2]), Tensor(PointEval([0.3]), PointEval([0.4])),
                  PointEval([0.5, 0.6, 0.7])]
    with pytest.raises(ValueError, match="variable count"):
        rhs(conditions, f)
    assert f.calls == 0
    with pytest.raises(ValueError, match="variable count"):
        _cheb_leja(3).apply(f)
    assert f.calls == 0


RULE_TOO_LARGE = (r"order-14 Kergin condition at exactness 21 needs a Grundmann-Moller "
                  r"rule of 3268760 points.*lower exactness \(at most 19\)")


def test_rhs_refuses_a_kergin_rule_past_the_desk_scale():
    mu = KerginCondition((14,), np.linspace(-1.0, 1.0, 15))
    with pytest.raises(ValueError, match=RULE_TOO_LARGE):
        mu.apply_to_function(Exp(Affine([1.0])))


def test_kergin_projector_checks_its_rule_sizes_before_building_any():
    # the default exactness of a degree-14 projector is 21; its order-13 rule
    # alone would take seconds and about a gigabyte before order 14 failed
    proj = kergin_projector(nodes_by_name("real_leja", 14))
    misses = grundmann_moller_rule.cache_info().misses
    with pytest.raises(ValueError, match=RULE_TOO_LARGE):
        proj.apply(Exp(Affine([1.0])))
    assert grundmann_moller_rule.cache_info().misses == misses


def test_rhs_pole_on_a_node_names_a_point_on_the_locus():
    proj = _cheb_leja(8).newton_product(_cheb_leja(8))
    node = nodes_by_name("chebyshev_leja", 8)[3]
    pole = Affine([0.0, 1.0], -node)
    f = Product([Exp(Affine([1.0, 0.5])), Recip(pole)])
    with pytest.raises(PoleOnSupportError) as info:
        proj.apply(f)
    assert abs(pole.eval(info.value.point)) < 1e-12
