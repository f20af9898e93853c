"""Functionals, test functions, and simplex quadrature.

Oracles:
  * nested 1-D Gauss-Legendre quadrature for simplex integrals,
  * Hermite-Genocchi divided differences, read off a matrix function of a
    bidiagonal matrix (Opitz), for Kergin conditions on ridge functions,
  * the exact moment expansion of Kergin conditions on monomials,
  * central finite differences for expression-tree derivatives,
  * the per-order closed forms, one derivative order at a time, for
    derivative tables,
  * direct closed forms for tiny cases worked by hand,
  * the Grundmann-Moller rule built from its (ndim + 1)-slot multi-indices.
"""
import math
import pickle
import tracemalloc
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import linprog

import nprox.functionals
from nprox.functionals import (
    DerivativeEval,
    InnerProduct,
    KerginCondition,
    PointEval,
    Tensor,
    _check_hull_poles,
    _hull_weights,
    _kergin_order,
    rhs,
    rows,
)
from nprox.indexing import (
    DESK_LIMIT,
    exponents,
    factor_ranks,
    monomial_count,
    monomial_vandermonde,
)
from nprox.measures import chebyshev_measure, circle_measure, product_measure
from nprox.points import leja_disk, real_leja
from nprox.polynomials import Polynomial, coeff_distance, multiply
from nprox.projectors import NewtonStructuredProjector
from nprox.simplex import (
    bspline_rule,
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
    projector_from_spec,
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


def per_order_values(f, alpha, pts):
    """Oracle: ``D^alpha f`` by each node's closed form, one order per call.

    Every node is written out here, the Leibniz rule by recursion over the
    factors and a polynomial leaf through ``Polynomial.derivative``, so no
    value comes from the node's own ``deriv_table``.
    """
    alpha = tuple(int(a) for a in alpha)
    order = sum(alpha)
    if isinstance(f, Const):
        return np.full(len(pts), f.value if order == 0 else 0j)
    if isinstance(f, Affine):
        if order == 0:
            return pts @ f.coeffs + f.const
        return np.full(len(pts), f.coeffs[alpha.index(1)] if order == 1 else 0j)
    if isinstance(f, PolynomialFunction):
        return f.poly.derivative(alpha).eval_many(pts)
    if isinstance(f, (Exp, Recip)):
        coef = np.prod([f.arg.coeffs[v] ** a for v, a in enumerate(alpha)])
        u = pts @ f.arg.coeffs + f.arg.const
        if isinstance(f, Exp):
            return coef * np.exp(u)
        return (-1.0) ** order * float(math.factorial(order)) * coef * u ** (-(order + 1))
    if isinstance(f, Sum):
        out = np.zeros(len(pts), dtype=complex)
        for t in f.terms:
            out += per_order_values(t, alpha, pts)
        return out
    if isinstance(f, Product):
        head, rest = f.factors[0], f.factors[1:]
        if not rest:
            return per_order_values(head, alpha, pts)
        out = np.zeros(len(pts), dtype=complex)
        for beta in iter_product(*(range(a + 1) for a in alpha)):
            coef = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
            remainder = tuple(a - b for a, b in zip(alpha, beta))
            out += (coef * per_order_values(head, beta, pts)
                    * per_order_values(Product(rest), remainder, pts))
        return out
    raise TypeError(f"no closed form for {type(f).__name__}")


def _difference_terms(mu, a):
    """``(weight, J)`` terms whose divided differences make up mu along a.

    Along the line u = a . z + c a Kergin condition is the divided
    difference at its projected nodes (Hermite-Genocchi), a point value the
    one at one point and an order-m derivative m! times the one at m + 1
    copies of its point; an inner product sums point values.  The divided
    difference of h at x_0..x_j is entry (0, j) of h(J) for
    J = diag(x) + superdiagonal ones, and a tensor pair's is entry
    (first, last) of h at the Kronecker sum of its factors' J.
    """
    def bidiagonal(knots):
        return np.diag(knots) + np.diag(np.ones(len(knots) - 1), 1)

    if isinstance(mu, Tensor):
        k = mu.left.nvars
        return [(w1 * w2, np.kron(J1, np.eye(len(J2))) + np.kron(np.eye(len(J1)), J2))
                for w1, J1 in _difference_terms(mu.left, a[:k])
                for w2, J2 in _difference_terms(mu.right, a[k:])]
    if isinstance(mu, KerginCondition):
        return [(1.0, bidiagonal(mu.nodes @ a))]
    if isinstance(mu, DerivativeEval):
        m = sum(mu.alpha)
        return [(math.factorial(m), bidiagonal(np.full(m + 1, mu.point @ a)))]
    if isinstance(mu, PointEval):
        return [(1.0, bidiagonal(mu.point[None] @ a))]
    if isinstance(mu, InnerProduct):
        return [(w, bidiagonal(node[None] @ a))
                for w, node in zip(mu._weighted_conj(), mu.measure.nodes)]
    raise TypeError(f"no divided-difference form for {type(mu).__name__}")


def divided_difference_values(mu, f):
    """Oracle for mu on exp(a . z + c) or 1/(a . z + c): each term, then the sum.

    Returns the value and the absolute sum of its terms, the scale of its
    rounding.
    """
    a, c = f.arg.coeffs, f.arg.const
    scale = np.prod(a ** np.array(mu.alpha))
    terms = []
    for w, J in _difference_terms(mu, a):
        shifted = J + c * np.eye(len(J))
        h = expm(shifted) if isinstance(f, Exp) else np.linalg.inv(shifted)
        terms.append(scale * w * h[0, -1])
    return sum(terms), float(np.sum(np.abs(terms)))


def _kergin_factors(mu):
    if isinstance(mu, Tensor):
        return _kergin_factors(mu.left) + _kergin_factors(mu.right)
    return [mu] if isinstance(mu, KerginCondition) else []


def takes_line_rule(mu, f):
    """Whether ``rhs`` integrates mu on f along one dimension.

    f must be an exponential or a reciprocal of a real affine form, mu must
    have a Kergin factor of order 1 or more, and every Kergin factor's nodes
    must be real.
    """
    kergin = _kergin_factors(mu)
    return (isinstance(f, (Exp, Recip)) and not np.any(f.arg.coeffs.imag)
            and any(k.order > 0 for k in kergin)
            and not any(np.any(k.nodes.imag) for k in kergin))


def line_rule_of(mu, a, exactness):
    """``(weights, points)`` of mu along the real direction a, by hand.

    A Kergin factor of order 1 or more takes ``bspline_rule`` at its
    projected nodes, a point or derivative value is a point mass, an inner
    product weights its projected nodes, and a tensor pair sums every pair
    of its factors' points.  The value on g(a . z) is ``a^alpha`` times the
    weighted sum of ``g^(|alpha|)`` at the points.
    """
    if isinstance(mu, Tensor):
        k = mu.left.nvars
        w1, p1 = line_rule_of(mu.left, a[:k], exactness)
        w2, p2 = line_rule_of(mu.right, a[k:], exactness)
        return np.outer(w1, w2).ravel(), np.add.outer(p1, p2).ravel()
    if isinstance(mu, KerginCondition) and mu.order > 0:
        points, weights = bspline_rule(mu.nodes.real @ a, exactness)
        return weights, points
    if isinstance(mu, KerginCondition):
        return np.ones(1), mu.nodes[:1] @ a
    if isinstance(mu, (PointEval, DerivativeEval)):
        return np.ones(1), mu.point[None] @ a
    return mu._weighted_conj(), mu.measure.nodes @ a


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
    # rounded once from the exact ratio, far past where factorials overflow
    want = Fraction(math.factorial(90) * math.factorial(120), math.factorial(212))
    assert simplex_monomial_moment([90, 120]) == float(want)


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


def test_grundmann_moller_weights_are_rounded_exact_ratios():
    # w_i = (-1)^i denom^d / (4^s i! (d + ndim - i)!), denom = d + ndim - 2i,
    # shared by the C(ndim + s - i, ndim) nodes of block i
    for ndim, s in ((1, 0), (2, 3), (3, 7), (6, 5)):
        _, weights = grundmann_moller_rule(ndim, s)
        d = 2 * s + 1
        want = []
        for i in range(s + 1):
            w = Fraction((-1) ** i * (d + ndim - 2 * i) ** d,
                         4**s * math.factorial(i) * math.factorial(d + ndim - i))
            want += [float(w)] * math.comb(ndim + s - i, ndim)
        assert np.array_equal(weights, want)


def _compositions(total, slots):
    """Every ``slots``-tuple of nonnegative ints summing to ``total``, descending lex."""
    if slots == 1:
        return [(total,)]
    return [(lead,) + rest for lead in range(total, -1, -1)
            for rest in _compositions(total - lead, slots - 1)]


def test_grundmann_moller_rule_matches_its_barycentric_definition():
    # block i holds (2 beta_1.. + 1) / denom for every beta over ndim + 1
    # slots with |beta| = s - i; the rule reads them off a smaller table
    for ndim in range(1, 9):
        for s in range(7):
            d = 2 * s + 1
            node_blocks, weights = [], []
            for i in range(s + 1):
                betas = np.array(_compositions(s - i, ndim + 1))
                denom = d + ndim - 2 * i
                node_blocks.append((2.0 * betas[:, 1:] + 1.0) / denom)
                w = (-1) ** i * denom**d / (4**s * math.factorial(i)
                                           * math.factorial(d + ndim - i))
                weights += [w] * len(betas)
            got_nodes, got_weights = grundmann_moller_rule(ndim, s)
            assert np.array_equal(got_nodes, np.vstack(node_blocks))
            assert np.array_equal(got_weights, weights)


def test_grundmann_moller_rule_past_desk_limit_allocates_nothing():
    # its 4,457,400 nodes pass DESK_LIMIT, but the 1,961,256-row table the
    # nodes are read from does not: the node count is checked first
    assert monomial_count(10, 14) <= DESK_LIMIT < math.comb(10 + 1 + 14, 14)
    tables = exponents.cache_info().currsize
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="desk scale"):
            grundmann_moller_rule(10, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert exponents.cache_info().currsize == tables


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


def test_test_functions_are_immutable():
    # a projector finds its last right-hand side by the function's key, so a
    # function must not change under it
    coeffs = np.array([0.5, -1.0])
    affine = Affine(coeffs, 0.3)
    for form in (affine, Exp(Affine(coeffs)).arg, Recip(Affine(coeffs, 3.0)).arg):
        with pytest.raises(ValueError, match="read-only"):
            form.coeffs[0] = 7.0
    assert coeffs.flags.writeable
    coeffs[0] = 7.0
    assert affine.coeffs[0] == 0.5
    assert affine.eval([1.0, 1.0]) == pytest.approx(-0.2)
    assert isinstance(Sum([affine, affine]).terms, tuple)
    assert isinstance(Product([affine, affine]).factors, tuple)


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


def test_pole_error_pickle_round_trip():
    # a sweep's worker process raises it back to the parent by pickle
    err = PoleOnSupportError([1.0, -0.5], 0.25 - 1j, [0.5, 1.5])
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is PoleOnSupportError and str(again) == str(err)
    assert np.array_equal(again.coeffs, err.coeffs)
    assert again.const == err.const
    assert np.array_equal(again.point, err.point)


def _table_cases():
    yield "const", Const(2, 2.5 - 1j)
    yield "affine", Affine([0.5, -1.2j], 0.3)
    yield "exp", Exp(Affine([0.7, -0.4j], 0.2))
    yield "recip", Recip(Affine([1.0, 0.5], 4.0))
    yield "sum", Sum([Exp(Affine([1.0, 0.5])), Recip(Affine([0.2, -0.3], 2.0)), coordinate(2, 1)])
    yield "product", Product([Exp(Affine([0.3, 0.2])), Recip(Affine([0.5, -0.25], 3.0)),
                              coordinate(2, 0)])
    yield "polynomial", PolynomialFunction(Polynomial(2, 4, np.arange(15) * (1 - 0.5j)))


@pytest.mark.parametrize("case", list(_table_cases()), ids=lambda case: case[0])
def test_deriv_table_matches_per_order_values(case):
    _, f = case
    rng = np.random.default_rng(43)
    pts = rng.uniform(-0.4, 0.4, (30, 2)) + 1j * rng.uniform(-0.4, 0.4, (30, 2))
    alphas = [tuple(a) for a in exponents(2, 3)][::-1]  # any order, repeats allowed
    alphas.append(alphas[0])
    table = f.deriv_table(alphas, pts)
    assert table.shape == (len(alphas), len(pts))
    for row, alpha in zip(table, alphas):
        # the same arithmetic per entry, so the same bits
        want = per_order_values(f, alpha, pts)
        assert np.array_equal(row, want)
        assert np.array_equal(f.deriv_values(alpha, pts), want)
    assert f.deriv_table([], pts).shape == (0, len(pts))
    with pytest.raises(ValueError, match="derivative order"):
        f.deriv_table([(0, 0), (1,)], pts)


class TableOnly(TestFunction):
    """A node that implements ``deriv_table`` alone: ``D^alpha`` of z0^2 z1."""

    nvars = 2

    def deriv_table(self, alphas, pts):
        pts = np.asarray(pts, dtype=complex)
        z0, z1 = pts[:, 0], pts[:, 1]
        forms = {(0, 0): z0**2 * z1, (1, 0): 2 * z0 * z1, (0, 1): z0**2,
                 (1, 1): 2 * z0, (2, 0): 2 * z1, (2, 1): 2 + 0 * z0}
        return np.array([forms.get(tuple(a), 0 * z0) for a in alphas])


def test_a_node_needs_only_deriv_table():
    f = TableOnly()
    pts = np.array([[0.5, -2.0], [1j, 3.0]])
    assert np.array_equal(f.values(pts), [-0.5, -3.0])
    assert np.array_equal(f.deriv_values((1, 0), pts), [-2.0, 6j])
    assert f.eval([0.5, -2.0]) == -0.5
    assert f.deriv_eval((1, 1), [0.5, -2.0]) == 1.0
    assert f.deriv_eval((3, 0), [0.5, -2.0]) == 0.0
    with pytest.raises(ValueError, match="coordinates"):
        f.eval([0.5, -2.0, 1.0])


def test_product_deriv_table_asks_each_factor_once():
    inner = CountingFunction(Exp(Affine([0.3, 0.2])))
    f = Product([inner, Recip(Affine([0.5, -0.25], 3.0)), coordinate(2, 0)])
    pts = np.linspace(-0.5, 0.5, 14).reshape(7, 2)
    alphas = [tuple(a) for a in exponents(2, 3)]
    f.deriv_table(alphas, pts)
    assert inner.sizes == [7]


def test_deriv_table_names_a_pole_for_every_order():
    f = Recip(Affine([1.0, -1.0], 0.5))
    pts = np.array([[0.1, 0.2], [0.25, 0.75], [0.0, 0.3]])
    with pytest.raises(PoleOnSupportError) as err:
        f.deriv_table([(0, 0), (2, 1)], pts)
    assert np.array_equal(err.value.point, pts[1])


def _split_cases():
    yield "const", Const(3, 2.5 - 1j), 1
    yield "affine_left", Affine([0.5, -1.2j, 0.0, 0.0], 0.3), 2
    yield "affine_right", Affine([0.0, 0.0, 1.5, 0.2], -0.4), 2
    yield "exp", Exp(Affine([0.7, -0.4, 0.3j], 0.2)), 1
    yield "recip_left", Recip(Affine([1.0, 0.5, 0.0], 4.0)), 2
    yield "recip_right", Recip(Affine([0.0, 0.8, -0.5], -3.0)), 1
    yield "product", Product([
        Product([Exp(Affine([0.3, 0.2, -0.5, 0.1])), Const(4, 1.0)]),
        Recip(Affine([0.5, -0.25, 0.0, 0.0], 3.0)), coordinate(4, 3), Const(4, 2.0)]), 2


@pytest.mark.parametrize("case", list(_split_cases()), ids=lambda case: case[0])
def test_split_factors_every_derivative(case):
    _, f, k = case
    left, right = f.split(k)
    assert (left.nvars, right.nvars) == (k, f.nvars - k)
    rng = np.random.default_rng(41)
    pts = rng.uniform(-0.4, 0.4, (20, f.nvars)) + 1j * rng.uniform(-0.4, 0.4, (20, f.nvars))
    for alpha in exponents(f.nvars, 3):
        want = f.deriv_values(alpha, pts)
        got = left.deriv_values(alpha[:k], pts[:, :k]) * right.deriv_values(alpha[k:], pts[:, k:])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_split_drops_unit_constants_and_refuses_mixed_blocks():
    left, right = Product([Exp(Affine([1.0, 0.5])), Recip(Affine([0.0, 1.0], -3.0))]).split(1)
    assert type(left) is Exp and type(right) is Product
    mixed = [
        Recip(Affine([1.0, 1.0], -3.0)),
        Sum([coordinate(2, 0), coordinate(2, 1)]),
        PolynomialFunction(Polynomial.monomial(2, (1, 0))),
        Product([Exp(Affine([1.0, 1.0])), Recip(Affine([1.0, 1.0], -3.0))]),
    ]
    for f in mixed:
        assert f.split(1) is None


def test_prefix_grammar_round_trip():
    cases = [
        (["exp", ["affine", [0.5], 0.0]], Exp(Affine([0.5], 0.0))),
        (["product", ["coord", 0], ["recip", ["affine", [1.0, 0.0], -2.0]]],
         Product([coordinate(2, 0), Recip(Affine([1.0, 0.0], -2.0))])),
        (["sum", ["const", 1.5], ["affine", [[0.0, 1.0], 2.0], 0.25]],
         Sum([Const(2, 1.5), Affine([1j, 2.0], 0.25)])),
    ]
    for tree, want in cases:
        got = parse_function(tree, want.nvars)
        assert type(got) is type(want)
        pts = np.full((3, want.nvars), 0.3) + 0.1j
        assert np.array_equal(got.values(pts), want.values(pts))


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


def test_tensor_of_kergin_conditions_matches_the_factor_moment_oracles():
    # the pair integrates at degree - |a1| - |a2|, and so does each factor's
    # rule; a product monomial is nonzero only where both blocks survive
    # their derivatives, so that is still exact.  The degrees give the pair
    # exactness 0, 2 and 5: both parities and the one-point rule
    rng = np.random.default_rng(23)
    left = KerginCondition((2, 1), rng.uniform(-1, 1, size=(4, 2)))
    right = KerginCondition((2,), rng.uniform(-1, 1, size=(3, 1)))
    mu = Tensor(left, right)
    for degree in (5, 7, 10):
        r1, r2 = factor_ranks((2, 1), degree)
        want = kergin_moment_values(left, degree)[r1] * kergin_moment_values(right, degree)[r2]
        got = mu.on_monomials(degree)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


_DISK = leja_disk(16)[:9]


@pytest.mark.parametrize("nodes", [real_leja(leja_disk(64))[:7].reshape(-1, 1),
                                   np.stack([_DISK.real, _DISK.imag], axis=1)],
                         ids=["real6", "planar8"])
def test_kergin_projector_assembles_order_j_at_exactness_d_minus_j(nodes, monkeypatch):
    # an order-j row integrates D^alpha of monomials of degree <= d - j, so
    # it asks for the rule s = (d - j) // 2 and never the degree-d rule
    requested = set()

    def spy(ndim, s):
        requested.add((ndim, s))
        return grundmann_moller_rule(ndim, s)

    monkeypatch.setattr(nprox.functionals, "grundmann_moller_rule", spy)
    proj = kergin_projector(nodes)
    d = proj.degree
    assert requested == {(j, (d - j) // 2) for j in range(1, d + 1)}


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
    a value can be far smaller than the terms that cancel into it.  A
    condition that ``rhs`` integrates along one dimension takes its line
    rule instead (``line_rule_of``).
    """
    values, scales = [], []
    for mu in conditions:
        if takes_line_rule(mu, f):
            a, g = f.ridge()
            w, p = line_rule_of(mu, a.real, exactness)
            v = np.prod(a ** np.array(mu.alpha)) * w * g.deriv_values((sum(mu.alpha),), p)
            values.append(np.sum(v))
            scales.append(float(np.sum(np.abs(v))))
            continue
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
    # a reciprocal over every variable does not split: the nested tensor
    # conditions discretize through their factors
    yield "product_of_a_product_unsplit", inner.newton_product(
        taylor_projector(1, 4, center=[0.1])), Recip(Affine([0.5, 0.25, -0.3], -3.0))
    # the factors are asked for the product's levels only, below their own degrees
    yield "unequal_degrees", _cheb_leja(9).newton_product(
        kergin_projector(nodes_by_name("real_leja", 5))), Exp(Affine([0.6, -0.8], 0.1))


@pytest.mark.parametrize("case", list(_rhs_cases()), ids=lambda case: case[0])
def test_rhs_matches_per_condition_oracle(case):
    _, proj, f = case
    exactness = proj._exactness(None)
    assert_matches_oracle(proj.conditions, f, exactness)
    # the projector's own right-hand side at every truncation degree; on a
    # separable f it is gathered from the factors' values, which round apart
    # from the batched tensor sums
    want, scale = per_condition_rhs(proj.conditions, f, exactness)
    for k in range(proj.degree + 1):
        n = monomial_count(proj.nvars, k)
        got = proj._rhs(f, None, k)
        assert got.shape == (n,)
        assert np.all(np.abs(got - want[:n]) <= 1e-13 * scale[:n])
    if f.split(proj.left.nvars) is None:
        # any other f takes the batched path
        assert np.array_equal(proj._rhs(f, None), rhs(proj.conditions, f, exactness))


class CountingFunction(TestFunction):
    """Wraps a test function and records the point count of each derivative call.

    The two parts of a split count into the same list as the whole.
    """

    def __init__(self, inner, sizes=None):
        self.inner = inner
        self.nvars = inner.nvars
        self.sizes = [] if sizes is None else sizes

    def split(self, k):
        parts = self.inner.split(k)
        if parts is None:
            return None
        return tuple(CountingFunction(p, self.sizes) for p in parts)

    @property
    def calls(self):
        return len(self.sizes)

    def deriv_table(self, alphas, pts):
        self.sizes.append(len(pts))
        return self.inner.deriv_table(alphas, pts)


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


def test_a_truncation_evaluates_its_own_factor_levels_only():
    # the Lagrange factor has degree 8, the product 5: evaluating a factor
    # past the levels asked for would add points
    prod = kergin_projector(nodes_by_name("real_leja", 5)).newton_product(_cheb_leja(8))
    f = Exp(Affine([0.8, -0.6], 0.1))
    f1, f2 = f.split(1)
    exactness = prod._exactness(None)
    for k in range(prod.degree + 1):
        want = 0
        for factor, g in ((prod.left, f1), (prod.right, f2)):
            own = CountingFunction(g)
            rhs(factor.conditions[:monomial_count(1, k)], own, exactness)
            want += sum(own.sizes)
        counting = CountingFunction(f)
        prod.truncate(k, counting)
        assert sum(counting.sizes) == want
    counting = CountingFunction(f)
    prod.apply(counting)
    assert sum(counting.sizes) == want


def test_apply_then_every_truncation_evaluates_f_once():
    prod = kergin_projector(nodes_by_name("real_leja", 5)).newton_product(_cheb_leja(8))
    f = CountingFunction(Exp(Affine([0.8, -0.6], 0.1)))
    prod.apply(f)
    once = list(f.sizes)
    for k in range(prod.degree + 1):
        prod.truncate(k, f)
    prod.truncations(f)
    prod.newton_summands(f)
    # an explicit exactness equal to the default is the same exactness
    prod.truncate(2, f, prod._exactness(None))
    assert f.sizes == once
    assert not prod._rhs(f, None).flags.writeable


def test_another_function_or_exactness_or_a_higher_degree_evaluates_again():
    prod = kergin_projector(nodes_by_name("real_leja", 5)).newton_product(_cheb_leja(8))
    f = CountingFunction(Exp(Affine([0.8, -0.6], 0.1)))
    prod.truncate(2, f)
    calls = f.calls
    # a node without its own key is equal to itself only
    g = CountingFunction(Exp(Affine([0.8, -0.6], 0.1)))
    prod.truncate(2, g)
    assert g.calls == calls
    prod.truncate(2, f, prod._exactness(None) - 2)
    assert f.calls == 2 * calls
    prod.truncate(2, f)
    assert f.calls == 3 * calls
    prod.truncate(3, f)
    assert f.calls > 3 * calls


def test_a_pole_raises_again_and_keeps_nothing():
    pts = nodes_by_name("real_leja", 7)
    P = lagrange_projector(pts)
    # the pole sits at the last node, outside the degree-2 truncation's support
    f = CountingFunction(Recip(Affine([1.0], -pts[-1].real)))
    want = P.truncate(2, f)
    calls = f.calls
    for _ in range(2):
        with pytest.raises(PoleOnSupportError):
            P.apply(f)
    assert f.calls == calls + 2
    # the failed evaluations left the degree-2 values in place
    assert np.array_equal(P.truncate(2, f).coeffs, want.coeffs)
    assert f.calls == calls + 2


def test_keys_name_functions_by_value():
    a = Affine([0.5, -1.0], 0.3)
    twin = Affine(np.array([0.5, -1.0]), 0.3)
    assert a.key() == twin.key() and Exp(a).key() == Exp(twin).key()
    differ = [Exp(a), Recip(a), a, Exp(Affine([0.5, -1.0], 0.4)),
              Exp(Affine([0.5, 1.0], 0.3)), Exp(Affine([-0.5, -1.0], 0.3)),
              Exp(Affine([0.5, -1.0], -0.0)), Exp(Affine([0.5, -1.0], 0.0)),
              Const(2, 0.3), Const(2, -0.3), Const(1, 0.3),
              Sum([Exp(a), Recip(a)]), Sum([Recip(a), Exp(a)]), Product([Exp(a), Recip(a)]),
              PolynomialFunction(Polynomial(2, 1, [0.3, 0.5, -1.0])),
              PolynomialFunction(Polynomial(2, 2, [0.3, 0.5, -1.0, 0, 0, 0]))]
    keys = [f.key() for f in differ]
    assert len(set(keys)) == len(keys)
    # a split part has the key of the same function built directly
    left, right = Exp(Affine([0.5, -1.0, 0.25], 0.3)).split(2)
    assert left.key() == Exp(a).key()
    assert right.key() == Exp(Affine([0.25])).key()
    assert Sum([Exp(a), Recip(a)]).key() == Sum([Exp(twin), Recip(twin)]).key()
    # a node that defines no key is equal to itself only
    counting = CountingFunction(Exp(a))
    assert counting.key() == counting.key()
    assert counting.key() != CountingFunction(Exp(a)).key()


def count_deriv_tables(monkeypatch, cls):
    """Record the point count of every ``cls.deriv_table`` call."""
    sizes = []
    table = cls.deriv_table

    def spy(self, alphas, pts):
        sizes.append(len(pts))
        return table(self, alphas, pts)

    monkeypatch.setattr(cls, "deriv_table", spy)
    return sizes


def test_equal_functions_share_the_last_right_hand_side(monkeypatch):
    prod = kergin_projector(nodes_by_name("real_leja", 5)).newton_product(_cheb_leja(8))
    sizes = count_deriv_tables(monkeypatch, Exp)
    want = prod.truncate(2, Exp(Affine([0.8, -0.6], 0.1)))
    calls = len(sizes)
    # an equal function built afresh reads the kept values
    again = prod.truncate(2, Exp(Affine(np.array([0.8, -0.6]), 0.1)))
    assert len(sizes) == calls
    assert np.array_equal(again.coeffs, want.coeffs)
    # another constant, another coefficient sign or another exactness evaluate again
    for f, exactness in ((Exp(Affine([0.8, -0.6], 0.2)), None),
                         (Exp(Affine([0.8, 0.6], 0.1)), None),
                         (Exp(Affine([0.8, -0.6], 0.1)), prod._exactness(None) - 2)):
        prod.truncate(2, f, exactness)
        assert len(sizes) > calls
        calls = len(sizes)
    # the reciprocal of the same affine form is another function
    recip = count_deriv_tables(monkeypatch, Recip)
    prod.truncate(2, Recip(Affine([0.8, -0.6], 3.0)))
    first = len(recip)
    prod.truncate(2, Exp(Affine([0.8, -0.6], 3.0)))
    prod.truncate(2, Recip(Affine([0.8, -0.6], 3.0)))
    assert len(recip) == 2 * first


def test_an_equal_degree_polynomial_never_reads_another_table(monkeypatch):
    solves = []
    levels = NewtonStructuredProjector._solve_levels

    def spy(self, top, values):
        solves.append(top)
        return levels(self, top, values)

    monkeypatch.setattr(NewtonStructuredProjector, "_solve_levels", spy)
    rng = np.random.default_rng(23)
    P = lagrange_projector(nodes_by_name("leja_disk", 6))
    p = Polynomial(1, 4, rng.standard_normal(5))
    q = Polynomial(1, 4, rng.standard_normal(5))
    first = P.truncations(p)
    # equal coefficients in a new polynomial read the table
    P.truncations(Polynomial(1, 4, p.coeffs))
    assert solves == [6]
    # another polynomial of the same degree, or the same coefficients at
    # another storage degree, solves afresh
    inputs = (q, p.embedded(5))
    got = [P.truncations(g) for g in inputs]
    assert solves == [6, 6, 6]
    for g, parts in zip(inputs, got):
        fresh = lagrange_projector(nodes_by_name("leja_disk", 6)).truncations(g)
        for part, want in zip(parts, fresh):
            assert np.array_equal(part.coeffs, want.coeffs)
    assert not np.array_equal(got[0][4].coeffs, first[4].coeffs)


def _point_cases():
    yield "taylor_1d", taylor_projector(1, 12, center=[0.2]).conditions
    yield "taylor_2d", taylor_projector(2, 6, center=[0.1, -0.2]).conditions
    yield "lagrange_real", lagrange_projector(nodes_by_name("real_leja", 14)).conditions
    yield "lagrange_complex", lagrange_projector(nodes_by_name("leja_disk", 14)).conditions
    point = [0.3, -0.1]
    yield "mixed_orders_at_one_point", [PointEval(point), DerivativeEval((2, 1), point),
                                        DerivativeEval((0, 3), point), PointEval(point),
                                        DerivativeEval((1, 0), point)]


@pytest.mark.parametrize("case", list(_point_cases()), ids=lambda case: case[0])
def test_grouped_point_values_equal_the_per_condition_path(case):
    _, conditions = case
    nvars = conditions[0].nvars
    a = np.array([0.7, -0.4][:nvars])
    for f in (Exp(Affine(a, 0.1)), Recip(Affine(a, 3.0)),
              Product([Exp(Affine(a, 0.1)), Recip(Affine(a, 3.0))])):
        counting = CountingFunction(f)
        got = rhs(conditions, counting)
        assert counting.calls == 1
        want = [rhs([mu], f)[0] for mu in conditions]
        assert np.array_equal(got, want)


def test_inner_products_on_one_measure_share_one_evaluation():
    f = Exp(Affine([0.9, -0.4], 0.1))
    measure = product_measure(chebyshev_measure(9), circle_measure(9))
    conditions = orthogonal_projector(measure, 4).conditions
    counting = CountingFunction(f)
    got = rhs(conditions, counting)
    assert counting.sizes == [81]
    want, scale = per_condition_rhs(conditions, f, 7)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    # a condition's value does not depend on which others share the call
    for i, mu in enumerate(conditions):
        assert rhs([mu], f)[0] == got[i]
    # two measures, two evaluations; one-variable conditions in between
    line = orthogonal_projector(chebyshev_measure(11), 5).conditions
    other = orthogonal_projector(circle_measure(12), 5).conditions
    mixed = line[:3] + other[:3] + [PointEval([0.5]), DerivativeEval((2,), [0.1])] + line[3:]
    g = Exp(Affine([0.9], 0.1))
    counting = CountingFunction(g)
    got = rhs(mixed, counting)
    assert sorted(counting.sizes) == [2, 11, 12]
    assert_matches_oracle(mixed, g, 7)
    assert np.array_equal(got, [rhs([mu], g)[0] for mu in mixed])


def test_cylinder_right_hand_side_evaluates_each_point_once():
    # every derivative order of a Kergin level shares one deriv_table call,
    # so the d=8 product passes the test function its distinct quadrature
    # points and nodes once each (one call per order passed 1,385,669)
    disk = nodes_by_name("leja_disk", 8)
    planar = kergin_projector(np.stack([disk.real, disk.imag], axis=1))
    prod = planar.newton_product(lagrange_projector(nodes_by_name("real_leja", 8)))
    counting = CountingFunction(Exp(Affine([1.0, 1.0, 1.0])))
    prod.truncations(counting)
    assert sum(counting.sizes) == 167_958


def test_derivative_conditions_at_one_point_share_one_call():
    # a Taylor projector's conditions all sit at its center
    proj = taylor_projector(2, 6, center=[0.1, -0.2])
    f = Exp(Affine([0.9, -0.4], 0.1))
    counting = CountingFunction(f)
    got = rhs(proj.conditions, counting)
    assert counting.sizes == [1]
    want = [f.deriv_eval(mu.alpha, mu.point) for mu in proj.conditions]
    assert np.array_equal(got, want)


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
    # complex nodes have no B-spline rule and keep Grundmann-Moller
    mu = KerginCondition((14,), nodes_by_name("leja_disk", 14))
    with pytest.raises(ValueError, match=RULE_TOO_LARGE):
        mu.apply_to_function(Exp(Affine([1.0])))


def test_kergin_projector_checks_its_rule_sizes_before_building_any():
    # the default exactness of a degree-14 projector is 21; its order-13 rule
    # alone would take seconds and about a gigabyte before order 14 failed
    proj = kergin_projector(nodes_by_name("leja_disk", 14))
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


@pytest.mark.parametrize("coeffs", [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], ids=["left", "nested_right"])
def test_rhs_pole_in_a_factor_block_is_named_in_the_product_variables(coeffs):
    proj = _cheb_leja(6).newton_product(_cheb_leja(6).newton_product(_cheb_leja(6)))
    node = nodes_by_name("chebyshev_leja", 6)[2]
    pole = Affine(coeffs, -node)
    f = Product([Exp(Affine([1.0, 0.5, -0.3])), Recip(pole)])
    with pytest.raises(PoleOnSupportError) as info:
        proj.apply(f)
    assert np.array_equal(info.value.coeffs, pole.coeffs)
    assert info.value.const == pole.const
    assert abs(pole.eval(info.value.point)) < 1e-12


# -- Kergin conditions along one dimension ------------------------------------


def _complete_homogeneous(knots, m):
    """h_m(knots), exactly: the divided difference of x^(m + j) at j + 1 knots."""
    h = [Fraction(1)] + [Fraction(0)] * m
    for t in map(Fraction, knots):
        for k in range(1, m + 1):
            h[k] += t * h[k - 1]
    return h[m]


@pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "repeated"])
def test_bspline_rule_is_exact_to_its_exactness(repeat):
    # int_{T_j} x^m = h_m(knots) m! / (m + j)! along the simplex image of the
    # knots, repeated ones included; the weights are positive
    rng = np.random.default_rng(41)
    for j in range(1, 9):
        knots = rng.uniform(-1, 1, j + 1)
        if repeat:
            knots[1::2] = knots[0]
        for exactness in range(12):
            points, weights = bspline_rule(knots, exactness)
            assert np.all(weights > 0)
            assert math.fsum(weights) == pytest.approx(1 / math.factorial(j), rel=1e-14)
            cells = len(set(knots.tolist())) - 1
            assert points.size == max(cells * ((exactness + j + 1) // 2), 1)
            for m in range(exactness + 1):
                want = float(_complete_homogeneous(knots, m) * math.factorial(m)
                             / math.factorial(m + j))
                got = math.fsum(weights * points ** m)
                assert abs(got - want) <= 1e-14 * math.fsum(weights * np.abs(points) ** m)


def test_a_line_rule_past_the_desk_scale_is_refused_before_it_is_built():
    # 500,001 points per interval would take a 2 TB eigenproblem
    with pytest.raises(ValueError, match="pass a lower exactness"):
        bspline_rule([0.0, 1.0], 10 ** 6)
    mu = KerginCondition((1,), [[0.0], [1.0]])
    with pytest.raises(ValueError, match="pass a lower exactness"):
        mu.apply_to_function(Exp(Affine([1.0])), exactness=10 ** 6)


def test_bspline_rule_at_coincident_knots_is_a_point_mass():
    points, weights = bspline_rule([0.3] * 5, 21)
    assert points.tolist() == [0.3] and weights.tolist() == [1 / 24]


@pytest.mark.parametrize("f", [Exp(Affine([0.5, -1.5], 0.25)), Recip(Affine([1.0, 2.0], -3.0)),
                               Affine([0.5, 0.7], 0.1), Const(2, 2.5)],
                         ids=["exp", "recip", "affine", "const"])
def test_ridge_functions_are_one_variable_functions_along_a_direction(f):
    a, g = f.ridge()
    assert g.nvars == 1
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, (5, 2))
    for alpha in [(0, 0), (1, 0), (0, 1), (2, 3)]:
        want = f.deriv_values(alpha, pts)
        got = np.prod(a ** np.array(alpha)) * g.deriv_values((sum(alpha),), pts @ a)
        assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_sums_products_and_polynomials_are_not_ridge_functions():
    assert Sum([Exp(Affine([1.0])), Recip(Affine([1.0], -3.0))]).ridge() is None
    assert Product([Exp(Affine([1.0])), coordinate(1, 0)]).ridge() is None
    assert PolynomialFunction(Polynomial.monomial(1, (2,))).ridge() is None


def _recip_closed_form(mu, a, c):
    # 1/(u) has divided differences (-1)^j / prod(u_i) at u_i = a . x_i + c
    u = mu.nodes @ a + c
    return np.prod(a ** np.array(mu.alpha)) * (-1) ** mu.order / np.prod(u)


def _planar(nodes):
    return np.stack([nodes.real, nodes.imag], axis=1)


@pytest.mark.parametrize("nodes, a, c, exactness", [
    (nodes_by_name("real_leja", 14).real.reshape(-1, 1), [0.5], -1.6, None),
    (_planar(nodes_by_name("leja_disk", 14)), [0.5, 0.5], -1.6, None),
    # the pole 0.59 from the span: 1.9e-12 at order 5 with the default 21
    (_planar(nodes_by_name("leja_disk", 14)), [0.5, 0.5], -1.3, 25),
], ids=["real_leja", "planar_leja", "planar_leja_near_pole"])
def test_recip_kergin_values_match_their_closed_form(nodes, a, c, exactness):
    a = np.array(a)
    proj = kergin_projector(nodes, cond_threshold=None)
    f = Recip(Affine(a, c))
    got = rhs(proj.conditions, f, exactness)
    want = np.array([_recip_closed_form(mu, a, c) for mu in proj.conditions])
    assert {mu.order for mu in proj.conditions} == set(range(15))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


def test_kergin_level_with_repeated_projected_knots_matches_its_closed_form():
    # a is perpendicular to the differences of the first three nodes, so the
    # level's knots are 0, 0, 0, 0.35, -0.45; the last level's nodes all
    # project to 0.4, a point mass
    a = np.array([0.5, 0.5])
    nodes = np.array([[0.0, 0.0], [0.3, -0.3], [-0.3, 0.3], [0.6, 0.1], [-0.2, -0.7]])
    line = np.array([[0.4 + t, 0.4 - t] for t in (0.0, 0.5, -0.3, 0.2)])
    for level in (nodes, line):
        j = len(level) - 1
        conditions = [KerginCondition(alpha, level) for alpha in [(j, 0), (1, j - 1), (2, j - 2)]]
        got = rhs(conditions, Recip(Affine(a, -1.3)))
        want = [_recip_closed_form(mu, a, -1.3) for mu in conditions]
        assert np.allclose(got, want, rtol=1e-13, atol=0)
        got = rhs(conditions, Exp(Affine(a, 0.2)))
        want = [divided_difference_values(mu, Exp(Affine(a, 0.2)))[0] for mu in conditions]
        assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_planar_kergin_at_coincident_nodes_is_taylor_on_a_ridge_function():
    center = [0.2, -0.1]
    K = kergin_projector(np.tile(center, (6, 1)))
    T = taylor_projector(2, 5, center=center)
    f = Recip(Affine([0.5, 0.5], -1.3))
    assert coeff_distance(K.apply(f), T.apply(f)) < 1e-12


def test_order_14_real_leja_condition_on_exp_matches_the_expm_oracle():
    # refused while it took Grundmann-Moller (3,268,760 points); along the
    # line it takes 14 * 18.  The superdiagonal is scaled by 14, so entry
    # (0, 14) is 14^14 times the divided difference: unscaled, expm's own
    # rounding is 3e-10 of this value
    x = nodes_by_name("real_leja", 14).real
    got = KerginCondition((14,), x).apply_to_function(Exp(Affine([1.0])))
    want = expm(np.diag(x) + 14.0 * np.diag(np.ones(14), 1))[0, 14] / 14.0 ** 14
    assert abs(got - want) / abs(want) < 1e-12


@pytest.mark.parametrize("nodes, f", [
    (nodes_by_name("leja_disk", 3).reshape(-1, 1), Exp(Affine([1.0]))),
    (nodes_by_name("real_leja", 3).reshape(-1, 1), Exp(Affine([1.0 + 0.5j]))),
    (nodes_by_name("real_leja", 3).reshape(-1, 1),
     Product([Exp(Affine([1.0])), Recip(Affine([1.0], -3.0))])),
    (nodes_by_name("real_leja", 3).reshape(-1, 1), Exp(Affine([1.0]))),
], ids=["complex_nodes", "complex_direction", "product", "real_ridge"])
def test_only_real_ridge_conditions_integrate_along_one_dimension(nodes, f, monkeypatch):
    requested = []

    def spy(ndim, s):
        requested.append((ndim, s))
        return grundmann_moller_rule(ndim, s)

    monkeypatch.setattr(nprox.functionals, "grundmann_moller_rule", spy)
    mu = KerginCondition((3,), nodes)
    value = mu.apply_to_function(f, exactness=15)
    assert bool(requested) == (f.ridge() is None or np.any(nodes.imag)
                               or np.any(f.ridge()[0].imag))
    oracle = sum(np.dot(w, f.deriv_values(a, p)) for w, p, a in mu.discretize(15))
    assert value == pytest.approx(oracle, rel=1e-10)


def test_a_sum_takes_each_ridge_term_along_its_line_and_the_rest_by_cubature(monkeypatch):
    requested = []

    def spy(ndim, s):
        requested.append((ndim, s))
        return grundmann_moller_rule(ndim, s)

    monkeypatch.setattr(nprox.functionals, "grundmann_moller_rule", spy)
    proj = kergin_projector(_planar(nodes_by_name("leja_disk", 5)))
    terms = [Exp(Affine([1.0, 0.5])), Recip(Affine([0.5, 0.5], -1.6)),
             Product([Exp(Affine([0.3, 0.0])), coordinate(2, 1)])]
    got = rhs(proj.conditions, Sum([terms[0], Sum(terms[1:])]))
    assert {ndim for ndim, _ in requested} == set(range(1, 6))
    want = sum(rhs(proj.conditions, t) for t in terms)
    assert np.allclose(got, want, rtol=1e-14, atol=0)
    requested.clear()
    rhs(proj.conditions, Sum(terms[:2]))
    assert requested == []


class RidgeCounting(TestFunction):
    """A ridge function whose one-variable part records its point counts."""

    def __init__(self, inner, sizes):
        self.inner = inner
        self.nvars = inner.nvars
        self.sizes = sizes

    def ridge(self):
        a, g = self.inner.ridge()
        return a, CountingFunction(g, self.sizes)

    def deriv_table(self, alphas, pts):
        self.sizes.append(len(pts))
        return self.inner.deriv_table(alphas, pts)


def test_a_kergin_level_shares_one_line_rule_and_one_call():
    # the d=8 planar factor of the cylinder: one call per level, with
    # ceil((21 + j) / 2) points on each interval between distinct projected
    # knots at level j (the disk Leja points 1 and i both project to 1),
    # then one for the order-0 node; the Grundmann-Moller rules took 167,958
    nodes = _planar(nodes_by_name("leja_disk", 8))
    proj = kergin_projector(nodes)
    sizes = []
    got = rhs(proj.conditions, RidgeCounting(Exp(Affine([1.0, 1.0])), sizes))
    knots = nodes @ [1.0, 1.0]
    cells = [len(set(knots[:j + 1].round(12).tolist())) - 1 for j in range(1, 9)]
    assert sizes == [c * ((21 + j + 1) // 2) for j, c in zip(range(1, 9), cells)] + [1]
    assert sum(sizes) == 288
    assert np.array_equal(got, rhs(proj.conditions, Exp(Affine([1.0, 1.0]))))


def test_a_pole_inside_the_knot_span_raises_on_the_locus():
    # the quadrature points straddle the pole; one hull test names a point
    # of the support on the locus, for the line rules (the bare reciprocal)
    # and for the cubature rules (its _no_ridge twin) on the same supports
    # the bare pair's span is [-1, 1] + [0, 2] along x + y
    pair = Tensor(KerginCondition((2,), [[-1.0], [0.0], [1.0]]),
                  KerginCondition((2,), [[0.0], [2.0], [1.0]]))
    line = nodes_by_name("real_leja", 6).reshape(-1, 1)
    cases = [
        (kergin_projector(line).apply, Affine([0.5], -0.1)),
        (kergin_projector(_planar(nodes_by_name("leja_disk", 6))).apply, Affine([0.5, 0.5], -0.2)),
        (kergin_projector(nodes_by_name("real_leja", 4)).newton_product(_cheb_leja(4))
         .newton_product(kergin_projector(nodes_by_name("real_leja", 4))).apply,
         Affine([0.5, 0.25, -0.3], -0.1)),
        (lambda f: rhs([pair], f), Affine([1.0, 1.0], -0.7)),
        (kergin_projector(line).apply, Affine([1.0], -line[3, 0])),  # on a node
    ]
    for apply, pole in cases:
        for f in (Recip(pole), _no_ridge(Recip(pole))):
            with pytest.raises(PoleOnSupportError) as info:
                apply(f)
            err = info.value
            assert np.array_equal(err.coeffs, pole.coeffs) and err.const == pole.const
            assert abs(pole.eval(err.point)) < 1e-12
            again = pickle.loads(pickle.dumps(err))
            assert str(again) == str(err) and np.array_equal(again.point, err.point)
    # 1e-3 past the end of the span both paths still integrate
    for apply, pole in [(kergin_projector(line).apply, Affine([1.0], -1.001)),
                        (lambda f: rhs([pair], f), Affine([1.0, 1.0], -3.001))]:
        for f in (Recip(pole), _no_ridge(Recip(pole))):
            got = apply(f)
            assert np.all(np.isfinite(getattr(got, "coeffs", got)))


def test_nested_kergin_tensor_pairs_convolve_their_line_rules(monkeypatch):
    # (kergin x lagrange) x kergin on a reciprocal that does not split: each
    # pair sums the points of its factors' line rules, and no cubature rule
    # is built (the product of two Grundmann-Moller rules took 47 s at d=10)
    inner = kergin_projector(nodes_by_name("real_leja", 8)).newton_product(_cheb_leja(8))
    proj = inner.newton_product(kergin_projector(nodes_by_name("real_leja", 8)))
    f = Recip(Affine([0.5, 0.25, -0.3], -3.0))
    requested = []

    def spy(ndim, s):
        requested.append((ndim, s))
        return grundmann_moller_rule(ndim, s)

    monkeypatch.setattr(nprox.functionals, "grundmann_moller_rule", spy)
    got = proj._rhs(f, None)
    assert requested == []
    want = np.array([divided_difference_values(mu, f)[0] for mu in proj.conditions])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


# -- rows: every condition of a projector at once ---------------------------------


def falling_power_table(points, alphas, degree):
    """Oracle: the closed form ``prod_v perm(g_v, a_v) z_v^(g_v - a_v)``.

    Each factor is a power of one coordinate times the exact falling
    factorial (an integer below 2**53 here, so one rounding), multiplied in
    variable order from 1 as the assembly multiplies them; every operation
    is one numpy array operation on the whole table, as in the assembly (a
    numpy scalar operation may round differently).
    """
    points = np.asarray(points, dtype=np.complex128)
    A = np.asarray(alphas, dtype=np.int64)
    E = exponents(points.shape[1], degree)
    perm = np.vectorize(math.perm)
    out = np.ones((len(points), len(E)), dtype=np.complex128)
    for v in range(points.shape[1]):
        g, a = E[None, :, v], A[:, None, v]
        assert np.all(perm(g, a) < 2 ** 53)
        term = np.power(points[:, v:v + 1], np.maximum(g - a, 0))
        term = np.where(a > 0, term * perm(g, a).astype(np.float64), term)
        out = out * term
    return out


def _point_families():
    yield taylor_projector(1, 9, center=[0.37])
    yield taylor_projector(1, 6)
    yield taylor_projector(2, 5, center=[0.3, -0.45])
    yield taylor_projector(3, 3, center=[0.2, -0.1, 0.6])
    yield lagrange_projector(nodes_by_name("real_leja", 8))
    yield lagrange_projector(nodes_by_name("leja_disk", 8))
    yield lagrange_projector(np.random.default_rng(2).uniform(-1, 1, (10, 3))
                             + 1j * np.random.default_rng(3).uniform(-1, 1, (10, 3)))


@pytest.mark.parametrize("proj", list(_point_families()),
                         ids=lambda P: f"n{P.nvars}d{P.degree}")
def test_point_and_derivative_rows_are_the_falling_factorial_table(proj):
    points = [mu.point for mu in proj.conditions]
    alphas = [mu.alpha for mu in proj.conditions]
    for degree in (proj.degree, proj.degree + 7):
        want = falling_power_table(points, alphas, degree)
        got = rows(proj.conditions, degree)
        assert np.array_equal(got, want)
        # exact zeros read +0, as the one-condition sums wrote them
        for part in (got.real, got.imag):
            assert not np.signbit(part[part == 0]).any()
        assert np.array_equal(proj._rows(degree), want)
        # one condition alone reads the same bits
        assert np.array_equal(proj.conditions[-1].on_monomials(degree), want[-1])


def test_vandermonde_orders_per_point_match_one_call_per_point():
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    alphas = rng.integers(0, 4, size=(7, 3))
    alphas[2] = 0
    got = monomial_vandermonde(pts, 9, alphas)
    for i in range(7):
        assert np.array_equal(got[i], monomial_vandermonde(pts[i:i + 1], 9, alphas[i])[0])


@pytest.mark.parametrize("nodes", [n for n in _kergin_node_sets() if len(n) <= 9][::3],
                         ids=lambda nodes: f"n{nodes.shape[1]}d{nodes.shape[0] - 1}")
def test_kergin_rows_match_the_moment_oracle(nodes):
    # one rule per node prefix serves every order-j condition on it, at the
    # projector degree and above it
    proj = kergin_projector(nodes, cond_threshold=None)
    for degree in (proj.degree, proj.degree + 2):
        got = rows(proj.conditions, degree)
        for mu, row in zip(proj.conditions, got):
            want = kergin_moment_values(mu, degree)
            assert np.max(np.abs(row - want)) <= 1e-11 * np.max(np.abs(want))


def test_rows_keep_the_order_of_mixed_conditions():
    # groups are built apart; each row lands where its condition stands
    rng = np.random.default_rng(37)
    nodes = rng.uniform(-1, 1, size=(4, 1))
    measure = chebyshev_measure(9)
    basis = orthogonal_projector(measure, 3).conditions
    conditions = [KerginCondition((2,), nodes[:3]), PointEval([0.4]), basis[2],
                  DerivativeEval((3,), [0.1]), KerginCondition((1,), nodes[:2]),
                  basis[0], KerginCondition((0,), nodes[:1]),
                  KerginCondition((2,), nodes[:3]), PointEval([-0.7])]
    got = rows(conditions, 6)
    for mu, row in zip(conditions, got):
        want = mu.on_monomials(6)
        assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="at least one"):
        rows([], 3)
    with pytest.raises(ValueError, match="mix"):
        rows([PointEval([0.0]), PointEval([0.0, 1.0])], 3)


# -- a pole inside a Grundmann-Moller simplex ---------------------------------------


def _no_ridge(g):
    """g times a unit exponential: a product, so no line rule takes it."""
    return Product([g, Exp(Affine([0.0] * g.nvars))])


def test_a_pole_inside_the_nodes_hull_raises_on_the_cubature_path():
    # at the parent the rule's points straddled the pole at 1.3 and the value
    # read 2.06e7
    mu = KerginCondition((2,), [[0.0], [1.0], [2.0]])
    pole = Affine([1.0], -1.3)
    with pytest.raises(PoleOnSupportError) as info:
        mu.apply_to_function(_no_ridge(Recip(pole)))
    assert abs(pole.eval(info.value.point)) < 1e-12
    # complex nodes: the triangle 1, i, -1 - i holds 0.1 inside, not on an edge
    mu = KerginCondition((2,), [[1.0], [1j], [-1.0 - 1j]])
    pole = Affine([1.0], -0.1)
    for f in (Recip(pole), _no_ridge(Recip(pole))):
        with pytest.raises(PoleOnSupportError) as info:
            mu.apply_to_function(f)
        assert abs(pole.eval(info.value.point)) < 1e-12
    # a tensor pair spans the sums of its factors' values: 0..2 along x + y
    pair = Tensor(KerginCondition((1,), [[0.0], [1.0]]), KerginCondition((1,), [[0.0], [1.0]]))
    pole = Affine([1.0, 1.0], -1.5)
    with pytest.raises(PoleOnSupportError) as info:
        pair.apply_to_function(_no_ridge(Recip(pole)))
    assert abs(pole.eval(info.value.point)) < 1e-12


def test_a_pole_just_outside_the_nodes_hull_still_integrates():
    mu = KerginCondition((2,), [[0.0], [1.0], [2.0]])
    g = Recip(Affine([1.0], -2.5))
    got = mu.apply_to_function(_no_ridge(g))
    want = mu.apply_to_function(g)  # the line rule: the divided difference
    assert abs(got - want) < 1e-5 * abs(want)
    mu = KerginCondition((2,), [[1.0], [1j], [-1.0 - 1j]])
    g = Recip(Affine([1.0], -1.05))  # just past the vertex 1
    assert np.isfinite(mu.apply_to_function(_no_ridge(g)))
    pair = Tensor(KerginCondition((1,), [[0.0], [1.0]]), KerginCondition((1,), [[0.0], [1.0]]))
    g = Recip(Affine([1.0, 1.0], -2.2))
    got = pair.apply_to_function(_no_ridge(g))
    assert abs(got - pair.apply_to_function(g)) < 1e-4 * abs(got)


def _hull_distance(u):
    """Oracle: the least s with ``|Re w @ u|, |Im w @ u| <= s`` over convex w.

    s = 0 is the feasibility of ``w @ u = 0, sum(w) = 1, w >= 0``; above 0,
    s is the max-norm distance from 0 to hull(u), at most the Euclidean one
    and at least its 1/sqrt(2).
    """
    k = u.size
    parts = np.vstack([u.real, -u.real, u.imag, -u.imag])
    res = linprog(np.append(np.zeros(k), 1.0),
                  A_ub=np.hstack([parts, -np.ones((4, 1))]), b_ub=np.zeros(4),
                  A_eq=np.append(np.ones(k), 0.0)[None], b_eq=[1.0],
                  bounds=[(0, None)] * (k + 1))
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_hull_weights_agree_with_a_linear_program(kind):
    # tol sits far above the solver's feasibility tolerance (1e-7), so the
    # oracle tells the sets apart; a set within 10 tol of the boundary at
    # distance tol (between tol / 10 and 10 tol in the max-norm) is skipped
    tol = 1e-6
    rng = np.random.default_rng(7 if kind == "real" else 8)
    seen = {True: 0, False: 0}
    for _ in range(300):
        k = int(rng.integers(1, 13))
        if kind == "real":  # collinear along the real axis, as on a line rule
            u = rng.normal(size=k) + 2 * rng.normal() + 0j
        else:
            u = rng.normal(size=k) + rng.normal() + 1j * (rng.normal(size=k) + rng.normal())
        if rng.random() < 0.1:
            u[rng.integers(k)] = 0.0  # 0 on a value
        distance = _hull_distance(u)
        if tol / 10 < distance <= 10 * tol:
            continue
        inside = distance <= tol / 10
        weights = _hull_weights(u, tol)
        assert (weights is not None) == inside, (u, distance)
        seen[inside] += 1
        if inside:
            assert np.all(weights >= 0) and abs(weights.sum() - 1.0) < 1e-12
            assert abs(weights @ u) <= tol
    assert min(seen.values()) >= 50, seen


def _joined_pole_point(conditions, f):
    """Oracle: the pole test on every joined support point, or None.

    Each distinct condition's ``_support()`` times each pole form, as the
    pole test read it before tensor pairs summed their factors' values;
    returns the point the first hit names.
    """
    seen = set()
    for mu in conditions:
        if mu._rule_key() in seen:
            continue
        seen.add(mu._rule_key())
        pieces = mu._support()
        for coeffs, const in f.poles():
            tol = 1e-12 * (1.0 + float(np.sum(np.abs(coeffs))) + abs(const))
            for piece, values in zip(pieces, pieces @ coeffs + const):
                weights = _hull_weights(values, tol)
                if weights is not None:
                    return weights @ piece
    return None


def _pole_point(conditions, f):
    """The point ``_check_hull_poles`` names, or None if it passes."""
    try:
        _check_hull_poles(conditions, f)
    except PoleOnSupportError as err:
        return err.point
    return None


def test_tensor_pole_values_decide_as_the_joined_supports():
    # the nested-Kergin product of CI: a pole far off (c = -3) and one on the
    # supports (c = -0.1), as one pole and as two
    spec = {"kind": "newton_product",
            "factors": [{"kind": "newton_product",
                         "factors": [{"kind": "kergin", "nodes": "real_leja"},
                                     {"kind": "lagrange", "nodes": "chebyshev_leja"}]},
                        {"kind": "kergin", "nodes": "real_leja"}]}
    proj = projector_from_spec(spec, 10)
    conditions = [mu for mu in proj.conditions if _kergin_order(mu)]
    far, near = (Recip(Affine([0.5, 0.25, -0.3], c)) for c in (-3.0, -0.1))
    for f, hit in ((far, False), (near, True), (Sum([far, near]), True),
                   (Sum([near, far]), True)):
        want = _joined_pole_point(conditions, f)
        got = _pole_point(conditions, f)
        assert (got is not None) == (want is not None) == hit
        if hit:  # the same point, up to the rounding of the summed values
            assert np.max(np.abs(got - want)) <= 1e-12
    # random tensor pairs (nested ones too) around the LP oracle's boundary:
    # the joined values decide, within the oracle's margin, as the sums do
    rng = np.random.default_rng(9)
    seen = {True: 0, False: 0}
    for trial in range(300):
        complex_nodes = trial % 2 == 1

        def kergin(nvars):
            k = int(rng.integers(1, 4))
            nodes = rng.normal(size=(k, nvars))
            if complex_nodes:
                nodes = nodes + 1j * rng.normal(size=(k, nvars))
            return KerginCondition((k - 1,) + (0,) * (nvars - 1), nodes)

        mu = Tensor(kergin(1), kergin(int(rng.integers(1, 3))))
        if trial % 3 == 0:
            # one factor on both sides: its values differ by offset and constant
            mu = Tensor(mu, kergin(1)) if trial % 6 == 0 else Tensor(mu.left, mu)
        coeffs = rng.normal(size=mu.nvars)
        joined = mu._support()[0] @ coeffs
        const = -joined[int(rng.integers(joined.size))] + rng.normal() * 0.3
        f = Recip(Affine(coeffs, const))
        distance = _hull_distance(joined + const)
        tol = 1e-12 * (1.0 + float(np.sum(np.abs(coeffs))) + abs(const))
        if tol / 10 < distance <= 10 * tol:
            continue
        got = _pole_point([mu], f)
        want = _joined_pole_point([mu], f)
        assert (got is None) == (want is None) == (distance > tol)
        seen[got is not None] += 1
        if got is not None:
            assert abs(coeffs @ got + const) <= 4 * tol
    assert min(seen.values()) >= 50, seen

