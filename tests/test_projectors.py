"""Projector engine: nesting checks, truncation, summands, products."""
import math

import numpy as np
import pytest
from scipy.linalg import expm

from nprox.experiments import cylinder_nodes
from nprox.functionals import PointEval
from nprox.indexing import exponents, monomial_count
from nprox.measures import chebyshev_measure, circle_measure
from nprox.points import chebyshev_nodes, leja_disk, real_leja
from nprox.polynomials import Polynomial, coeff_distance, tensor_product
from nprox.projectors import (
    BSet,
    NestedUnisolvenceFailure,
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
    with pytest.raises(ValueError, match="level 2"):
        NewtonStructuredProjector([[PointEval([0.0])], [PointEval([1.0])], []])
    with pytest.raises(ValueError):
        NewtonStructuredProjector([])


def test_mixed_variable_counts_rejected():
    with pytest.raises(ValueError, match="variable counts"):
        NewtonStructuredProjector([[PointEval([0.0])], [PointEval([1.0, 2.0])]])


def test_lagrange_needs_graded_count():
    with pytest.raises(ValueError, match="graded"):
        lagrange_projector(np.zeros((4, 2)))  # dim P_1 = 3, dim P_2 = 6


def test_duplicate_point_fails_nesting():
    with pytest.raises(NestedUnisolvenceFailure, match="level 1"):
        lagrange_projector([0.0, 0.0])
    # with the gate off the build succeeds, but the singular block cannot solve
    P = lagrange_projector([0.0, 0.5, 0.0], cond_threshold=None)
    with pytest.raises(np.linalg.LinAlgError, match="level 2"):
        P.apply(Exp(Affine([1.0], 0.0)))


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


def test_product_nesting_failure_names_the_factor_level_pairs():
    # the bivariate Chebyshev-Leja product stays under 1e12 through level 29
    cheb = [lagrange_projector(nodes_by_name("chebyshev_leja", d)) for d in (29, 30)]
    assert max(cheb[0].newton_product(cheb[0]).level_conds) < 1e12
    pairs = ", ".join(f"({i1}, {30 - i1})" for i1 in range(31))
    with pytest.raises(NestedUnisolvenceFailure) as info:
        cheb[1].newton_product(cheb[1])
    assert str(info.value).startswith(f"level 30 (factor level pairs {pairs}): ")
    assert "exceeds threshold" in str(info.value)
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
    cond = np.linalg.cond

    def recording(x, *args, **kwargs):
        handed.append(x.dtype)
        return cond(x, *args, **kwargs)

    cheb = lagrange_projector(nodes_by_name("chebyshev_leja", 6))
    monkeypatch.setattr(np.linalg, "cond", recording)
    cheb.newton_product(cheb)
    assert handed == [np.dtype(np.float64)] * 7
    handed.clear()
    lagrange_projector(nodes_by_name("leja_disk", 6))
    assert handed == [np.dtype(np.complex128)] * 7


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
    # above it the conditions are applied one at a time, at the polynomial's degree
    p = random_poly(rng, 2, 6, cplx=True)
    want = np.array([mu.apply_to_polynomial(p) for mu in prod.conditions])
    assert np.array_equal(prod._rhs(p, None), want)
    with pytest.raises(ValueError, match="variable count"):
        prod.apply(random_poly(rng, 3, 2))


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


@pytest.mark.parametrize("d", [8, 11, 12])
def test_kergin_default_exactness_matches_hermite_genocchi_oracle(d):
    # By Hermite-Genocchi a Kergin condition of order j on exp(c.z) is
    # c^alpha times the divided difference of exp at u = nodes @ c, which is
    # entry (0, j) of expm(diag(u) + superdiagonal ones).  At d = 11 and 12
    # an uncapped 2d + 5 rule passes DESK_LIMIT.
    c = np.array([1.0, 1.0])
    P = kergin_projector(cylinder_nodes(d)[0])
    p = P.apply(Exp(Affine(c, 0.0)))
    want = np.array([
        np.prod(c ** np.array(mu.alpha))
        * expm(np.diag(mu.nodes @ c) + np.diag(np.ones(mu.order), 1))[0, mu.order]
        for mu in P.conditions
    ])
    assert np.max(np.abs(P.matrix @ p.coeffs - want) / np.abs(want)) < 1e-9
    # a bare top-level condition integrates at the same capped default
    top = want[monomial_count(2, d - 1):]
    bare = np.array([mu.apply_to_function(Exp(Affine(c, 0.0))) for mu in P.levels[-1]])
    assert np.max(np.abs(bare - top) / np.abs(top)) < 1e-9


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
