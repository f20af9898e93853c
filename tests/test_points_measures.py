"""Node families, quadrature measures, and Gram-Schmidt bases."""
import math

import numpy as np
import pytest

from nprox.experiments import cylinder_blocks
from nprox.measures import (
    DegenerateMeasure,
    InsufficientExactness,
    QuadratureMeasure,
    bm_diagnostic,
    chebyshev_measure,
    circle_measure,
    gram_schmidt_basis,
    parse_measure,
    product_measure,
)
from nprox.points import (
    cartesian,
    chebyshev_nodes,
    equiangular_nodes,
    integer_nodes,
    leja_disk,
    leja_greedy,
    real_leja,
)
from nprox.polynomials import Polynomial
from nprox.zoo import nodes_by_name


# -- Leja sequences -----------------------------------------------------------


def test_leja_disk_first_blocks():
    assert np.allclose(leja_disk(2), [1, -1])
    assert np.allclose(leja_disk(4), [1, -1, 1j, -1j])
    eighth = np.exp(1j * np.pi / 4)
    assert np.allclose(leja_disk(8), [1, -1, 1j, -1j, eighth, -eighth, 1j * eighth, -1j * eighth])


def test_leja_disk_prefix_consistency():
    long = leja_disk(64)
    for count in (2, 4, 8, 16, 32):
        assert np.array_equal(leja_disk(count), long[:count])


def test_leja_disk_rejects_bad_counts():
    for bad in (0, 1, 3, 6, 12):
        with pytest.raises(ValueError):
            leja_disk(bad)


def test_leja_disk_power_of_two_blocks_are_rotated_roots_of_unity():
    seq = leja_disk(32)
    for L in (2, 4, 8, 16, 32):
        block = np.sort(np.mod(np.angle(seq[:L]), 2 * np.pi))
        want = 2 * np.pi * np.arange(L) / L
        assert np.allclose(block, want, atol=1e-12)


def test_leja_disk_is_greedy_optimal():
    """At every step the doubling point attains the greedy objective.

    Ties (symmetric points with equal distance products) are allowed, so the
    check is against the candidate maximum, not against one greedy output.
    """
    cand = np.exp(2j * np.pi * np.arange(2048) / 2048)
    seq = leja_disk(32)
    logsum = np.zeros(cand.size)
    for k, z in enumerate(seq):
        if k > 0:
            best = logsum.max()
            idx = int(np.argmin(np.abs(cand - z)))
            assert logsum[idx] >= best - 1e-9 * max(1.0, abs(best))
        logsum += np.log(np.abs(cand - z) + 1e-300)


def test_leja_greedy_matches_disk_blocks():
    cand = np.exp(2j * np.pi * np.arange(1024) / 1024)
    greedy = leja_greedy(cand, 16)
    disk = leja_disk(16)
    for L in (2, 4, 8, 16):
        assert set(np.round(greedy[:L], 10)) == set(np.round(disk[:L], 10))


def test_leja_greedy_first_point_rule():
    cand = np.array([0.5, -0.9, 0.9j, 0.3 - 0.3j])
    out = leja_greedy(cand, 2)
    assert out[0] == 0.9j  # largest modulus
    tied = np.array([-1.0, 1.0, 1j])
    assert leja_greedy(tied, 1)[0] == 1.0  # smallest argument wins the tie


def test_real_leja_known_values():
    got = real_leja(leja_disk(8))
    r = math.sqrt(2) / 2
    assert np.allclose(got, [1.0, -1.0, 0.0, r, -r])
    more = real_leja(leja_disk(16))
    assert np.allclose(more[:5], [1.0, -1.0, 0.0, r, -r])
    assert more.size == 9  # 16 conjugate-symmetric points fold to 9 reals


def _real_leja_by_doubling(degree):
    """Real Leja nodes as first built: double the circle block until enough
    distinct real parts appear, comparing each with every one kept."""
    block = 2
    while True:
        out = []
        for value in leja_disk(block).real:
            if all(abs(value - seen) > 1e-12 for seen in out):
                out.append(float(value))
        if len(out) >= degree + 1:
            return np.array(out[:degree + 1])
        block *= 2


def test_real_leja_nodes_equal_the_doubling_loop():
    for degree in range(65):
        assert np.array_equal(nodes_by_name("real_leja", degree),
                              _real_leja_by_doubling(degree)), degree


def test_real_leja_keeps_first_occurrences_in_order():
    pts = np.exp(1j * np.array([0.3, -0.3, 2.0, 0.3 + 1e-15, np.pi, -2.0]))
    assert np.array_equal(real_leja(pts), pts.real[[0, 2, 4]])
    assert real_leja(np.zeros(0, dtype=complex)).shape == (0,)


def test_real_leja_rejects_interior_points():
    with pytest.raises(ValueError):
        real_leja([0.5 + 0.0j])


def test_classical_grids():
    assert np.allclose(chebyshev_nodes(1), [math.cos(math.pi / 4), math.cos(3 * math.pi / 4)])
    assert np.allclose(chebyshev_nodes(0), [math.cos(math.pi / 2)])
    assert np.array_equal(integer_nodes(3), [0.0, 1.0, 2.0, 3.0])
    assert np.allclose(equiangular_nodes(3), [1, 1j, -1, -1j])


def repeat_tile_cartesian(*blocks):
    """Oracle: the joined rows by repeating the rows so far and tiling each next block."""
    out = blocks[0]
    for block in blocks[1:]:
        out = np.hstack([np.repeat(out, block.shape[0], axis=0),
                         np.tile(block, (out.shape[0], 1))])
    return out


def _cartesian_cases():
    rng = np.random.default_rng(8)
    disk, seg = cylinder_blocks(64)
    yield "cylinder", [disk, seg]
    yield "one_block", [rng.standard_normal((5, 2))]
    yield "three_mixed", [rng.standard_normal((3, 2)), np.arange(4.0).reshape(4, 1) + 1j,
                          np.arange(5).reshape(5, 1)]
    yield "float32_float64", [np.arange(3, dtype=np.float32).reshape(3, 1),
                              rng.standard_normal((2, 1))]
    yield "empty_last", [rng.standard_normal((3, 1)), np.zeros((0, 2))]
    yield "empty_first", [np.zeros((0, 1)), np.ones((4, 2), dtype=complex)]


@pytest.mark.parametrize("case", list(_cartesian_cases()), ids=lambda case: case[0])
def test_cartesian_matches_repeat_and_tile_byte_for_byte(case):
    _, blocks = case
    want = repeat_tile_cartesian(*blocks)
    got = cartesian(*blocks)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- quadrature measures --------------------------------------------------------


def true_circle_inner(k, l):
    return 1.0 if k == l else 0.0


def true_arcsine_moment(p):
    """int_{-1}^{1} x^p darcsine = binom(p, p/2) / 2^p for even p."""
    if p % 2:
        return 0.0
    return math.comb(p, p // 2) / 2.0**p


def test_circle_measure_inner_products_exact():
    m = circle_measure(9)
    V = m.monomial_values(m.exactness)
    for k in range(5):
        for l in range(5):
            if k + l <= m.exactness:
                got = m.integrate_values(V[k], V[l])
                assert got == pytest.approx(true_circle_inner(k, l), abs=1e-14)


def test_chebyshev_measure_moments_exact():
    m = chebyshev_measure(6)  # exactness 11
    V = m.monomial_values(11)
    for p in range(12):
        assert m.integrate_values(V[p]) == pytest.approx(true_arcsine_moment(p), abs=1e-14)
    # one degree past the stated exactness the rule is allowed to be wrong
    W = m.monomial_values(12)
    assert abs(m.integrate_values(W[12]) - true_arcsine_moment(12)) > 1e-6


def test_product_measure_moments_factor():
    mc = circle_measure(7)
    mi = chebyshev_measure(4)
    mp = product_measure(mc, mi)
    assert mp.exactness == min(mc.exactness, mi.exactness)
    assert mp.nvars == 2
    V = mp.monomial_values(4)
    from nprox.indexing import exponents

    E = exponents(2, 4)
    for r in range(E.shape[0]):
        a, b = E[r]
        want = (1.0 if a == 0 else 0.0) * true_arcsine_moment(int(b))
        assert mp.integrate_values(V[r]) == pytest.approx(want, abs=1e-13)


def test_measure_validation():
    with pytest.raises(ValueError):
        QuadratureMeasure([[0.0], [1.0]], [0.5, -0.5], 1)
    with pytest.raises(ValueError):
        QuadratureMeasure([[0.0], [1.0]], [0.7, 0.7], 1)
    with pytest.raises(ValueError):
        QuadratureMeasure([[0.0]], [0.5, 0.5], 1)


def test_measure_json_round_trip():
    for m in (
        circle_measure(5),
        chebyshev_measure(3),
        product_measure(circle_measure(4), chebyshev_measure(3)),
        QuadratureMeasure([[0.0], [0.5 + 0.5j]], [0.25, 0.75], 2),
    ):
        m2 = parse_measure(m.to_json())
        assert np.allclose(m2.nodes, m.nodes)
        assert np.allclose(m2.weights, m.weights)
        assert m2.exactness == m.exactness


# -- Gram-Schmidt bases ----------------------------------------------------------


def chebyshev_T(k):
    """Coefficient array of the degree-k Chebyshev polynomial, by recurrence."""
    if k == 0:
        return np.array([1.0])
    prev, cur = np.array([1.0]), np.array([0.0, 1.0])
    for _ in range(k - 1):
        nxt = np.zeros(cur.size + 1)
        nxt[1:] += 2 * cur
        nxt[: prev.size] -= prev
        prev, cur = cur, nxt
    return cur


def test_circle_basis_is_monomials():
    basis = gram_schmidt_basis(circle_measure(13), 6)
    assert np.allclose(basis.coeff_matrix, np.eye(7), atol=1e-13)
    assert basis.gram_residual() < 1e-13


def test_chebyshev_basis_is_scaled_chebyshev():
    basis = gram_schmidt_basis(chebyshev_measure(9), 5)
    for k in range(6):
        want = chebyshev_T(k) * (1.0 if k == 0 else math.sqrt(2))
        got = basis.polys[k].coeffs[: k + 1]
        assert np.allclose(got, np.pad(want, (0, k + 1 - want.size)), atol=1e-12)
    assert basis.gram_residual() < 1e-12


def test_product_basis_factors():
    mc, mi = circle_measure(9), chebyshev_measure(5)
    joint = gram_schmidt_basis(product_measure(mc, mi), 3)
    bc = gram_schmidt_basis(mc, 3)
    bi = gram_schmidt_basis(mi, 3)
    from nprox.indexing import exponents, rank_of
    from nprox.polynomials import tensor_product

    E = exponents(2, 3)
    pts = np.stack(
        [np.exp(2j * np.pi * np.arange(11) / 11), np.linspace(-1, 1, 11) + 0j], axis=1
    )
    for r in range(E.shape[0]):
        a, b = int(E[r, 0]), int(E[r, 1])
        prod = tensor_product(bc.polys[a], bi.polys[b])
        lead = joint.polys[r].coeffs[rank_of((a, b))]
        phase = lead / abs(lead)
        diff = np.abs(joint.polys[r].eval_many(pts) - phase * prod.eval_many(pts))
        assert np.max(diff) < 1e-10


def test_gram_schmidt_basis_is_built_once_per_measure_and_degree():
    measure = product_measure(chebyshev_measure(9), circle_measure(9))
    high = gram_schmidt_basis(measure, 4)
    low = gram_schmidt_basis(measure, 2)
    assert gram_schmidt_basis(measure, 4) is high
    assert gram_schmidt_basis(measure, 2) is low
    # the same bytes as a fresh build on a fresh measure, degree by degree:
    # a lower degree is built at its own width, not sliced from a higher one
    fresh = product_measure(chebyshev_measure(9), circle_measure(9))
    for basis in (low, high):
        want = gram_schmidt_basis(fresh, basis.degree)
        assert want is not basis
        for got, ref in ((basis.coeff_matrix, want.coeff_matrix),
                         (basis.node_values, want.node_values)):
            assert got.tobytes() == ref.tobytes()
            assert not got.flags.writeable
    # a failed build keeps nothing
    with pytest.raises(InsufficientExactness):
        gram_schmidt_basis(measure, 9)
    assert ("gram_schmidt", 9) not in measure._cache


def test_gram_schmidt_requires_exactness():
    with pytest.raises(InsufficientExactness):
        gram_schmidt_basis(chebyshev_measure(4), 4)  # exactness 7 < 8


def test_gram_schmidt_detects_degenerate_measure():
    # two nodes cannot support three independent polynomials, whatever the
    # claimed exactness
    m = QuadratureMeasure([[0.0], [1.0]], [0.5, 0.5], 10)
    with pytest.raises(DegenerateMeasure):
        gram_schmidt_basis(m, 2)


def test_bm_diagnostic_rates():
    circle_pts = np.exp(2j * np.pi * np.arange(64) / 64)
    b = gram_schmidt_basis(circle_measure(25), 12)
    diag = bm_diagnostic(b, circle_pts)
    assert abs(diag.rate - 1.0) < 1e-6  # |z^k| = 1 on the circle

    interval_pts = np.linspace(-1, 1, 200) + 0j
    bi = gram_schmidt_basis(chebyshev_measure(17), 8)
    di = bm_diagnostic(bi, interval_pts)
    assert di.rate < 1.05  # sup |sqrt(2) T_k| = sqrt(2), flat in degree

    fat_pts = np.linspace(-1.5, 1.5, 200) + 0j
    dfat = bm_diagnostic(bi, fat_pts)
    assert dfat.rate > 1.5  # Chebyshev polynomials blow up off [-1, 1]
