"""Polynomial core: ordering, arithmetic, evaluation, calculus.

Oracles used here:
  * naive monomial-sum evaluation (explicit loop over exponent rows),
  * term-by-term falling factorials for derivative Vandermonde tables,
  * the row-major Vandermonde construction, for bit-identical tables,
  * flat evaluation on the joined points, for factor-wise grid evaluation,
  * a double loop over term pairs for products,
  * central finite differences for derivatives,
  * exhaustive rank/enumerate round trips,
  * an itertools enumeration sorted by degree, then descending lex, for the
    exponent table.
"""
import math
import pickle
from itertools import product as iter_product

import numpy as np
import pytest

import nprox.polynomials
from nprox.indexing import (
    degree_starts,
    exponents,
    factor_ranks,
    monomial_count,
    monomial_vandermonde,
    rank_of,
    ranks_of_rows,
)
from nprox.experiments import cylinder_blocks
from nprox.extremal import CompactModel
from nprox.points import cartesian
from nprox.polynomials import (
    Polynomial,
    coeff_distance,
    evaluate,
    evaluate_grid,
    multiply,
    tensor_product,
)


def naive_eval(poly, point):
    """Oracle: sum coefficient * prod(point**exponent) term by term."""
    total = 0j
    for c, row in zip(poly.coeffs, exponents(poly.nvars, poly.degree)):
        term = c
        for v in range(poly.nvars):
            term *= point[v] ** int(row[v])
        total += term
    return total


def termwise_values(poly, pts):
    """Oracle: the naive monomial sum, vectorized over points only."""
    total = np.zeros(pts.shape[0], dtype=complex)
    for c, row in zip(poly.coeffs, exponents(poly.nvars, poly.degree)):
        term = np.full(pts.shape[0], c)
        for v, e in enumerate(row.tolist()):
            term *= pts[:, v] ** e
        total += term
    return total


def row_major_vandermonde(points, degree, alpha=None):
    """Oracle: the point-major construction of monomial_vandermonde."""
    pts = np.asarray(points, dtype=np.complex128)
    nvars = pts.shape[1]
    E = exponents(nvars, degree)
    e = np.arange(degree + 1)
    out = np.ones((pts.shape[0], E.shape[0]), dtype=np.complex128)
    for v in range(nvars):
        a = 0 if alpha is None else int(alpha[v])
        table = pts[:, v, None] ** np.maximum(e - a, 0)[None, :]
        if a:
            table *= np.prod(e[:, None] - np.arange(a)[None, :], axis=1,
                             dtype=np.float64)
        out *= table[:, E[:, v]]
    return out


def random_poly(rng, nvars, degree):
    n = monomial_count(nvars, degree)
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return Polynomial(nvars, degree, coeffs)


def test_monomial_count_values():
    assert monomial_count(2, 2) == 6
    assert monomial_count(3, 0) == 1
    assert monomial_count(1, 7) == 8
    assert monomial_count(2, -1) == 0


def test_graded_lex_first_ranks():
    # 1, x, y, x^2, xy, y^2
    assert rank_of((0, 0)) == 0
    assert rank_of((1, 0)) == 1
    assert rank_of((0, 1)) == 2
    assert rank_of((2, 0)) == 3
    assert rank_of((1, 1)) == 4
    assert rank_of((0, 2)) == 5


def test_rank_enumerate_round_trip_exhaustive():
    for nvars in range(1, 5):
        for degree in range(0, 9):
            rows = exponents(nvars, degree)
            assert rows.shape == (monomial_count(nvars, degree), nvars)
            for i, row in enumerate(rows):
                assert rank_of(tuple(row)) == i
            # degrees are non-decreasing and blocks are aligned
            degs = rows.sum(axis=1)
            starts = degree_starts(nvars, degree)
            for j in range(degree + 1):
                block = degs[starts[j]:starts[j + 1]]
                assert np.all(block == j)


def test_exponents_match_an_itertools_enumeration():
    for nvars in range(1, 7):
        rows = [r for r in iter_product(range(9), repeat=nvars) if sum(r) <= 8]
        rows.sort(key=lambda r: (sum(r), [-e for e in r]))
        full = np.array(rows).reshape(-1, nvars)
        for degree in range(-1, 9):
            E = exponents(nvars, degree)
            assert E.dtype == np.int32 and not E.flags.writeable
            assert np.array_equal(E, full[full.sum(axis=1) <= degree])


def test_ranks_of_rows_follow_exponent_order():
    for nvars in range(1, 5):
        for degree in range(0, 11):
            rows = exponents(nvars, degree)
            want = np.arange(rows.shape[0])
            assert np.array_equal(ranks_of_rows(nvars, degree, rows), want)
            # a larger bound keeps every rank: the graded-lex prefix property
            assert np.array_equal(ranks_of_rows(nvars, degree + 2, rows), want)


def test_ranks_of_rows_rejects_rows_outside_the_basis():
    assert ranks_of_rows(2, 3, np.zeros((0, 2), dtype=int)).shape == (0,)
    for rows in ([[2, 2]], [[-1, 2]], [[0, 0], [4, 0]], [[0, 0, 1]]):
        with pytest.raises(ValueError):
            ranks_of_rows(2, 3, np.array(rows))


def test_desk_scale_guard():
    with pytest.raises(ValueError):
        monomial_count(8, 40)


def test_eval_matches_naive_sum():
    rng = np.random.default_rng(7)
    for nvars, degree in [(1, 9), (2, 5), (3, 4)]:
        p = random_poly(rng, nvars, degree)
        pts = rng.standard_normal((6, nvars)) + 1j * rng.standard_normal((6, nvars))
        got = p.eval_many(pts)
        want = np.array([naive_eval(p, pt) for pt in pts])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_monomial_vandermonde_matches_termwise_derivatives():
    rng = np.random.default_rng(11)
    # (1, 28, (21,)) and (2, 25, (21, 0)) reach falling factorials beyond int64
    for nvars, degree, alpha in [(1, 7, (3,)), (2, 5, (0, 0)), (2, 5, (2, 1)),
                                 (3, 4, (1, 0, 2)), (1, 28, (21,)), (2, 25, (21, 0))]:
        pts = rng.standard_normal((4, nvars)) + 1j * rng.standard_normal((4, nvars))
        want = np.ones((4, monomial_count(nvars, degree)), dtype=complex)
        for i, row in enumerate(exponents(nvars, degree)):
            for v, (e, a) in enumerate(zip(row.tolist(), alpha)):
                want[:, i] *= math.perm(e, a) * pts[:, v] ** max(e - a, 0)
        got = monomial_vandermonde(pts, degree, alpha)
        assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_monomial_vandermonde_matches_row_major_construction():
    rng = np.random.default_rng(23)
    for nvars, degree, alphas in [
        (3, 12, [None, (2, 1, 3), (12, 0, 0), (0, 5, 7)]),
        (2, 28, [None, (21, 0), (0, 21), (5, 16), (1, 1)]),
    ]:
        pts = rng.standard_normal((300, nvars)) + 1j * rng.standard_normal((300, nvars))
        for alpha in alphas:
            got = monomial_vandermonde(pts, degree, alpha)
            assert got.shape == (300, monomial_count(nvars, degree))
            assert np.array_equal(got, row_major_vandermonde(pts, degree, alpha))


@pytest.mark.parametrize("count", [4095, 4096, 4097])
def test_evaluate_matches_termwise_oracle(count):
    rng = np.random.default_rng(count)
    for nvars in (1, 2, 3):
        polys = [
            random_poly(rng, nvars, 2),
            random_poly(rng, nvars, 5),
            Polynomial.zero(nvars, 3),
            random_poly(rng, nvars, 3).embedded(7),  # bound above the degree
        ]
        radius = rng.uniform(0.0, 1.0, (count, nvars))
        pts = radius * np.exp(2j * np.pi * rng.uniform(size=(count, nvars)))
        got = evaluate(polys, pts)
        assert got.shape == (count, len(polys))
        for j, p in enumerate(polys):
            want = termwise_values(p, pts)
            assert np.max(np.abs(got[:, j] - want)) <= 1e-13 * np.max(np.abs(want))
        assert not np.any(got[:, 2])


def _grid_cases():
    rng = np.random.default_rng(5)

    def disk(count, nvars):
        return rng.uniform(0.0, 1.0, (count, nvars)) * np.exp(
            2j * np.pi * rng.uniform(size=(count, nvars)))

    nested = CompactModel("product", ["interval", CompactModel("product", ["interval", "disk"])])
    yield "two_blocks", [disk(17, 1), disk(13, 1)], 9
    yield "three_blocks", [disk(6, 1), disk(5, 2), rng.uniform(-1, 1, 7)], 7
    yield "nested_compact", nested.sample_blocks(12 ** 3), 8
    yield "cylinder", list(cylinder_blocks(64)), 12


@pytest.mark.parametrize("case", list(_grid_cases()), ids=lambda case: case[0])
def test_evaluate_grid_matches_flat_evaluate(case):
    _, blocks, top = case
    nvars = sum(np.asarray(b).reshape(len(b), -1).shape[1] for b in blocks)
    rng = np.random.default_rng(top)
    # mixed degrees, storage bounds above the degree, and the zero polynomial
    polys = [random_poly(rng, nvars, d) for d in (0, top // 2, top)]
    polys += [random_poly(rng, nvars, 3).embedded(top + 2), Polynomial.zero(nvars, 4)]
    joined = cartesian(*(np.asarray(b, dtype=complex).reshape(len(b), -1) for b in blocks))
    want = evaluate(polys, joined)
    got = evaluate_grid(polys, blocks)
    assert got.shape == want.shape == (joined.shape[0], len(polys))
    for j in range(len(polys) - 1):
        assert np.max(np.abs(got[:, j] - want[:, j])) <= 1e-14 * np.max(np.abs(want[:, j]))
    assert not np.any(got[:, -1])
    # a list of zero polynomials needs no table at all
    zeros = evaluate_grid([Polynomial.zero(nvars, 2)], blocks)
    assert zeros.shape == (joined.shape[0], 1) and not np.any(zeros)


def multiply_adds(tables, first):
    """Per polynomial, the multiply-adds of contracting two point-by-monomial tables."""
    (m1, n1), (m2, n2) = (t.shape for t in tables)
    return m1 * n1 * n2 + m1 * n2 * m2 if first else n1 * n2 * m2 + m1 * n1 * m2


def complex_contraction(polys, blocks, first=None):
    """Oracle: ``evaluate_grid``'s contractions, every array in complex128.

    The last block is contracted first, except that two blocks contract the
    first one first when ``first`` says so; by default, where that takes
    fewer multiply-adds.
    """
    _, degree, coeffs = nprox.polynomials._coefficient_matrix(polys)
    blocks = [np.asarray(b, dtype=complex).reshape(len(b), -1) for b in blocks]
    tables = [monomial_vandermonde(b, degree) for b in blocks]
    grid = np.zeros((len(polys),) + tuple(t.shape[1] for t in tables), dtype=complex)
    grid[(slice(None),) + factor_ranks(tuple(b.shape[1] for b in blocks), degree)] = coeffs.T
    if first is None:
        first = len(tables) == 2 and multiply_adds(tables, True) < multiply_adds(tables, False)
    if first:
        grid = (tables[0] @ grid).reshape(-1, tables[1].shape[1]) @ tables[1].T
        return grid.reshape(len(polys), -1).T
    grid = grid.reshape(-1, tables[-1].shape[1]) @ tables[-1].T
    done = tables[-1].shape[0]
    for table in reversed(tables[:-1]):
        grid = table @ grid.reshape(-1, table.shape[1], done)
        done *= table.shape[0]
    return grid.reshape(len(polys), -1).T


@pytest.mark.parametrize("case", list(_grid_cases()), ids=lambda case: case[0])
def test_evaluate_grid_contracts_two_blocks_in_the_cheaper_order(case):
    _, blocks, top = case
    nvars = sum(np.asarray(b).reshape(len(b), -1).shape[1] for b in blocks)
    rng = np.random.default_rng(top)
    polys = [random_poly(rng, nvars, d) for d in (1, top // 2, top)]
    got = evaluate_grid(polys, blocks)
    assert np.array_equal(got, complex_contraction(polys, blocks))
    if len(blocks) != 2:
        assert np.array_equal(got, complex_contraction(polys, blocks, first=False))
        return
    tables = [monomial_vandermonde(np.asarray(b, dtype=complex).reshape(len(b), -1), top)
              for b in blocks]
    cheaper = multiply_adds(tables, True) < multiply_adds(tables, False)
    assert np.array_equal(got, complex_contraction(polys, blocks, first=cheaper))
    other = complex_contraction(polys, blocks, first=not cheaper)
    for j in range(len(polys)):
        assert np.max(np.abs(got[:, j] - other[:, j])) <= 1e-14 * np.max(np.abs(other[:, j]))


def test_the_cylinder_grid_contracts_the_disk_first():
    # 256 disk points and 45 monomials, 64 segment points and 9: for the
    # sweep's seven degrees, 1.76 M multiply-adds disk first, 5.34 M segment first
    disk, seg = (monomial_vandermonde(b, 8) for b in cylinder_blocks(64))
    assert 7 * multiply_adds([disk, seg], True) == 1_757_952
    assert 7 * multiply_adds([disk, seg], False) == 5_342_400
    assert nprox.polynomials._first_block_first([disk, seg])
    # a tie, as on the bivariate rate sweep's square grid, keeps the last block first
    line = monomial_vandermonde(np.linspace(-1, 1, 64).reshape(-1, 1), 28)
    assert not nprox.polynomials._first_block_first([line, line])


def _real_grid_cases():
    rng = np.random.default_rng(6)
    yield "one_block", [rng.uniform(-1, 1, (40, 2))], 9
    yield "two_blocks", [rng.uniform(-1, 1, 17), rng.uniform(-1, 1, 13)], 9
    yield "three_blocks", [rng.uniform(-1, 1, 6), rng.uniform(-1, 1, (5, 2)),
                           rng.uniform(-1, 1, 7)], 7
    yield "cylinder", list(cylinder_blocks(64)), 12


def real_poly(rng, nvars, degree):
    return Polynomial(nvars, degree, rng.standard_normal(monomial_count(nvars, degree)))


def strided_evaluate_grid(polys, blocks):
    """Oracle: ``evaluate_grid`` as it wrote a real path into the real parts of its result.

    The contractions as ``_grid_rows`` orders them, the last one into
    ``out.real`` of the complex128 result where every input is real.
    """
    _, degree, coeffs = nprox.polynomials._coefficient_matrix(polys)
    blocks = [np.asarray(b, dtype=complex).reshape(len(b), -1) for b in blocks]
    sizes = tuple(b.shape[1] for b in blocks)
    m = int(np.prod([b.shape[0] for b in blocks]))
    out = np.zeros((coeffs.shape[1], m), dtype=complex)
    if degree < 0:
        return out.T
    tables = [monomial_vandermonde(b, degree) for b in blocks]
    views = [x.real if not np.any(x.imag) else x for x in [coeffs] + tables]
    real = all(x.dtype == np.float64 for x in views)
    if real:
        coeffs, tables = views[0], views[1:]
    target = out.real if real else out
    grid = np.zeros((coeffs.shape[1],) + tuple(t.shape[1] for t in tables), dtype=coeffs.dtype)
    grid[(slice(None),) + factor_ranks(sizes, degree)] = coeffs.T
    if nprox.polynomials._first_block_first(tables):
        first, last = tables
        grid = (first @ grid).reshape(-1, last.shape[1])
        np.matmul(grid, last.T, out=target.reshape(-1, last.shape[0]))
        return out.T
    grid = grid.reshape(-1, tables[-1].shape[1])
    if len(tables) == 1:
        np.matmul(grid, tables[0].T, out=target)
        return out.T
    grid = grid @ tables[-1].T
    done = tables[-1].shape[0]
    for table in reversed(tables[1:-1]):
        grid = table @ grid.reshape(-1, table.shape[1], done)
        done *= table.shape[0]
    first = tables[0]
    np.matmul(first, grid.reshape(len(polys), first.shape[1], done),
              out=target.reshape(len(polys), first.shape[0], done))
    return out.T


@pytest.mark.parametrize("case", list(_grid_cases()) + list(_real_grid_cases()),
                         ids=lambda case: case[0])
def test_evaluate_grid_keeps_its_result_from_float64_rows(case):
    _, blocks, top = case
    nvars = sum(np.asarray(b).reshape(len(b), -1).shape[1] for b in blocks)
    rng = np.random.default_rng(top + 1)
    for make in (random_poly, real_poly):
        polys = [make(rng, nvars, d) for d in (0, top // 2, top)]
        polys += [make(rng, nvars, 3).embedded(top + 2), Polynomial.zero(nvars, 4)]
        got = evaluate_grid(polys, blocks)
        want = strided_evaluate_grid(polys, blocks)
        assert got.dtype == np.complex128 and got.shape == want.shape
        assert np.array_equal(got, want)
        rows = nprox.polynomials._grid_rows(polys, blocks)
        assert rows.flags.c_contiguous and rows.shape == (len(polys), got.shape[0])
        assert np.array_equal(rows, got.T)
        points_real = all(not np.any(np.asarray(b).imag) for b in blocks)
        assert rows.dtype == (np.float64 if make is real_poly and points_real else np.complex128)


@pytest.mark.parametrize("case", list(_real_grid_cases()), ids=lambda case: case[0])
def test_evaluate_grid_contracts_real_inputs_in_real_tables(monkeypatch, case):
    _, blocks, top = case
    views = []
    real_or_self = nprox.polynomials._real_or_self

    def recording(x):
        views.append(real_or_self(x).dtype)
        return real_or_self(x)

    monkeypatch.setattr(nprox.polynomials, "_real_or_self", recording)
    nvars = sum(np.asarray(b).reshape(len(b), -1).shape[1] for b in blocks)
    rng = np.random.default_rng(top)
    polys = [real_poly(rng, nvars, d) for d in (0, top // 2, top)]
    polys.append(real_poly(rng, nvars, 3).embedded(top + 2))
    got = evaluate_grid(polys, blocks)
    # the coefficients and every block's table, all real
    assert views == [np.dtype(np.float64)] * (1 + len(blocks))
    assert got.dtype == np.complex128 and not np.any(got.imag)
    joined = cartesian(*(np.asarray(b, dtype=complex).reshape(len(b), -1) for b in blocks))
    want = evaluate(polys, joined)
    for j in range(len(polys)):
        assert np.max(np.abs(got[:, j] - want[:, j])) <= 1e-14 * np.max(np.abs(want[:, j]))


@pytest.mark.parametrize("where", ["coefficient", "point"])
def test_evaluate_grid_keeps_the_complex_path_for_one_complex_entry(where):
    rng = np.random.default_rng(7)
    blocks = [rng.uniform(-1, 1, 9), rng.uniform(-1, 1, (8, 2))]
    polys = [real_poly(rng, 3, 6), real_poly(rng, 3, 4)]
    if where == "coefficient":
        coeffs = polys[1].coeffs.copy()
        coeffs[5] += 0.5j
        polys[1] = Polynomial(3, 4, coeffs)
    else:
        blocks[1] = blocks[1].astype(complex)
        blocks[1][3, 1] += 0.25j
    got = evaluate_grid(polys, blocks)
    # the complex contractions, bit for bit, imaginary parts kept
    assert np.array_equal(got, complex_contraction(polys, blocks))
    assert np.any(got.imag)
    joined = cartesian(*(np.asarray(b, dtype=complex).reshape(len(b), -1) for b in blocks))
    want = evaluate(polys, joined)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_evaluate_grid_rejects_blocks_of_the_wrong_width():
    p = Polynomial.monomial(3, (1, 1, 1))
    with pytest.raises(ValueError, match="coordinates"):
        evaluate_grid([p], [np.zeros(4), np.zeros(5)])


def test_evaluate_rejects_bad_shapes():
    p = Polynomial.monomial(2, (1, 1))
    with pytest.raises(ValueError):
        evaluate([p], np.zeros((5, 3)))
    with pytest.raises(ValueError):
        p.eval_many(np.zeros((5, 1)))
    with pytest.raises(ValueError):
        evaluate([p, Polynomial.monomial(3, (1, 0, 0))], np.zeros((5, 2)))


def test_eval_accepts_real_points_and_single_point():
    p = Polynomial.monomial(2, (1, 1))
    assert p.eval([2.0, 3.0]) == pytest.approx(6.0)
    vals = p.eval_many(np.array([[2.0, 3.0], [1.0, -1.0]]))
    assert np.allclose(vals, [6.0, -1.0])


def test_multiply_is_pointwise_product():
    rng = np.random.default_rng(11)
    for nvars, d1, d2 in [(1, 6, 4), (2, 3, 4), (3, 2, 3)]:
        p = random_poly(rng, nvars, d1)
        q = random_poly(rng, nvars, d2)
        pq = multiply(p, q)
        assert pq.degree == d1 + d2
        pts = rng.standard_normal((8, nvars)) + 1j * rng.standard_normal((8, nvars))
        assert np.allclose(
            pq.eval_many(pts), p.eval_many(pts) * q.eval_many(pts), rtol=1e-12, atol=1e-11
        )


def test_multiply_matches_double_loop_over_terms():
    rng = np.random.default_rng(17)
    for nvars, d1, d2 in [(1, 5, 3), (2, 4, 6), (3, 3, 2), (3, 0, 4)]:
        p = random_poly(rng, nvars, d1)
        q = random_poly(rng, nvars, d2)
        # zero some terms so the products skip them
        p = Polynomial(nvars, d1, np.where(rng.uniform(size=p.coeffs.shape) < 0.3, 0, p.coeffs))
        want = np.zeros(monomial_count(nvars, d1 + d2), dtype=complex)
        for a, cp in zip(exponents(nvars, d1), p.coeffs):
            for b, cq in zip(exponents(nvars, d2), q.coeffs):
                want[rank_of(a + b)] += cp * cq
        got = multiply(p, q).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert not np.any(multiply(Polynomial.zero(nvars, d1), q).coeffs)


def test_multiply_monomials_adds_exponents():
    p = Polynomial.monomial(2, (1, 2), 2.0)
    q = Polynomial.monomial(2, (0, 3), -1.5)
    pq = multiply(p, q)
    assert pq.coeff((1, 5)) == pytest.approx(-3.0)
    assert np.count_nonzero(pq.coeffs) == 1


def test_addition_promotes_degree_bounds():
    p = Polynomial.monomial(1, (3,))
    q = Polynomial.constant(1, 1.0)
    s = p + q
    assert s.degree == 3
    assert s.coeff((0,)) == 1.0 and s.coeff((3,)) == 1.0
    assert (p - p).effective_degree() == -1


def test_pickle_round_trip_keeps_the_coefficients_read_only():
    # sweeps send projections back from worker processes by pickle
    p = Polynomial(2, 3, np.arange(10) + 1j)
    q = pickle.loads(pickle.dumps(p))
    assert type(q) is Polynomial and (q.nvars, q.degree) == (2, 3)
    assert np.array_equal(q.coeffs, p.coeffs) and q.coeffs.dtype == np.complex128
    assert not q.coeffs.flags.writeable
    with pytest.raises(AttributeError, match="immutable"):
        q.degree = 4


def test_derivative_against_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for nvars, degree, alpha in [(1, 6, (2,)), (2, 5, (1, 1)), (3, 4, (0, 1, 1))]:
        p = random_poly(rng, nvars, degree)
        d = p.derivative(alpha)
        point = rng.standard_normal(nvars) * 0.4
        # central differences, one direction at a time
        def fd(f, pt, var):
            e = np.zeros(nvars)
            e[var] = h
            return (f(pt + e) - f(pt - e)) / (2 * h)

        def apply_fd(pt):
            fns = [lambda q: p.eval(q)]
            for v, a in enumerate(alpha):
                for _ in range(a):
                    prev = fns[-1]
                    fns.append(lambda q, prev=prev, v=v: fd(prev, q, v))
            return fns[-1](pt)

        assert d.eval(point) == pytest.approx(apply_fd(point), rel=2e-5, abs=2e-5)


def test_derivative_exact_on_monomials():
    p = Polynomial.monomial(2, (3, 2), 1.0)
    d = p.derivative((1, 2))
    # D^(1,2) x^3 y^2 = 3 * 2 * x^2 = 6 x^2
    assert d.coeff((2, 0)) == pytest.approx(6.0)
    assert np.count_nonzero(d.coeffs) == 1
    assert p.derivative((4, 0)).effective_degree() == -1


def test_derivative_order_zero_is_identity():
    p = Polynomial.monomial(2, (2, 1), 5.0)
    assert coeff_distance(p.derivative((0, 0)), p) == 0.0


def test_tensor_product_coefficients_factor():
    rng = np.random.default_rng(5)
    # unequal variable counts and degrees, degree-0 factors on either side
    for n1, d1, n2, d2 in [(1, 3, 2, 2), (1, 2, 1, 2), (2, 4, 1, 1), (3, 1, 2, 3),
                           (2, 0, 1, 3), (1, 3, 3, 0)]:
        p = random_poly(rng, n1, d1)
        q = random_poly(rng, n2, d2)
        for left, right in ((p, q), (Polynomial.zero(n1, d1), q),
                            (p, Polynomial.zero(n2, d2))):
            t = tensor_product(left, right)
            assert t.nvars == n1 + n2 and t.degree == d1 + d2
            # every term pair once and nothing else, with the same bits: the
            # pairs inside both bounds multiplied as arrays, because numpy's
            # vectorized complex product can round apart from a scalar one
            pairs = [(tuple(row[:n1]), tuple(row[n1:])) for row in exponents(n1 + n2, d1 + d2)]
            inside = np.array([sum(a) <= d1 and sum(b) <= d2 for a, b in pairs])
            kept = [pair for pair, k in zip(pairs, inside) if k]
            want = np.zeros(len(pairs), dtype=complex)
            want[inside] = (np.array([left.coeff(a) for a, _ in kept])
                            * np.array([right.coeff(b) for _, b in kept]))
            assert np.array_equal(t.coeffs, want)
            assert np.count_nonzero(t.coeffs) == (
                np.count_nonzero(left.coeffs) * np.count_nonzero(right.coeffs))
        # evaluation factorizes as well
        z = rng.standard_normal((4, n1)) + 0.2j
        w = rng.standard_normal((4, n2))
        joined = np.hstack([z, w])
        assert np.allclose(tensor_product(p, q).eval_many(joined),
                           p.eval_many(z) * q.eval_many(w))


def test_truncate_and_embed():
    p = Polynomial.monomial(1, (4,)) + Polynomial.monomial(1, (1,), 2.0)
    t = p.truncated(2)
    assert t.degree == 2 and t.coeff((1,)) == 2.0
    e = t.embedded(5)
    assert e.degree == 5 and e.coeff((1,)) == 2.0


def test_json_round_trip():
    rng = np.random.default_rng(13)
    p = random_poly(rng, 2, 3)
    q = Polynomial.from_json(p.to_json())
    assert q.nvars == p.nvars and q.degree == p.degree
    assert coeff_distance(p, q) == 0.0


def test_immutability():
    p = Polynomial.monomial(1, (1,))
    with pytest.raises(AttributeError):
        p.degree = 7
    with pytest.raises(ValueError):
        p.coeffs[0] = 5.0
