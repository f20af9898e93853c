"""Graded lexicographic multi-index bookkeeping for dense polynomial storage.

Multi-indices over ``nvars`` variables are ordered by total degree first and
lexicographically within a degree, with the first variable most significant:
in two variables the order starts 1, x, y, x^2, xy, y^2.  All dense
coefficient arrays in this package follow this order.

``exponents`` is the one table of exponent rows.  Its blocks are prefixes
of the table in one variable fewer, so the rows of total degree exactly
``k`` in ``nvars + 1`` variables, without their first entry, are the first
``monomial_count(nvars, k)`` rows of ``exponents(nvars, s)`` for any
``s >= k``; the simplex cubature reads its point blocks that way.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

# Largest basis we agree to materialize; beyond this the dense representation
# stops being a desk-scale object and we fail loudly instead of thrashing.
DESK_LIMIT = 2_500_000

# monomial_vandermonde gathers this many bytes of table rows at a time: the
# block is its only temporary and stays in cache while it multiplies in.
_GATHER_BYTES = 1 << 19


@lru_cache(maxsize=None, typed=True)
def monomial_count(nvars: int, degree: int) -> int:
    """Number of monomials in ``nvars`` variables of total degree <= ``degree``.

    Cached: the small-projector paths ask for the same few counts many times.
    ``typed`` keeps a float argument failing as ``comb`` fails, never
    answered from an int's entry.
    """
    if nvars < 1:
        raise ValueError("nvars must be a positive integer")
    if degree < 0:
        return 0
    count = comb(nvars + degree, nvars)
    if count > DESK_LIMIT:
        raise ValueError(
            f"monomial basis of size {count} exceeds the supported desk scale"
        )
    return count


@lru_cache(maxsize=None)
def exponents(nvars: int, degree: int) -> np.ndarray:
    """All exponent rows of degree <= ``degree`` in graded-lex order.

    Returns a read-only int32 array of shape ``(monomial_count, nvars)``.
    Every degree block is built from prefixes of the table one variable
    smaller: its first ``monomial_count(nvars - 1, j)`` rows, in order, are
    the tails of the degree-``j`` rows, each led by ``j`` minus its degree.
    """
    out = np.empty((monomial_count(nvars, degree), nvars), dtype=np.int32)
    if nvars == 1:
        out[:, 0] = np.arange(out.shape[0])
    else:
        tail = exponents(nvars - 1, degree)
        tail_degree = tail.sum(axis=1)
        start = 0
        for j in range(degree + 1):
            m = monomial_count(nvars - 1, j)
            out[start:start + m, 0] = j - tail_degree[:m]
            out[start:start + m, 1:] = tail[:m]
            start += m
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def degree_starts(nvars: int, degree: int) -> tuple[int, ...]:
    """Start offset of each degree block; entry ``degree + 1`` is the total."""
    return tuple(monomial_count(nvars, j - 1) for j in range(degree + 2))


@lru_cache(maxsize=None)
def _falling_factorials(degree: int, top: int) -> np.ndarray:
    """Row ``a`` holds ``e (e-1) ... (e-a+1)`` for ``e = 0..degree``, ``a = 0..top``.

    A read-only float64 table (the falling factorial overflows int64 from
    21! on); each row is its own product, so it does not depend on ``top``.
    """
    e = np.arange(degree + 1)
    out = np.stack([np.prod(e[:, None] - np.arange(a)[None, :], axis=1, dtype=np.float64)
                    for a in range(top + 1)])
    out.setflags(write=False)
    return out


def monomial_vandermonde(points, degree: int, alpha=None) -> np.ndarray:
    """``D^alpha`` of every graded-lex monomial of degree <= ``degree`` at ``points``.

    ``points`` has shape ``(m, nvars)``; the result has shape
    ``(m, monomial_count(nvars, degree))``.  ``alpha`` is one derivative
    order for every point, or an ``(m, nvars)`` array of one order per
    point, so point and derivative conditions at any points share one call.
    Per variable the table entry for exponent ``e`` is
    ``e (e-1) ... (e-a+1) z^(e-a)``, which vanishes for ``e < a``, so
    derivative orders need no separate mask.  An entry depends on its own
    point and order only: a row is the same bits whichever other points
    share the call.

    The table is built monomial-major, so every gather copies whole rows, and
    returned as a transposed view of that ``(M, m)`` array.
    """
    pts = np.asarray(points, dtype=np.complex128)
    nvars = pts.shape[1]
    orders = np.zeros((1, nvars), dtype=np.int64) if alpha is None else (
        np.asarray(alpha, dtype=np.int64).reshape(-1, nvars))
    E = exponents(nvars, degree)
    e = np.arange(degree + 1)
    out = np.ones((E.shape[0], pts.shape[0]), dtype=np.complex128)
    step = max(1, _GATHER_BYTES // (out.itemsize * max(1, pts.shape[0])))
    for v in range(nvars):
        a = orders[:, v]
        table = pts[None, :, v] ** np.maximum(e[:, None] - a[None, :], 0)
        if a.any():
            fall = _falling_factorials(degree, int(a.max()))
            if a.shape[0] == 1:
                table *= fall[a[0]][:, None]
            else:
                # only the points differentiated in v: a factor of 1 would
                # still round the signs of zeros
                cols = np.flatnonzero(a)
                table[:, cols] *= fall[a[cols]].T
        for r in range(0, E.shape[0], step):
            out[r:r + step] *= table[E[r:r + step, v]]
    return out.T


@lru_cache(maxsize=1024)
def derivative_gather(nvars: int, degree: int, alphas: tuple) -> tuple:
    """``D^alpha`` of the monomials as a gather from lower-degree monomials.

    ``alphas`` is a tuple of orders of one modulus j.  For each order and
    each graded-lex monomial z^gamma of degree <= ``degree``,
    ``D^alpha z^gamma = c z^(gamma - alpha)``, where c is the product of
    the falling factorials ``gamma_v (gamma_v - 1) ... (gamma_v - alpha_v + 1)``.
    Returns read-only ``(index, coeff)`` of shape ``(len(alphas), M)``:
    ``index`` is the rank of ``gamma - alpha`` in the degree ``degree - j``
    basis, or ``monomial_count(nvars, degree - j)`` where ``gamma - alpha``
    has a negative entry, and ``coeff`` is c there and 0 elsewhere.  So
    values v of every monomial of degree <= ``degree - j``, extended by one
    zero, give the derivatives as ``coeff * v[index]``.
    """
    A = np.array(alphas, dtype=np.int64).reshape(len(alphas), nvars)
    j = int(A[0].sum()) if len(alphas) else 0
    if np.any(A.sum(axis=1) != j):
        raise ValueError("derivative orders of one gather share their modulus")
    E = exponents(nvars, degree)
    diff = E[None, :, :] - A[:, None, :]
    valid = np.all(diff >= 0, axis=2)
    index = np.full(valid.shape, monomial_count(nvars, degree - j), dtype=np.intp)
    if valid.any():
        index[valid] = ranks_of_rows(nvars, degree - j, diff[valid])
    coeff = np.ones(valid.shape)
    if A.any():
        fall = _falling_factorials(degree, int(A.max()))
        for v in range(nvars):
            coeff *= fall[A[:, v][:, None], E[None, :, v]]
    coeff[~valid] = 0.0
    index.setflags(write=False)
    coeff.setflags(write=False)
    return index, coeff


def rank_of(alpha) -> int:
    """Graded-lex rank of a multi-index, zero based."""
    alpha = tuple(int(a) for a in alpha)
    if not alpha or any(a < 0 for a in alpha):
        raise ValueError(f"not a multi-index: {alpha!r}")
    nvars = len(alpha)
    deg = sum(alpha)
    rank = comb(nvars + deg - 1, nvars) if deg > 0 else 0
    remaining = deg
    for v in range(nvars - 1):
        slots = nvars - v - 2
        for lead in range(remaining, alpha[v], -1):
            rank += comb(remaining - lead + slots, slots)
        remaining -= alpha[v]
    return rank


@lru_cache(maxsize=None)
def _binomials(top: int, width: int) -> np.ndarray:
    """``C(a, b)`` for ``a <= top`` and ``b <= width`` as a read-only int64 table."""
    table = np.zeros((top + 1, width + 1), dtype=np.int64)
    table[:, 0] = 1
    for b in range(1, width + 1):
        # hockey stick: C(a, b) is the sum of C(t, b - 1) over t < a
        table[1:, b] = np.cumsum(table[:-1, b - 1])
    table.setflags(write=False)
    return table


def ranks_of_rows(nvars: int, degree: int, rows) -> np.ndarray:
    """Vector of graded-lex ranks for an array of exponent rows.

    The closed form of :func:`rank_of`, vectorized: its inner loop over
    leading exponents is a hockey-stick sum, one binomial per variable.  A
    row of total degree above ``degree`` or with a negative entry raises
    ``ValueError``.
    """
    monomial_count(nvars, degree)  # desk-scale guard
    rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), nvars)
    # tail[:, v] is the degree left for variables v, v+1, ...
    tail = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
    if np.any(rows < 0) or np.any(tail[:, 0] > degree):
        raise ValueError(f"exponent rows outside the degree-{degree} basis")
    binom = _binomials(nvars + degree, nvars)
    # monomials of lower total degree, then those ahead within the degree
    ranks = binom[nvars - 1 + tail[:, 0], nvars]
    for v in range(nvars - 1):
        ranks += binom[tail[:, v + 1] + nvars - 2 - v, nvars - 1 - v]
    return ranks


@lru_cache(maxsize=None)
def factor_ranks(sizes: tuple[int, ...], degree: int):
    """Block ranks of every product-space rank of degree <= ``degree``.

    Row ``i`` of ``exponents(sum(sizes), degree)`` splits into consecutive
    blocks of ``sizes[0], sizes[1], ...`` variables; the return value is the
    tuple of rank vectors of those blocks in their own graded-lex bases (each
    taken with degree bound ``degree``).
    """
    E = exponents(sum(sizes), degree)
    cuts = np.cumsum((0,) + tuple(sizes))
    out = tuple(ranks_of_rows(n, degree, E[:, lo:lo + n]) for n, lo in zip(sizes, cuts))
    for r in out:
        r.setflags(write=False)
    return out
