"""Dense multivariate polynomials over the complex numbers.

Coefficients are stored densely in graded-lex monomial order (see
:mod:`nprox.indexing`).  ``degree`` is a storage bound: the coefficient array
always has length ``monomial_count(nvars, degree)`` and trailing blocks may be
zero.  Instances are immutable; all arithmetic returns new objects.

The public constructor copies and checks its coefficients.  This package's
own results are built by ``Polynomial._owning``, which takes a freshly built
complex128 vector as it is: arithmetic and solves make many small
polynomials, and each would pay for the copy and the checks.
"""
from __future__ import annotations

import numpy as np

from .config import read_config, read_index, read_scalar
from .indexing import (
    degree_starts,
    exponents,
    factor_ranks,
    monomial_count,
    monomial_vandermonde,
    rank_of,
    ranks_of_rows,
)
from .points import as_rows

_EVAL_CHUNK = 4096


def _real_or_self(x: np.ndarray) -> np.ndarray:
    """``x.real`` where ``x`` has no nonzero imaginary part, else ``x``.

    Real nodes, real functionals and real test functions on real points give
    complex128 arrays whose imaginary parts are 0; their real views do the
    same products and sums in float64, at about a quarter of the arithmetic.
    A product of zero imaginary parts adds 0, so an elementwise real product
    is the complex one's real part exactly, and complex ``abs`` is
    ``hypot(x, 0) = |x|`` there.  The real matrix products read the complex
    ones' real parts bit for bit on every sweep report compared (OpenBLAS,
    numpy 2.4, one BLAS thread).  A real ``x`` is returned as it is.
    """
    if not np.iscomplexobj(x):
        return x
    return x.real if not np.any(x.imag) else x


class Polynomial:
    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs=None):
        degree = read_index("degree", degree)
        if degree < 0:
            raise ValueError("degree bound must be >= 0")
        size = monomial_count(nvars, degree)
        if coeffs is None:
            data = np.zeros(size, dtype=np.complex128)
        else:
            data = np.asarray(coeffs, dtype=np.complex128).reshape(-1).copy()
            if data.shape[0] != size:
                raise ValueError(
                    f"expected {size} coefficients for nvars={nvars}, "
                    f"degree={degree}, got {data.shape[0]}"
                )
        data.setflags(write=False)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", data)

    @classmethod
    def _owning(cls, nvars: int, degree: int, data: np.ndarray) -> "Polynomial":
        """A polynomial whose coefficients are ``data``, neither copied nor checked.

        ``data`` is a complex128 vector of ``monomial_count(nvars, degree)``
        entries that nothing else writes to; it is made read-only here.
        """
        data.setflags(write=False)
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "degree", degree)
        object.__setattr__(poly, "coeffs", data)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial instances are immutable")

    def __reduce__(self):
        # the default unpickler sets attributes, which __setattr__ refuses;
        # the checked constructor copies the coefficients and makes them read-only
        return (type(self), (self.nvars, self.degree, self.coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, degree: int = 0) -> "Polynomial":
        return cls(nvars, degree)

    @classmethod
    def constant(cls, nvars: int, value, degree: int = 0) -> "Polynomial":
        coeffs = np.zeros(monomial_count(nvars, degree), dtype=np.complex128)
        coeffs[0] = value
        return cls(nvars, degree, coeffs)

    @classmethod
    def monomial(cls, nvars: int, alpha, coeff=1.0) -> "Polynomial":
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != nvars:
            raise ValueError("alpha length does not match nvars")
        degree = sum(alpha)
        coeffs = np.zeros(monomial_count(nvars, degree), dtype=np.complex128)
        coeffs[rank_of(alpha)] = coeff
        return cls(nvars, degree, coeffs)

    # -- bookkeeping -------------------------------------------------------

    def coeff(self, alpha) -> complex:
        """Coefficient of the monomial ``z^alpha`` (0 beyond the bound)."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.nvars:
            raise ValueError("alpha length does not match nvars")
        if sum(alpha) > self.degree:
            return 0j
        return complex(self.coeffs[rank_of(alpha)])

    def effective_degree(self) -> int:
        """Largest degree with a nonzero coefficient, -1 for the zero polynomial."""
        starts = degree_starts(self.nvars, self.degree)
        for j in range(self.degree, -1, -1):
            if np.any(self.coeffs[starts[j]:starts[j + 1]] != 0):
                return j
        return -1

    def embedded(self, degree: int) -> "Polynomial":
        """The same polynomial with the storage bound raised to ``degree``."""
        if degree < self.degree:
            raise ValueError("embedded() cannot lower the bound; use truncated()")
        if degree == self.degree:
            return self
        coeffs = np.zeros(monomial_count(self.nvars, degree), dtype=np.complex128)
        coeffs[: self.coeffs.shape[0]] = self.coeffs
        return Polynomial._owning(self.nvars, degree, coeffs)

    def truncated(self, degree: int) -> "Polynomial":
        """Drop all terms of degree above ``degree``."""
        if degree >= self.degree:
            return self.embedded(degree)
        keep = monomial_count(self.nvars, degree)
        return Polynomial._owning(self.nvars, degree, self.coeffs[:keep])

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "Polynomial"):
        """The larger degree bound, and both coefficient vectors at that bound."""
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        d = max(self.degree, other.degree)
        return d, self.embedded(d).coeffs, other.embedded(d).coeffs

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        d, a, b = self._aligned(other)
        return Polynomial._owning(self.nvars, d, a + b)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        d, a, b = self._aligned(other)
        return Polynomial._owning(self.nvars, d, a - b)

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, scalar):
        if isinstance(scalar, Polynomial):
            return NotImplemented
        return Polynomial._owning(self.nvars, self.degree, self.coeffs * complex(scalar))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return multiply(self, other)
        return Polynomial._owning(self.nvars, self.degree, self.coeffs * complex(other))

    # -- evaluation --------------------------------------------------------

    def eval(self, point) -> complex:
        return complex(self.eval_many(np.asarray(point, dtype=np.complex128).reshape(1, -1))[0])

    def eval_many(self, points) -> np.ndarray:
        """Evaluate at ``points`` of shape ``(m, nvars)``; returns ``(m,)``."""
        return evaluate([self], points)[:, 0]

    # -- calculus ----------------------------------------------------------

    def derivative(self, alpha) -> "Polynomial":
        """Exact partial derivative ``D^alpha``."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.nvars:
            raise ValueError("alpha length does not match nvars")
        if any(a < 0 for a in alpha):
            raise ValueError("derivative orders must be nonnegative")
        order = sum(alpha)
        if order == 0:
            return self
        if order > self.degree:
            return Polynomial.zero(self.nvars, 0)
        dout = self.degree - order
        E_out = exponents(self.nvars, dout)
        src = ranks_of_rows(self.nvars, self.degree, E_out + np.asarray(alpha, dtype=np.int32))
        factor = np.ones(E_out.shape[0], dtype=np.float64)
        for v, a in enumerate(alpha):
            for t in range(1, a + 1):
                factor *= E_out[:, v] + t
        return Polynomial._owning(self.nvars, dout, self.coeffs[src] * factor)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Polynomial":
        cfg = read_config("poly", obj)
        coeffs = np.array([read_scalar("coeffs", c) for c in cfg["coeffs"]])
        return cls(cfg["nvars"], cfg["degree"], coeffs)

    def __repr__(self):
        nnz = int(np.count_nonzero(self.coeffs))
        return f"Polynomial(nvars={self.nvars}, degree={self.degree}, terms={nnz})"


def multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    """Product polynomial with degree bound ``p.degree + q.degree``."""
    if p.nvars != q.nvars:
        raise ValueError("mixed variable counts")
    n = p.nvars
    dout = p.degree + q.degree
    if n == 1:
        return Polynomial._owning(1, dout, np.convolve(p.coeffs, q.coeffs))
    nzp = np.flatnonzero(p.coeffs)
    nzq = np.flatnonzero(q.coeffs)
    # every term pair at once; bincount adds the pairs that share a rank
    pairs = exponents(n, p.degree)[nzp, None, :] + exponents(n, q.degree)[None, nzq, :]
    ranks = ranks_of_rows(n, dout, pairs.reshape(-1, n))
    terms = np.multiply.outer(p.coeffs[nzp], q.coeffs[nzq]).ravel()
    size = monomial_count(n, dout)
    out = np.zeros(size, dtype=np.complex128)
    out.real = np.bincount(ranks, terms.real, size)
    out.imag = np.bincount(ranks, terms.imag, size)
    return Polynomial._owning(n, dout, out)


def tensor_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """Polynomial ``p(z) q(w)`` on the joined variable block ``(z, w)``.

    A factor rank falls inside a factor's storage exactly when its degree
    is within that bound (the graded-lex prefix property), so the terms
    kept are those whose factor ranks do.
    """
    r1, r2 = factor_ranks((p.nvars, q.nvars), p.degree + q.degree)
    keep = (r1 < p.coeffs.shape[0]) & (r2 < q.coeffs.shape[0])
    coeffs = np.zeros(r1.shape[0], dtype=np.complex128)
    coeffs[keep] = p.coeffs[r1[keep]] * q.coeffs[r2[keep]]
    return Polynomial._owning(p.nvars + q.nvars, p.degree + q.degree, coeffs)


def coeff_distance(p: Polynomial, q: Polynomial) -> float:
    """Max absolute coefficient difference after aligning degree bounds."""
    _, a, b = p._aligned(q)
    return float(np.max(np.abs(a - b)))


def _coefficient_matrix(polys):
    """``(nvars, degree, coeffs)``: every polynomial as a column of ``coeffs``.

    ``degree`` is the largest degree with a nonzero coefficient (-1 when all
    are zero), and ``coeffs`` has ``monomial_count(nvars, degree)`` rows; by
    the graded-lex prefix property a lower degree's coefficients are the
    leading entries of its zero-padded column.
    """
    polys = list(polys)
    nvars = polys[0].nvars
    if any(p.nvars != nvars for p in polys):
        raise ValueError("mixed variable counts")
    # trailing zero blocks of a storage bound need no powers
    degree = max(p.effective_degree() for p in polys)
    size = monomial_count(nvars, degree)
    coeffs = np.zeros((size, len(polys)), dtype=np.complex128)
    for j, p in enumerate(polys):
        c = p.coeffs[:size]
        coeffs[: c.shape[0], j] = c
    return nvars, degree, coeffs


def evaluate(polys, points) -> np.ndarray:
    """Values of every polynomial in ``polys`` at ``points``, shape ``(m, len(polys))``.

    One monomial table per chunk of ``_EVAL_CHUNK`` points serves them all,
    cut at the largest degree with a nonzero coefficient.  This is the path
    for point sets without product structure; ``evaluate_grid`` takes the
    Cartesian ones.
    """
    nvars, degree, coeffs = _coefficient_matrix(polys)
    pts = as_rows(points, nvars)
    out = np.zeros((pts.shape[0], coeffs.shape[1]), dtype=np.complex128)
    if degree < 0:
        return out
    for lo in range(0, pts.shape[0], _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, pts.shape[0])
        out[lo:hi] = monomial_vandermonde(pts[lo:hi], degree) @ coeffs
    return out


def _first_block_first(tables) -> bool:
    """Whether two blocks' tables contract with fewer multiply-adds first block first.

    For tables of shapes (m1, n1) and (m2, n2), points by monomials, each
    polynomial takes m1 n2 (n1 + m2) multiply-adds with the first block
    first and n1 m2 (n2 + m1) with the last block first.  One block, three
    or more, and a tie keep the last block first.
    """
    if len(tables) != 2:
        return False
    (m1, n1), (m2, n2) = (t.shape for t in tables)
    return m1 * n2 * (n1 + m2) < n1 * m2 * (n2 + m1)


def evaluate_grid(polys, blocks) -> np.ndarray:
    """``evaluate(polys, cartesian(*blocks))`` from one table per block.

    Each block is a point set on consecutive variables (a 1-D sequence is
    one variable).  A monomial z^E of the joined variables is the product of
    its blocks' monomials, so every polynomial's coefficients scatter into
    an array ``C[r1, r2, ...]`` indexed by the block ranks
    (``indexing.factor_ranks``), and its values on the grid are that array
    contracted with each block's monomial table, ``V1 @ C @ V2.T`` for two
    blocks.  Rows come in ``cartesian``'s left-major order; the result has
    shape ``(m, len(polys))`` and is complex128.

    The last block is contracted first, except that two blocks contract
    the first one first where that takes fewer multiply-adds
    (``_first_block_first``): on the cylinder grid, 256 disk points of 45
    monomials by 64 segment points of 9 at degree 8, that is 1.76 M rather
    than 5.34 M for the seven degrees of a sweep.  The two orders group each
    value's sum of products apart, and agree to 1e-14 relative on the grids
    tested.

    Where the coefficients and every table are real (``_real_or_self``),
    the contractions run in float64 (``_grid_rows``) and the result is their
    complex copy, the real products' bits with zero imaginary parts.  Flat
    ``evaluate`` stays complex: a real path there moved the degree-12
    cylinder's node residual from 1.6e-14 to 3.7e-14.
    """
    return _grid_rows(polys, blocks).astype(np.complex128, copy=False).T


def _grid_rows(polys, blocks) -> np.ndarray:
    """``evaluate_grid(polys, blocks).T``, float64 where the inputs are real.

    One contiguous row of values per polynomial, shape ``(len(polys), m)``:
    float64 where the coefficients and every block's monomial table have no
    imaginary part (``_real_or_self``), complex128 otherwise.
    """
    nvars, degree, coeffs = _coefficient_matrix(polys)
    blocks = [as_rows(b) for b in blocks]
    sizes = tuple(b.shape[1] for b in blocks)
    if sum(sizes) != nvars:
        raise ValueError("blocks have the wrong number of coordinates")
    count = coeffs.shape[1]
    m = int(np.prod([b.shape[0] for b in blocks]))
    if degree < 0:
        return np.zeros((count, m))
    tables = [monomial_vandermonde(b, degree) for b in blocks]
    views = [_real_or_self(x) for x in [coeffs] + tables]
    if all(x.dtype == np.float64 for x in views):
        coeffs, tables = views[0], views[1:]
    out = np.empty((count, m), dtype=coeffs.dtype)
    grid = np.zeros((count,) + tuple(t.shape[1] for t in tables), dtype=coeffs.dtype)
    grid[(slice(None),) + factor_ranks(sizes, degree)] = coeffs.T
    if _first_block_first(tables):
        first, last = tables
        grid = (first @ grid).reshape(-1, last.shape[1])
        np.matmul(grid, last.T, out=out.reshape(-1, last.shape[0]))
        return out
    # contract the last block first: the axes still in monomials lead and
    # the ones already in points trail, so each step is a matrix product
    grid = grid.reshape(-1, tables[-1].shape[1])
    if len(tables) == 1:
        np.matmul(grid, tables[0].T, out=out)
        return out
    grid = grid @ tables[-1].T
    done = tables[-1].shape[0]
    for table in reversed(tables[1:-1]):
        grid = table @ grid.reshape(-1, table.shape[1], done)
        done *= table.shape[0]
    first = tables[0]
    np.matmul(first, grid.reshape(count, first.shape[1], done),
              out=out.reshape(count, first.shape[0], done))
    return out


def _grid_sup_errors(polys, blocks, target) -> list[float]:
    """Per polynomial, the largest |target - value| over the grid of ``blocks``.

    ``target`` holds a function's values at ``cartesian(*blocks)``.  The
    values are ``_grid_rows``: on real inputs contiguous float64 rows, on
    which a real target (``_real_or_self``) takes its differences in float64
    without complex ``abs``.  Real and complex arithmetic give these the same
    bits, so every error is the one ``evaluate_grid``'s complex columns give.
    A non-finite value gives a non-finite error.
    """
    rows = _real_or_self(_grid_rows(polys, blocks))
    target = _real_or_self(target)
    return [float(np.max(np.abs(target - row))) for row in rows]
