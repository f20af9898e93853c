"""Newton-structured polynomial projectors and their products.

A projector of degree d in n variables is specified by dim P_d conditions
(linear functionals) in graded-lex level order: level j is the next
dim P_j - dim P_{j-1} of them, so the count fixes the degree.  Nested
unisolvence means every leading block (conditions up to level j against
monomials up to degree j) is invertible: the degree-k truncation solves the
leading k-block, and the k-th Newton summand is the difference of
consecutive truncations.

Where each mechanism lives, on ``NewtonStructuredProjector``:

- the collocation rows: ``matrix``, assembled at its first read in one
  ``functionals.rows`` call, and its real view ``_real_view``, which the
  layers that feed no solve read;
- the nesting gate: ``_check_nesting``, an SVD per row-equilibrated
  leading block, or a certified bound in its place (``_cond_bounds``);
- the solves: ``_solve_range``, after ``_check_finite``, through one
  batched ``_padded_solve`` on a projector of at most ``_STACK_CONDITIONS``
  conditions, else ``_level_solve`` per level, the one solve of a level's
  row-equilibrated leading block;
- the memo: ``_rhs`` keeps the last input's values and
  ``_truncation_table`` the table solved from them, so ``apply``,
  ``truncate``, ``truncations`` and ``newton_summands`` evaluate an input
  once.

On ``NewtonProduct``: the tensor conditions as one index table of factor
condition pairs (``_tensor_pairs``), rows gathered from the factors' rows
(``_gather``), a split function's values from the factors' memos
(``_function_rhs``) and a polynomial's in factor form (``_polynomial_rhs``).
From ``_BOUND_CONDITIONS`` conditions a product of gated factors is
factor-wise (``_bounded``): it bounds its levels' condition estimates from
factor quantities (``_factor_bounds``), takes its row scales from the
factors' rows (``_row_scales``), and solves through its factors' level
solves (``_factor_solve``) behind a residual guard (``_solve_range``), so
it assembles ``matrix`` only where something reads it.
"""
from __future__ import annotations

import copy
from bisect import bisect_right
from functools import lru_cache

import numpy as np

from .config import check_exactness, read_index
from .functionals import DEFAULT_EXACTNESS, Functional, Tensor, rhs, rows
from .indexing import degree_starts, factor_ranks, monomial_count
# tensor_product is re-exported: code that imports or patches it here finds it
from .polynomials import Polynomial, _real_or_self, tensor_product  # noqa: F401
from .testfunctions import PoleOnSupportError, TestFunction


# Projectors with at most this many conditions solve through one stack of
# padded leading blocks (``_padded_blocks``): a truncation sweep is one
# batched ``np.linalg.solve``.  Padding every level to the full size costs
# O(n^3) per level, so the stack pays only while numpy's per-call overhead
# dominates.  A sweep over every level (``_solve_levels``), one BLAS thread,
# 2-core Xeon, numpy 2.4, stacked against one solve per level:
#
#     conditions                        stacked   per level
#     15, one variable (15 levels)        60 us      175 us
#     15, two variables (5 levels)        27 us       58 us
#     21, two variables                   49 us       77 us
#     28, two variables                   77 us       99 us
#     165, three variables (cylinder)    4.3 ms      1.3 ms
#
# Near 28 the two cross within this host's spread; 16 keeps every factor
# of the benchmark's zoo on the stack and every product above degree 4 off
# it, where a single truncation would pay for the full padded block.
_STACK_CONDITIONS = 16


# A product of at least this many conditions first bounds every leading
# block's condition estimate from factor quantities (``NewtonProduct.
# _cond_bounds``), and a level whose bound is ``_BOUND_MARGIN`` times under
# the threshold takes no SVD; such a product reads no product matrix for its
# row scales, its bounds or its solves (``NewtonProduct._factorwise``).  The
# product's build from built factors plus one ``apply`` of a function that
# splits along them (the factors' memos cleared), one BLAS thread, 2-core
# Xeon, numpy 2.4, medians of 61 alternating runs, every level certified,
# dense (an SVD per level and the product's own solve) against factor-wise:
#
#     product, conditions                           dense   factor-wise
#     Chebyshev-Leja^2 d=8, 45                    0.86 ms     1.11 ms
#     Chebyshev-Leja^2 d=9, 55                    1.08 ms     1.21 ms
#     Chebyshev-Leja^2 d=10, 66                   1.42 ms     1.40 ms
#     Chebyshev-Leja^2 d=11, 78                   1.79 ms     1.50 ms
#     Chebyshev-Leja^2 d=12, 91                   2.32 ms     1.67 ms
#     Chebyshev-Leja^2 d=14, 120                  3.94 ms     1.97 ms
#     Chebyshev-Leja^2 d=20, 231                  19.2 ms     3.65 ms
#     cylinder d=5, 56                            1.01 ms     1.10 ms
#     cylinder d=6, 84                            1.62 ms     1.34 ms
#     cylinder d=8, 165                           5.46 ms     2.14 ms
#     disk Lagrange x Taylor d=8, 45 (complex)    1.00 ms     1.09 ms
#     disk Lagrange x Taylor d=9, 55 (complex)    1.30 ms     1.20 ms
#     disk Lagrange x Taylor d=10, 66 (complex)   1.77 ms     1.33 ms
#     disk Lagrange x Taylor d=14, 120 (complex)  6.34 ms     2.11 ms
#
# Real two-variable products break even at 66 conditions, three-variable
# ones between 56 and 84, and complex ones near 50.  The benchmark's zoo
# builds products of 6 to 55 conditions, which stay on exact SVD values and
# dense solves, and the sweeps' products from 66 conditions take bounds.
_BOUND_CONDITIONS = 66
# A certified level's bound, times this margin, is below the threshold.  The
# bound is exact arithmetic on quantities that carry rounding: the factor
# inverses are accurate to about cond x eps <= 1e-4 relative
# (``_BOUND_FACTOR_COND``); the Gram sums to a few n x eps times their
# cancellation, sum |terms| / |sum|, which reads at most 1.82 on the
# Chebyshev-Leja^2 products d=2..30, 1.0 on the cylinder d=2..12 and 4.3 on
# the zoo at d=3, 8 and 14; and the SVD estimate the bound stands in for is
# itself off by about cond x 1e-17 (5.6e-6 at 1.28e12).  A factor of 10
# leaves all of these a wide berth.
_BOUND_MARGIN = 10.0
# a bound reads factor inverses only where every factor estimate up to the
# product degree is below this (and below the threshold)
_BOUND_FACTOR_COND = 1e12
# A factor-wise product solve (``NewtonProduct._factor_solve``) stands when its
# relative residual at the conditions is below this; else the dense solve runs.
# Over every ordered pair of the gate zoo's gated factors (Taylor, orthogonal,
# Lagrange and Kergin at six node families, two-variable Taylor and planar
# Kergin) at d=3, 5, 8 and 14, on exp, 1/affine and a random polynomial, the
# factor-wise truncation tables read a median of 2-8e-16; every pair without
# sorted Chebyshev, equiangular or integer nodes reads at most 4.1e-15, and so
# do the cylinder d=8..24 and Chebyshev-Leja^2 d=16..28 (at most 1.4e-15).
# Products whose left factor is ill-ordered read up to 1.0e-12 at d=8 and
# 4e-9 at d=14, where the dense solve reads at most 2.4e-14 and 4.9e-12.
_SOLVE_TOLERANCE = 1e-12


@lru_cache(maxsize=None)
def _level_rows(nvars: int, degree: int) -> np.ndarray:
    """Read-only ``(degree + 1, n)`` mask: row i belongs to the level-k block."""
    sizes = np.array(degree_starts(nvars, degree)[1:])
    inside = np.arange(sizes[-1])[None, :] < sizes[:, None]
    inside.setflags(write=False)
    return inside


def _summand_rows(table: np.ndarray) -> np.ndarray:
    """Newton summands from a truncation table: row 0, then consecutive differences."""
    return np.concatenate([table[:1], table[1:] - table[:-1]])


@lru_cache(maxsize=None)
def _residual_gather(nvars: tuple[int, int], degree: int, a1: int, a2: int):
    """Where the terms of ``BSet(degree, a1, a2)`` take their coefficients.

    Term (i1, i2) is the tensor product of the left summand i1 and the right
    summand i2, a polynomial of degree i1 + i2 on the joined variables; its
    coefficient at factor ranks (r1, r2) is the product of the two summand
    coefficients, and 0 where a rank passes its summand's degree (as in
    ``tensor_product``).  All terms share one flat buffer: returns the
    ``(i1, i2, lo, hi)`` slice of each, the buffer positions of the
    products, and the flat positions of their factors in the summand tables
    of shapes ``(a1 + 1, monomial_count(n1, a1))`` and
    ``(a2 + 1, monomial_count(n2, a2))``.
    """
    n1, n2 = nvars
    w1, w2 = monomial_count(n1, a1), monomial_count(n2, a2)
    slices, dst, src1, src2 = [], [], [], []
    size = 0
    for i1, i2 in BSet(degree, a1, a2):
        r1, r2 = factor_ranks(nvars, i1 + i2)
        keep = np.flatnonzero((r1 < monomial_count(n1, i1)) & (r2 < monomial_count(n2, i2)))
        slices.append((i1, i2, size, size + r1.shape[0]))
        dst.append(size + keep)
        src1.append(i1 * w1 + r1[keep])
        src2.append(i2 * w2 + r2[keep])
        size += r1.shape[0]
    gather = tuple(np.concatenate(part) if part else np.zeros(0, dtype=np.intp)
                   for part in (dst, src1, src2))
    for index in gather:
        index.setflags(write=False)
    return (tuple(slices), size) + gather


def _scaled_inverses(P: "NewtonStructuredProjector", degree: int) -> np.ndarray:
    """A factor's leading-block inverses B_i of levels i = 0..degree, stacked.

    B_i is the inverse of the level-i block, padded with zeros to
    ``monomial_count(P.nvars, degree)`` rows and columns: the inverse of the
    row-equilibrated block (of ``_real_view``, so a real factor's maps are
    real), its columns over the row scales.
    """
    n = monomial_count(P.nvars, degree)
    x = np.zeros((degree + 1, n, n), dtype=P._real_view.dtype)
    for i, m in enumerate(degree_starts(P.nvars, degree)[1:]):
        x[i, :m, :m] = np.linalg.inv(P._equilibrated(i, P._real_view)) / P._scales[i, :m]
    return x


def _scaled_inverse_grams(P: "NewtonStructuredProjector", x: np.ndarray,
                          summands: bool) -> np.ndarray:
    """Gram tensor of a factor's leading-block inverses under its row scales.

    ``x`` is P's ``_scaled_inverses`` B of levels 0..degree, Delta_i =
    B_i - B_{i-1} (B_0 for i = 0), and S_k = diag(``P._scales[k]``).  Entry
    (k, i, j) of the ``(degree + 1,) * 3`` result is the Frobenius inner
    product <X_i S_k, X_j S_k>_F = trace((X_i S_k)^H X_j S_k), with X =
    Delta under ``summands``, else B.  Only i, j <= k are meaningful: there
    X_i and X_j vanish past the level-k block, where S_k reads 1.  Two
    matrix products: per column c, the Gram matrix of the maps' c-th
    columns, then the squared scales against those matrices.
    """
    levels, n = x.shape[:2]
    if summands:
        x = _summand_rows(x)
    columns = x.transpose(2, 0, 1).conj() @ x.transpose(2, 1, 0)
    return (P._scales[:levels, :n] ** 2 @ columns.reshape(n, -1)).reshape((levels,) * 3)


def _degree_rows(P: "NewtonStructuredProjector", degree: int, squares: bool) -> np.ndarray:
    """Per exact monomial degree, each row's largest |entry|, or its sum of squares.

    Over the first ``monomial_count(P.nvars, degree)`` conditions of P: entry
    (a, j) of the ``(n, degree + 1)`` result reduces row a's |entries| (their
    squares under ``squares``) over the monomials of exact degree j.
    """
    n = monomial_count(P.nvars, degree)
    x = np.abs(P.matrix[:n, :n])
    starts = degree_starts(P.nvars, degree)[:-1]
    if squares:
        return np.add.reduceat(x * x, starts, axis=1)
    return np.maximum.reduceat(x, starts, axis=1)


def _level_outer(ufunc: np.ufunc, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Entry (k, a, b): ``ufunc`` over j1 + j2 <= k of x1[a, j1] x2[b, j2].

    For nonnegative ``_degree_rows`` of two factors and ``np.maximum`` (or
    ``np.add``), that is a product row's largest entry (sum of squares) on
    the monomials of degree <= k: a product monomial of degree <= k is a pair
    of factor monomials whose degrees sum to at most k, and a maximum of
    products of nonnegative numbers is the product of the maxima.  x2 is
    first reduced over j2 <= k - j1, so each j1 takes one outer product.
    """
    d = x1.shape[1] - 1
    x2 = ufunc.accumulate(x2, axis=1)
    out = np.zeros((d + 1, x1.shape[0], x2.shape[0]))
    for j in range(d + 1):
        ufunc(out[j:], x1[None, :, j, None] * x2[:, :d + 1 - j].T[:, None, :], out=out[j:])
    return out


@lru_cache(maxsize=None)
def _tensor_pairs(nvars: tuple[int, int], degree: int) -> np.ndarray:
    """The tensor conditions of a degree-``degree`` product as factor condition indices.

    Column c of the read-only ``(2, monomial_count(n1 + n2, degree))``
    table is the pair (a, b) of condition c.  Level i holds the pairs of a
    left condition of level i1 and a right one of level i - i1, for i1 =
    0..i in turn (``NewtonProduct._level_name``), a before b; as a factor's
    levels are consecutive runs of its conditions, that is every pair of
    levels summing to at most ``degree``, sorted by that sum, then a, then b.
    """
    starts = [degree_starts(n, degree) for n in nvars]
    l1, l2 = (np.repeat(np.arange(degree + 1), np.diff(s)) for s in starts)
    level = l1[:, None] + l2[None, :]
    a, b = np.nonzero(level <= degree)
    order = np.argsort(level[a, b], kind="stable")
    pairs = np.stack([a[order], b[order]]).astype(np.intp)
    pairs.setflags(write=False)
    return pairs


@lru_cache(maxsize=None)
def _factor_scatter(nvars: tuple[int, int], degree: int):
    """Where the left factor's solves land in the ``(degree + 1, m1, m2)`` table.

    The right-hand side of the left solve at level i holds the blocks j =
    0..degree - i side by side, block j being ``monomial_count(n2, j)``
    columns wide; returns the blocks' column offsets and, per i, the flat
    table position of every entry of that solve's result: entry (r1, block
    j column r2) goes to (i + j, r1, r2), with m1, m2 the factors' monomial
    counts at ``degree``.
    """
    n1, n2 = nvars
    m1, m2 = monomial_count(n1, degree), monomial_count(n2, degree)
    widths = np.array(degree_starts(n2, degree)[1:])
    offsets = np.concatenate([[0], np.cumsum(widths)])
    block = np.repeat(np.arange(degree + 1), widths)
    column = np.arange(offsets[-1]) - offsets[block]
    scatter = []
    for i in range(degree + 1):
        w = offsets[degree + 1 - i]
        rows = np.arange(monomial_count(n1, i))[:, None]
        index = ((i + block[None, :w]) * m1 + rows) * m2 + column[None, :w]
        index = index.ravel()
        index.setflags(write=False)
        scatter.append(index)
    return tuple(int(c) for c in offsets), tuple(scatter)


class NestedUnisolvenceFailure(ValueError):
    """A leading block of the collocation matrix is numerically singular."""


class BSet:
    """Index pairs (i1, i2) driving the product-projector residual.

    For factor moduli a1 = |alpha| and a2 = |beta| and product degree d, the
    set holds the pairs with i1 + i2 >= d + 1, i1 <= a1, i2 <= a2.  Iteration
    is by ascending i1 then ascending i2.
    """

    def __init__(self, degree: int, a1: int, a2: int):
        self.degree = int(degree)
        self.a1 = int(a1)
        self.a2 = int(a2)

    def __iter__(self):
        for i1 in range(self.a1 + 1):
            for i2 in range(max(0, self.degree + 1 - i1), self.a2 + 1):
                yield (i1, i2)

    def __contains__(self, pair) -> bool:
        i1, i2 = pair
        return 0 <= i1 <= self.a1 and 0 <= i2 <= self.a2 and i1 + i2 >= self.degree + 1

    def cardinality(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self):
        return f"BSet(degree={self.degree}, a1={self.a1}, a2={self.a2})"


class NewtonStructuredProjector:
    """Polynomial projector built from graded interpolation conditions.

    Parameters
    ----------
    conditions : functionals in one variable count, in graded-lex level
        order; their number must be dim P_d for some d, which is the degree.
        ``levels[j]`` is the slice of level j.
    cond_threshold : reject the construction if any leading block of the
        (row-equilibrated) collocation matrix has a condition estimate above
        this; None disables the check (and every estimate is an SVD's).  The
        default suits node families with a Leja-style ordering; badly ordered
        or growing node sets can be legitimate past it, in which case callers
        relax it explicitly.
    """

    def __init__(self, conditions, cond_threshold: float | None = 1e12):
        self.nvars, self.degree = self._graded(conditions)
        self.cond_threshold = cond_threshold
        # ``matrix`` and ``_real_view``, once read
        self._matrix: np.ndarray | None = None
        self._real: np.ndarray | None = None
        self._scales = self._row_scales()
        self.level_conds = self._check_nesting()
        # (key, values of levels 0..top, truncation table or None) of the
        # last input evaluated; see _rhs
        self._memo: tuple | None = None
        # the padded leading blocks of a small projector, built at its first solve
        self._stacked = monomial_count(self.nvars, self.degree) <= _STACK_CONDITIONS
        self._stack: np.ndarray | None = None

    def _graded(self, conditions) -> tuple[int, int]:
        """Keep ``conditions``; return their variable count and the degree their number fills."""
        self.conditions: list[Functional] = list(conditions)
        if not self.conditions:
            raise ValueError("need at least the level-0 condition")
        nvars = self.conditions[0].nvars
        if any(mu.nvars != nvars for mu in self.conditions):
            raise ValueError("conditions mix variable counts")
        count = len(self.conditions)
        degree = 0
        while monomial_count(nvars, degree) < count:
            degree += 1
        if monomial_count(nvars, degree) != count:
            raise ValueError(
                f"{count} conditions do not fill a graded space in {nvars} variables"
            )
        return nvars, degree

    @property
    def levels(self) -> list[list[Functional]]:
        """Per level j, the slice of ``conditions`` that makes it up."""
        starts = degree_starts(self.nvars, self.degree)
        return [self.conditions[lo:hi] for lo, hi in zip(starts, starts[1:])]

    # -- collocation rows ----------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """Every condition's values on the monomials up to the degree, assembled at first read.

        A projector reads it at build, for its row scales; a factor-wise
        product (``NewtonProduct``) reads it only where something asks for
        it.  A plain attribute keeps it rather than
        ``functools.cached_property``, which reads the instance ``__dict__``
        and so, from Python 3.11 on, slows every later attribute access of
        the projector.
        """
        if self._matrix is None:
            self._matrix = self._assemble(self.degree)
        return self._matrix

    @property
    def _real_view(self) -> np.ndarray:
        """``matrix``, as a real array where it has no imaginary part (``_real_or_self``).

        A real matrix (real nodes, real centers) takes real SVDs and
        inverses in the nesting gate, about twice as fast, and a factor-wise
        product's solve guard multiplies its factors' real views.  The real
        and complex estimates of one block differ by about cond x 1e-17
        relative (3e-14 at cond 3e3, 5.6e-6 at the Chebyshev-Leja product's
        level-30 block, 1.28e12); neither is the more exact one, so only a
        block that close to the threshold could be decided differently.  The
        solves keep the complex matrix: its blocks, divided by the row
        scales in complex arithmetic, round apart from the real view's.  A
        factor-wise product of real factors gathers it from their real views
        (``NewtonProduct._real_view``) and assembles no ``matrix``.
        """
        if self._real is None:
            self._real = _real_or_self(self.matrix)
        return self._real

    def _assemble(self, degree: int) -> np.ndarray:
        """Every condition's values on the monomials of degree <= ``degree``."""
        return rows(self.conditions, degree)

    def _rows(self, degree: int) -> np.ndarray:
        """``_assemble(degree)``, sliced from the matrix up to the projector degree."""
        if degree <= self.degree:
            return self.matrix[:, :monomial_count(self.nvars, degree)]
        return self._assemble(degree)

    # -- construction-time checks ------------------------------------------

    def _row_scales(self) -> np.ndarray:
        """Per level j, each row's largest |entry| in the level-j leading block.

        Row j of the ``(degree + 1, n)`` table holds them in its first
        ``monomial_count(nvars, j)`` entries and 1 after.  A running maximum
        along the rows holds every block's row maxima at once, and a maximum
        is exact, so they equal each block's own.
        """
        running = np.maximum.accumulate(np.abs(self.matrix), axis=1)
        last = np.array(degree_starts(self.nvars, self.degree)[1:]) - 1
        return np.where(_level_rows(self.nvars, self.degree), running[:, last].T, 1.0)

    def _check_nesting(self) -> list[float]:
        """Condition estimates of the row-equilibrated leading blocks, level by level.

        A level passes without its SVD when ``_cond_bounds`` proves it:
        ``_certified`` holds, and its entry is the bound.  Every other level
        takes the SVD of its block, whose 2-norm condition number is its
        entry and decides it.  The first level the SVD puts at or above
        ``cond_threshold`` raises, naming the level; since a certified level
        would pass its SVD too, the first failing level and the message are
        those of an SVD at every level.
        """
        # the first level with a row that vanishes on its block's monomials;
        # the loop still raises in level order, so a lower level's estimate
        # above the threshold is reported first
        vanishing = np.flatnonzero(np.any(self._scales == 0, axis=1))
        first = int(vanishing[0]) if vanishing.size else -1
        self.level_cond_bounds = self._cond_bounds()
        conds = []
        for j in range(self.degree + 1):
            if j == first:
                raise NestedUnisolvenceFailure(
                    f"{self._level_name(j)}: a condition vanishes on all monomials"
                )
            if self._certified(j):
                conds.append(self.level_cond_bounds[j])
                continue
            # numpy's 2-norm condition number, without its division warning
            s = np.linalg.svd(self._equilibrated(j, self._real_view), compute_uv=False)
            estimate = float(s[0] / s[-1]) if s[-1] else np.inf
            conds.append(estimate)
            if self.cond_threshold is not None and not estimate < self.cond_threshold:
                raise NestedUnisolvenceFailure(
                    f"{self._level_name(j)}: leading block condition estimate {estimate:.3e} "
                    f"exceeds threshold {self.cond_threshold:.3e}"
                )
        return conds

    def _cond_bounds(self) -> list[float] | None:
        """Upper bounds on every level's condition estimate, or None: SVDs only."""
        return None

    def _certified(self, j: int) -> bool:
        """Whether level j passed on its bound, ``_BOUND_MARGIN`` times under the threshold."""
        bounds = self.level_cond_bounds
        return bounds is not None and bounds[j] * _BOUND_MARGIN < self.cond_threshold

    def svd_levels(self) -> list[bool]:
        """Per level, whether ``level_conds`` holds its SVD value, not a certified bound."""
        return [not self._certified(j) for j in range(self.degree + 1)]

    def _level_name(self, j: int) -> str:
        """How errors name level j."""
        return f"level {j}"

    # -- linear algebra ------------------------------------------------------

    def _equilibrated(self, k: int, matrix: np.ndarray) -> np.ndarray:
        """Level k's leading block of ``matrix`` (or of ``_real_view``), rows over their scales."""
        m = monomial_count(self.nvars, k)
        return matrix[:m, :m] / self._scales[k, :m, None]

    def _padded_blocks(self) -> np.ndarray:
        """The ``(degree + 1, n, n)`` stack of row-equilibrated leading blocks.

        Level k's block fills the top left of ``stack[k]`` and an identity
        the rest, so a padded solve leaves the unknowns past the block at 0.
        Built once, at the first solve of a projector of at most
        ``_STACK_CONDITIONS`` conditions.
        """
        if self._stack is None:
            inside = _level_rows(self.nvars, self.degree)
            scaled = self.matrix[None, :, :] / self._scales[:, :, None]
            self._stack = np.where(inside[:, :, None] & inside[:, None, :], scaled,
                                   np.eye(self.matrix.shape[0]))
        return self._stack

    def _padded_solve(self, levels: range, values: np.ndarray) -> np.ndarray:
        """The solves at ``levels`` on their padded blocks, in one batched call."""
        lo, hi, size = levels.start, levels.stop, values.shape[0]
        scaled = np.zeros((hi - lo, self.matrix.shape[0], 1), dtype=np.complex128)
        np.divide(values, self._scales[lo:hi, :size], out=scaled[:, :size, 0],
                  where=_level_rows(self.nvars, self.degree)[lo:hi, :size])
        return np.linalg.solve(self._padded_blocks()[lo:hi], scaled)[:, :size, 0]

    def _level_solve(self, k: int, rhs: np.ndarray) -> np.ndarray:
        """Level k's solve of ``rhs``, one right-hand side or a column of them each.

        LAPACK's ``gesv`` (``np.linalg.solve``: the LU factorization and the
        triangular solves) on the row-equilibrated level-k block, factored
        on each call, with ``rhs`` over the same row scales.  A non-finite
        block never gets here, since the nesting gate's SVD of it fails; an
        exactly zero pivot raises ``LinAlgError`` naming the level.
        """
        m = monomial_count(self.nvars, k)
        scales = self._scales[k, :m].reshape((m,) + (1,) * (rhs.ndim - 1))
        try:
            return np.linalg.solve(self._equilibrated(k, self.matrix), rhs / scales)
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError(
                f"{self._level_name(k)}: leading block is singular") from err

    def _check_finite(self, levels: range, values: np.ndarray) -> None:
        """Raise ``ValueError`` where the right-hand sides of ``levels`` are not finite.

        LAPACK checks no finiteness.  The error names the first level of
        ``levels`` whose solve reads a non-finite value: the larger of
        ``levels.start`` and the level of the first such value.
        """
        top = levels.stop - 1
        values = values[:monomial_count(self.nvars, top)]
        if not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            k = max(levels.start, bisect_right(degree_starts(self.nvars, top), bad) - 1)
            raise ValueError(f"degree-{k} right-hand side is not finite")

    def _solve_range(self, levels: range, values: np.ndarray) -> np.ndarray:
        """Coefficients of the solves at ``levels``, one row each.

        ``values`` are the right-hand sides of levels 0..levels[-1]; row i of
        the ``(len(levels), len(values))`` result is the degree-levels[i]
        solution, 0 past its own monomials.  They are checked first
        (``_check_finite``).  A small projector solves its padded blocks as
        one batch (``_padded_solve``), so a single level and a sweep agree
        bit for bit; a larger one solves level by level (``_level_solve``).
        So does a small one whose batch fails, only to name the level that
        fails: a padded block is singular exactly when its leading block is.
        """
        self._check_finite(levels, values)
        if self._stacked:
            try:
                return self._padded_solve(levels, values)
            except np.linalg.LinAlgError:
                pass  # the loop below names the singular level
        out = np.zeros((len(levels), values.shape[0]), dtype=np.complex128)
        for row, k in enumerate(levels):
            m = monomial_count(self.nvars, k)
            out[row, :m] = self._level_solve(k, values[:m])
        return out

    def _solve_levels(self, top: int, values: np.ndarray) -> np.ndarray:
        """The truncation table of levels 0..top: ``_solve_range`` over all of them."""
        return self._solve_range(range(top + 1), values)

    def _solve(self, k: int, values: np.ndarray) -> Polynomial:
        """The degree-k projection from the values of levels 0..k."""
        return Polynomial._owning(self.nvars, k, self._solve_range(range(k, k + 1), values)[0])

    # -- projector actions ----------------------------------------------------

    def _exactness(self, exactness: int | None) -> int:
        # only Kergin conditions integrate; 2d + 5 resolves smooth integrands
        # of a degree-d projector, and DEFAULT_EXACTNESS caps the rule size
        if exactness is None:
            return min(2 * self.degree + 5, DEFAULT_EXACTNESS)
        return check_exactness(exactness)

    def _rhs(self, f, exactness: int | None, k: int | None = None) -> np.ndarray:
        """Values of f under the conditions of levels 0..k (default: all).

        They are read from the memo entry (``_memo``) when it has f's key
        and at least levels 0..k: a test function's ``key()`` and the
        exactness, or a polynomial's variable count, degree and coefficient
        bytes.  Otherwise they are evaluated, kept read-only, and replace
        the entry; a failed evaluation leaves it as it was.  A polynomial's
        values are its product with every collocation row, cut to levels
        0..k.
        """
        if not isinstance(f, (Polynomial, TestFunction)):
            raise TypeError(f"cannot project a {type(f).__name__}")
        if f.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        exactness = self._exactness(exactness)
        k = self.degree if k is None else k
        n = monomial_count(self.nvars, k)
        polynomial = isinstance(f, Polynomial)
        key = (f.nvars, f.degree, f.coeffs.tobytes()) if polynomial else (f.key(), exactness)
        memo = self._memo
        if memo is None or not (memo[0] == key and n <= len(memo[1])):
            values = (self._polynomial_rhs(f, n) if polynomial
                      else self._function_rhs(f, exactness, k))
            values.setflags(write=False)
            self._memo = memo = (key, values, None)
        return memo[1][:n]

    def _polynomial_rhs(self, p: Polynomial, n: int) -> np.ndarray:
        """Values of the polynomial p under the first n conditions."""
        return (self._rows(p.degree) @ p.coeffs)[:n]

    def _function_rhs(self, f: TestFunction, exactness: int, k: int) -> np.ndarray:
        """Values of the test function f under the conditions of levels 0..k."""
        return rhs(self.conditions[:monomial_count(self.nvars, k)], f, exactness)

    def apply(self, f, exactness: int | None = None) -> Polynomial:
        """Project f onto polynomials of the full degree."""
        return self._solve(self.degree, self._rhs(f, exactness))

    __call__ = apply

    def truncate(self, k: int, f, exactness: int | None = None) -> Polynomial:
        """The degree-k projector sharing this one's first levels."""
        k = read_index("truncation degree", k)
        if not 0 <= k <= self.degree:
            raise ValueError("truncation degree out of range")
        return self._solve(k, self._rhs(f, exactness, k))

    def truncations(self, f, exactness: int | None = None) -> list[Polynomial]:
        """truncate(k, f) for k = 0..degree, from one evaluation of f."""
        return self._polynomials(self._truncation_table(f, exactness, self.degree))

    def _polynomials(self, table: np.ndarray) -> list[Polynomial]:
        """Row k of a table of coefficient rows as a degree-k polynomial, for every row."""
        return [Polynomial._owning(self.nvars, k, table[k, :monomial_count(self.nvars, k)])
                for k in range(table.shape[0])]

    def _truncation_table(self, f, exactness: int | None, top: int) -> np.ndarray:
        """Coefficients of truncate(k, f), k = 0..top, as rows, 0 past each degree.

        The table lives, read-only, in f's memo entry (``_rhs``), beside the
        values it was solved from; one of at least ``top + 1`` levels serves
        by its leading rows.  Level k's solution depends on the values of
        levels 0..k alone, so those rows are what solving levels 0..top of
        the same values gives.  Otherwise levels 0..top are solved and their
        table takes the entry's place.
        """
        values = self._rhs(f, exactness, top)
        key, kept, table = self._memo
        if table is None or table.shape[0] <= top:
            table = self._solve_levels(top, values)
            table.setflags(write=False)
            self._memo = (key, kept, table)
        return table[:top + 1, :monomial_count(self.nvars, top)]

    def newton_summands(self, f, exactness: int | None = None) -> list[Polynomial]:
        """Differences of consecutive truncations; they sum to apply(f)."""
        return self._polynomials(_summand_rows(self._truncation_table(f, exactness,
                                                                      self.degree)))

    # -- products ---------------------------------------------------------------

    def newton_product(self, other: "NewtonStructuredProjector",
                       cond_threshold: float | None = 1e12) -> "NewtonProduct":
        return NewtonProduct(self, other, cond_threshold=cond_threshold)


class NewtonProduct(NewtonStructuredProjector):
    """Product of two Newton-structured projectors.

    Level i collects the tensor conditions mu1 (x) mu2 with mu1 from the left
    factor's level i1 and mu2 from the right factor's level i - i1, for
    i1 = 0..i.  The product degree is the smaller factor degree.  The tensor
    conditions are the columns (a, b) of the index table ``_pairs``
    (``_tensor_pairs``), which also gives the variable count and degree, and
    each collocation row is gathered from the two factor rows.  So is its
    value on a test function that splits into f1 (x) f2 along the factor
    variables: the factors apply their conditions of the levels asked for to
    f1 and f2, at the product's exactness and through their own memos
    (``_rhs``), and each tensor condition takes the product of its two
    factor values.  A test function that does not split goes through
    ``functionals.rhs`` as a list of tensor conditions, the ``Tensor``
    objects that the first read of ``conditions`` builds from the table and
    keeps; nothing else in the product reads them.  Where the gate takes
    bounds from the factors (``_bounded`` at build), the product is
    factor-wise: row scales, bounds and polynomial values read the factors'
    rows, solves go through the factors' level solves, and ``matrix`` is
    assembled only when read.
    """

    def __init__(self, left: NewtonStructuredProjector,
                 right: NewtonStructuredProjector,
                 cond_threshold: float | None = 1e12):
        # a factor passed twice: its block inverses serve both slots of the
        # factor-wise bounds
        self._twin = right is left
        if self._twin:
            # one object in both slots would keep one memo entry for two
            # parts; the copy shares everything else, the conditions, matrix,
            # gate results and padded blocks
            right = copy.copy(left)
            right._memo = None
        self.left = left
        self.right = right
        self._pairs = _tensor_pairs((left.nvars, right.nvars), min(left.degree, right.degree))
        # the tensor conditions' objects, from the first read of ``conditions`` on
        self._conditions: list[Tensor] | None = None
        self._factorwise = self._bounded(cond_threshold)
        super().__init__(self._pairs, cond_threshold=cond_threshold)
        # the relative residual at the conditions of the last factor-wise
        # solve (``_factor_solve``); None before one
        self.solve_residual: float | None = None

    def _graded(self, pairs):
        """The variable count and degree of the index table ``pairs`` (``_tensor_pairs``).

        The table stands for a product's conditions at build: their objects
        wait for a read of ``conditions``.
        """
        return self.left.nvars + self.right.nvars, min(self.left.degree, self.right.degree)

    @property
    def conditions(self) -> list[Tensor]:
        """The tensor conditions ``Tensor(left.conditions[a], right.conditions[b])``.

        Built from the index table ``_pairs`` at the first read and kept, so
        a second read returns the same list.  Nothing a product computes
        from its factors reads them: only a right-hand side that does not
        split along the factors (``_function_rhs``) and outside callers do.
        """
        if self._conditions is None:
            left, right = self.left.conditions, self.right.conditions
            self._conditions = [Tensor(left[a], right[b]) for a, b in self._pairs.T.tolist()]
        return self._conditions

    def _assemble(self, degree: int) -> np.ndarray:
        return self._gather(degree, self.left._rows(degree), self.right._rows(degree))

    def _gather(self, degree: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The tensor conditions' rows on the monomials up to ``degree``, from factor rows.

        Each factor's columns are gathered first, on its own few rows, then
        the rows: half the time of one two-axis gather at 435 conditions.
        """
        r1, r2 = factor_ranks((self.left.nvars, self.right.nvars), degree)
        a, b = self._pairs
        return left[:, r1][a] * right[:, r2][b]

    @property
    def _real_view(self) -> np.ndarray:
        """``matrix``'s real view; a factor-wise product of real factors gathers it.

        There the uncertified levels' SVDs read the product of the factors'
        real rows, which is the real part of the complex product bit for
        bit, (x + 0i)(y + 0i) = xy, and ``matrix`` stays unassembled.
        """
        if self._real is None and self._factorwise:
            left, right = self.left._real_view, self.right._real_view
            if left.dtype == right.dtype == np.float64:
                self._real = self._gather(self.degree, left, right)
        return super()._real_view

    def _polynomial_rhs(self, p, n):
        """Values of p under the first n tensor conditions.

        Within the product degree, the product rows' matrix slice, except
        on a product that solves through its factors (``_factorwise``), which
        reads no product matrix.  Otherwise each condition is
        ``(L C R^T)[a, b]``: p's coefficients scatter
        into C by factor ranks, and L and R are the factors' rows of every
        condition up to the product degree, at the block degrees d1 and d2
        that p's nonzero terms reach.  So no product row is assembled, and a
        factor assembles rows only where its block degree passes its own.
        """
        if p.degree <= self.degree and not self._factorwise:
            return super()._polynomial_rhs(p, n)
        nonzero = np.flatnonzero(p.coeffs)
        if not nonzero.size:
            return np.zeros(n, dtype=np.complex128)
        (n1, n2), d = (self.left.nvars, self.right.nvars), self.degree
        r1, r2 = (r[nonzero] for r in factor_ranks((n1, n2), p.degree))
        d1, d2 = (bisect_right(degree_starts(nv, p.degree), int(r.max())) - 1
                  for nv, r in ((n1, r1), (n2, r2)))
        coeffs = np.zeros((monomial_count(n1, d1), monomial_count(n2, d2)), dtype=np.complex128)
        coeffs[r1, r2] = p.coeffs[nonzero]
        values = (self.left._rows(d1)[:monomial_count(n1, d)] @ coeffs
                  @ self.right._rows(d2)[:monomial_count(n2, d)].T)
        a, b = self._pairs[:, :n]
        return values[a, b]

    def _function_rhs(self, f, exactness, k):
        parts = f.split(self.left.nvars)
        if parts is None:
            return super()._function_rhs(f, exactness, k)
        values = []
        for factor, g, before, after in ((self.left, parts[0], 0, self.right.nvars),
                                         (self.right, parts[1], self.left.nvars, 0)):
            try:
                values.append(factor._rhs(g, exactness, k))
            except PoleOnSupportError as err:
                # name the pole in the product's variables: the other block's
                # coefficients are 0, so any coordinates there stay on the locus
                pad = (before, after)
                raise PoleOnSupportError(np.pad(err.coeffs, pad), err.const,
                                         np.pad(err.point, pad)) from err
        a, b = self._pairs[:, :monomial_count(self.nvars, k)]
        return values[0][a] * values[1][b]

    def _bounded(self, threshold: float | None) -> bool:
        """Whether the gate at ``threshold`` may bound levels from factor quantities.

        Not with the gate off (``level_conds`` stay exact), below
        ``_BOUND_CONDITIONS``, when a factor is itself a product (its
        inverses are no small blocks), or when a factor's own gate did not
        run or read ``_BOUND_FACTOR_COND`` or the threshold at a level up to
        the product degree, since the rounding argument behind
        ``_BOUND_MARGIN`` needs accurate factor inverses.  At build this also
        decides ``_factorwise``.
        """
        if threshold is None or self._pairs.shape[1] < _BOUND_CONDITIONS:
            return False
        limit = min(threshold, _BOUND_FACTOR_COND)
        degree = min(self.left.degree, self.right.degree)
        return all(not isinstance(factor, NewtonProduct) and factor.cond_threshold is not None
                   and max(factor.level_conds[:degree + 1]) < limit
                   for factor in (self.left, self.right))

    def _cond_bounds(self):
        """``_factor_bounds`` where ``_bounded`` holds and no row vanishes, else None."""
        if not self._bounded(self.cond_threshold) or not self._scales.all():
            return None
        return self._factor_bounds()

    def _row_scales(self):
        """The gate's row scales; on a factor-wise product, from the factors' rows.

        Level k's scale of the tensor condition (a, b) is the largest of
        m1[a, j1] m2[b, j2] over j1 + j2 <= k, m holding the factor rows'
        maxima over the monomials of each exact degree (``_level_outer``).
        On a real matrix that is the product row's own maximum bit for bit,
        since rounding is monotone; on a complex one |z1||z2| and |z1 z2|
        round apart.
        """
        if not self._factorwise:
            return super()._row_scales()
        d = self.degree
        maxima = _level_outer(np.maximum, _degree_rows(self.left, d, False),
                              _degree_rows(self.right, d, False))
        a, b = self._pairs
        return np.where(_level_rows(self.nvars, d), maxima[:, a, b], 1.0)

    def _factor_bounds(self) -> list[float]:
        """Upper bounds on every level's condition estimate, from factor quantities.

        The degree-k projector is sum over i <= k of Delta1_i (x) P2_{k-i}, so
        the inverse of the leading block A_k is the sum over i of the
        Kronecker products Delta1_i (x) B2_{k-i} of the left factor's
        summand maps and the right factor's block inverses, each on the
        tensor conditions and monomials it reads.  A product row's largest
        entry on its block is at most d1_a d2_b, the factors' level-k row
        maxima (a product of maxima bounds the maximum of products), so with
        D_k the gate's row scales and S1_k, S2_k the factors',

            cond(D_k^-1 A_k) <= ||D_k^-1 A_k||_F ||A_k^-1 (S1_k (x) S2_k)||_F.

        Every Kronecker term lives inside the level-k block, and
        <X (x) Y, X' (x) Y'>_F = <X, X'>_F <Y, Y'>_F, so the second norm is
        exactly

            ||A_k^-1 (S1_k (x) S2_k)||_F^2
                = sum over i, j <= k of G1[k, i, j] G2[k, k - i, k - j]

        with G1, G2 the factors' ``_scaled_inverse_grams`` (of Delta1 and
        of B2), which must not be products themselves; a factor passed twice
        (``_twin``) inverts its blocks once for both.  The first norm reads
        no product row either: a tensor row's sum of squares on block k is
        the sum over j1 + j2 <= k of the factor rows' sums of squares over
        the monomials of degree j1 and j2 (``_level_outer``).  Every row
        scale must be positive.
        """
        d = self.degree
        factors = (self.left,) if self._twin else (self.left, self.right)
        inverses = [_scaled_inverses(f, d) for f in factors]
        left = _scaled_inverse_grams(self.left, inverses[0], summands=True)
        right = _scaled_inverse_grams(self.right, inverses[-1], summands=False)
        sums = _level_outer(np.add, _degree_rows(self.left, d, True),
                            _degree_rows(self.right, d, True))
        a, b = self._pairs
        inside = _level_rows(self.nvars, d)
        frobenius = np.sqrt(np.sum(np.where(inside, sums[:, a, b] / self._scales ** 2, 0.0),
                                   axis=1))
        return [float(frobenius[k] * np.sqrt(np.sum(left[k, :k + 1, :k + 1]
                                                    * right[k, k::-1, k::-1]).real))
                for k in range(d + 1)]

    # -- factor-wise solves ------------------------------------------------------

    def _solve_range(self, levels, values):
        """The base class's solves; a factor-wise product's go through its factors first.

        A factor-wise product solves through its factors (``_factor_solve``)
        and keeps that result where its relative residual at the conditions
        of ``levels`` (``solve_residual``) is below ``_SOLVE_TOLERANCE``;
        otherwise the dense solves run, on the ``matrix`` they assemble.
        """
        if self._factorwise:
            table = self._factor_solve(levels, values)
            if self.solve_residual < _SOLVE_TOLERANCE:
                return table
        return super()._solve_range(levels, values)

    def _factor_solve(self, levels: range, values: np.ndarray) -> np.ndarray:
        """The solves at ``levels`` through the factors' leading blocks.

        With F[a, b] the value of the tensor condition (a, b) (0 where it is
        past levels[-1]), the degree-k truncation's coefficients at factor
        ranks (r1, r2) are entry (r1, r2) of

            C_k = sum over i + j = k of B1_i F Delta2_j^T,

        the paper's sum over i + j <= k of Delta1_i (x) Delta2_j summed by
        parts, B the factors' leading-block inverses and Delta2_j = B2_j -
        B2_{j-1}.  Each B is applied as the factor's ``_level_solve``, never
        as an explicit inverse: one right solve per level j, on every left
        condition, and one left solve per level i on the blocks F Delta2_j^T
        of j = 0..degree - i side by side, whose result lands on the table
        rows i + j (``_factor_scatter``).  So a
        table costs 2(top + 1) small solves.  Every solve's shape depends on
        its level and the product degree alone, and a column of a solve's
        result on its own column of the right-hand side alone, so the row of
        level k reads the same bits whichever levels above it are solved:
        ``truncate(k, f)`` and ``truncations(f)[k]`` agree bit for bit.  A
        single level k therefore takes the table's 2(k + 1) solves at their
        full width, not only the blocks of its anti-diagonal i + j = k,
        which would change the number of right-hand sides and, with it, how
        LAPACK may round.

        Sets ``solve_residual``: the largest |(L C_k R^T)[a, b] - F[a, b]|
        over the conditions of each level k in ``levels``, over the largest
        |F[a, b]| there, L and R the factors' rows.  A non-finite value
        raises before any solve, as the dense solve does (``_check_finite``).
        """
        self._check_finite(levels, values)
        lo, top = levels.start, levels.stop - 1
        n = monomial_count(self.nvars, top)
        values = values[:n]
        d, nvars = self.degree, (self.left.nvars, self.right.nvars)
        m1, m2 = monomial_count(nvars[0], d), monomial_count(nvars[1], d)
        offsets, scatter = _factor_scatter(nvars, d)
        a, b = self._pairs[:, :n]
        # F^T, one row per right condition
        values_t = np.zeros((m2, m1), dtype=np.complex128)
        values_t[b, a] = values
        # F Delta2_j^T, transposed, block j in rows offsets[j]:offsets[j + 1]
        steps = np.zeros((offsets[-1], m1), dtype=np.complex128)
        previous = None
        for j in range(top + 1):
            w = monomial_count(nvars[1], j)
            solved = self.right._level_solve(j, values_t[:w])
            block = steps[offsets[j]:offsets[j] + w]
            block[:] = solved
            if previous is not None:
                block[:previous.shape[0]] -= previous
            previous = solved
        table = np.zeros((d + 1, m1, m2), dtype=np.complex128)
        flat = table.reshape(-1)
        steps = steps.T
        for i in range(top + 1):
            w = monomial_count(nvars[0], i)
            solved = self.left._level_solve(i, steps[:w, :offsets[d + 1 - i]])
            flat[scatter[i]] += solved.reshape(-1)
        table = table[:top + 1]
        self.solve_residual = self._table_residual(table[lo:], levels, values)
        r1, r2 = factor_ranks(nvars, top)
        return table[lo:, r1, r2]

    def _table_residual(self, tables: np.ndarray, levels: range, values: np.ndarray) -> float:
        """``solve_residual`` of the coefficient matrices C_k of ``levels``, stacked.

        The factors' rows, the tables and the values are taken in their real
        views where they have no imaginary part (``_real_or_self``): real
        factors and a real input give the complex products' real parts.
        """
        m1, m2 = tables.shape[1:]
        top = levels.stop - 1
        a, b = self._pairs[:, :len(values)]
        left, right = self.left._real_view[:m1, :m1], self.right._real_view[:m2, :m2]
        fitted = (left @ _real_or_self(tables) @ right.T)[:, a, b]
        inside = _level_rows(self.nvars, top)[levels.start:]
        gap = float(np.max(np.where(inside, np.abs(fitted - _real_or_self(values)), 0.0)))
        scale = float(np.max(np.abs(values)))
        return gap / scale if scale else gap

    def _level_name(self, j: int) -> str:
        """Level j with the factor level pairs (i1, j - i1) whose tensor conditions make it up."""
        pairs = ", ".join(f"({i1}, {j - i1})" for i1 in range(j + 1))
        return f"level {j} (factor level pairs {pairs})"

    def apply_product_formula(self, f1, f2, exactness: int | None = None) -> Polynomial:
        """Project the separable function f1 (x) f2 through factor summands.

        Equals apply() on the product function: the product projector's value
        on f1 (x) f2 is the sum over i1 + i2 <= d of the tensor products
        Delta1_i1(f1) (x) Delta2_i2(f2) of the factors' Newton summands.  The
        right summands of one i1 telescope, Delta2_0 + ... + Delta2_{d-i1} =
        P2_{d-i1}, the right factor's degree-(d - i1) truncation, so by
        bilinearity the sum is

            sum over i1 = 0..d of Delta1_i1(f1) (x) P2_{d-i1}(f2),

        d + 1 terms instead of (d + 1)(d + 2) / 2.  With the left summands'
        and the right truncations' coefficients as the rows of S1 and P2,
        the coefficient of a product monomial with factor ranks (a, b) is
        entry (a, b) of S1^T R P2, where R reverses the order of the rows:
        one matrix product, gathered along the factor ranks.  It uses the
        factors' solves only, not the product's.  Both factors integrate at
        the product's default exactness, the one apply() uses, so the two
        paths share their quadrature.
        """
        exactness = self._exactness(exactness)
        d = self.degree
        s1 = _summand_rows(self.left._truncation_table(f1, exactness, d))
        p2 = self.right._truncation_table(f2, exactness, d)
        r1, r2 = factor_ranks((self.left.nvars, self.right.nvars), d)
        coeffs = (s1.T @ p2[::-1])[r1, r2]
        return Polynomial._owning(self.nvars, d, coeffs)

    def residual_expansion(self, f1: Polynomial, f2: Polynomial):
        """Finite expansion of f1 (x) f2 minus its projection.

        Both inputs must be polynomials the factor projectors reproduce
        (degree within the factor degree).  Returns the list of terms
        (i1, i2, tensor polynomial) over the residual index set, and the set
        itself; the sum of the terms equals the residual exactly.  The
        summands come from the factors' truncation tables of levels 0..a1
        and 0..a2, the factor moduli, and every term is gathered from one
        elementwise product (``_residual_gather``), bit for bit the
        ``tensor_product`` of the two summands.
        """
        if not isinstance(f1, Polynomial) or not isinstance(f2, Polynomial):
            raise TypeError("residual expansion needs polynomial factors")
        a1, a2 = max(f1.effective_degree(), 0), max(f2.effective_degree(), 0)
        if a1 > self.left.degree or a2 > self.right.degree:
            raise ValueError(
                "factor degrees exceed the factor projectors; they would not "
                "be reproduced and the expansion would not close"
            )
        s1 = _summand_rows(self.left._truncation_table(f1, None, a1))
        s2 = _summand_rows(self.right._truncation_table(f2, None, a2))
        slices, size, dst, src1, src2 = _residual_gather(
            (self.left.nvars, self.right.nvars), self.degree, a1, a2)
        coeffs = np.zeros(size, dtype=np.complex128)
        coeffs[dst] = s1.ravel()[src1] * s2.ravel()[src2]
        terms = [(i1, i2, Polynomial._owning(self.nvars, i1 + i2, coeffs[lo:hi]))
                 for i1, i2, lo, hi in slices]
        return terms, BSet(self.degree, a1, a2)
