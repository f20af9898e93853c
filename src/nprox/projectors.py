"""Newton-structured polynomial projectors and their products.

A projector of degree d in n variables is specified by dim P_d conditions
(linear functionals) in graded-lex level order: level j is the next
dim P_j - dim P_{j-1} of them, so the count fixes the degree.  The
collocation matrix on the graded-lex monomial basis is assembled exactly
from the functionals' monomial values, in one ``functionals.rows`` call.
Nested unisolvence means every leading block (conditions up to level j
against monomials up to degree j) is invertible; it is checked at build time
through condition-number estimates, and it is what makes degree truncation
and Newton summands well defined: the degree-k truncation solves the leading
k-block, and the k-th Newton summand is the difference of consecutive
truncations.

Products: given projectors on n1 and n2 variables, the product projector on
n1 + n2 variables has levels J_i = union over i1 + i2 = i of tensor pairs
J1_{i1} x J2_{i2}.  Every row of its collocation matrix is therefore a
left-factor row times a right-factor row, split along the factor ranks, and
is gathered from the factors' rows.  Its Newton summands factor through the
factors' summands, which yields both an evaluation formula for separable
functions and a finite expansion of the approximation residual for
polynomial inputs.  In the evaluation formula the right summands telescope
into truncations: sum over i1 + i2 <= d of Delta1_i1 (x) Delta2_i2 equals
sum over i1 = 0..d of Delta1_i1 (x) P2_{d-i1}, which is one matrix product
of the left summands' and the right truncations' coefficients, gathered
along the factor ranks.

The nesting gate takes one SVD per leading block, at O(n^3).  A product
of at least ``_BOUND_CONDITIONS`` conditions first bounds every level from
its factors: the inverse of its level-k block is the sum over i of the
Kronecker products of the left factor's level-i summand map and the right
factor's level-(k - i) block inverse.  Its Frobenius norm under the
factors' row scales is therefore exact from the factors' Gram tensors,
Frobenius inner products of those maps, and ``||D^-1 A_k||_F`` times it
bounds the block's condition estimate (``NewtonProduct._factor_bounds``).
A level whose bound is ``_BOUND_MARGIN`` times under the threshold passes
without its SVD and reports the bound in ``level_conds``; every other
level takes its SVD, which decides as before, so the gate fails at the
same level with the same message.  ``level_cond_bounds`` keeps every bound
(None where the gate took SVDs only), and ``svd_levels()`` says which
entries an SVD read.

Each solve is numpy's LAPACK ``gesv`` (an LU factorization, then the two
triangular solves) on the row-equilibrated leading block, factored on each
call.  Every block's row scales come from one running maximum of the matrix
taken at build time, which the nesting gate and the solves share.  A
projector of at most ``_STACK_CONDITIONS`` conditions keeps, from its first
solve on, the stack of its row-equilibrated leading blocks, each padded
with an identity to the full size: every solve reads its level's block
there, and a sweep of truncations is one batched ``np.linalg.solve``
instead of one call per level, whose Python overhead dominates at these
sizes.  A single truncation solves its padded block in the same batched
form, so it reads the same bits as the sweep.  A larger projector solves
each level's unpadded block, as padding costs O(n^3) per level.

A projector keeps two memos of one entry each.  The first holds the
right-hand side of the last test function it evaluated: its values under
the conditions of levels 0..top.  A later call with the same value
(``TestFunction.key``: class, coefficient bytes, constants and children;
test functions are immutable) at the same exactness and a degree k <= top
slices them, so ``apply(f)`` followed by ``truncate(k, f)`` at every k
evaluates f once.  A product applies its factors' conditions through the
factors' own memos, so ``apply(f)`` followed by
``apply_product_formula(*f.split(k))`` evaluates each factor's part once.
Any other call evaluates the levels it needs and takes the entry's place.
Polynomials take their exact product with the collocation rows, over every
row, so the values of levels 0..k do not depend on k.  A product given a
polynomial above its degree takes the factor form of that product,
``(L C R^T)[a, b]`` with p's coefficients arranged by factor ranks in C and
the factors' rows in L and R, as ``polynomials.evaluate_grid`` does on
grids: no product row is assembled, and a factor assembles rows only past
its own degree.  The second memo
holds the last truncation table (``_truncation_table``), keyed by the test
function's key and the exactness, or by a polynomial's variable count,
degree and coefficient bytes; a table of levels 0..top serves every
smaller top by its leading rows.  Truncation sweeps, Newton summands, the
product formula and the residual expansion all read their factors'
solutions from it.
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
from .polynomials import Polynomial, tensor_product  # noqa: F401
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
# the threshold takes no SVD.  The whole gate (``_check_nesting``), one BLAS
# thread, 2-core Xeon, numpy 2.4, medians of 41 calls, every level certified:
#
#     product, conditions                    SVD per level   bounds
#     Chebyshev-Leja^2 d=4, 15                    0.13 ms    0.30 ms
#     Chebyshev-Leja^2 d=6, 28                    0.27 ms    0.41 ms
#     Chebyshev-Leja^2 d=8, 45                    0.54 ms    0.52-0.57 ms
#     Chebyshev-Leja^2 d=10, 66                   1.1 ms     0.7 ms
#     Chebyshev-Leja^2 d=12, 91                 2.1-2.3 ms   0.9 ms
#     Chebyshev-Leja^2 d=14, 120                  4.3 ms     1.2-1.3 ms
#     disk Kergin x Taylor d=14, 120 (complex)    8.5 ms     1.6 ms
#     cylinder d=8, 165                           5.0 ms     1.1-1.2 ms
#     Chebyshev-Leja^2 d=16, 153                  7.9 ms     1.6-1.7 ms
#     Chebyshev-Leja^2 d=20, 231                 23-24 ms    2.6-2.8 ms
#     cylinder d=10, 286                          19 ms      2.3-2.4 ms
#
# They cross near 45 conditions.  The benchmark's zoo builds products of 6
# to 55 conditions, which stay on exact SVD values below 150, and the
# sweeps' large products take bounds.
_BOUND_CONDITIONS = 150
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


def _scaled_inverse_grams(P: "NewtonStructuredProjector", degree: int,
                          summands: bool) -> np.ndarray:
    """Gram tensor of a factor's leading-block inverses under its row scales.

    B_i is the inverse of the level-i block, padded with zeros to
    ``monomial_count(P.nvars, degree)`` rows and columns, Delta_i =
    B_i - B_{i-1} (B_0 for i = 0), and S_k = diag(``P._scales[k]``).  Entry
    (k, i, j) of the ``(degree + 1,) * 3`` result is the Frobenius inner
    product <X_i S_k, X_j S_k>_F = trace((X_i S_k)^H X_j S_k), with X =
    Delta under ``summands``, else B.  Only i, j <= k are meaningful: there
    X_i and X_j vanish past the level-k block, where S_k reads 1.  One
    inverse per level, of the row-equilibrated block, then two ``einsum``
    contractions: over rows per column pair, then against the squared scales.
    """
    matrix = P.matrix.real if not np.any(P.matrix.imag) else P.matrix
    n = monomial_count(P.nvars, degree)
    x = np.zeros((degree + 1, n, n), dtype=matrix.dtype)
    for i, m in enumerate(degree_starts(P.nvars, degree)[1:]):
        scale = P._scales[i, :m]
        x[i, :m, :m] = np.linalg.inv(matrix[:m, :m] / scale[:, None]) / scale
    if summands:
        x = _summand_rows(x)
    columns = np.einsum("irc,jrc->ijc", x.conj(), x, optimize=True)
    return np.einsum("ijc,kc->kij", columns, P._scales[:degree + 1, :n] ** 2, optimize=True)


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
        self.conditions: list[Functional] = list(conditions)
        if not self.conditions:
            raise ValueError("need at least the level-0 condition")
        self.nvars = self.conditions[0].nvars
        if any(mu.nvars != self.nvars for mu in self.conditions):
            raise ValueError("conditions mix variable counts")
        count = len(self.conditions)
        self.degree = 0
        while monomial_count(self.nvars, self.degree) < count:
            self.degree += 1
        if monomial_count(self.nvars, self.degree) != count:
            raise ValueError(
                f"{count} conditions do not fill a graded space in {self.nvars} variables"
            )
        starts = degree_starts(self.nvars, self.degree)
        self.levels = [self.conditions[lo:hi] for lo, hi in zip(starts, starts[1:])]
        self.cond_threshold = cond_threshold
        self.matrix = self._assemble(self.degree)
        self._scales = self._row_scales()
        self.level_conds = self._check_nesting()
        # (key, exactness, values of levels 0..top) of the last test function
        self._last_rhs: tuple | None = None
        # (key, table of levels 0..top) of the last truncation table
        self._last_table: tuple | None = None
        # the padded leading blocks of a small projector, built at its first solve
        self._stacked = count <= _STACK_CONDITIONS
        self._stack: np.ndarray | None = None

    # -- collocation rows ----------------------------------------------------

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
        # A real matrix (real nodes, real centers) takes real SVDs, about twice
        # as fast.  The real and complex estimates of one block differ by
        # about cond x 1e-17 relative (3e-14 at cond 3e3, 5.6e-6 at the
        # Chebyshev-Leja product's level-30 block, 1.28e12); neither is the
        # more exact one, so only a block that close to the threshold could
        # be decided differently.
        matrix = self.matrix.real if not np.any(self.matrix.imag) else self.matrix
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
            m = monomial_count(self.nvars, j)
            # numpy's 2-norm condition number, without its division warning
            s = np.linalg.svd(matrix[:m, :m] / self._scales[j, :m, None], compute_uv=False)
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

    def _solve_levels(self, top: int, values: np.ndarray) -> np.ndarray:
        """Coefficients of the solves at levels 0..top, one row each.

        ``values`` are the right-hand sides of levels 0..top; row k of the
        ``(top + 1, monomial_count(nvars, top))`` result is the degree-k
        solution, 0 past its own monomials.  A small projector solves its
        padded blocks (``_padded_blocks``) in one batched ``np.linalg.solve``;
        a larger one, and a small one whose batch fails or whose right-hand
        side is not finite, solves level by level (``_solve_level``), which
        raises naming the level.
        """
        size = values.shape[0]
        if self._stacked and np.isfinite(values).all():
            inside = _level_rows(self.nvars, self.degree)[:top + 1]
            padded = np.zeros(self.matrix.shape[0], dtype=np.complex128)
            padded[:size] = values
            scaled = np.where(inside, padded / self._scales[:top + 1], 0.0)
            try:
                out = np.linalg.solve(self._padded_blocks()[:top + 1], scaled[..., None])
                return out[:, :size, 0]
            except np.linalg.LinAlgError:
                pass  # the loop below names the singular level
        out = np.zeros((top + 1, size), dtype=np.complex128)
        for k in range(top + 1):
            m = monomial_count(self.nvars, k)
            out[k, :m] = self._solve_level(k, values[:m])
        return out

    def _solve_level(self, k: int, values: np.ndarray) -> np.ndarray:
        """Degree-k solve of the row-equilibrated leading block.

        ``np.linalg.solve`` is LAPACK's ``gesv``, the LU factorization and
        the triangular solves; the block is factored on each call.  A small
        projector reads its padded block ``stack[k]`` in the same batched
        form as ``_solve_levels``, so a single truncation and a sweep agree
        bit for bit.  LAPACK checks no finiteness, so the right-hand side is
        checked here; a non-finite block never gets this far, since the
        nesting gate's SVD of it fails.  An exactly zero pivot raises
        ``LinAlgError`` naming the level.
        """
        if not np.isfinite(values).all():
            raise ValueError(f"degree-{k} right-hand side is not finite")
        m = values.shape[0]
        scale = self._scales[k, :m]
        try:
            if self._stacked:
                padded = np.zeros((1, self.matrix.shape[0], 1), dtype=np.complex128)
                padded[0, :m, 0] = values / scale
                return np.linalg.solve(self._padded_blocks()[k:k + 1], padded)[0, :m, 0]
            return np.linalg.solve(self.matrix[:m, :m] / scale[:, None], values / scale)
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError(
                f"{self._level_name(k)}: leading block is singular") from err

    def _solve(self, k: int, values: np.ndarray) -> Polynomial:
        """The degree-k projection from the values of levels 0..k."""
        return Polynomial._owning(self.nvars, k, self._solve_level(k, values))

    # -- projector actions ----------------------------------------------------

    def _exactness(self, exactness: int | None) -> int:
        # only Kergin conditions integrate; 2d + 5 resolves smooth integrands
        # of a degree-d projector, and DEFAULT_EXACTNESS caps the rule size
        if exactness is None:
            return min(2 * self.degree + 5, DEFAULT_EXACTNESS)
        return check_exactness(exactness)

    def _check_input(self, f):
        if not isinstance(f, (Polynomial, TestFunction)):
            raise TypeError(f"cannot project a {type(f).__name__}")
        if f.nvars != self.nvars:
            raise ValueError("variable count mismatch")

    def _rhs(self, f, exactness: int | None, k: int | None = None) -> np.ndarray:
        """Values of f under the conditions of levels 0..k (default: all).

        A test function's values are kept, read-only, for the last one
        evaluated; a function with the same key at the same exactness and a
        degree up to theirs reads them.  A failed evaluation keeps nothing.
        A polynomial's values are its product with every collocation row,
        cut to levels 0..k.
        """
        self._check_input(f)
        exactness = self._exactness(exactness)
        k = self.degree if k is None else k
        n = monomial_count(self.nvars, k)
        if isinstance(f, Polynomial):
            return self._polynomial_rhs(f, n)
        key = f.key()
        last = self._last_rhs
        if last is not None and last[0] == key and last[1] == exactness and n <= len(last[2]):
            return last[2][:n]
        values = self._function_rhs(f, exactness, k)
        values.setflags(write=False)
        self._last_rhs = (key, exactness, values)
        return values

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
        return self._truncations(f, exactness, self.degree)

    def _truncations(self, f, exactness: int | None, top: int) -> list[Polynomial]:
        """truncate(k, f) for k = 0..top, from the conditions of levels 0..top."""
        table = self._truncation_table(f, exactness, top)
        return [Polynomial._owning(self.nvars, k, table[k, :monomial_count(self.nvars, k)])
                for k in range(top + 1)]

    def _truncation_table(self, f, exactness: int | None, top: int) -> np.ndarray:
        """Coefficients of truncate(k, f), k = 0..top, as rows, 0 past each degree.

        The last table is kept, read-only: a test function with the same key
        at the same exactness, or a polynomial with the same variable count,
        degree and coefficient bytes, reads the leading rows of a table of
        at least ``top + 1`` levels.  Level k's solution depends on the
        values of levels 0..k alone, so those rows are what solving levels
        0..top of the same values gives.  Any other call solves levels
        0..top and takes the entry's place.
        """
        self._check_input(f)
        exactness = self._exactness(exactness)
        if isinstance(f, Polynomial):
            key = (f.nvars, f.degree, f.coeffs.tobytes())
        else:
            key = (f.key(), exactness)
        last = self._last_table
        if last is not None and last[0] == key and top < last[1].shape[0]:
            return last[1][:top + 1, :monomial_count(self.nvars, top)]
        table = self._solve_levels(top, self._rhs(f, exactness, top))
        table.setflags(write=False)
        self._last_table = (key, table)
        return table

    def newton_summands(self, f, exactness: int | None = None) -> list[Polynomial]:
        """Differences of consecutive truncations; they sum to apply(f)."""
        steps = _summand_rows(self._truncation_table(f, exactness, self.degree))
        return [Polynomial._owning(self.nvars, k, steps[k, :monomial_count(self.nvars, k)])
                for k in range(self.degree + 1)]

    # -- products ---------------------------------------------------------------

    def newton_product(self, other: "NewtonStructuredProjector",
                       cond_threshold: float | None = 1e12) -> "NewtonProduct":
        return NewtonProduct(self, other, cond_threshold=cond_threshold)


class NewtonProduct(NewtonStructuredProjector):
    """Product of two Newton-structured projectors.

    Level i collects the tensor conditions mu1 (x) mu2 with mu1 from the left
    factor's level i1 and mu2 from the right factor's level i - i1, for
    i1 = 0..i.  The product degree is the smaller factor degree.  The factor
    condition indices of each tensor condition are kept, and its collocation
    row is gathered from the two factor rows.  So is its value on a test
    function that splits into f1 (x) f2 along the factor variables: the
    factors apply their conditions of the levels asked for to f1 and f2, at
    the product's exactness and through their own memos (``_rhs``), and
    each tensor condition takes the product of its two factor values.  A
    test function that does not split goes through ``functionals.rhs`` as a
    list of tensor conditions.
    """

    def __init__(self, left: NewtonStructuredProjector,
                 right: NewtonStructuredProjector,
                 cond_threshold: float | None = 1e12):
        if right is left:
            # one object in both slots would keep one memo entry for two
            # parts; the copy shares the conditions, matrix and gate results
            right = copy.copy(left)
            right._last_rhs = right._last_table = right._stack = None
        self.left = left
        self.right = right
        degree = min(left.degree, right.degree)
        s1 = degree_starts(left.nvars, degree)
        s2 = degree_starts(right.nvars, degree)
        pairs = [(a, b) for i in range(degree + 1) for i1, i2 in self._level_pairs(i)
                 for a in range(s1[i1], s1[i1 + 1]) for b in range(s2[i2], s2[i2 + 1])]
        self._pairs = np.array(pairs, dtype=np.intp).T
        super().__init__([Tensor(left.conditions[a], right.conditions[b]) for a, b in pairs],
                         cond_threshold=cond_threshold)

    def _assemble(self, degree: int) -> np.ndarray:
        r1, r2 = factor_ranks((self.left.nvars, self.right.nvars), degree)
        a, b = self._pairs
        return (self.left._rows(degree)[np.ix_(a, r1)]
                * self.right._rows(degree)[np.ix_(b, r2)])

    def _polynomial_rhs(self, p, n):
        """Values of p under the first n tensor conditions.

        Within the product degree, the product rows' matrix slice.  Above
        it, each condition is ``(L C R^T)[a, b]``: p's coefficients scatter
        into C by factor ranks, and L and R are the factors' rows of every
        condition up to the product degree, at the block degrees d1 and d2
        that p's nonzero terms reach.  So no product row is assembled, and a
        factor assembles rows only where its block degree passes its own.
        """
        if p.degree <= self.degree:
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

    def _cond_bounds(self):
        """``_factor_bounds``, or None where the gate takes every SVD.

        None with the gate off (``level_conds`` stay exact), below
        ``_BOUND_CONDITIONS``, on a vanishing row, when a factor is itself a
        product (its inverses are no small blocks), or when a factor's own
        gate did not run or read ``_BOUND_FACTOR_COND`` or the threshold at a
        level up to the product degree, since the rounding argument behind
        ``_BOUND_MARGIN`` needs accurate factor inverses.
        """
        if (self.cond_threshold is None or len(self.conditions) < _BOUND_CONDITIONS
                or not self._scales.all()):
            return None
        limit = min(self.cond_threshold, _BOUND_FACTOR_COND)
        for factor in (self.left, self.right):
            if (isinstance(factor, NewtonProduct) or factor.cond_threshold is None
                    or not max(factor.level_conds[:self.degree + 1]) < limit):
                return None
        return self._factor_bounds()

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
        of B2), which must not be products themselves.  The first norm reads
        the product matrix once, at O(n^2).  Every row scale must be
        positive.
        """
        d = self.degree
        left = _scaled_inverse_grams(self.left, d, summands=True)
        right = _scaled_inverse_grams(self.right, d, summands=False)
        squares = np.abs(self.matrix)
        squares *= squares
        # row sums over each level's new columns, then over the levels up to k
        sums = np.cumsum(np.add.reduceat(squares, degree_starts(self.nvars, d)[:-1], axis=1),
                         axis=1).T
        inside = _level_rows(self.nvars, d)
        frobenius = np.sqrt(np.sum(np.where(inside, sums / self._scales ** 2, 0.0), axis=1))
        return [float(frobenius[k] * np.sqrt(np.sum(left[k, :k + 1, :k + 1]
                                                    * right[k, k::-1, k::-1]).real))
                for k in range(d + 1)]

    @staticmethod
    def _level_pairs(i: int) -> list[tuple[int, int]]:
        """Factor level pairs (i1, i2) whose tensor conditions make up level i."""
        return [(i1, i - i1) for i1 in range(i + 1)]

    def _level_name(self, j: int) -> str:
        pairs = ", ".join(f"({i1}, {i2})" for i1, i2 in self._level_pairs(j))
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
