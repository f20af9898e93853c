"""Newton-structured polynomial projectors and their products.

A projector of degree d in n variables is specified by conditions (linear
functionals) arranged in levels 0..d, where level j contributes exactly
dim P_j - dim P_{j-1} conditions.  The collocation matrix on the graded-lex
monomial basis is assembled exactly from each functional's monomial values.
Nested unisolvence means every leading block (conditions up to level j
against monomials up to degree j) is invertible; it is checked at build time
through condition-number estimates, and it is what makes degree truncation
and Newton summands well defined: the degree-k truncation solves the leading
k-block, and the k-th Newton summand is the difference of consecutive
truncations.

Products: given projectors on n1 and n2 variables, the product projector on
n1 + n2 variables has levels J_i = union over i1 + i2 = i of tensor pairs
J1_{i1} x J2_{i2}.  Its Newton summands factor through the factors' summands,
which yields both an evaluation formula for separable functions and a finite
expansion of the approximation residual for polynomial inputs.
"""
from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .functionals import DEFAULT_EXACTNESS, Functional, Tensor, rhs
from .indexing import monomial_count
from .polynomials import Polynomial, tensor_product
from .testfunctions import TestFunction


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
    """Polynomial projector built from leveled interpolation conditions.

    Parameters
    ----------
    levels : list of lists of functionals; level j must hold exactly
        dim P_j - dim P_{j-1} conditions in the common variable count.
    cond_threshold : reject the construction if any leading block of the
        (row-equilibrated) collocation matrix has a condition estimate above
        this; None disables the check.  The default suits node families with
        a Leja-style ordering; badly ordered or growing node sets can be
        legitimate past it, in which case callers relax it explicitly.
    """

    def __init__(self, levels, cond_threshold: float | None = 1e12):
        if not levels or not levels[0]:
            raise ValueError("need at least the level-0 condition")
        self.levels = [list(level) for level in levels]
        self.conditions: list[Functional] = [mu for level in self.levels for mu in level]
        self.nvars = self.conditions[0].nvars
        self.degree = len(self.levels) - 1
        for mu in self.conditions:
            if mu.nvars != self.nvars:
                raise ValueError("conditions mix variable counts")
        for j, level in enumerate(self.levels):
            need = monomial_count(self.nvars, j) - monomial_count(self.nvars, j - 1)
            if len(level) != need:
                raise ValueError(
                    f"level {j} has {len(level)} conditions, needs {need}"
                )
        self.cond_threshold = cond_threshold
        size = monomial_count(self.nvars, self.degree)
        matrix = np.empty((size, size), dtype=np.complex128)
        for i, mu in enumerate(self.conditions):
            matrix[i] = mu.on_monomials(self.degree)
        self.matrix = matrix
        self.level_conds = self._check_nesting()
        self._factors: dict[int, tuple] = {}

    # -- construction-time checks ------------------------------------------

    def _check_nesting(self) -> list[float]:
        # A real matrix (real nodes, real centers) takes real SVDs, about twice
        # as fast.  The real and complex estimates of one block differ by
        # about cond x 1e-17 relative (3e-14 at cond 3e3, 5.6e-6 at the
        # Chebyshev-Leja product's level-30 block, 1.28e12); neither is the
        # more exact one, so only a block that close to the threshold could
        # be decided differently.
        matrix = self.matrix.real if not np.any(self.matrix.imag) else self.matrix
        conds = []
        for j in range(self.degree + 1):
            m = monomial_count(self.nvars, j)
            block = matrix[:m, :m]
            scale = np.max(np.abs(block), axis=1)
            if np.any(scale == 0):
                raise NestedUnisolvenceFailure(
                    f"{self._level_name(j)}: a condition vanishes on all monomials"
                )
            estimate = float(np.linalg.cond(block / scale[:, None]))
            conds.append(estimate)
            if self.cond_threshold is not None and not estimate < self.cond_threshold:
                raise NestedUnisolvenceFailure(
                    f"{self._level_name(j)}: leading block condition estimate {estimate:.3e} "
                    f"exceeds threshold {self.cond_threshold:.3e}"
                )
        return conds

    def _level_name(self, j: int) -> str:
        """How errors name level j."""
        return f"level {j}"

    # -- linear algebra ------------------------------------------------------

    def _solve(self, k: int, values: np.ndarray) -> Polynomial:
        """Degree-k solve by LU of the row-equilibrated leading block, cached per k."""
        factors = self._factors.get(k)
        if factors is None:
            m = monomial_count(self.nvars, k)
            block = self.matrix[:m, :m]
            scale = np.max(np.abs(block), axis=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)  # raised below
                lu, piv = lu_factor(block / scale[:, None])
            if not np.all(np.diagonal(lu)):
                raise np.linalg.LinAlgError(f"{self._level_name(k)}: leading block is singular")
            factors = self._factors[k] = (lu, piv, scale)
        lu, piv, scale = factors
        return Polynomial(self.nvars, k, lu_solve((lu, piv), values / scale))

    # -- projector actions ----------------------------------------------------

    def _exactness(self, exactness: int | None) -> int:
        # only Kergin conditions integrate; 2d + 5 resolves smooth integrands
        # of a degree-d projector, and DEFAULT_EXACTNESS caps the rule size
        return min(2 * self.degree + 5, DEFAULT_EXACTNESS) if exactness is None else exactness

    def _rhs(self, f, exactness: int | None, k: int | None = None) -> np.ndarray:
        """Values of f under the conditions of levels 0..k (default: all)."""
        conditions = self.conditions
        if k is not None:
            conditions = conditions[:monomial_count(self.nvars, k)]
        if isinstance(f, Polynomial):
            if f.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            if f.degree > self.degree:
                return np.array([mu.apply_to_polynomial(f) for mu in conditions])
            # the collocation rows already hold every condition's monomial values
            return self.matrix[:len(conditions), :f.coeffs.shape[0]] @ f.coeffs
        if isinstance(f, TestFunction):
            return rhs(conditions, f, self._exactness(exactness))
        raise TypeError(f"cannot project a {type(f).__name__}")

    def apply(self, f, exactness: int | None = None) -> Polynomial:
        """Project f onto polynomials of the full degree."""
        return self._solve(self.degree, self._rhs(f, exactness))

    __call__ = apply

    def truncate(self, k: int, f, exactness: int | None = None) -> Polynomial:
        """The degree-k projector sharing this one's first levels."""
        if not 0 <= k <= self.degree:
            raise ValueError("truncation degree out of range")
        return self._solve(k, self._rhs(f, exactness, k))

    def truncations(self, f, exactness: int | None = None) -> list[Polynomial]:
        """truncate(k, f) for k = 0..degree, from one evaluation of f."""
        values = self._rhs(f, exactness)
        return [self._solve(k, values[:monomial_count(self.nvars, k)])
                for k in range(self.degree + 1)]

    def newton_summands(self, f, exactness: int | None = None) -> list[Polynomial]:
        """Differences of consecutive truncations; they sum to apply(f)."""
        parts = self.truncations(f, exactness)
        return parts[:1] + [b - a.embedded(b.degree) for a, b in zip(parts, parts[1:])]

    # -- products ---------------------------------------------------------------

    def newton_product(self, other: "NewtonStructuredProjector",
                       cond_threshold: float | None = 1e12) -> "NewtonProduct":
        return NewtonProduct(self, other, cond_threshold=cond_threshold)


class NewtonProduct(NewtonStructuredProjector):
    """Product of two Newton-structured projectors.

    Level i collects the tensor conditions mu1 (x) mu2 with mu1 from the left
    factor's level i1 and mu2 from the right factor's level i - i1, for
    i1 = 0..i.  The product degree is the smaller factor degree.
    """

    def __init__(self, left: NewtonStructuredProjector,
                 right: NewtonStructuredProjector,
                 cond_threshold: float | None = 1e12):
        self.left = left
        self.right = right
        degree = min(left.degree, right.degree)
        levels = [[Tensor(mu1, mu2) for i1, i2 in self._level_pairs(i)
                   for mu1 in left.levels[i1] for mu2 in right.levels[i2]]
                  for i in range(degree + 1)]
        super().__init__(levels, cond_threshold=cond_threshold)

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
        on f1 (x) f2 is the sum over i1 + i2 <= degree of the tensor products
        of the factors' Newton summands.  Both factors integrate at the
        product's default exactness, the one apply() uses, so the two paths
        share their quadrature.
        """
        exactness = self._exactness(exactness)
        s1 = self.left.newton_summands(f1, exactness=exactness)
        s2 = self.right.newton_summands(f2, exactness=exactness)
        total = Polynomial.zero(self.nvars, self.degree)
        for i1 in range(min(self.degree, self.left.degree) + 1):
            for i2 in range(min(self.degree - i1, self.right.degree) + 1):
                total = total + tensor_product(s1[i1], s2[i2]).embedded(self.degree)
        return total

    def residual_expansion(self, f1: Polynomial, f2: Polynomial):
        """Finite expansion of f1 (x) f2 minus its projection.

        Both inputs must be polynomials the factor projectors reproduce
        (degree within the factor degree).  Returns the list of terms
        (i1, i2, tensor polynomial) over the residual index set, and the set
        itself; the sum of the terms equals the residual exactly.
        """
        if not isinstance(f1, Polynomial) or not isinstance(f2, Polynomial):
            raise TypeError("residual expansion needs polynomial factors")
        a1, a2 = max(f1.effective_degree(), 0), max(f2.effective_degree(), 0)
        if a1 > self.left.degree or a2 > self.right.degree:
            raise ValueError(
                "factor degrees exceed the factor projectors; they would not "
                "be reproduced and the expansion would not close"
            )
        s1 = self.left.newton_summands(f1)
        s2 = self.right.newton_summands(f2)
        bset = BSet(self.degree, a1, a2)
        terms = [(i1, i2, tensor_product(s1[i1], s2[i2])) for i1, i2 in bset]
        return terms, bset
