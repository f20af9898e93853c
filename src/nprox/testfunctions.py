"""Smooth test functions with exact partial derivatives of every order.

Functions are small expression trees over constants, affine forms,
exponentials and reciprocals of affine forms, sums and products, plus
polynomial leaves.  ``deriv_table`` is the one method a node implements:
it evaluates ``D^alpha f`` exactly at a batch of complex points for several
orders at once, which is what the functional layer consumes.  An
exponential takes one ``exp`` per point for all of them, a reciprocal one
base and one power per order, and a product asks each factor once for
every order its Leibniz sums need.  ``deriv_values`` and the other
evaluations are the one-order case, defined once in the base class.

Constants, exponentials, and affine forms and their reciprocals that
involve one variable block, and products of these, ``split`` into a
tensor product of two functions on the leading and trailing variables; a
product projector uses that to apply its factors' conditions to the parts,
and ``grid_values`` to evaluate a function on a Cartesian grid one block
at a time.
Constants, affine forms, and exponentials and reciprocals of affine forms
are ridge functions, f(z) = g(a . z) for a one-variable g (``ridge``); the
Kergin conditions integrate those along one dimension.

Functions are immutable values, like ``Polynomial``: an affine form keeps
a read-only copy of its coefficients, and sums and products keep tuples.
``key`` names a function by value: its class, the bytes of its
coefficients and constants, and its children's keys.  Two functions with
equal keys take the same values, bit for bit, so a projector reuses the
values of the last test function it evaluated for any function with that
key; a node that defines no key is equal to itself only.

Trees are read from a JSON prefix grammar (``parse_function``), e.g.::

    ["exp", ["affine", [0.5], 0.0]]          # exp(z/2)
    ["product", ["coord", 0], ["recip", ["affine", [1.0], -2.0]]]

Scalars may be written as numbers or ``[re, im]`` pairs.
"""
from __future__ import annotations

from itertools import product as iter_product
from math import comb, factorial

import numpy as np

from .config import Key, read_scalar, read_value
from .points import as_rows, cartesian
from .polynomials import Polynomial


class PoleOnSupportError(ValueError):
    """A reciprocal factor was evaluated on (or too close to) its pole set."""

    def __init__(self, coeffs, const, point):
        self.coeffs = np.asarray(coeffs)
        self.const = complex(const)
        self.point = np.asarray(point)
        super().__init__(
            f"pole locus {{z : {self._locus()} = 0}} meets the evaluation set "
            f"near point {self.point}"
        )

    def __reduce__(self):
        # the default rebuilds from the message alone, which __init__ does not take
        return (type(self), (self.coeffs, self.const, self.point))

    def _locus(self):
        terms = " + ".join(f"({c})*z{v}" for v, c in enumerate(self.coeffs))
        return f"{terms} + ({self.const})"


class TestFunction:
    """Base class; a concrete node implements ``deriv_table``."""

    nvars: int

    def deriv_table(self, alphas, pts) -> np.ndarray:
        """``D^alpha`` at ``pts`` for every alpha in ``alphas``, one row each.

        Returns shape ``(len(alphas), m)``.  A node does the work its orders
        share once; a bad order raises ``ValueError``.
        """
        raise NotImplementedError

    def deriv_values(self, alpha, pts) -> np.ndarray:
        return self.deriv_table([alpha], pts)[0]

    def values(self, pts) -> np.ndarray:
        return self.deriv_values((0,) * self.nvars, pts)

    def grid_values(self, blocks) -> np.ndarray:
        """``values(cartesian(*blocks))``, from one evaluation per block where f splits.

        Each block is a point set on consecutive variables (a 1-D sequence
        is one variable).  A function that ``split``s after the first
        block's variables takes its left part's values there times its right
        part's ``grid_values`` on the other blocks, as an outer product in
        ``cartesian``'s left-major row order; so a product of one-block
        factors never builds the joined points.  Anything else is evaluated
        on ``cartesian(*blocks)``.  The parts' values round apart from the
        joined function's (exp(x) exp(y) against exp(x + y)) by a few ulps;
        a product of reciprocals of one-variable affine forms, as on the
        bivariate rate sweep, reads the same bits.  A pole on a block raises
        as the joined evaluation does: the same error, point and message,
        from that evaluation.
        """
        blocks = [as_rows(b) for b in blocks]
        k = blocks[0].shape[1]
        parts = self.split(k) if len(blocks) > 1 and 0 < k < self.nvars else None
        if parts is not None:
            try:
                return np.multiply.outer(parts[0].values(blocks[0]),
                                         parts[1].grid_values(blocks[1:])).reshape(-1)
            except PoleOnSupportError:
                pass  # the joined evaluation below raises its own error
        return self.values(cartesian(*blocks))

    def key(self):
        """A hashable value; functions with equal keys evaluate alike, bit for bit.

        The base class knows nothing of a node's data, so it names the
        object itself: such a function is equal to itself only.
        """
        return (self,)

    def eval(self, point) -> complex:
        return complex(self.values(as_rows(point, self.nvars))[0])

    def deriv_eval(self, alpha, point) -> complex:
        return complex(self.deriv_values(alpha, as_rows(point, self.nvars))[0])

    def poles(self):
        """Affine forms ``(coeffs, const)`` whose zero sets are poles of self."""
        return []

    def split(self, k: int):
        """``(f_left, f_right)`` with f = f_left (x) f_right, or None.

        f_left acts on the first k variables and f_right on the rest, so a
        tensor functional mu (x) nu takes the value mu(f_left) * nu(f_right).
        None means f does not separate there, or the node cannot tell.
        """
        return None

    def ridge(self):
        """``(a, g)`` with f(z) = g(a . z) for a one-variable g, or None.

        The constant of an affine argument goes into g, so ``g.deriv_table``
        gives the derivatives along the direction a and ``g.poles()`` the
        poles on that line.  Sums and products answer None: a sum is applied
        term by term, and a product is not a ridge function in general.
        """
        return None

    def __add__(self, other):
        return Sum([self, _coerce(other, self.nvars)])

    __radd__ = __add__

    def __mul__(self, other):
        return Product([self, _coerce(other, self.nvars)])

    __rmul__ = __mul__


def _coerce(obj, nvars):
    if isinstance(obj, TestFunction):
        return obj
    return Const(nvars, complex(obj))


def _scalar_bytes(value) -> bytes:
    """The bytes of a complex scalar, as a key compares coefficients."""
    return np.complex128(value).tobytes()


def _alpha_rows(alphas, nvars):
    """Checked derivative orders as an int array of shape ``(len(alphas), nvars)``."""
    rows = [tuple(int(a) for a in alpha) for alpha in alphas]
    for alpha in rows:
        if len(alpha) != nvars or any(a < 0 for a in alpha):
            raise ValueError(f"bad derivative order {alpha} for {nvars} variables")
    return np.array(rows, dtype=np.int64).reshape(len(rows), nvars)


class Const(TestFunction):
    def __init__(self, nvars, value):
        self.nvars = int(nvars)
        self.value = complex(value)

    def deriv_table(self, alphas, pts):
        alphas = _alpha_rows(alphas, self.nvars)
        pts = as_rows(pts, self.nvars)
        out = np.zeros((len(alphas), pts.shape[0]), dtype=np.complex128)
        out[alphas.sum(axis=1) == 0] = self.value
        return out

    def key(self):
        return (type(self), self.nvars, _scalar_bytes(self.value))

    def split(self, k):
        return Const(k, self.value), Const(self.nvars - k, 1.0)

    def ridge(self):
        return np.zeros(self.nvars, dtype=np.complex128), Const(1, self.value)


class Affine(TestFunction):
    """The affine form ``coeffs . z + const``, over a read-only copy of ``coeffs``."""

    def __init__(self, coeffs, const=0.0):
        self.coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1).copy()
        self.coeffs.setflags(write=False)
        self.const = complex(const)
        self.nvars = self.coeffs.shape[0]
        if self.nvars == 0:
            raise ValueError("affine form needs at least one variable")

    def deriv_table(self, alphas, pts):
        # the values for order 0, a coefficient for order 1, zero above
        alphas = _alpha_rows(alphas, self.nvars)
        pts = as_rows(pts, self.nvars)
        orders = alphas.sum(axis=1)
        out = np.zeros((len(alphas), pts.shape[0]), dtype=np.complex128)
        if np.any(orders == 0):
            out[orders == 0] = self.values(pts)
        first = orders == 1
        out[first] = self.coeffs[np.argmax(alphas[first], axis=1)][:, None]
        return out

    def values(self, pts):
        """``coeffs . z + const`` at each row z of ``pts``; Exp and Recip read their base here."""
        return as_rows(pts, self.nvars) @ self.coeffs + self.const

    def key(self):
        return (type(self), self.coeffs.tobytes(), _scalar_bytes(self.const))

    def split(self, k):
        lo, hi = self.coeffs[:k], self.coeffs[k:]
        if not np.any(hi):
            return Affine(lo, self.const), Const(self.nvars - k, 1.0)
        if not np.any(lo):
            return Const(k, 1.0), Affine(hi, self.const)
        return None

    def ridge(self):
        return self.coeffs, Affine([1.0], self.const)


def coordinate(nvars, index):
    coeffs = np.zeros(nvars)
    coeffs[index] = 1.0
    return Affine(coeffs, 0.0)


class Exp(TestFunction):
    """``exp(u)`` for an affine form u; derivatives stay closed form."""

    def __init__(self, affine: Affine):
        if not isinstance(affine, Affine):
            raise TypeError("Exp expects an affine argument")
        self.arg = affine
        self.nvars = affine.nvars

    def deriv_table(self, alphas, pts):
        # every order is a scale prod(coeffs ** alpha) times one exponential
        alphas = _alpha_rows(alphas, self.nvars)
        pts = as_rows(pts, self.nvars)
        scales = np.prod(self.arg.coeffs ** alphas, axis=1)
        return scales[:, None] * np.exp(self.arg.values(pts))

    def key(self):
        return (type(self), self.arg.key())

    def split(self, k):
        coeffs = self.arg.coeffs
        return Exp(Affine(coeffs[:k], self.arg.const)), Exp(Affine(coeffs[k:], 0.0))

    def ridge(self):
        return self.arg.coeffs, Exp(Affine([1.0], self.arg.const))


class Recip(TestFunction):
    """``1 / u`` for an affine form u, with explicit pole detection."""

    def __init__(self, affine: Affine):
        if not isinstance(affine, Affine):
            raise TypeError("Recip expects an affine argument")
        self.arg = affine
        self.nvars = affine.nvars
        self._scale = 1.0 + float(np.sum(np.abs(affine.coeffs)) + abs(affine.const))

    def deriv_table(self, alphas, pts):
        # one base u and one pole test for all orders, one power per order
        alphas = _alpha_rows(alphas, self.nvars)
        pts = as_rows(pts, self.nvars)
        u = self.arg.values(pts)
        bad = np.abs(u) < 1e-12 * self._scale
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise PoleOnSupportError(self.arg.coeffs, self.arg.const, pts[idx])
        coefs = np.prod(self.arg.coeffs ** alphas, axis=1)
        powers = {}
        out = np.empty((len(alphas), pts.shape[0]), dtype=np.complex128)
        for row, coef, order in zip(out, coefs, alphas.sum(axis=1).tolist()):
            if order not in powers:
                powers[order] = u ** (-(order + 1))
            sign = (-1.0) ** order
            row[:] = sign * float(factorial(order)) * coef * powers[order]
        return out

    def key(self):
        return (type(self), self.arg.key())

    def poles(self):
        return [(self.arg.coeffs.copy(), self.arg.const)]

    def split(self, k):
        parts = self.arg.split(k)
        if parts is None:
            return None
        # the affine part of the split keeps the constant, and its reciprocal
        # keeps the pole test's scale
        return tuple(Recip(p) if isinstance(p, Affine) else p for p in parts)

    def ridge(self):
        return self.arg.coeffs, Recip(Affine([1.0], self.arg.const))


class Sum(TestFunction):
    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("empty sum")
        self.terms = terms
        self.nvars = terms[0].nvars
        if any(t.nvars != self.nvars for t in terms):
            raise ValueError("mixed variable counts in sum")

    def deriv_table(self, alphas, pts):
        pts = as_rows(pts, self.nvars)
        out = np.zeros((len(alphas), pts.shape[0]), dtype=np.complex128)
        for t in self.terms:
            out += t.deriv_table(alphas, pts)
        return out

    def key(self):
        return (type(self), tuple(t.key() for t in self.terms))

    def poles(self):
        return [p for t in self.terms for p in t.poles()]


class Product(TestFunction):
    """Product of factors differentiated via the general Leibniz rule."""

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("empty product")
        self.factors = factors
        self.nvars = factors[0].nvars
        if any(f.nvars != self.nvars for f in factors):
            raise ValueError("mixed variable counts in product")

    def deriv_table(self, alphas, pts):
        alphas = [tuple(a) for a in _alpha_rows(alphas, self.nvars).tolist()]
        pts = as_rows(pts, self.nvars)
        return self._leibniz(self.factors, alphas, pts)

    def _leibniz(self, factors, alphas, pts):
        if len(factors) == 1:
            return factors[0].deriv_table(alphas, pts)
        head, rest = factors[0], factors[1:]
        # each order the sums need is asked of a factor once, for all alphas
        heads, rests, terms = {}, {}, []
        for i, alpha in enumerate(alphas):
            for beta in iter_product(*(range(a + 1) for a in alpha)):
                coef = 1
                for a, b in zip(alpha, beta):
                    coef *= comb(a, b)
                remainder = tuple(a - b for a, b in zip(alpha, beta))
                terms.append((i, coef, heads.setdefault(beta, len(heads)),
                              rests.setdefault(remainder, len(rests))))
        head_table = head.deriv_table(list(heads), pts)
        rest_table = self._leibniz(rest, list(rests), pts)
        out = np.zeros((len(alphas), pts.shape[0]), dtype=np.complex128)
        for i, coef, h, r in terms:
            out[i] += coef * head_table[h] * rest_table[r]
        return out

    def key(self):
        return (type(self), tuple(f.key() for f in self.factors))

    def poles(self):
        return [p for f in self.factors for p in f.poles()]

    def split(self, k):
        parts = [f.split(k) for f in self.factors]
        if any(p is None for p in parts):
            return None
        return _product(k, [p[0] for p in parts]), _product(self.nvars - k, [p[1] for p in parts])


def _product(nvars, factors):
    """The product of ``factors`` without unit constants; a lone factor is bare."""
    factors = [f for f in factors if not (isinstance(f, Const) and f.value == 1)]
    if not factors:
        return Const(nvars, 1.0)
    return factors[0] if len(factors) == 1 else Product(factors)


class PolynomialFunction(TestFunction):
    """A polynomial wrapped as a test function (derivatives are exact)."""

    def __init__(self, poly: Polynomial):
        self.poly = poly
        self.nvars = poly.nvars

    def deriv_table(self, alphas, pts):
        # one derivative polynomial per order: evaluating them together in
        # one table rounds differently
        pts = as_rows(pts, self.nvars)
        out = np.empty((len(alphas), pts.shape[0]), dtype=np.complex128)
        for row, alpha in zip(out, _alpha_rows(alphas, self.nvars)):
            row[:] = self.poly.derivative(alpha).eval_many(pts)
        return out

    def key(self):
        poly = self.poly
        return (type(self), poly.nvars, poly.degree, poly.coeffs.tobytes())


# -- prefix grammar ----------------------------------------------------------


# head -> (least, most) argument count; None is no upper bound
_ARGUMENTS = {"const": (1, 1), "coord": (1, 1), "affine": (1, 2), "exp": (1, 1),
              "recip": (1, 1), "sum": (1, None), "product": (1, None), "poly": (1, 1)}


def parse_function(tree, nvars: int) -> TestFunction:
    """Build a :class:`TestFunction` from its prefix-grammar tree.

    A node with the wrong number of arguments, a scalar that is a bool or
    a string, and a coordinate index that is not an integer in
    ``0 .. nvars - 1`` raise ``ValueError`` naming the node.
    """
    if not isinstance(tree, (list, tuple)):
        return Const(nvars, read_scalar("function constant", tree))
    head = tree[0] if tree else None
    if not isinstance(head, str):
        raise ValueError(f"malformed function tree: {tree!r}")
    if head not in _ARGUMENTS:
        raise ValueError(f"unknown function node {head!r}")
    least, most = _ARGUMENTS[head]
    args = tree[1:]
    if len(args) < least or (most is not None and len(args) > most):
        takes = (f"{least}" if least == most else f"at least {least}" if most is None
                 else f"{least} to {most}")
        raise ValueError(f"function node {tree!r} has {len(args)} arguments; "
                         f"{head!r} takes {takes}")
    if head == "const":
        return Const(nvars, read_scalar(f"value of {tree!r}", args[0]))
    if head == "coord":
        index = read_value(f"index of {tree!r}", Key("int", low=0), args[0])
        if index >= nvars:
            raise ValueError(f"index of {tree!r} must be below nvars={nvars}")
        return coordinate(nvars, index)
    if head == "affine":
        if not isinstance(args[0], (list, tuple)):
            raise ValueError(f"coefficients of {tree!r} must be a list")
        coeffs = [read_scalar(f"coefficient of {tree!r}", c) for c in args[0]]
        if len(coeffs) != nvars:
            raise ValueError(
                f"affine form {tree!r} has {len(coeffs)} coefficients but nvars={nvars}"
            )
        const = read_scalar(f"constant of {tree!r}", args[1]) if len(args) > 1 else 0.0
        return Affine(coeffs, const)
    if head in ("exp", "recip"):
        arg = parse_function(args[0], nvars)
        arg = _to_affine(arg)
        return Exp(arg) if head == "exp" else Recip(arg)
    if head == "sum":
        return Sum([parse_function(t, nvars) for t in args])
    if head == "product":
        return Product([parse_function(t, nvars) for t in args])
    poly = Polynomial.from_json(args[0])
    if poly.nvars != nvars:
        raise ValueError(f"polynomial of {tree!r} has nvars={poly.nvars}, not {nvars}")
    return PolynomialFunction(poly)


def _to_affine(node: TestFunction) -> Affine:
    if isinstance(node, Affine):
        return node
    if isinstance(node, Const):
        return Affine(np.zeros(node.nvars), node.value)
    raise ValueError("exp/recip arguments must be affine forms")
