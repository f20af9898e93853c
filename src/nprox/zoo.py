"""Stock projector families: Taylor, Lagrange, Kergin, orthogonal.

Each builder lists its conditions in the graded-lex order the engine
expects, one per exponent row of ``exponents(nvars, degree)``, point or
basis element; the engine cuts that list into levels.  Families are also
constructible from a JSON-friendly spec (``projector_from_spec``), with the
degree kept as a free parameter so convergence sweeps can rebuild one family
across degrees.
"""
from __future__ import annotations

import json

import numpy as np

from .config import read_points, read_spec
from .functionals import DerivativeEval, InnerProduct, KerginCondition, PointEval
from .indexing import exponents
from .measures import gram_schmidt_basis, parse_measure
from .points import (as_rows, chebyshev_nodes, equiangular_nodes, integer_nodes,
                     leja_disk, leja_greedy, real_leja)
from .projectors import NewtonStructuredProjector


def taylor_projector(nvars: int, degree: int, center=None,
                     cond_threshold: float | None = 1e12) -> NewtonStructuredProjector:
    """Degree truncation of the Taylor expansion around the center."""
    if center is None:
        center = np.zeros(nvars)
    conditions = [DerivativeEval(alpha, center) for alpha in exponents(nvars, degree)]
    return NewtonStructuredProjector(conditions, cond_threshold=cond_threshold)


def lagrange_projector(points, cond_threshold: float | None = 1e12) -> NewtonStructuredProjector:
    """Point interpolation; the point count fixes the degree.

    Points are taken in the given order and grouped into graded levels, so
    the count must equal dim P_d for some d.  Orderings matter: the nesting
    check sees every prefix, and Leja-style orderings keep those blocks
    well conditioned.
    """
    conditions = [PointEval(p) for p in as_rows(points)]
    return NewtonStructuredProjector(conditions, cond_threshold=cond_threshold)


def kergin_projector(nodes, cond_threshold: float | None = 1e12) -> NewtonStructuredProjector:
    """Kergin interpolation at d+1 nodes in any dimension.

    Level j holds one mean-value condition per multi-index of order j,
    integrating that derivative over the simplex spanned by the first j+1
    nodes.  In one variable this reduces to divided-difference (Newton)
    interpolation at the same nodes.
    """
    nds = as_rows(nodes)
    conditions = [KerginCondition(alpha, nds[:alpha.sum() + 1])
                  for alpha in exponents(nds.shape[1], nds.shape[0] - 1)]
    return NewtonStructuredProjector(conditions, cond_threshold=cond_threshold)


def orthogonal_projector(measure, degree: int,
                         cond_threshold: float | None = 1e12) -> NewtonStructuredProjector:
    """Orthogonal projection onto P_degree in L2 of the measure.

    Conditions are inner products against the Gram-Schmidt basis, leveled by
    basis degree; truncations are then the lower-degree orthogonal
    projections, so Newton summands are the per-degree partial sums.
    """
    basis = gram_schmidt_basis(measure, degree)
    conditions = [InnerProduct(b, measure, basis_values=v)
                  for b, v in zip(basis.polys, basis.node_values)]
    return NewtonStructuredProjector(conditions, cond_threshold=cond_threshold)


# -- 1-D node menus and parametric specs ----------------------------------------


def nodes_by_name(name: str, degree: int) -> np.ndarray:
    """The standard 1-D node families, by name, for d+1 points."""
    if name == "chebyshev":
        return chebyshev_nodes(degree)
    if name == "chebyshev_leja":
        # same point set, greedily reordered; prefixes become usable, which
        # matters whenever truncations or products of the family are taken
        return leja_greedy(chebyshev_nodes(degree), degree + 1)
    if name == "real_leja":
        # 2^k circle Leja points have 2^(k-1) + 1 distinct real parts, and
        # the sequence of a longer block starts with the shorter one
        block = 2
        while block // 2 < degree:
            block *= 2
        return real_leja(leja_disk(block))[: degree + 1]
    if name == "leja_disk":
        block = 2
        while block < degree + 1:
            block *= 2
        return leja_disk(block)[: degree + 1]
    if name == "equiangular":
        return equiangular_nodes(degree)
    if name == "integer":
        return integer_nodes(degree)
    raise ValueError(f"unknown node family {name!r}")


def projector_from_spec(spec: dict, degree: int | None = None) -> NewtonStructuredProjector:
    """Build a zoo projector from a JSON-friendly description.

    The spec's own "degree" entry may be overridden by the argument, which is
    how sweeps rebuild one family across degrees.  Recognized kinds (their
    keys are the ``projector.<kind>`` entries of ``config.SCHEMA``):

      {"kind": "taylor", "nvars": 1, "center": [0.0]}
      {"kind": "lagrange", "nodes": "chebyshev"}          (1-D menus)
      {"kind": "lagrange", "nodes": [[[re, im]], ...]}    (explicit points)
      {"kind": "kergin", "nodes": "leja_disk"}            (1-D menus)
      {"kind": "kergin", "nodes": [[...], ...]}           (rows = nodes)
      {"kind": "orthogonal", "measure": {...}}
      {"kind": "newton_product", "factors": [spec, spec]}

    A product's two factors are specs themselves, products included, built
    at the same degree; two equal factor specs (as canonical JSON,
    ``_spec_text``) are built once, and the product takes that factor
    twice.  A 1-D menu name with "planar": true lifts the points to rows
    (re, im), which is how a disk node set feeds a two-variable Kergin
    build.  An explicit point is a list of coordinates, each a number or an
    [re, im] pair (``config.read_points``): [[0.5, 0.1]] is one complex
    node in one variable, [0.5, 0.1] a real point in two.  Explicit node
    lists fix their own degree; every other kind needs one.  An optional
    "cond_threshold" (null to disable) is passed to the engine.  Any other
    key is refused.
    """
    cfg = read_spec("projector", spec)
    kind, threshold = cfg["kind"], cfg["cond_threshold"]
    if kind == "newton_product":
        if len(cfg["factors"]) != 2:
            raise ValueError("a newton_product takes exactly two factors")
        first, second = cfg["factors"]
        left = projector_from_spec(first, degree)
        twin = _spec_text(first)
        right = (left if twin is not None and twin == _spec_text(second)
                 else projector_from_spec(second, degree))
        return left.newton_product(right, cond_threshold=threshold)
    if degree is not None:
        cfg = read_spec("projector", {**spec, "degree": degree})
    degree = cfg["degree"]
    fixed = kind in ("lagrange", "kergin") and not isinstance(cfg["nodes"], str)
    if degree is None and not fixed:
        raise ValueError(f"missing config key 'degree' for a {kind} projector")

    if kind == "taylor":
        nvars = cfg["nvars"]
        center = np.zeros(nvars) if cfg["center"] is None else cfg["center"]
        return taylor_projector(nvars, degree, np.asarray(center, dtype=np.complex128),
                                cond_threshold=threshold)
    if kind in ("lagrange", "kergin"):
        pts = cfg["nodes"]
        if isinstance(pts, str):
            pts = nodes_by_name(pts, degree)
            if cfg["planar"]:
                pts = np.stack([pts.real, pts.imag], axis=1)
        else:
            pts = read_points("nodes", pts)
        build = lagrange_projector if kind == "lagrange" else kergin_projector
        return build(pts, cond_threshold=threshold)
    # orthogonal
    return orthogonal_projector(parse_measure(cfg["measure"]), degree,
                                cond_threshold=threshold)


def _spec_text(spec) -> str | None:
    """A spec as canonical JSON text, or None where it holds a value JSON does not.

    Equal texts build equal projectors: JSON tells true from 1 and -0.0 from
    0.0, which Python's ``==`` does not, and a spec holding an array (None
    here) is never taken for another.
    """
    try:
        return json.dumps(spec, sort_keys=True)
    except (TypeError, ValueError):
        return None
