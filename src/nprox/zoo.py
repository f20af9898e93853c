"""Stock projector families: Taylor, Lagrange, Kergin, orthogonal.

Each builder arranges its conditions into the graded level structure the
engine expects.  Families are also constructible from a JSON-friendly spec
(``projector_from_spec``), with the degree kept as a free parameter so
convergence sweeps can rebuild one family across degrees.
"""
from __future__ import annotations

import numpy as np

from .config import check_config_keys
from .functionals import DerivativeEval, InnerProduct, KerginCondition, PointEval
from .indexing import exponents, monomial_count
from .measures import gram_schmidt_basis, parse_measure
from .points import (chebyshev_nodes, equiangular_nodes, integer_nodes,
                     leja_disk, leja_greedy, real_leja)
from .projectors import NewtonStructuredProjector


def _level_exponents(nvars: int, j: int) -> np.ndarray:
    E = exponents(nvars, j)
    return E[monomial_count(nvars, j - 1):]


def taylor_projector(nvars: int, degree: int, center=None,
                     cond_threshold: float | None = 1e12) -> NewtonStructuredProjector:
    """Degree truncation of the Taylor expansion around the center."""
    if center is None:
        center = np.zeros(nvars)
    levels = [
        [DerivativeEval(tuple(alpha), center) for alpha in _level_exponents(nvars, j)]
        for j in range(degree + 1)
    ]
    return NewtonStructuredProjector(levels, cond_threshold=cond_threshold)


def lagrange_projector(points, cond_threshold: float | None = 1e12) -> NewtonStructuredProjector:
    """Point interpolation; the point count fixes the degree.

    Points are taken in the given order and grouped into graded levels, so
    the count must equal dim P_d for some d.  Orderings matter: the nesting
    check sees every prefix, and Leja-style orderings keep those blocks
    well conditioned.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    nvars = pts.shape[1]
    degree = 0
    while monomial_count(nvars, degree) < pts.shape[0]:
        degree += 1
    if monomial_count(nvars, degree) != pts.shape[0]:
        raise ValueError(
            f"{pts.shape[0]} points do not fill a graded space in {nvars} variables"
        )
    levels = []
    for j in range(degree + 1):
        lo, hi = monomial_count(nvars, j - 1), monomial_count(nvars, j)
        levels.append([PointEval(p) for p in pts[lo:hi]])
    return NewtonStructuredProjector(levels, cond_threshold=cond_threshold)


def kergin_projector(nodes, cond_threshold: float | None = 1e12) -> NewtonStructuredProjector:
    """Kergin interpolation at d+1 nodes in any dimension.

    Level j holds one mean-value condition per multi-index of order j,
    integrating that derivative over the simplex spanned by the first j+1
    nodes.  In one variable this reduces to divided-difference (Newton)
    interpolation at the same nodes.
    """
    nds = np.asarray(nodes, dtype=np.complex128)
    if nds.ndim == 1:
        nds = nds.reshape(-1, 1)
    degree = nds.shape[0] - 1
    nvars = nds.shape[1]
    levels = [
        [KerginCondition(tuple(alpha), nds[: j + 1]) for alpha in _level_exponents(nvars, j)]
        for j in range(degree + 1)
    ]
    return NewtonStructuredProjector(levels, cond_threshold=cond_threshold)


def orthogonal_projector(measure, degree: int,
                         cond_threshold: float | None = 1e12) -> NewtonStructuredProjector:
    """Orthogonal projection onto P_degree in L2 of the measure.

    Conditions are inner products against the Gram-Schmidt basis, leveled by
    basis degree; truncations are then the lower-degree orthogonal
    projections, so Newton summands are the per-degree partial sums.
    """
    basis = gram_schmidt_basis(measure, degree)
    levels = []
    for j in range(degree + 1):
        lo, hi = monomial_count(measure.nvars, j - 1), monomial_count(measure.nvars, j)
        levels.append(
            [
                InnerProduct(basis.polys[i], measure, basis_values=basis.node_values[i])
                for i in range(lo, hi)
            ]
        )
    return NewtonStructuredProjector(levels, cond_threshold=cond_threshold)


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
        block = 2
        while True:
            pts = real_leja(leja_disk(block))
            if pts.size >= degree + 1:
                return pts[: degree + 1]
            block *= 2
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
    how sweeps rebuild one family across degrees.  Recognized kinds:

      {"kind": "taylor", "nvars": 1, "center": [0.0]}
      {"kind": "lagrange", "nodes": "chebyshev"}          (1-D menus)
      {"kind": "lagrange", "nodes": [[re, im], ...]}      (explicit points)
      {"kind": "kergin", "nodes": "leja_disk"}            (1-D menus)
      {"kind": "kergin", "nodes": [[...], ...]}           (rows = nodes)
      {"kind": "orthogonal", "measure": {...}}

    A 1-D menu name with "planar": true lifts the points to rows (re, im),
    which is how a disk node set feeds a two-variable Kergin build.  Explicit
    node lists fix their own degree.  An optional "cond_threshold" (null to
    disable) is passed to the engine.  Any other key is refused.
    """
    kind = spec.get("kind")
    common = ("kind", "degree", "cond_threshold")
    if degree is None:
        degree = spec.get("degree")
    threshold = spec.get("cond_threshold", 1e12)

    if kind == "taylor":
        check_config_keys(spec, (), common + ("nvars", "center"))
        nvars = int(spec.get("nvars", 1))
        center = np.asarray(spec.get("center", np.zeros(nvars)), dtype=np.complex128)
        return taylor_projector(nvars, int(degree), center, cond_threshold=threshold)
    if kind in ("lagrange", "kergin"):
        check_config_keys(spec, ("nodes",), common + ("planar",))
        pts = spec["nodes"]
        if isinstance(pts, str):
            pts = nodes_by_name(pts, int(degree))
            if spec.get("planar"):
                pts = np.stack([pts.real, pts.imag], axis=1)
        else:
            pts = np.array([[complex(*c) if isinstance(c, (list, tuple)) else complex(c)
                             for c in row] for row in pts])
        build = lagrange_projector if kind == "lagrange" else kergin_projector
        return build(pts, cond_threshold=threshold)
    if kind == "orthogonal":
        check_config_keys(spec, ("measure",), common)
        measure = parse_measure(spec["measure"])
        return orthogonal_projector(measure, int(degree), cond_threshold=threshold)
    raise ValueError(f"unknown projector kind {kind!r}")
