"""Interpolation node families: Leja sequences and classical 1-D grids.

``as_rows`` reads a point set as rows of coordinates, a 1-D sequence as
one variable unless a width is given, and checks the width it is given;
test functions and polynomial evaluation read their points through it.
``cartesian`` joins the rows of point sets, which is how product
measures, tensor conditions and product compacts build their points, and
how a sweep's target function that does not split along the grid's blocks
is evaluated (``TestFunction.grid_values``).

Point sequences are plain 1-D numpy arrays (complex for the disk, real-valued
complex for intervals); prefixes are slices.  The Leja sequence on the unit
circle starts at ``(1, -1)`` and doubles: a block of length ``L = 2^m``
continues with ``exp(i*pi/L)`` times itself, which reproduces the greedy
maximal-distance-product construction.  ``leja_greedy`` is the independent
greedy builder used to cross-check that rule.
"""
from __future__ import annotations

import numpy as np

# circle mesh that leja_greedy_gap compares each greedy choice against
_GAP_MESH = 4096
# real parts of circle Leja points closer than this are one node
_DUPLICATE_TOL = 1e-12


def leja_disk(count: int) -> np.ndarray:
    """First ``count`` Leja points on the unit circle; count must be 2^k >= 2."""
    if count < 2 or count & (count - 1):
        raise ValueError("count must be a power of two, at least 2")
    seq = np.array([1.0, -1.0], dtype=np.complex128)
    while seq.size < count:
        seq = np.concatenate([seq, np.exp(1j * np.pi / seq.size) * seq])
    return seq


def leja_greedy(candidates, count: int) -> np.ndarray:
    """Greedy Leja points drawn from a finite candidate set.

    The first point maximizes the modulus (ties broken by smallest argument
    in [0, 2*pi)); each later point maximizes the product of distances to the
    points already chosen.  Equal objective values resolve to the earliest
    candidate, so the output is deterministic for a fixed candidate order.
    """
    cand = np.asarray(candidates, dtype=np.complex128).reshape(-1)
    if count < 1 or count > cand.size:
        raise ValueError("count must be between 1 and the candidate count")
    mods = np.abs(cand)
    top = mods >= mods.max() * (1.0 - 1e-13)
    args = np.mod(np.angle(cand), 2.0 * np.pi)
    args_masked = np.where(top, args, np.inf)
    first = int(np.argmin(args_masked))
    chosen = [first]
    logsum = np.log(np.abs(cand - cand[first]) + 1e-300)
    for _ in range(1, count):
        nxt = int(np.argmax(logsum))
        chosen.append(nxt)
        logsum += np.log(np.abs(cand - cand[nxt]) + 1e-300)
    return cand[chosen]


def leja_greedy_gap(points) -> float:
    """Worst relative greedy-optimality gap of a circle Leja sequence.

    For each prefix, compares the log distance-product objective achieved by
    the next point against the best value on a fine circle mesh of
    ``_GAP_MESH`` points (the chosen points themselves are added to the mesh
    so exact ties are visible).  Returns the largest relative shortfall; a
    genuine greedy sequence stays at roundoff level.
    """
    pts = np.asarray(points, dtype=np.complex128).reshape(-1)
    cand = np.concatenate([np.exp(2j * np.pi * np.arange(_GAP_MESH) / _GAP_MESH), pts])
    worst = 0.0
    logsum = np.log(np.abs(cand - pts[0]) + 1e-300)
    for k in range(1, pts.size):
        best = float(np.max(logsum))
        got = float(np.sum(np.log(np.abs(pts[k] - pts[:k]) + 1e-300)))
        worst = max(worst, (best - got) / max(abs(best), 1e-30))
        logsum += np.log(np.abs(cand - pts[k]) + 1e-300)
    return worst


def real_leja(points) -> np.ndarray:
    """Real parts of unit-circle Leja points, in order, duplicates dropped.

    Sorted, the real parts fall into runs whose neighbours lie within
    ``_DUPLICATE_TOL``; each run keeps its first occurrence.  For runs
    narrower than the tolerance, as the circle's conjugate pairs are, that
    is the value kept by comparing each real part with every earlier kept one.
    """
    pts = np.asarray(points, dtype=np.complex128).reshape(-1)
    if np.any(np.abs(np.abs(pts) - 1.0) > 1e-12):
        raise ValueError("real_leja expects points on the unit circle")
    values = pts.real
    if not values.size:
        return values
    order = np.argsort(values, kind="stable")
    starts = np.flatnonzero(np.diff(values[order], prepend=-np.inf) > _DUPLICATE_TOL)
    keep = np.zeros(values.size, dtype=bool)
    keep[np.minimum.reduceat(order, starts)] = True
    return values[keep]


def as_rows(points, nvars: int | None = None) -> np.ndarray:
    """``points`` as complex128 rows of coordinates.

    A 1-D sequence becomes rows of ``nvars`` coordinates, one column when
    ``nvars`` is None.  Given ``nvars``, points of any other width raise
    ``ValueError``.
    """
    pts = np.asarray(points, dtype=np.complex128)
    width = 1 if nvars is None else nvars
    if pts.ndim == 1 and pts.size % width == 0:
        pts = pts.reshape(-1, width)
    if nvars is not None and (pts.ndim != 2 or pts.shape[1] != nvars):
        raise ValueError(f"expected points of {nvars} coordinates, got shape {pts.shape}")
    return pts


def cartesian(*blocks) -> np.ndarray:
    """Rows (a, b, ...) for every row a of the first block, b of the next, ...

    Left-major: the first block varies slowest.  Each block is broadcast
    into its own columns of one array, viewed with an axis per block, in the
    dtype ``np.hstack`` would give them; so no block is repeated or tiled
    into a full-size copy first.
    """
    counts = tuple(b.shape[0] for b in blocks)
    out = np.empty(counts + (sum(b.shape[1] for b in blocks),),
                   dtype=np.result_type(*blocks))
    col = 0
    for axis, block in enumerate(blocks):
        shape = [1] * len(blocks) + [block.shape[1]]
        shape[axis] = counts[axis]
        out[..., col:col + block.shape[1]] = block.reshape(shape)
        col += block.shape[1]
    return out.reshape(-1, col)


def chebyshev_nodes(degree: int) -> np.ndarray:
    """The ``degree + 1`` Chebyshev points cos((2k+1)pi/(2 degree + 2))."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    k = np.arange(degree + 1)
    return np.cos((2 * k + 1) * np.pi / (2 * degree + 2))


def integer_nodes(degree: int) -> np.ndarray:
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return np.arange(degree + 1, dtype=np.float64)


def equiangular_nodes(degree: int) -> np.ndarray:
    """The ``degree + 1`` roots of unity, starting at 1."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    k = np.arange(degree + 1)
    return np.exp(2j * np.pi * k / (degree + 1))
