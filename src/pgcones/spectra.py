"""Intersection spectra, blocking tests, pencil counts, cone recognition."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import kernels
from .errors import NotBlocking, WrongDimension
from .objects import PointSet, cone, pointset_from_indices
from .pg import Geometry, Subspace, gaussian_binomial, theta


@dataclass(frozen=True)
class Spectrum:
    """Multiset {intersection size -> number of d-subspaces attaining it}."""

    by_size: dict
    d: int
    total: int


@dataclass(frozen=True)
class PencilProfile:
    """Intersection sizes of the q+1 hyperplanes through a codim-2 axis."""

    axis: Subspace = dc_field(repr=False)
    u: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class ConeRecognition:
    vertex: Subspace = dc_field(repr=False)
    base: PointSet = dc_field(repr=False)
    is_cone_over_vertex: bool
    counts: np.ndarray = dc_field(repr=False)  # |K ∩ h| for every hyperplane h


def _counts(K: PointSet, d: int, workers: int = 1, lone: bool = False):
    """Intersection counts of K with every d-subspace and, if asked, the lone
    point of K on each one met once (-1 elsewhere; None unless asked), from
    the geometry's plan for d, which charges a scan before it is built."""
    g = K.geometry
    if not 0 <= d <= g.n - 1:
        raise WrongDimension(f"need 0 <= d <= n-1, got d={d}")
    if d == g.n - 1:
        return kernels.hyperplane_intersection_counts(g.points, K.mask, g.count_plan(d), lone)
    return kernels.subspace_intersection_scan(g.n + 1, d, g.q, g.count_plan(d), K.mask,
                                              workers, lone)


def spectrum_of_counts(g: Geometry, counts: np.ndarray, d: int) -> Spectrum:
    """The spectrum tallied from the intersection counts of every d-subspace,
    which lie in 0..theta_d: no sort.  A cone's counts come in long runs of
    one value, whose `bincount` increments wait on one another.  uint8
    counts up to 10 are tallied by one comparison per value, which has no
    such wait and, over up to 11 values, costs about what pairs do where
    there are no runs; larger ones in uint16 pairs, each adding to the tally
    of both its bytes, whatever the byte order."""
    if counts.dtype != np.uint8:
        tally = np.bincount(counts)
    elif (top := int(counts.max(initial=0))) <= 10:
        tally = np.array([np.count_nonzero(counts == v) for v in range(top + 1)])
    else:
        pairs = np.bincount(counts[:len(counts) & ~1].view(np.uint16), minlength=1 << 16)
        pairs = pairs.reshape(256, 256)
        tally = pairs.sum(axis=0) + pairs.sum(axis=1)
        tally[counts[len(counts) & ~1:]] += 1  # the odd last count
    return Spectrum(by_size={int(s): int(tally[s]) for s in np.flatnonzero(tally)},
                    d=d, total=gaussian_binomial(g.n + 1, d + 1, g.q))


def spectrum(K: PointSet, d: int, workers: int = 1) -> Spectrum:
    """Exact intersection spectrum of K against all d-subspaces."""
    return spectrum_of_counts(K.geometry, _counts(K, d, workers)[0], d)


def is_blocking(K: PointSet, d: int) -> bool:
    """True iff every d-subspace meets K."""
    counts, _ = _counts(K, d)
    return bool(counts.min() > 0)


def essential_points(K: PointSet, d: int) -> PointSet:
    """Points whose removal unblocks some d-subspace.

    A point is essential exactly when some d-subspace meets K in that
    point alone.  Raises NotBlocking if K is not a d-blocking set.
    """
    counts, lone = _counts(K, d, lone=True)
    if counts.min() == 0:
        raise NotBlocking(f"K does not block every {d}-subspace")
    return pointset_from_indices(K.geometry, lone[lone >= 0])


def pencil_counts(K: PointSet, axis: Subspace) -> PencilProfile:
    """Intersection sizes of the q+1 hyperplanes through an (n-2)-axis, the
    points of its dual line a b, from the dot products of K with a and b."""
    g = K.geometry
    if axis.dim != g.n - 2:
        raise WrongDimension(f"axis must have dimension n-2 = {g.n - 2}, got {axis.dim}")
    f = g.field
    line = kernels.annihilator(axis.basis, f.add, f.mul, f.inv, f.neg)
    # each point of K off the axis lies on one of them: a + t b, or b
    off = g.points[np.setdiff1d(K.indices, axis.point_indices)]
    x, y = kernels.field_dots(line, off, f.add, f.mul)
    sizes = np.bincount(np.where(y == 0, g.q, f.mul[f.neg[x], f.inv[y]]), minlength=g.q + 1)
    sizes += K.k - len(off)
    return PencilProfile(axis=axis, u=dict(Counter(sizes.tolist())))


# ---------------------------------------------------------------------------
# cone recognition
# ---------------------------------------------------------------------------

def _pivot_columns(g: Geometry, S: Subspace) -> np.ndarray:
    """The pivot columns of the reduced basis of S, ascending: the leading
    coordinates of its points.  A vector of S leads at the pivot of the
    first reduced row in its combination, and each reduced row leads at its
    own pivot."""
    leads = np.argmax(g.points[S.point_indices] != 0, axis=1)
    return np.flatnonzero(np.bincount(leads, minlength=g.n + 1))


def recognize_cone(K: PointSet) -> ConeRecognition:
    """Detect the maximal vertex of K and test whether K is a cone over it.

    The vertex is the subspace of the points P of K such that every line
    joining P to another point of K lies entirely in K, the annihilator of
    the hyperplanes off the cone law in the counts of K, which the result
    keeps.  The base is K on the greedy complement of the vertex, which
    extends the vertex one at a time by the least point independent of it:
    the points that are 0 at the pivot columns of the vertex's reduced
    basis, the span of the unit vectors at its free columns.  Points are
    listed with coordinate 0 most significant.  Let W be the span so far,
    E_c the span of e_c, ..., e_n, and c the largest column with E_c not in
    W.  Every point before e_c lies in E_(c+1), inside W, so e_c is the
    least point off W, and c is W's largest free column: each step adds the
    unit vector at the largest free column left.
    """
    g = K.geometry
    if K.k == 0:
        raise ValueError("K must be nonempty")
    counts, _ = _counts(K, g.n - 1)
    f = g.field
    vertex = g.subspace_from_basis(
        kernels.cone_points(K.mask, counts, g.points, f.add, f.mul, f.inv, f.neg))
    pivots = _pivot_columns(g, vertex)
    base = PointSet(g, K.mask & (g.points[:, pivots] == 0).all(axis=1))
    is_cone = vertex.dim >= 0 and cone(g, vertex, base) == K
    return ConeRecognition(vertex=vertex, base=base, is_cone_over_vertex=is_cone, counts=counts)
