"""Constructions of the point sets under study.

Canonical coordinate models throughout: the Hermitian curve for the
unital, conic-plus-nucleus for the hyperoval, a pencil-of-conics
(Denniston) arc for maximal arcs, and subfield coordinates for Baer
subgeometries.  Every base is built in the PG(n,q) it is asked for: the
planar ones in the plane of the first three coordinates, x_3 = ... = x_n =
0, and a Baer subgeometry in the span of the first s+1.  Cones place the
vertex on the last coordinate axes, so constructions are deterministic and
directly comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (DegreeNotDividingOrder, OddDegree, OddOrder,
                     VertexBaseNotDisjoint, WrongDimension)
from .gf import Field, subfield
from . import kernels
from .pg import Geometry, Subspace


@dataclass(frozen=True)
class PointSet:
    """A set of points of a geometry, stored as a boolean membership mask."""

    geometry: Geometry = dc_field(repr=False)
    mask: np.ndarray = dc_field(repr=False)

    @property
    def k(self) -> int:
        return int(self.mask.sum())

    @property
    def indices(self) -> np.ndarray:
        return np.nonzero(self.mask)[0]

    def __eq__(self, other):
        return (isinstance(other, PointSet)
                and self.geometry is other.geometry
                and bool(np.array_equal(self.mask, other.mask)))

    def __repr__(self):
        return f"PointSet(k={self.k})"


def pointset_from_indices(geometry: Geometry, indices) -> PointSet:
    if not isinstance(indices, np.ndarray):  # a list, set, range or generator
        indices = list(indices)
    mask = np.zeros(geometry.num_points, dtype=bool)
    mask[np.asarray(indices, dtype=np.int64)] = True
    return PointSet(geometry, mask)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def cone(geometry: Geometry, vertex: Subspace, base: PointSet) -> PointSet:
    """Union of the vertex with all lines joining vertex points to base points.

    The base must lie in a subspace disjoint from the vertex; an empty
    vertex (dim -1) returns the base unchanged.
    """
    if vertex.dim == -1:
        return PointSet(geometry, base.mask.copy())
    base_idx = base.indices
    mask = np.zeros(geometry.num_points, dtype=bool)
    mask[vertex.point_indices] = True
    if base_idx.size == 0:
        return PointSet(geometry, mask)
    fld, bpts = geometry.field, geometry.points[base_idx]
    # a base 0 at the pivot columns of the vertex spans a space meeting it in 0
    # alone, as every nonzero vector of the vertex leads at one of them
    if bpts[:, geometry.pivot_columns(vertex)].any():
        # one reduction of a stack: the base, and the vertex basis with it
        pair = np.stack([np.vstack([0 * vertex.basis, bpts]), np.vstack([vertex.basis, bpts])])
        base_rank, joint_rank = kernels.rref(pair, fld.add, fld.mul, fld.inv, fld.neg)[1]
        if joint_rank != base_rank + len(vertex.basis):
            raise VertexBaseNotDisjoint("vertex and base span share a point")
    mask[base_idx] = True

    vpts = geometry.points[vertex.point_indices]
    ts = np.arange(1, geometry.q, dtype=np.int16)
    # interior[v, b, t] = V_v + t * B_b, covering each joining line
    interior = fld.add[vpts[:, None, None, :], fld.mul[ts[None, None, :, None], bpts[None, :, None, :]]]
    idx = geometry.indices_of(interior)
    mask[idx] = True
    return PointSet(geometry, mask)


def axis_vertex(geometry: Geometry, r: int) -> Subspace:
    """Span of the last r+1 coordinate axes (the canonical cone vertex)."""
    if not -1 <= r <= geometry.n:
        raise WrongDimension(f"need -1 <= r <= n, got r={r}, n={geometry.n}")
    return geometry.subspace_from_basis(np.eye(geometry.n + 1, dtype=np.int16)[geometry.n - r:])


# ---------------------------------------------------------------------------
# Baer subgeometries and Baer cones
# ---------------------------------------------------------------------------

def baer_subgeometry(geometry: Geometry, s: int) -> PointSet:
    """The canonical s-dimensional Baer subgeometry: points with all
    coordinates in the sqrt(q)-subfield and the last n-s coordinates zero."""
    if not 0 <= s <= geometry.n:
        raise WrongDimension(f"need 0 <= s <= n, got s={s}")
    sub = np.array(subfield(geometry.field), dtype=np.int16)  # raises OddDegree
    sub_set = np.zeros(geometry.q, dtype=bool)
    sub_set[sub] = True
    pts = geometry.points
    return PointSet(geometry, sub_set[pts].all(axis=1) & (pts[:, s + 1:] == 0).all(axis=1))


def baer_cone(geometry: Geometry, r: int, s: int) -> PointSet:
    """Cone with an r-dim vertex over an s-dim Baer subgeometry base."""
    if s < -1 or r + s >= geometry.n:
        raise WrongDimension(f"need s >= -1 and r+s < n, got r={r}, s={s}, n={geometry.n}")
    base = baer_subgeometry(geometry, s) if s >= 0 else PointSet(
        geometry, np.zeros(geometry.num_points, dtype=bool))
    return cone(geometry, axis_vertex(geometry, r), base)


# ---------------------------------------------------------------------------
# planar bases: unital, hyperoval, Denniston maximal arc
# ---------------------------------------------------------------------------

def _in_plane(geometry: Geometry, vecs: np.ndarray) -> PointSet:
    """The points x_3 = ... = x_n = 0 of `geometry` whose first three
    coordinates are the rows of vecs."""
    padded = np.zeros((len(vecs), geometry.n + 1), dtype=np.int16)
    padded[:, :3] = vecs
    return pointset_from_indices(geometry, geometry.indices_of(padded))


def hermitian_unital(geometry: Geometry) -> PointSet:
    """The Hermitian curve x^(s+1) + y^(s+1) + z^(s+1) = 0, s = sqrt(q)."""
    if geometry.field.h % 2 != 0:
        raise OddDegree(f"q = {geometry.q} is not a square")
    s = geometry.field.p ** (geometry.field.h // 2)
    fld = geometry.field
    powed = np.array([fld.pow(x, s + 1) for x in range(geometry.q)], dtype=np.int16)
    pts = kernels.combo_vectors(3, geometry.q)
    terms = powed[pts]
    total = fld.add[fld.add[terms[:, 0], terms[:, 1]], terms[:, 2]]
    return _in_plane(geometry, pts[total == 0])


def hyperoval(geometry: Geometry) -> PointSet:
    """Conic y*z = x^2 together with its nucleus (1,0,0); q+2 points."""
    if geometry.q % 2 != 0:
        raise OddOrder(f"hyperovals require even q, got q = {geometry.q}")
    fld = geometry.field
    pts = kernels.combo_vectors(3, geometry.q)
    on_conic = fld.mul[pts[:, 1], pts[:, 2]] == fld.mul[pts[:, 0], pts[:, 0]]
    return _in_plane(geometry, np.vstack([pts[on_conic], [1, 0, 0]]))


def _denniston_lambda(field: Field) -> int:
    # smallest lam making x^2 + lam*x + 1 rootless (hence irreducible)
    for lam in range(1, field.q):
        if all(field.add[field.add[field.mul[t, t], field.mul[lam, t]], 1] != 0
               for t in range(field.q)):
            return lam
    raise AssertionError("no irreducible quadratic found")  # unreachable for even q


def _additive_subgroup(field: Field, d: int) -> np.ndarray:
    # F_2-span of the first log2(d) basis elements 1, x, x^2, ...
    gens = [field.p ** i for i in range(d.bit_length() - 1)]
    elems = {0}
    for g in gens:
        elems |= {int(field.add[e, g]) for e in elems}
    assert len(elems) == d
    return np.array(sorted(elems), dtype=np.int16)


def denniston_arc(geometry: Geometry, d: int) -> PointSet:
    """Degree-d maximal arc from a pencil of conics, q even, d | q.

    Affine model: points (x, y, 1) with x^2 + lam*x*y + y^2 in a fixed
    additive subgroup of order d, lam chosen so the quadratic form is
    anisotropic.  Size qd + d - q; every line meets it in 0 or d points.
    """
    q = geometry.q
    if q % 2 != 0:
        raise OddOrder(f"Denniston arcs require even q, got q = {q}")
    if not 2 <= d <= q:
        raise DegreeNotDividingOrder(f"degree must satisfy 2 <= d <= q, got d={d}")
    if q % d != 0:
        raise DegreeNotDividingOrder(f"degree {d} does not divide q = {q}")

    fld = geometry.field
    lam = _denniston_lambda(fld)
    group = _additive_subgroup(fld, d)
    in_group = np.zeros(q, dtype=bool)
    in_group[group] = True

    xs, ys = np.meshgrid(np.arange(q, dtype=np.int16), np.arange(q, dtype=np.int16),
                         indexing="ij")
    form = fld.add[fld.add[fld.mul[xs, xs], fld.mul[lam, fld.mul[xs, ys]]],
                   fld.mul[ys, ys]]
    keep = in_group[form]
    return _in_plane(geometry, np.stack([xs[keep], ys[keep], np.ones_like(xs[keep])], axis=1))


# ---------------------------------------------------------------------------
# canonical cone builders used by the theorem drivers and the CLI
# ---------------------------------------------------------------------------

def hyperoval_cone(geometry: Geometry) -> PointSet:
    """Cone with an (n-3)-dim vertex over a hyperoval in the first 3 coords."""
    return cone(geometry, axis_vertex(geometry, geometry.n - 3), hyperoval(geometry))


def unital_cone(geometry: Geometry) -> PointSet:
    return cone(geometry, axis_vertex(geometry, geometry.n - 3), hermitian_unital(geometry))


def maxarc_cone(geometry: Geometry, d: int) -> PointSet:
    return cone(geometry, axis_vertex(geometry, geometry.n - 3), denniston_arc(geometry, d))
