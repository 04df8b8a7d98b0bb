"""Row reduction and cone recognition against in-test references.

`Geometry.rref`, and `kernels.rref` on stacks of matrices, are checked
against a textbook Gauss-Jordan elimination on Python integers over the
field tables.  `recognize_cone` is checked end to
end on cones over a conic with a vertex spanned by random points, at q = 3,
5 and 9, whole and damaged, and on the unital cone of PG(8,4): the vertex against the cone points found from
the definition, the base against K on a copy of the greedy loop that adds
the first point keeping the rows independent, and the rebuild against
both.
"""

from functools import lru_cache

import numpy as np
import pytest

from pgcones import field_new, geometry_new, kernels
from pgcones.objects import PointSet, cone, pointset_from_indices, unital_cone
from pgcones.spectra import recognize_cone

from oracles import reference_rref, rref, subspace_mask


@lru_cache(maxsize=None)
def _geometry(p, h, n):
    return geometry_new(field_new(p, h), n)


def _assert_reduced_echelon(m):
    lead = [int(np.flatnonzero(row)[0]) for row in m]
    assert lead == sorted(set(lead))
    for r, col in enumerate(lead):
        assert m[r, col] == 1
        assert np.count_nonzero(m[:, col]) == 1


def _random_matrix(g, rng):
    """Random rows, with zero rows and combinations of earlier rows mixed in."""
    add, mul = g.field.add, g.field.mul
    rows = []
    for _ in range(int(rng.integers(0, g.n + 4))):
        kind = rng.integers(0, 4)
        if kind == 0:
            rows.append(np.zeros(g.n + 1, dtype=np.int16))
        elif kind == 1 and rows:
            a, b = rng.integers(0, len(rows), size=2)
            s, t = rng.integers(0, g.q, size=2)
            rows.append(add[mul[s, rows[a]], mul[t, rows[b]]].astype(np.int16))
        else:
            rows.append(rng.integers(0, g.q, size=g.n + 1).astype(np.int16))
    return np.array(rows, dtype=np.int16).reshape(len(rows), g.n + 1)


@pytest.mark.parametrize("p,h,n", [(2, 1, 4), (3, 1, 3), (2, 2, 4), (5, 1, 3), (2, 3, 3),
                                   (3, 2, 3)])
def test_rref_matches_the_reference(p, h, n):
    g = _geometry(p, h, n)
    rng = np.random.default_rng(1000 * g.q + n)
    for _ in range(40):
        m = _random_matrix(g, rng)
        got = rref(g, m)
        ref = reference_rref(g, m)
        assert got.dtype == np.int16 and got.shape == (ref.shape[0], g.n + 1)
        _assert_reduced_echelon(got)
        np.testing.assert_array_equal(got, ref)  # the reduced form is unique
        # the same row space: the input rows add nothing to the output rows
        assert reference_rref(g, np.vstack([got, m])).shape[0] == got.shape[0]


@pytest.mark.parametrize("p,h,n", [(2, 1, 4), (3, 1, 3), (2, 2, 4), (5, 1, 3), (3, 2, 3)])
def test_pivot_columns_are_the_leading_coordinates_of_the_points(p, h, n):
    # seeded spans of 0 to n+1 random points, the empty one among them,
    # with their reduced bases, and the annihilators of the nonempty ones,
    # whose bases are not reduced
    g = _geometry(p, h, n)
    f = g.field
    rng = np.random.default_rng(10 * g.q + n)
    for _ in range(5):
        for size in range(n + 2):
            S = g.span(rng.choice(g.num_points, size, replace=False))
            subspaces = [S] if size == 0 else [S, g.subspace_from_basis(
                kernels.annihilator(S.basis, f.add, f.mul, f.inv, f.neg))]
            for T in subspaces:
                want = np.argmax(rref(g, T.basis) != 0, axis=1)
                np.testing.assert_array_equal(g.pivot_columns(T), want)
                assert len(want) == T.dim + 1


def _random_stack(g, rng, b, rows):
    """b matrices of `rows` rows, each of rank at most a random r (0 for an
    all-zero matrix): field combinations of r random vectors, with a random
    set of columns zeroed per matrix, so that in a column only some matrices
    have a pivot."""
    add, mul = g.field.add, g.field.mul
    stack = np.zeros((b, rows, g.n + 1), dtype=np.int16)
    for m in stack:
        basis = rng.integers(0, g.q, size=(rng.integers(0, g.n + 2), g.n + 1))
        basis[:, rng.random(g.n + 1) < 0.3] = 0
        for vector in basis:
            m[:] = add[m, mul[rng.integers(0, g.q, size=(rows, 1)), vector]]
    return stack


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_stacked_rref_matches_the_reference_per_matrix(p, h):
    # one reduction of a whole stack, each matrix against the textbook
    # elimination; the seeded stacks hold mixed ranks, all-zero matrices
    # and columns where only some matrices have a pivot
    g = _geometry(p, h, 3)
    f = g.field
    rng = np.random.default_rng(100 * g.q + 7)
    ranks_seen, partial_columns = set(), 0
    for _ in range(30):
        stack = _random_stack(g, rng, int(rng.integers(1, 9)), int(rng.integers(1, 8)))
        reduced, ranks = kernels.rref(stack, f.add, f.mul, f.inv, f.neg)
        assert reduced.dtype == np.int16 and reduced.shape == stack.shape
        assert ranks.shape == stack.shape[:1]
        pivots = np.zeros((len(stack), g.n + 1), dtype=bool)
        for m, got, rank, at in zip(stack, reduced, ranks, pivots):
            ref = reference_rref(g, m)
            assert rank == ref.shape[0]
            np.testing.assert_array_equal(got[:rank], ref)
            assert not got[rank:].any()
            at[np.argmax(ref != 0, axis=1)] = True
        ranks_seen.update(ranks.tolist())
        partial_columns += int((pivots.any(axis=0) & ~pivots.all(axis=0)).sum())
    assert 0 in ranks_seen and len(ranks_seen) >= 4 and partial_columns > 0


# ---------------------------------------------------------------------------
# recognize_cone end to end
# ---------------------------------------------------------------------------

def _reference_complement(g, vertex):
    """The greedy complement: extend the vertex basis by the first points,
    in index order, that keep the rows independent."""
    target = g.n - vertex.dim
    chosen = []
    for i in range(g.num_points):
        if len(chosen) == target:
            break
        cand = np.vstack([vertex.basis, g.points[chosen + [i]]])
        if reference_rref(g, cand).shape[0] == cand.shape[0]:
            chosen.append(i)
    return g.span(chosen)


def _cone_points_by_definition(K):
    """P in K with P + tQ in K for every Q in K and t != 0 (the zero vector,
    at Q = P, counts as inside)."""
    g = K.geometry
    idx = K.indices
    ts = np.arange(1, g.q)
    tq = g.field.mul[ts[:, None, None], g.points[idx][None]]  # (t, Q, coordinate)
    out = []
    for P in idx:
        for lo in range(0, len(idx), 64):
            found = g.indices_of(g.field.add[g.points[P], tq[:, lo:lo + 64]])
            if not ((found < 0) | K.mask[found]).all():
                break
        else:
            out.append(P)
    return np.array(out, dtype=np.int64)


def _conic_cone(g, r, rng):
    """A cone whose vertex is spanned by r+1 random points, over the conic
    y*z = x^2 of a plane met by the vertex in no point."""
    mul, add = g.field.mul, g.field.add
    while True:
        vertex = g.span(rng.choice(g.num_points, size=r + 1, replace=False))
        if vertex.dim == r:
            break
    comp = _reference_complement(g, vertex)
    plane_basis = comp.basis[:3]
    plane = _geometry(g.field.p, g.field.h, 2)
    x, y, z = plane.points.T
    conic = plane.points[mul[y, z] == mul[x, x]]
    vecs = np.zeros((len(conic), g.n + 1), dtype=np.int16)
    for c in range(3):
        vecs = add[vecs, mul[conic[:, c][:, None], plane_basis[c][None, :]]]
    base = pointset_from_indices(g, g.indices_of(vecs))
    return cone(g, vertex, base), vertex


# (p, h, n, vertex dimension): q = 3, 5 and 9; the complement of the vertex
# is a plane except in PG(4,5), where the conic spans a plane of a solid
RECOGNITION_CASES = [(3, 1, 3, 0), (3, 1, 4, 1), (5, 1, 3, 0), (5, 1, 4, 0), (3, 2, 3, 0)]


def _check_recognition(K, expected_vertex):
    g = K.geometry
    rec = recognize_cone(K)
    np.testing.assert_array_equal(rec.vertex.point_indices, expected_vertex)
    ref = _reference_complement(g, rec.vertex)
    assert ref.dim == g.n - rec.vertex.dim - 1
    np.testing.assert_array_equal(rec.base.mask, K.mask & subspace_mask(g, ref))
    rebuilt = rec.vertex.dim >= 0 and cone(g, rec.vertex, rec.base) == K
    assert rec.is_cone_over_vertex == rebuilt
    return rec


@pytest.mark.parametrize("p,h,n,r", RECOGNITION_CASES)
def test_recognize_cones_with_a_known_vertex(p, h, n, r):
    g = _geometry(p, h, n)
    rng = np.random.default_rng(10 * g.q + n)
    for _ in range(2):
        K, vertex = _conic_cone(g, r, rng)
        np.testing.assert_array_equal(_cone_points_by_definition(K), vertex.point_indices)
        rec = _check_recognition(K, vertex.point_indices)
        assert rec.is_cone_over_vertex
        assert rec.base.k == g.q + 1  # a conic of the complement
        assert cone(g, rec.vertex, rec.base) == K


@pytest.mark.parametrize("p,h,n,r", RECOGNITION_CASES)
def test_recognize_damaged_cones(p, h, n, r):
    g = _geometry(p, h, n)
    rng = np.random.default_rng(10 * g.q + n + 1)
    K, vertex = _conic_cone(g, r, rng)
    off_vertex = np.setdiff1d(K.indices, vertex.point_indices)
    outside = np.flatnonzero(~K.mask)
    for drop, add in ((1, 0), (0, 1), (2, 1)):
        mask = K.mask.copy()
        mask[rng.choice(off_vertex, size=drop, replace=False)] = False
        mask[rng.choice(outside, size=add, replace=False)] = True
        D = PointSet(g, mask)
        rec = _check_recognition(D, _cone_points_by_definition(D))
        if drop:
            # a point gone from a line through the vertex leaves no cone point
            assert rec.vertex.dim == -1 and not rec.is_cone_over_vertex


@pytest.mark.parametrize("p,h,n", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
def test_recognize_random_sets(p, h, n):
    g = _geometry(p, h, n)
    rng = np.random.default_rng(g.q)
    vertex = g.span(rng.choice(g.num_points, size=1))
    comp = _reference_complement(g, vertex)
    for density in (0.05, 0.5, 0.9):
        mask = rng.random(g.num_points) < density
        mask[0] = True
        D = PointSet(g, mask)
        _check_recognition(D, _cone_points_by_definition(D))
        # a cone over a random base, whose vertex may be larger than a point
        base = PointSet(g, mask & subspace_mask(g, comp))
        C = cone(g, vertex, base)
        _check_recognition(C, _cone_points_by_definition(C))


def test_recognize_the_unital_cone_of_pg84():
    # PG(8,4), 87 381 points: a 5-dimensional vertex over a unital of a plane
    g = _geometry(2, 2, 8)
    K = unital_cone(g)
    rec = recognize_cone(K)
    assert rec.vertex.dim == 5 and rec.is_cone_over_vertex
    assert rec.base.k == 9  # the q sqrt(q) + 1 points of a unital
    assert cone(g, rec.vertex, rec.base) == K
