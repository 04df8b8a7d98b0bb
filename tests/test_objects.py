import numpy as np
import pytest

from pgcones import (PointSet, baer_cone, baer_subgeometry, cone,
                     denniston_arc, field_new, geometry_new, hermitian_unital,
                     hyperoval, hyperoval_cone, maxarc_cone,
                     pointset_from_indices, spectrum, theta, unital_cone)
from pgcones.errors import (DegreeNotDividingOrder, OddDegree, OddOrder,
                            VertexBaseNotDisjoint, WrongDimension)
from pgcones import kernels
from pgcones.gf import factor_prime_power
from pgcones.objects import axis_vertex
from oracles import embed_in_first_coords, reference_rref


def line_spectrum(ps):
    return spectrum(ps, 1).by_size


def test_baer_subgeometry_sizes(plane4):
    assert baer_subgeometry(plane4, 0).k == 1
    assert baer_subgeometry(plane4, 2).k == 7  # PG(2,2) inside PG(2,4)
    g39 = geometry_new(field_new(3, 2), 3)
    assert baer_subgeometry(g39, 1).k == 4  # Baer subline


def test_baer_subplane_line_intersections(plane4):
    bp = baer_subgeometry(plane4, 2)
    assert set(line_spectrum(bp)) <= {0, 1, 3}


def test_baer_subgeometry_odd_degree(plane8):
    with pytest.raises(OddDegree):
        baer_subgeometry(plane8, 1)


def test_hermitian_unital(plane4):
    u = hermitian_unital(plane4)
    assert u.k == 9
    assert line_spectrum(u) == {1: 9, 3: 12}


def test_hermitian_unital_sizes_larger():
    assert hermitian_unital(geometry_new(field_new(3, 2), 2)).k == 28
    assert hermitian_unital(geometry_new(field_new(2, 4), 2)).k == 65


def test_hyperoval(plane4):
    h = hyperoval(plane4)
    assert h.k == 6
    assert line_spectrum(h) == {0: 6, 2: 15}


def test_hyperoval_small_and_odd():
    g2 = geometry_new(field_new(2, 1), 2)
    assert hyperoval(g2).k == 4
    assert hyperoval(geometry_new(field_new(2, 3), 2)).k == 10
    with pytest.raises(OddOrder):
        hyperoval(geometry_new(field_new(3, 1), 2))


def test_denniston_arc(plane4, plane8):
    d2 = denniston_arc(plane4, 2)
    assert d2.k == 6
    assert line_spectrum(d2) == {0: 6, 2: 15}
    d4 = denniston_arc(plane8, 4)
    assert d4.k == 28
    assert line_spectrum(d4) == {0: 10, 4: 63}


def test_denniston_arc_degree_q_is_line_complement(plane4):
    d = denniston_arc(plane4, 4)
    assert d.k == 16
    assert line_spectrum(d) == {0: 1, 4: 20}


def test_denniston_arc_errors(plane4, plane8):
    with pytest.raises(DegreeNotDividingOrder):
        denniston_arc(plane8, 3)
    with pytest.raises(OddOrder):
        denniston_arc(geometry_new(field_new(3, 1), 2), 3)


# (n, q) with an even or square q and at most 70 000 points
PLANAR_CASES = [(n, q) for q in (2, 4, 8, 9, 16, 25, 32) for n in (3, 4, 5)
                if theta(n, q) <= 70_000]


@pytest.mark.parametrize("n,q", PLANAR_CASES)
def test_planar_bases_of_any_space_embed_the_plane_sets(n, q):
    fld = field_new(*factor_prime_power(q))
    g, plane = geometry_new(fld, n), geometry_new(fld, 2)
    builders = []
    if q % 2 == 0:
        builders.append(hyperoval)
        builders += [lambda geo, d=d: denniston_arc(geo, d)
                     for d in (2 ** i for i in range(1, fld.h + 1))]
    if fld.h % 2 == 0:
        builders.append(hermitian_unital)
    assert builders
    for build in builders:
        got = build(g)
        assert got.geometry is g
        np.testing.assert_array_equal(got.mask, embed_in_first_coords(g, build(plane)).mask)


def test_pointset_from_indices_takes_any_iterable(pg34):
    # an index array is used as it is; anything else is listed first
    want = pointset_from_indices(pg34, [0, 5, 5, 84])
    assert want.k == 3
    for indices in (np.array([84, 0, 5, 0]), {0, 5, 84}, (i for i in (5, 84, 0))):
        assert pointset_from_indices(pg34, indices) == want
    assert pointset_from_indices(pg34, np.array([], dtype=np.int64)).k == 0


def test_cone_empty_vertex_is_identity(pg34):
    base = pointset_from_indices(pg34, [0, 1, 5])
    assert cone(pg34, pg34.span([]), base) == base


def test_cone_sizes(pg34, pg44):
    assert hyperoval_cone(pg34).k == 6 * 4 + 1 == 25
    assert unital_cone(pg44).k == 9 * 16 + 5 == 149


def test_cone_size_law(pg44):
    # |cone| = |base| * q^(r+1) + theta_r, any base off the vertex
    base = hermitian_unital(pg44)
    for r in (0, 1):
        v = axis_vertex(pg44, r)
        got = cone(pg44, v, base).k
        assert got == base.k * 4 ** (r + 1) + theta(r, 4)


def test_cone_closure(pg34):
    K = hyperoval_cone(pg34)
    v = axis_vertex(pg34, 0)
    g, fld = pg34, pg34.field
    for p in v.point_indices:
        for q_idx in K.indices:
            if q_idx == p:
                continue
            for t in range(1, fld.q):
                vec = fld.add[g.points[p], fld.mul[t, g.points[q_idx]]]
                assert K.mask[int(g.indices_of(vec))]


def test_cone_vertex_base_not_disjoint(pg34):
    v = axis_vertex(pg34, 0)
    bad_base = pointset_from_indices(pg34, list(v.point_indices))
    with pytest.raises(VertexBaseNotDisjoint):
        cone(pg34, v, bad_base)


@pytest.mark.parametrize("p,h,n", [(2, 2, 4), (3, 1, 4), (5, 1, 3)])
def test_cone_reduces_only_a_base_on_the_pivots_and_agrees_with_the_rank_oracle(
        monkeypatch, p, h, n):
    # seeded vertices, reduced (`span`) or from an annihilator, with bases of
    # three kinds: points 0 at the vertex's pivot columns, random points, and
    # a vertex point with random points; `cone` refuses a base exactly when
    # the Gauss-Jordan ranks of the vertex and the base do not add up, takes
    # a row reduction exactly when the base is nonzero at some pivot, and a
    # cone it builds has |base| q^(r+1) + theta_r points
    g = geometry_new(field_new(p, h), n)
    f, rng, seen = g.field, np.random.default_rng(100 * g.q + n), set()
    calls, rref = [], kernels.rref
    monkeypatch.setattr(kernels, "rref", lambda *args: calls.append(1) or rref(*args))
    for trial in range(60):
        pts = rng.choice(g.num_points, rng.integers(1, n), replace=False)
        vertex = g.span(pts) if trial % 2 else g.subspace_from_basis(
            kernels.annihilator(g.points[rng.choice(g.num_points, n - len(pts) + 1, replace=False)],
                                f.add, f.mul, f.inv, f.neg))
        pivots = np.argmax(reference_rref(g, vertex.basis) != 0, axis=1)
        kind = trial % 3
        pool = (np.flatnonzero((g.points[:, pivots] == 0).all(axis=1)) if kind == 0
                else np.arange(g.num_points))
        chosen = rng.choice(pool, min(len(pool), rng.integers(1, 4)), replace=False)
        if kind == 2:
            chosen = np.append(chosen, rng.choice(vertex.point_indices))
        base = pointset_from_indices(g, chosen)
        b = g.points[base.indices]
        disjoint = (len(reference_rref(g, np.vstack([vertex.basis, b])))
                    == len(vertex.basis) + len(reference_rref(g, b)))
        off_pivots = not b[:, pivots].any()
        calls.clear()
        if disjoint:
            K = cone(g, vertex, base)
            assert K.k == base.k * g.q ** (vertex.dim + 1) + theta(vertex.dim, g.q)
        else:
            with pytest.raises(VertexBaseNotDisjoint):
                cone(g, vertex, base)
        assert bool(calls) == (not off_pivots)
        seen.add((off_pivots, disjoint, trial % 2))
    assert {(True, True, 0), (True, True, 1), (False, True, 0), (False, True, 1),
            (False, False, 0), (False, False, 1)} <= seen


def test_baer_cone_sizes(pg34, pg44):
    assert baer_cone(pg44, -1, 2).k == 7
    assert baer_cone(pg44, 1, 2).k == 7 * 16 + 5 == 117
    assert baer_cone(pg34, 0, 1).k == 3 * 4 + 1 == 13


def test_axis_vertex_takes_r_from_minus_one_to_n(pg44):
    assert axis_vertex(pg44, -1).dim == -1
    assert axis_vertex(pg44, 4).point_indices.size == pg44.num_points
    for r in (-5, -2, 5, 10):
        with pytest.raises(WrongDimension, match="need -1 <= r <= n"):
            axis_vertex(pg44, r)


@pytest.mark.parametrize("r,s", [(-5, 2), (10, -7), (6, -3), (-2, 0), (0, -2), (1, 3)])
def test_baer_cone_refuses_r_or_s_out_of_range(pg44, r, s):
    # r outside -1..n, s below -1, or r+s >= n
    with pytest.raises(WrongDimension):
        baer_cone(pg44, r, s)


def test_baer_cone_with_an_empty_base_is_its_vertex(pg44):
    assert baer_cone(pg44, 1, -1) == pointset_from_indices(pg44, axis_vertex(pg44, 1).point_indices)
    assert baer_cone(pg44, -1, -1).k == 0


def test_maxarc_cone_size(pg54):
    assert maxarc_cone(pg54, 2).k == 405
