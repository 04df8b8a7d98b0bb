import itertools
import tracemalloc

import numpy as np
import pytest

from pgcones import field_new, gaussian_binomial, geometry_new, theta
from pgcones.errors import GeometryTooLarge
from pgcones.gf import factor_prime_power
from pgcones.kernels import annihilator

from oracles import hyperplane_point_indices, points_and_codes, subspaces_iter


def _incidence(g):
    """Dense (hyperplane, point) boolean matrix, row h from the points of
    hyperplane h."""
    inc = np.zeros((g.num_points, g.num_points), dtype=bool)
    for h in range(g.num_points):
        inc[h, hyperplane_point_indices(g, h)] = True
    return inc


def test_theta_values():
    assert theta(-1, 4) == 0
    assert theta(0, 7) == 1
    assert theta(3, 4) == 85
    assert theta(5, 4) == 1365


def test_gaussian_binomial_edges():
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(5, 5, 3) == 1
    assert gaussian_binomial(6, 3, 4) == 376805
    assert gaussian_binomial(5, 2, 4) == 5797


def test_gaussian_binomial_against_exhaustive_line_count():
    # oracle: count lines of PG(3,2) as distinct spans of point pairs
    g = geometry_new(field_new(2, 1), 3)
    lines = {tuple(g.span([i, j]).point_indices)
             for i, j in itertools.combinations(range(g.num_points), 2)}
    assert len(lines) == 35 == gaussian_binomial(4, 2, 2)


def test_geometry_pg32(pg34):
    g = geometry_new(field_new(2, 1), 3)
    assert g.num_points == 15
    assert (_incidence(g).sum(axis=1) == 7).all()


def test_geometry_pg34_counts(pg34):
    assert pg34.num_points == 85
    assert (_incidence(pg34).sum(axis=1) == theta(2, 4)).all()


def test_geometry_pg54_counts(pg54):
    assert pg54.num_points == 1365
    assert (_incidence(pg54).sum(axis=1) == theta(4, 4)).all()


PRIMES = [p for p in range(2, 129) if all(p % d for d in range(2, p))]
PRIME_POWERS = sorted(p ** h for p in PRIMES for h in range(1, 8) if p ** h <= 128)


@pytest.mark.parametrize("q,n", [(q, 2) for q in PRIME_POWERS]
                         + [(27, 3), (9, 4), (9, 5), (4, 8), (2, 15)])
def test_points_and_code_table_match_the_filter_of_all_vectors(q, n):
    # built block by block, per leading coordinate, against the list of all
    # q^(n+1) vectors filtered to first nonzero 1 and scaled by each t != 0
    f = field_new(*factor_prime_power(q))
    g = geometry_new(f, n)
    points, codes = points_and_codes(f, n)
    assert g.points.dtype == points.dtype and g.code_to_index.dtype == np.int32
    np.testing.assert_array_equal(g.points, points)
    np.testing.assert_array_equal(g.code_to_index, codes)


def test_points_normalized_unique(pg34):
    lead = np.argmax(pg34.points != 0, axis=1)
    assert (pg34.points[np.arange(85), lead] == 1).all()
    assert len({tuple(p) for p in pg34.points}) == 85


def test_incidence_double_count(pg34):
    assert int(_incidence(pg34).sum()) == theta(3, 4) * theta(2, 4)


def test_two_hyperplanes_meet_in_theta_n_minus_2(pg34):
    inc = _incidence(pg34).astype(np.int64)
    meets = inc @ inc.T
    off_diag = meets[~np.eye(85, dtype=bool)]
    assert (off_diag == theta(1, 4)).all()


def test_span_examples(pg34):
    assert pg34.span([]).dim == -1
    s = pg34.span([7])
    assert s.dim == 0 and list(s.point_indices) == [7]
    line = pg34.span([0, 84])
    assert line.dim == 1
    assert len(line.point_indices) == theta(1, 4) == 5
    # membership by exhaustive scan: every listed point is in the span
    for idx in line.point_indices:
        assert pg34.span([0, 84, idx]).dim == 1


def test_subspaces_iter_lines_pg32():
    g = geometry_new(field_new(2, 1), 3)
    lines = list(subspaces_iter(g, 1))
    assert len(lines) == 35
    keys = {tuple(l.point_indices) for l in lines}
    assert len(keys) == 35
    assert all(len(l.point_indices) == 3 for l in lines)


def test_subspaces_iter_planes_equal_hyperplanes(pg34):
    planes = {tuple(s.point_indices) for s in subspaces_iter(pg34, 2)}
    inc = _incidence(pg34)
    hyps = {tuple(np.nonzero(inc[i])[0]) for i in range(85)}
    assert planes == hyps


def test_subspaces_iter_line_count_pg44(pg44):
    n_lines = sum(1 for _ in subspaces_iter(pg44, 1))
    assert n_lines == gaussian_binomial(5, 2, 4) == 5797


def test_geometry_too_large():
    # MAX_POINTS is 100 000: PG(8,4) has 87 381 points, PG(16,2) 131 071
    assert geometry_new(field_new(2, 2), 8).num_points == 87381
    with pytest.raises(GeometryTooLarge, match="131071 exceeds the bound 100000"):
        geometry_new(field_new(2, 1), 16)


@pytest.mark.parametrize("p,h,n", [(2, 2, 9), (2, 1, 16), (3, 1, 11)],
                         ids=["PG(9,4)", "PG(16,2)", "PG(11,3)"])
def test_table_bound_raises_before_allocating(p, h, n):
    # each is over MAX_POINTS, the bound that sizes the code table of
    # q^(n+1) entries (1-8 MB here), and is refused before it is allocated
    f = field_new(p, h)
    tracemalloc.start()
    try:
        with pytest.raises(GeometryTooLarge, match="exceeds the bound 100000"):
            geometry_new(f, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20



@pytest.mark.parametrize("p,h,n", [(2, 1, 4), (3, 1, 3), (2, 2, 4), (5, 1, 3), (2, 3, 3),
                                   (3, 2, 3)])
def test_annihilator_matches_dot_products(p, h, n):
    # the hyperplanes through a subspace, by a dot-product filter over its points
    g = geometry_new(field_new(p, h), n)
    add, mul = g.field.add, g.field.mul
    rng = np.random.default_rng(1000 * p + 10 * h + n)
    for dim in range(-1, n + 1):
        for _ in range(3):
            sub = g.span(rng.choice(g.num_points, size=dim + 1, replace=False))
            while sub.dim < dim:
                sub = g.span(list(sub.point_indices) + [int(rng.integers(g.num_points))])
            through = np.ones(g.num_points, dtype=bool)
            for x in g.points[sub.point_indices]:
                dot = np.zeros(g.num_points, dtype=np.int16)
                for c in range(n + 1):
                    dot = add[dot, mul[g.points[:, c], x[c]]]
                through &= dot == 0
            ann = g.subspace_from_basis(annihilator(sub.basis, add, mul, g.field.inv, g.field.neg))
            assert ann.dim == n - 1 - dim
            np.testing.assert_array_equal(ann.point_indices, np.flatnonzero(through))
