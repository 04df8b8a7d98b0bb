import itertools
import tracemalloc

import numpy as np
import pytest

from pgcones import (PointSet, essential_points, field_new, gaussian_binomial, geometry_new,
                     kernels, maxarc_cone, pointset_from_indices, recognize_cone,
                     run_verification, spectrum, theta, unital_cone)
from pgcones.errors import GeometryTooLarge, NotBlocking
from pgcones.gf import _is_prime, factor_prime_power
from pgcones.kernels import annihilator, code_table
from pgcones.pg import MAX_BYTES, charge

from oracles import PRIME_POWERS, hyperplane_point_indices, points_and_codes, subspaces_iter


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


@pytest.mark.parametrize("q,n", [(q, 2) for q in PRIME_POWERS]
                         + [(27, 3), (9, 4), (9, 5), (4, 8), (2, 15)])
def test_points_and_code_table_match_the_filter_of_all_vectors(q, n):
    # against the list of all q^(n+1) vectors filtered to first nonzero 1
    # and scaled by each t != 0: the points, built block by block, the point
    # `indices_of` names for every vector, zero and every scaling (over more
    # than one chunk from q^(n+1) = 27^3 on), and the scan's code table
    f = field_new(*factor_prime_power(q))
    g = geometry_new(f, n)
    points, codes = points_and_codes(f, n)
    assert g.points.dtype == points.dtype
    np.testing.assert_array_equal(g.points, points)
    vectors = np.indices((q,) * (n + 1), dtype=np.int16).reshape(n + 1, -1).T
    named = g.indices_of(vectors)
    assert named.dtype == np.int32
    np.testing.assert_array_equal(named, codes[vectors.astype(np.int64) @ q ** np.arange(n + 1)])
    table = code_table(n, q, f.mul, f.inv)
    assert table.dtype == np.int32
    np.testing.assert_array_equal(table, codes)


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
    # MAX_BYTES is 1.5 GiB: PG(16,2), 131 071 points, is charged 61 MiB, and
    # PG(21,2) 1.09 GiB, while PG(22,2) would need 2.2 GiB
    assert geometry_new(field_new(2, 1), 16).num_points == 131071
    assert charge(21, 2) == 1174404848 <= MAX_BYTES
    with pytest.raises(GeometryTooLarge, match=r"^PG\(22,2\) needs 2382364392 bytes, which"
                                               r" exceeds the bound of 1610612736 bytes$"):
        geometry_new(field_new(2, 1), 22)


@pytest.mark.parametrize("p,h,n", [(2, 2, 12), (2, 1, 22), (3, 1, 15), (2, 6, 4), (2, 5, 5),
                                   (2, 1, 26), (2, 1, 10 ** 7)],
                         ids=["PG(12,4)", "PG(22,2)", "PG(15,3)", "PG(4,64)", "PG(5,32)",
                              "PG(26,2)", "PG(10^7,2)"])
def test_budget_refuses_before_allocating(p, h, n):
    # each needs more than MAX_BYTES, and is refused before anything is
    # allocated; PG(10^7,2) before theta_n is computed, as theta_n > 2^n
    f = field_new(p, h)
    tracemalloc.start()
    try:
        with pytest.raises(GeometryTooLarge, match="bytes, which exceeds the bound of 1610612736"):
            geometry_new(f, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_budget_admits_every_geometry_and_scan_of_the_old_bounds():
    # the bounds the budget replaced: 100 000 points, 2^25 subspaces a scan
    for q in PRIME_POWERS:
        n = 2
        while theta(n, q) <= 100_000:
            assert charge(n, q) <= MAX_BYTES
            for d in range(n - 1):
                if gaussian_binomial(n + 1, d + 1, q) <= 1 << 25:
                    assert charge(n, q, d) <= MAX_BYTES
            n += 1


def _admitted(n, q):
    try:
        charge(n, q)
    except GeometryTooLarge:
        return False
    return True


def test_budget_keeps_the_transform_exact():
    # at the largest theta_n the budget admits at each q, the transform's
    # modulus, the least prime ell = 1 (mod p) above the points in which 2
    # has an element of order p, keeps q ell^2 below 2^53, where its float64
    # stages are exact
    for q in PRIME_POWERS:
        n = 2
        while _admitted(n + 1, q):
            n += 1
        p, ell = factor_prime_power(q)[0], theta(n, q) + 1
        while not (ell % p == 1 and _is_prime(ell) and pow(2, (ell - 1) // p, ell) != 1):
            ell += 1
        assert q * ell * ell < 1 << 53


def _peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("theorem,n,q", [("hyperoval3", 3, 16), ("unital", 4, 9),
                                         ("hyperovalN", 9, 2)])
def test_budget_charges_a_verification_its_peak(theorem, n, q):
    assert _peak(lambda: run_verification(theorem, n, q)) <= charge(n, q)


@pytest.mark.parametrize("p,h,n,d,density", [(2, 2, 5, 2, 0.3), (3, 2, 4, 1, 0.3),
                                               (2, 1, 8, 3, 0.3), (2, 1, 8, 6, 0.01)],
                         ids=["PG(5,4)-planes", "PG(4,9)-lines", "PG(8,2)-d3", "PG(8,2)-d6"])
def test_budget_charges_a_scan_its_peak(p, h, n, d, density):
    # a geometry, the spectrum and the essential points of a random set,
    # which has lone points on some d-subspaces and misses others; at d = 6
    # of PG(8,2), past (n-1)/2, most blocks of a pattern hold one combo
    def run():
        g = geometry_new(field_new(p, h), n)
        on = np.random.default_rng(n).random(g.num_points) < density
        K = pointset_from_indices(g, np.flatnonzero(on))
        spectrum(K, d)
        with pytest.raises(NotBlocking):
            essential_points(K, d)

    assert _peak(run) <= charge(n, p ** h, d)


@pytest.mark.parametrize("cone,p,h,n,d", [("maxarc", 2, 2, 5, 2), ("unital", 3, 2, 4, 1)],
                         ids=["PG(5,4)-maxarc-planes", "PG(4,9)-unital-lines"])
def test_a_scan_peaks_at_two_blocks_beside_its_counts_and_plan(cone, p, h, n, d):
    # with the plan built, `spectrum` holds its counts (uint8, one byte a
    # subspace), the member mask and tensor by code (q^(n+1) bytes each) and
    # a take's source and result, each within a block: about 1.3 and 1.2 MiB
    # beside the counts when the scan gathered 2^20 entries a block and the
    # compare tally was one bool array the length of the counts
    g = geometry_new(field_new(p, h), n)
    K = maxarc_cone(g, 2) if cone == "maxarc" else unital_cone(g)
    g.count_plan(d)
    counts, codes = gaussian_binomial(n + 1, d + 1, p ** h), (p ** h) ** (n + 1)
    assert _peak(lambda: spectrum(K, d)) - counts <= 2 * (kernels.BLOCK_BYTES + codes) + (1 << 14)


def test_budget_charges_recognition_of_a_random_set_its_peak():
    # every hyperplane of PG(10,4) is off the cone law of a random half, and
    # `cone_points` reduces a spanning subset of those rows, not all of them
    def run():
        g = geometry_new(field_new(2, 2), 10)
        K = PointSet(g, np.random.default_rng(10).random(g.num_points) < 0.5)
        assert recognize_cone(K).vertex.dim == -1

    assert _peak(run) <= charge(10, 4)


@pytest.mark.parametrize("n,q,d", [(9, 2, 4), (14, 2, 1), (7, 3, 3), (5, 8, 2)])
def test_budget_admits_scans_with_32_bit_lone_sums(n, q, d):
    # by arithmetic only: with the 15 more bytes a subspace that int64 index
    # sums and lone points were charged, each was over the bound
    assert charge(n, q, d) <= MAX_BYTES < charge(n, q, d) + 15 * gaussian_binomial(n + 1, d + 1, q)


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
