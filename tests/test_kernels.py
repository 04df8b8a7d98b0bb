"""Kernels against brute-force oracles.

The d-subspace scan is checked element by element against sums of the
membership mask over `oracles.subspaces_iter`, which lists the subspaces
in the same canonical order; the points of each hyperplane from
`oracles.hyperplane_point_indices` and from `kernels.field_dots`, the
hyperplane counts of the transform and of `spectra._counts`, the
transform's count of the hyperplanes met once at each point and the
pencils of `spectra.pencil_counts` against hyperplane rows computed from
a dense matrix of field dot products, and the counts and lone points
also against the scan at d = n-1; and `cone_points`, read off
the transform's hyperplane counts, against its definition, line by line
with `Geometry.span`.
"""

import concurrent.futures
import gc
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgcones import field_new, geometry_new, kernels, theta
from pgcones.errors import GeometryTooLarge, NotBlocking

from pgcones.kernels import (
    ScanPlan,
    TransformPlan,
    annihilator,
    combo_vectors,
    cone_points,
    field_dots,
    hyperplane_intersection_counts,
    pivot_patterns,
    span_vectors,
    subspace_intersection_scan,
)
from pgcones.objects import (axis_vertex, cone, hyperoval_cone, pointset_from_indices,
                             unital_cone)
from pgcones.spectra import _counts, essential_points, pencil_counts

from oracles import (hyperplane_point_indices, points_and_codes, reference_scan_plan,
                     span_vectors_by_rows, subspace_mask, subspaces_iter)


def test_pivot_patterns_cover_all_subspaces():
    from pgcones import gaussian_binomial
    pats = pivot_patterns(4, 2)
    assert sum(3 ** len(free) for _, free in pats) == gaussian_binomial(4, 2, 3)


def test_pivot_patterns_list_free_slots_by_column_then_row():
    # the patterns in lexicographic order, each one's slots in the scan's order
    pats = pivot_patterns(4, 2)
    assert [pivots for pivots, _ in pats] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert dict(pats)[0, 1] == ((0, 2), (1, 2), (0, 3), (1, 3))


def test_combo_vectors_are_projective_points():
    combos = combo_vectors(3, 4)
    assert combos.shape == (21, 3)
    # normalized: first nonzero entry is 1, and all rows distinct
    for row in combos:
        nz = row[row != 0]
        assert nz[0] == 1
    assert len({tuple(r) for r in combos}) == 21


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3)])
def test_span_vectors_match_the_sums_by_coefficient_row(p, h):
    # stacks of seeded random matrices, zero and dependent rows among them,
    # of 0 to 5 rows and several stack shapes, odd characteristic included
    f = field_new(p, h)
    rng = np.random.default_rng(10 * f.q + p)
    for shape in [(), (1,), (3,), (2, 2)]:
        for R in range(6 if f.q <= 4 else 4):
            bases = rng.integers(0, f.q, size=(*shape, R, 4)).astype(np.int16)
            bases[..., rng.random(R) < 0.2, :] = 0
            got = span_vectors(bases, f.add, f.mul)
            assert got.dtype == f.add.dtype and got.shape == (*shape, theta(R - 1, f.q), 4)
            np.testing.assert_array_equal(got, span_vectors_by_rows(bases, f.add, f.mul))


def test_worker_chunking_is_deterministic(pg34):
    K, plan = hyperoval_cone(pg34), pg34.count_plan(1)
    ref = subspace_intersection_scan(4, 1, 4, plan, K.mask, workers=1, lone=True)
    alt = subspace_intersection_scan(4, 1, 4, plan, K.mask, workers=4, lone=True)
    np.testing.assert_array_equal(ref[0], alt[0])
    np.testing.assert_array_equal(ref[1], alt[1])


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

# (p, h, n) of the geometries the oracle tests draw from: q in {2,3,4,5,8,9}
ORACLE_GEOMETRIES = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3),
                     (3, 1, 4), (2, 2, 2), (2, 2, 3), (2, 2, 4), (5, 1, 2),
                     (5, 1, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 2, 3)]
# the hyperplane oracles also take q = 16 and the prime q = 31
DOT_PRODUCT_GEOMETRIES = ORACLE_GEOMETRIES + [(2, 4, 2), (2, 4, 3), (31, 1, 2)]


def _each_large_q(test):
    """Run a hypothesis test once on each geometry past the scan grid."""
    for geometry in DOT_PRODUCT_GEOMETRIES[len(ORACLE_GEOMETRIES):]:
        test = example(geometry=geometry, seed=1, density=0.1)(test)
    return test


@lru_cache(maxsize=None)
def _geometry(p, h, n):
    return geometry_new(field_new(p, h), n)


@lru_cache(maxsize=None)
def _subspace_points(p, h, n, d):
    """(number of d-subspaces, theta_d) point indices, canonical order."""
    return np.array([s.point_indices for s in subspaces_iter(_geometry(p, h, n), d)])


def _brute_counts(pts, mask):
    hits = mask[pts]
    counts = hits.sum(axis=1)
    first = pts[np.arange(len(pts)), np.argmax(hits, axis=1)]
    lone = np.where(counts == 1, first, -1)
    return counts, lone


@lru_cache(maxsize=None)
def _hyperplane_rows(p, h, n):
    """Boolean (hyperplane, point) matrix from field dot products: row i
    marks the points x with sum_c P_i[c] x[c] = 0, P_i the coordinates of
    point i."""
    g = _geometry(p, h, n)
    add, mul = g.field.add, g.field.mul
    dot = np.zeros((g.num_points, g.num_points), dtype=np.int16)
    for c in range(n + 1):
        dot = add[dot, mul[g.points[:, c][:, None], g.points[:, c][None, :]]]
    return dot == 0


def _rows_of(g):
    return _hyperplane_rows(g.field.p, g.field.h, g.n)


def _random_mask(g, seed, density):
    return np.random.default_rng(seed).random(g.num_points) < density


def _scan_plan(g, d):
    """The geometry's own plan below d = n-1; at d = n-1, where the
    geometry plans the transform, a scan plan built here."""
    if d < g.n - 1:
        return g.count_plan(d)
    return ScanPlan(g.n + 1, d, g.q, g.field.add, g.field.mul, g.field.inv)


def _scan(g, d, mask, workers=1, lone=True):
    return subspace_intersection_scan(g.n + 1, d, g.q, _scan_plan(g, d), mask,
                                      workers=workers, lone=lone)


# the scan also takes lines and planes at q = 7 and 16 and lines at q = 27
SCAN_GRID = ([(p, h, n, d) for p, h, n in ORACLE_GEOMETRIES for d in range(n)]
             + [(7, 1, 3, 1), (7, 1, 3, 2), (2, 4, 3, 1), (2, 4, 3, 2), (3, 3, 2, 1)])


@pytest.mark.parametrize("p,h,n,d", SCAN_GRID)
@settings(max_examples=6)
@given(seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.9, 1.0]),
       workers=st.sampled_from([1, 2]))
def test_subspace_scan_matches_brute_force(p, h, n, d, seed, density, workers):
    g = _geometry(p, h, n)
    mask = _random_mask(g, seed, density)
    counts, lone = _scan(g, d, mask, workers)
    want_counts, want_lone = _brute_counts(_subspace_points(p, h, n, d), mask)
    np.testing.assert_array_equal(counts, want_counts)
    np.testing.assert_array_equal(lone, want_lone)
    assert counts.dtype == np.min_scalar_type(theta(d, g.q)) and lone.dtype == np.int32
    # without lone points the scan sums one tensor and gives the same counts
    alone, none = _scan(g, d, mask, workers, lone=False)
    np.testing.assert_array_equal(alone, counts)
    assert alone.dtype == counts.dtype and none is None


@pytest.mark.parametrize("p,h,n,d", SCAN_GRID)
def test_scan_plan_codes_equal_the_digit_products(p, h, n, d):
    # each pattern's index, built one free column at a time, is the lex list
    # of the digits of GF(q)^k times the free columns' powers, plus the codes
    # of the pivot and leading values of every combo
    g = _geometry(p, h, n)
    plan, pows = _scan_plan(g, d), g.q ** np.arange(n + 1, dtype=np.int64)
    combos = combo_vectors(d + 1, g.q).astype(np.int64)
    for (pivots, free), (index, _) in zip(pivot_patterns(n + 1, d + 1), plan.patterns):
        cols = sorted({col for _, col in free})
        digits = np.indices((g.q,) * len(cols)).reshape(len(cols), g.q ** len(cols)).T
        np.testing.assert_array_equal(
            index, (digits @ pows[cols])[:, None] + combos @ pows[list(pivots)])


# 11 plans, about 35 ms of builds: lines to the 5-spaces of PG(8,2), odd and even q
PLAN_GRID = [(3, 1, 3, 1), (3, 2, 4, 1), (3, 2, 4, 2), (2, 3, 4, 1), (2, 3, 4, 2), (2, 2, 5, 1),
             (2, 2, 5, 2), (2, 2, 5, 3), (2, 4, 3, 1), (3, 1, 6, 4), (2, 1, 8, 5)]


@pytest.mark.parametrize("p,h,n,d", PLAN_GRID)
def test_scan_plan_equals_the_reference_plan(p, h, n, d):
    # the offsets, dtype, per-pattern index, block bounds and takes of the
    # plan, each take in intp, and its code table, against the plan built
    # one take and one free column at a time and the filter of all vectors
    g = _geometry(p, h, n)
    plan, f = g.count_plan(d), g.field
    want = reference_scan_plan(n + 1, d, g.q, f.add, f.mul)
    assert plan.dtype == want.dtype and plan.offsets.dtype == want.offsets.dtype
    np.testing.assert_array_equal(plan.offsets, want.offsets)
    np.testing.assert_array_equal(plan.code_to_index, points_and_codes(f, n)[1])
    assert len(plan.patterns) == len(want.patterns)
    for (index, blocks), (want_index, want_blocks) in zip(plan.patterns, want.patterns):
        assert index.dtype == want_index.dtype
        np.testing.assert_array_equal(index, want_index)
        assert [(lo, hi, len(takes)) for lo, hi, takes in blocks] == [
            (lo, hi, len(takes)) for lo, hi, takes in want_blocks]
        for (_, _, takes), (_, _, want_takes) in zip(blocks, want_blocks):
            for take, want_take in zip(takes, want_takes):
                assert take.dtype == np.intp and take.flags.c_contiguous
                np.testing.assert_array_equal(take, want_take)


@pytest.mark.parametrize("met_once", [False, True])
def test_scan_sums_indices_only_when_a_subspace_is_met_once(monkeypatch, met_once):
    # every plane of PG(4,4) meets the unital cone in 5, 9, 13 or 21 points,
    # and some plane meets a line in one point
    g = _geometry(2, 2, 4)
    mask = subspace_mask(g, g.span([0, 1])) if met_once else unital_cone(g).mask
    tensors, scan_pattern = [], kernels._scan_pattern

    def counted(*args):
        tensors.append(args[-2])
        return scan_pattern(*args)

    monkeypatch.setattr(kernels, "_scan_pattern", counted)
    counts, lone = _scan(g, 2, mask)
    sizes = [4 ** len(free) for _, free in pivot_patterns(g.n + 1, 3)]
    with_one = sum((part == 1).any() for part in np.split(counts, np.cumsum(sizes)[:-1]))
    assert lone.dtype == np.int32
    if met_once:  # a call per pattern over the counts, then per pattern holding a 1 and
        # byte of an index, two below theta_4 = 341, in uint8
        assert 0 < with_one < len(sizes)
        assert [t.dtype for t in tensors] == [np.uint8] * (len(sizes) + 2 * with_one)
        want_counts, want_lone = _brute_counts(_subspace_points(2, 2, 4, 2), mask)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(lone, want_lone)
        assert (lone >= 0).any()
    else:
        assert len(tensors) == len(sizes) and counts.min() > 1
        np.testing.assert_array_equal(lone, np.full(len(counts), -1))


@pytest.mark.parametrize("p,h,n,d", [(2, 2, 3, 1), (3, 2, 3, 1), (3, 1, 4, 2)])
@pytest.mark.parametrize("workers", [1, 2])
def test_scan_splits_patterns_into_combo_blocks(monkeypatch, p, h, n, d, workers):
    # 32 bytes, 32 uint8 counts, per block: every pattern of more than
    # 32 / theta_d subspaces is split into blocks of combos.  The geometry is
    # built after the patch, so no plan made at the default block size is
    # reused.  Some pattern adds several one-combo blocks to its first, and
    # some a block of several combos, so every write of `_scan_pattern` and
    # `_one_combo` runs, the latter with columns before its row column.
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 32)
    g, met_once = geometry_new(field_new(p, h), n), False
    sizes = [[hi - lo for lo, hi, _ in blocks] for _, blocks in g.count_plan(d).patterns]
    assert any(len(b) > 2 and b[1:] == [1] * (len(b) - 1) for b in sizes)
    assert any(max(b[1:], default=0) > 1 for b in sizes)
    for seed, density in [(1, 0.05), (2, 0.3), (3, 0.7)]:
        mask = _random_mask(g, seed, density)
        counts, lone = _scan(g, d, mask, workers)
        want_counts, want_lone = _brute_counts(_subspace_points(p, h, n, d), mask)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(lone, want_lone)
        met_once |= (counts == 1).any()
    assert met_once  # the index pass ran


def test_one_worker_starts_no_thread_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool at one worker")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    g = _geometry(2, 2, 4)
    mask = subspace_mask(g, g.span([0, 1]))
    for d in (1, 2):
        counts, lone = _scan(g, d, mask)
        assert (lone >= 0).any()


@pytest.mark.parametrize("geometry", DOT_PRODUCT_GEOMETRIES)
def test_hyperplane_points_rows_match_dot_product_rows(geometry):
    g = _geometry(*geometry)
    rows = _rows_of(g)
    for h, row in enumerate(rows):
        np.testing.assert_array_equal(hyperplane_point_indices(g, h), np.flatnonzero(row))
    for lo in range(0, g.num_points, 512):  # a block of hyperplanes at a time
        dots = field_dots(g.points[lo:lo + 512], g.points, g.field.add, g.field.mul)
        np.testing.assert_array_equal(dots == 0, rows[lo:lo + 512])


@settings(max_examples=30)
@given(geometry=st.sampled_from(DOT_PRODUCT_GEOMETRIES), seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
@_each_large_q
def test_hyperplane_counts_match_rows_and_scan(geometry, seed, density):
    g = _geometry(*geometry)
    mask = _random_mask(g, seed, density)
    args = (g.points, mask, g.count_plan(g.n - 1))
    counts = hyperplane_intersection_counts(*args)
    rows = _rows_of(g)
    np.testing.assert_array_equal(counts, (rows & mask).sum(axis=1))
    assert counts.dtype == np.int64
    # point h has the coordinates of hyperplane h, so the count of the
    # hyperplanes met once is, at each point, the number of them through it
    through = hyperplane_intersection_counts(g.points, counts == 1, args[2])
    np.testing.assert_array_equal(through, rows[counts == 1].sum(axis=0))
    assert through.dtype == np.int64
    # the scan lists the same hyperplanes in another order, and its lone
    # points are the members on a hyperplane met once
    scan_counts, scan_lone = _scan(g, g.n - 1, mask)
    np.testing.assert_array_equal(np.sort(counts), np.sort(scan_counts))
    np.testing.assert_array_equal(np.flatnonzero(mask & (through > 0)),
                                  np.unique(scan_lone[scan_lone >= 0]))


def test_hyperplane_counts_reduce_only_before_an_overflow():
    # PG(8,4) has 87 381 points and the transform modulus ell = 87 403.  At
    # p = 2 the powers of omega are +-1, so each stage multiplies the bound
    # on its values by q = 4 alone, not by q (ell-1) as with powers held in
    # [0, ell).  Level m = 1..8 runs m stages over its 4^m values: a 0/1
    # set, at most 1, stays within 4^8 = 2^16, far below 2^53 - ell; each
    # level adds at most 3 times that to the bound of the levels below, so
    # the counts stay within 2^18, and times q^-1 mod ell, below 2^16.4,
    # below 2^35: no value is reduced before the last step, the one residue
    # of (out + k) q^-1.  The odd-p schedule, residues before stages and
    # gathers, is checked at large q below.  At density 0.00005 the set has
    # a few points and some hyperplane meets it once, so the count of the
    # hyperplanes met once, another 0/1 set, finds the lone points; the two
    # denser sets meet every sampled hyperplane often.
    g = _geometry(2, 2, 8)
    f = g.field
    rng = np.random.default_rng(8)
    sample = np.sort(rng.choice(g.num_points, 300, replace=False))
    rows = np.concatenate([field_dots(g.points[chunk], g.points, f.add, f.mul) == 0
                           for chunk in np.array_split(sample, 6)])  # 50 rows at a time
    for density in (0.00005, 0.02, 0.3):
        mask = rng.random(g.num_points) < density
        want = _check_sampled_counts(g, mask, sample, rows)
        assert (want == 1).any() == (density < 0.001)


def _check_sampled_counts(g, mask, sample, rows):
    """The hyperplane counts of `mask` at the sampled hyperplanes, each one's
    row of points `rows[i]`, and the count of the hyperplanes met once at
    the sampled points, on the hyperplanes `rows[i]` by symmetry; the lone
    member of each sampled hyperplane met once is on one of them.  Returns
    the sampled counts."""
    plan = g.count_plan(g.n - 1)
    counts = hyperplane_intersection_counts(g.points, mask, plan)
    on = rows & mask
    want = on.sum(axis=1)
    np.testing.assert_array_equal(counts[sample], want)
    through = hyperplane_intersection_counts(g.points, counts == 1, plan)
    np.testing.assert_array_equal(through[sample], (rows & (counts == 1)).sum(axis=1))
    assert counts.dtype == through.dtype == np.int64
    assert (through[on[want == 1].argmax(axis=1)] > 0).all()
    return want


@pytest.mark.parametrize("p,h,n", [(3, 3, 3), (5, 2, 3), (2, 4, 4), (2, 7, 2), (3, 2, 5),
                                   (2, 1, 12), (2, 6, 3), (2, 3, 5), (31, 1, 3)],
                         ids=["PG(3,27)", "PG(3,25)", "PG(4,16)", "PG(2,128)", "PG(5,9)",
                              "PG(12,2)", "PG(3,64)", "PG(5,8)", "PG(3,31)"])
def test_hyperplane_counts_match_sampled_rows_at_large_q(p, h, n):
    # PG(5,9) has 66 430 points and ell = 66 463.  omega's powers, held
    # centered, are 1 and two of size at most 7 609, so a stage multiplies
    # the bound by 9 x 7 609, about 2^16.1: the indicator reaches 2^48.2
    # after three stages and a fourth could pass 2^53 - ell, so levels 4
    # and 5 reduce before their fourth stage, to at most ell/2 + 2, and
    # levels 3 and 5 reduce their gathered values before the sum over q-1
    # scales.  PG(3,31) has ell = 31 063 and powers up to 15 003 in size:
    # level 2 reduces its gathered values, level 3 its values before its
    # third stage.  Every set counted is 0/1, the hyperplanes met once
    # too, so each runs the same schedule.  At p = 2, PG(12,2), PG(3,64),
    # PG(5,8), PG(4,16) and PG(2,128), the powers are +-1 and no count is
    # reduced before the last step.  The sample holds hyperplanes that meet
    # the three-point set once, so the hyperplanes met once are counted.
    g = _geometry(p, h, n)
    f = g.field
    rng = np.random.default_rng(g.q)
    few = rng.choice(g.num_points, 3, replace=False)
    on_few = field_dots(g.points, g.points[few], f.add, f.mul) == 0
    once = np.flatnonzero(on_few.sum(axis=1) == 1)
    sample = np.union1d(rng.choice(g.num_points, 100, replace=False),
                        rng.choice(once, 20, replace=False))
    rows = field_dots(g.points[sample], g.points, f.add, f.mul) == 0
    few_mask = np.zeros(g.num_points, dtype=bool)
    few_mask[few] = True
    for mask in (np.zeros(g.num_points, dtype=bool), np.ones(g.num_points, dtype=bool),
                 few_mask, rng.random(g.num_points) < 0.3):
        _check_sampled_counts(g, mask, sample, rows)


@pytest.mark.parametrize("p,h,n", [(2, 1, 4), (2, 2, 3), (2, 3, 3), (3, 1, 4), (3, 2, 3),
                                   (5, 2, 2), (7, 1, 3), (3, 3, 2)])
def test_transform_powers_are_centered(p, h, n):
    # each omega^c(x y) is held as its representative nearest 0: -1 at
    # p = 2, where omega = -1, and at most (ell-1)/2 in size at odd p;
    # `w_max` is the largest size, and the scale table's mu = 0 row is 1
    g = _geometry(p, h, n)
    plan, mul = g.count_plan(n - 1), g.field.mul
    ell, w = plan.ell, plan.w.astype(np.int64)
    omega = pow(2, (ell - 1) // p, ell)
    np.testing.assert_array_equal(w % ell, [[pow(omega, int(c), ell) for c in row]
                                            for row in mul % p])
    if p == 2:
        assert set(np.unique(w).tolist()) == {-1, 1} and plan.w_max == 1
    else:
        assert plan.w_max == np.abs(w).max() <= (ell - 1) // 2
    np.testing.assert_array_equal(plan.scale[0], 1)


def test_hyperplane_count_refuses_a_modulus_that_overflows():
    # 2^26 or 2^31 points of PG(2,2) coordinates: the least prime = 1 (mod
    # 2) above them squared, times q, passes the 2^53 below which a float64
    # transform stage is exact, and the plan refuses it; at 2^25 points it
    # stays below, about 2^51
    f = _geometry(2, 1, 2).field
    assert TransformPlan((2 ** 25, 3), f.mul, f.inv, f.p).ell < 2 ** 26
    for points in (2 ** 26, 2 ** 31):
        with pytest.raises(GeometryTooLarge, match="overflow"):
            TransformPlan((points, 3), f.mul, f.inv, f.p)


def test_a_geometry_keeps_its_plans_and_frees_them_with_it():
    # lines, planes, then lines again on one geometry, against a fresh one
    # per query; a plan for another shape is refused
    mask = unital_cone(_geometry(2, 2, 4)).mask
    g = geometry_new(field_new(2, 2), 4)
    for d in (1, 2, 1):
        counts = _counts(pointset_from_indices(g, np.flatnonzero(mask)), d)
        fresh = geometry_new(field_new(2, 2), 4)
        np.testing.assert_array_equal(
            counts, _counts(pointset_from_indices(fresh, np.flatnonzero(mask)), d))
        lone = subspace_intersection_scan(5, d, 4, g.count_plan(d), mask, lone=True)[1]
        np.testing.assert_array_equal(
            lone, subspace_intersection_scan(5, d, 4, fresh.count_plan(d), mask, lone=True)[1])
    assert g.count_plan(1) is g.count_plan(1) and g.count_plan(3) is g.count_plan(3)
    with pytest.raises(ValueError, match="plan"):
        subspace_intersection_scan(5, 2, 4, g.count_plan(1), mask)
    with pytest.raises(ValueError, match="plan"):
        hyperplane_intersection_counts(g.points[1:], mask[1:], g.count_plan(3))
    # every scan plan holds the code table of the first
    codes = g.count_plan(1).code_to_index
    assert g.count_plan(2).code_to_index is codes
    refs = [weakref.ref(x) for x in (g, g.count_plan(1), g.count_plan(2), g.count_plan(3), codes)]
    del g, codes
    gc.collect()
    assert [ref() for ref in refs] == [None] * 5


def _cone_points_by_definition(K):
    """P in K such that every line joining P to another point of K lies in
    K; each line through P is spanned once."""
    g = K.geometry
    out = []
    for P in K.indices:
        seen = np.zeros(g.num_points, dtype=bool)
        seen[P] = True
        ok = True
        for Q in K.indices:
            if seen[Q]:
                continue
            line = g.span([P, Q]).point_indices
            seen[line] = True
            if not K.mask[line].all():
                ok = False
                break
        if ok:
            out.append(P)
    return np.array(out, dtype=np.int64)


def _conic_cone(g, r):
    """Cone with an r-dim vertex on the last coordinates over the conic
    y*z = x^2 in the plane of the first three coordinates."""
    plane = _geometry(g.field.p, g.field.h, 2)
    mul = plane.field.mul
    x, y, z = plane.points.T
    on = np.flatnonzero(mul[y, z] == mul[x, x])
    pad = np.zeros((len(on), g.n + 1), dtype=np.int16)
    pad[:, :3] = plane.points[on]
    base = pointset_from_indices(g, [int(g.indices_of(v)) for v in pad])
    return cone(g, axis_vertex(g, r), base), axis_vertex(g, r)


def _cone_points(g, mask):
    """`cone_points` of a membership mask, from its hyperplane counts."""
    f = g.field
    counts = hyperplane_intersection_counts(g.points, mask, g.count_plan(g.n - 1))
    return g.subspace_from_basis(cone_points(mask, counts, g.points, f.add, f.mul, f.inv,
                                               f.neg)).point_indices


def _conic_cone_cases(specs):
    cases = []
    for (p, h, n, r) in specs:
        g = _geometry(p, h, n)
        K, V = _conic_cone(g, r)
        cases.append(pytest.param(K, V.point_indices, id=f"conic-cone-q{g.q}-n{n}"))
    return cases


@lru_cache(maxsize=None)
def _cone_point_cases():
    cases = _conic_cone_cases([(3, 1, 3, 0), (3, 1, 4, 1), (5, 1, 3, 0), (3, 2, 3, 0)])
    g = _geometry(3, 2, 3)
    cases.append(pytest.param(unital_cone(g), axis_vertex(g, 0).point_indices,
                              id="unital-cone-q9-n3"))
    return cases


@lru_cache(maxsize=None)
def _all_cone_point_cases():
    """The cases above, then q = 7 and the character c(y) of the transform
    at h = 4 and 3: q = 16 and 27, too large for the pencil oracle's rows."""
    return _cone_point_cases() + _conic_cone_cases([(7, 1, 3, 0), (2, 4, 3, 0), (3, 3, 3, 0)])


@pytest.mark.parametrize("K,vertex", _all_cone_point_cases())
def test_cone_points_of_cones_are_their_vertex(K, vertex):
    g = K.geometry
    got = _cone_points(g, K.mask)
    np.testing.assert_array_equal(got, np.sort(vertex))
    np.testing.assert_array_equal(got, _cone_points_by_definition(K))


@settings(max_examples=25)
@given(case=st.integers(0, len(_all_cone_point_cases()) - 1), seed=st.integers(0, 2 ** 32 - 1),
       drop=st.integers(0, 3), add=st.integers(0, 2))
@example(case=len(_all_cone_point_cases()) - 1, seed=1, drop=1, add=1)  # q = 27
def test_cone_points_of_damaged_cones_match_definition(case, seed, drop, add):
    K = _all_cone_point_cases()[case].values[0]
    g = K.geometry
    rng = np.random.default_rng(seed)
    mask = K.mask.copy()
    mask[rng.choice(K.indices, size=min(drop, K.k), replace=False)] = False
    mask[rng.choice(np.flatnonzero(~K.mask), size=add, replace=False)] = True
    D = pointset_from_indices(g, np.flatnonzero(mask))
    got = _cone_points(g, D.mask)
    np.testing.assert_array_equal(got, _cone_points_by_definition(D))


# dim = n is the whole space, dim = 0 a single point
@pytest.mark.parametrize("p,h,n,dim", [(3, 1, 3, 1), (5, 1, 3, 2), (3, 2, 3, 1), (2, 2, 4, 2),
                                       (7, 1, 3, 2), (2, 4, 2, 1), (3, 3, 2, 1),
                                       (3, 1, 3, 3), (2, 4, 2, 2), (5, 1, 3, 0), (2, 3, 3, 0)])
def test_cone_points_of_a_subspace_are_all_its_points(p, h, n, dim):
    g = _geometry(p, h, n)
    S = g.span(range(g.num_points)) if dim == n else next(subspaces_iter(g, dim))
    mask = subspace_mask(g, S)
    got = _cone_points(g, mask)
    np.testing.assert_array_equal(got, S.point_indices)
    np.testing.assert_array_equal(got, _cone_points_by_definition(pointset_from_indices(g, got)))


def _off_law_mask(g, kind):
    """A seeded set of each kind: a random half, a cone over a conic with an
    (n-3)-dimensional vertex, that cone with two points dropped and one
    added, a plane, no point and every point."""
    rng = np.random.default_rng(g.n * g.q)
    if kind == "random":
        return _random_mask(g, g.q, 0.5)
    if kind in ("cone", "damaged"):
        mask = _conic_cone(g, g.n - 3)[0].mask.copy()
        if kind == "damaged":
            mask[rng.choice(np.flatnonzero(mask), size=2, replace=False)] = False
            mask[rng.choice(np.flatnonzero(~mask))] = True
        return mask
    if kind == "subspace":
        return subspace_mask(g, g.span(rng.choice(g.num_points, size=3, replace=False)))
    return np.full(g.num_points, kind == "all")


@pytest.mark.parametrize("rows_per_block", [None, 3])
@pytest.mark.parametrize("kind", ["random", "cone", "damaged", "subspace", "none", "all"])
@pytest.mark.parametrize("p,h,n", [(3, 1, 4), (2, 2, 4), (3, 2, 3), (5, 1, 3), (2, 1, 6)])
def test_cone_points_equal_the_annihilator_of_every_off_law_row(monkeypatch, p, h, n, kind,
                                                                 rows_per_block):
    # the dual of a spanning subset of the rows off the cone law is the
    # basis one reduction of all of them gives, whatever rows a block holds
    g = _geometry(p, h, n)
    f, mask = g.field, _off_law_mask(g, kind)
    counts = hyperplane_intersection_counts(g.points, mask, g.count_plan(n - 1))
    want = annihilator(g.points[g.q * counts != mask.sum() - 1], f.add, f.mul, f.inv, f.neg)
    if rows_per_block:
        monkeypatch.setattr(kernels, "DOT_CELLS", rows_per_block * (n + 1))
    got = cone_points(mask, counts, g.points, f.add, f.mul, f.inv, f.neg)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype


@pytest.mark.parametrize("rows_per_block", [None, 2])
def test_cone_points_adds_rows_off_the_dual_in_rounds(monkeypatch, rows_per_block):
    # in PG(4,3) the rows off the law are the plane x0 = x1 = 0, points 0-12,
    # five points of the hyperplane x0 = 0 off it, and point 120 =
    # (1,2,2,2,2) off that hyperplane; with one member a row is off the law
    # where its count is not 0.  The 10 rows sampled span the plane.  Each
    # round adds at most n+1 rows off the dual from the first block holding
    # any, and reads that block again: in one block the five points come
    # first and leave point 120 to a third round; at 2 rows a block each
    # of the two spans takes its own round too
    g = _geometry(3, 1, 4)
    f, off, member = g.field, np.zeros(g.num_points, dtype=bool), np.zeros(g.num_points, bool)
    off[[*range(13), 14, 20, 26, 32, 38, 120]], member[0] = True, True
    got_ranks, rref = [], kernels.rref

    def counted(rows, *args):
        reduced, rank = rref(rows, *args)
        got_ranks.append(int(rank))
        return reduced, rank

    monkeypatch.setattr(kernels, "rref", counted)
    if rows_per_block:
        monkeypatch.setattr(kernels, "DOT_CELLS", rows_per_block * (g.n + 1))
    got = cone_points(member, off.astype(np.int64), g.points, f.add, f.mul, f.inv, f.neg)
    monkeypatch.undo()
    assert got_ranks == [3, 4, 5]
    np.testing.assert_array_equal(got, annihilator(g.points[off], f.add, f.mul, f.inv, f.neg))


@settings(max_examples=30)
@given(geometry=st.sampled_from(DOT_PRODUCT_GEOMETRIES), seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
@_each_large_q
def test_spectra_hyperplane_counts_match_dot_product_rows(geometry, seed, density):
    g = _geometry(*geometry)
    mask = _random_mask(g, seed, density)
    K = pointset_from_indices(g, np.flatnonzero(mask))
    counts = _counts(K, g.n - 1)
    hits = _rows_of(g) & mask
    want_counts = hits.sum(axis=1)
    np.testing.assert_array_equal(counts, want_counts)
    # a member is essential where it is the one member of some hyperplane
    if want_counts.min() == 0:
        with pytest.raises(NotBlocking):
            essential_points(K, g.n - 1)
    else:
        marked = np.zeros(g.num_points, dtype=bool)
        marked[np.argmax(hits[want_counts == 1], axis=1)] = True
        np.testing.assert_array_equal(essential_points(K, g.n - 1).mask, marked)


def _pencil_by_definition(K, axis):
    """{size: multiplicity} over the hyperplanes orthogonal to every basis
    row of the axis, each counted against its dot-product row."""
    g = K.geometry
    add, mul = g.field.add, g.field.mul
    through = np.ones(g.num_points, dtype=bool)
    for b in axis.basis:
        dot = np.zeros(g.num_points, dtype=np.int16)
        for c in range(g.n + 1):
            dot = add[dot, mul[g.points[:, c], b[c]]]
        through &= dot == 0
    assert through.sum() == g.q + 1
    sizes, mult = np.unique((_rows_of(g)[through] & K.mask).sum(axis=1), return_counts=True)
    return {int(s): int(m) for s, m in zip(sizes, mult)}


@settings(max_examples=40)
@given(case=st.integers(0, len(_cone_point_cases()) - 1), seed=st.integers(0, 2 ** 32 - 1),
       through_vertex=st.booleans(), damaged=st.booleans())
def test_pencil_counts_match_dot_product_rows(case, seed, through_vertex, damaged):
    K, vertex = _cone_point_cases()[case].values
    g = K.geometry
    rng = np.random.default_rng(seed)
    if damaged:  # move one point off the vertex out of K and one point into K
        mask = K.mask.copy()
        mask[rng.choice(np.setdiff1d(K.indices, vertex))] = False
        mask[rng.choice(np.flatnonzero(~K.mask))] = True
        K = pointset_from_indices(g, np.flatnonzero(mask))
    if through_vertex:  # the vertex has dimension n-3: join it to one point
        axis = g.span(list(vertex) + [int(rng.choice(np.setdiff1d(np.arange(g.num_points),
                                                                   vertex)))])
    else:
        axis = g.span(rng.choice(g.num_points, size=g.n - 1, replace=False))
    if axis.dim != g.n - 2:
        return
    got = pencil_counts(K, axis).u
    assert got == _pencil_by_definition(K, axis)
    assert sum(got.values()) == g.q + 1
