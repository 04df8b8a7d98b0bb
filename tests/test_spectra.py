import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

import pgcones
from pgcones import (PointSet, cone, essential_points, hermitian_unital,
                     hyperoval, hyperoval_cone, is_blocking, maxarc_cone,
                     pencil_counts, pointset_from_indices, recognize_cone,
                     spectrum, unital_cone)
from pgcones import field_new, geometry_new, kernels, spectra
from pgcones.errors import NotBlocking, WrongDimension
from pgcones.objects import axis_vertex
from pgcones.spectra import _counts, spectrum_of_counts
from oracles import hyperplane_point_indices, subspaces_iter


def test_single_point_hyperplane_spectrum(pg34):
    ps = pointset_from_indices(pg34, [17])
    assert spectrum(ps, 2).by_size == {1: 21, 0: 64}


def test_hyperoval_cone_plane_spectrum(pg34):
    assert spectrum(hyperoval_cone(pg34), 2).by_size == {1: 6, 6: 64, 9: 15}


def test_unital_cone_hyperplane_spectrum(pg44):
    assert spectrum(unital_cone(pg44), 3).by_size == {21: 9, 37: 320, 53: 12}


@pytest.mark.parametrize("workers", [0, -1])
def test_spectrum_refuses_fewer_than_one_worker(pg34, workers):
    with pytest.raises(ValueError):
        spectrum(hyperoval_cone(pg34), 1, workers=workers)


def test_spectrum_lower_dimension(pg34):
    # hyperoval cone against all 357 lines of PG(3,4): counts must total
    # the Gaussian binomial and double-count the set size
    K = hyperoval_cone(pg34)
    sp = spectrum(K, 1)
    assert sum(sp.by_size.values()) == sp.total == 357
    lines_through_point = 21  # gaussian_binomial(3,1,4) in the quotient
    assert sum(m * t for m, t in sp.by_size.items()) == K.k * lines_through_point


@pytest.mark.parametrize("dtype,top,size", [(np.uint8, 255, 0), (np.uint8, 255, 1),
                                            (np.uint8, 21, 10_000), (np.uint8, 255, 10_001),
                                            (np.uint16, 273, 10_000), (np.uint16, 273, 10_001)])
def test_spectrum_tally_matches_bincount(pg34, dtype, top, size):
    # runs of one value, as the counts of a cone come; uint8 counts are
    # tallied in pairs, of even and odd length, uint16 ones (q = 16 planes,
    # theta_2 = 273) one at a time
    rng = np.random.default_rng(size)
    counts = np.repeat(rng.integers(0, top + 1, size), rng.integers(1, 50, size))[:size]
    counts = counts.astype(dtype)
    want = np.bincount(counts)
    got = spectrum_of_counts(pg34, counts, 1).by_size
    assert got == {int(s): int(want[s]) for s in np.flatnonzero(want)}


@pytest.mark.parametrize("top", [0, 5, 10, 11, 15])
@pytest.mark.parametrize("runs", [True, False])
@pytest.mark.parametrize("size", [0, 1, 1000, 1001])
def test_spectrum_compare_tally_matches_bincount(monkeypatch, pg34, top, runs, size):
    # uint8 counts up to 10 are tallied by one comparison per value up to
    # their maximum, in runs as a cone's counts come or without runs as a
    # random set's may; a maximum of 11 or more takes the pair tally, with
    # no comparison
    rng = np.random.default_rng(size + top)
    counts = rng.integers(0, top + 1, size)
    if runs:
        counts = np.repeat(counts, rng.integers(1, 50, size))[:size]
    counts = counts.astype(np.uint8)
    counts[:1] = top  # the maximum is top
    calls, count_nonzero = [], np.count_nonzero

    def counted(*args, **kwargs):
        calls.append(args)
        return count_nonzero(*args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", counted)
    got = spectrum_of_counts(pg34, counts, 1).by_size
    monkeypatch.undo()
    want = np.bincount(counts)
    assert got == {int(s): int(want[s]) for s in np.flatnonzero(want)}
    most = int(counts.max(initial=0))  # 0 for no counts
    assert len(calls) == (most + 1 if most <= 10 else 0)


CHUNK, COMPARE = spectra.TALLY_CHUNK, spectra.COMPARE_CHUNK


@pytest.mark.parametrize("dtype,top", [(np.uint8, 4), (np.uint8, 10), (np.uint8, 11),
                                       (np.uint8, 255), (np.uint16, 1093), (np.int64, 53)])
@pytest.mark.parametrize("runs", [True, False])
@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK + 1,
                                  3 * CHUNK + 5, COMPARE - 1, COMPARE + 1, 2 * COMPARE + 1])
def test_spectrum_tally_in_chunks_matches_a_counter(monkeypatch, pg34, dtype, top, runs, size):
    # every `bincount` sees at most one chunk, and a pair tally has at most
    # 256 (top + 1) entries; every comparison of uint8 counts up to 10 sees
    # at most one compare chunk, each value compared once a chunk; lengths
    # around both chunks and the chunk of uint8 pairs, in runs as a cone's
    # counts come or without runs
    rng = np.random.default_rng(size + top)
    counts = rng.integers(0, top + 1, size)
    if runs:
        counts = np.repeat(counts, rng.integers(1, 50, size))[:size]
    counts = counts.astype(dtype)
    counts[:1] = top
    calls, compared, bincount, count_nonzero = [], [], np.bincount, np.count_nonzero

    def counted(values, minlength=0):
        calls.append((len(values), minlength))
        return bincount(values, minlength=minlength)

    def compare_counted(values):
        compared.append(len(values))
        return count_nonzero(values)

    monkeypatch.setattr(np, "bincount", counted)
    monkeypatch.setattr(np, "count_nonzero", compare_counted)
    got = spectrum_of_counts(pg34, counts, 1).by_size
    monkeypatch.undo()
    assert got == dict(Counter(counts.tolist()))
    assert all(length <= CHUNK and minlength <= 256 * (top + 1) for length, minlength in calls)
    assert all(length <= COMPARE for length in compared)
    compare = dtype == np.uint8 and (top <= 10 or size == 0)
    values = size // 2 if dtype == np.uint8 else size  # uint8 counts go in pairs
    assert len(calls) == (0 if compare else max(1, -(-values // CHUNK)))
    most = int(counts.max(initial=0))
    assert len(compared) == ((most + 1) * max(1, -(-size // COMPARE)) if compare else 0)


@pytest.mark.parametrize("p,h,n", [(3, 1, 4), (5, 1, 3), (3, 2, 3), (2, 2, 4)])
def test_tiny_blocks_give_the_same_spectra_and_essential_points(monkeypatch, p, h, n):
    # at 64 bytes a block the scan holds 64 uint8 entries a take, a pattern
    # of over 32 subspaces one combo a block, some with columns before its
    # row column, and the tallies 8 counts a `bincount` and 64 a comparison:
    # every d, odd q among them, gives what the default blocks give
    def outputs():
        g, out = geometry_new(field_new(p, h), n), []
        rng = np.random.default_rng(n)
        for density in (0.1, 0.6):
            K = PointSet(g, rng.random(g.num_points) < density)
            for d in range(n):
                try:
                    essential = essential_points(K, d).mask.tolist()
                except NotBlocking:
                    essential = None
                out.append((spectrum(K, d).by_size, is_blocking(K, d), essential))
        return out

    want = outputs()
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 64)
    monkeypatch.setattr(spectra, "TALLY_CHUNK", 8)
    monkeypatch.setattr(spectra, "COMPARE_CHUNK", 64)
    assert outputs() == want


def test_spectrum_tally_of_a_scan_matches_bincount(pg54):
    # the 376 805 plane counts of a cone of PG(5,4), uint8 of odd length
    counts = _counts(maxarc_cone(pg54, 2), 2)
    assert counts.dtype == np.uint8 and len(counts) % 2 == 1
    want = np.bincount(counts)
    assert spectrum_of_counts(pg54, counts, 2).by_size == {
        int(s): int(want[s]) for s in np.flatnonzero(want)}


def test_is_blocking(pg34):
    hyp = pointset_from_indices(pg34, hyperplane_point_indices(pg34, 0))
    assert is_blocking(hyp, 1)
    assert is_blocking(hyperoval_cone(pg34), 2)
    assert not is_blocking(hyperoval(pg34), 2)


def test_maxarc_cone_blocks_planes(pg54):
    assert is_blocking(maxarc_cone(pg54, 2), 2)


def test_essential_points_line(plane4):
    line = pointset_from_indices(plane4, plane4.span([0, 1]).point_indices)
    assert essential_points(line, 1) == line
    extra_idx = int(np.nonzero(~line.mask)[0][0])
    padded = pointset_from_indices(plane4, list(line.indices) + [extra_idx])
    ess = essential_points(padded, 1)
    assert not ess.mask[extra_idx]
    assert ess.k == 5


def test_essential_points_unital_minimal(plane4):
    u = hermitian_unital(plane4)
    assert essential_points(u, 1) == u


def test_essential_points_without_a_tangent_hyperplane(pg44, monkeypatch):
    # every hyperplane meets the unital cone of PG(4,4) in 21, 37 or 53
    # points, so no count is 1 and the hyperplanes met once are not counted
    K = unital_cone(pg44)
    assert _counts(K, 3).min() > 1
    calls, count = [], kernels.hyperplane_intersection_counts
    monkeypatch.setattr(kernels, "hyperplane_intersection_counts",
                        lambda *args: calls.append(args) or count(*args))
    ess = essential_points(K, 3)
    assert ess.k == 0 and ess.mask.dtype == bool and ess.mask.shape == K.mask.shape
    assert len(calls) == 1


def test_essential_points_without_a_plane_met_once(pg44):
    # every plane meets the unital cone of PG(4,4) in 5, 9, 13 or 21
    # points, so no count is 1 and the scan skips its index pass
    K = unital_cone(pg44)
    counts, lone = kernels.subspace_intersection_scan(5, 2, 4, pg44.count_plan(2), K.mask,
                                                      lone=True)
    assert counts.min() > 1
    np.testing.assert_array_equal(lone, np.full(len(counts), -1))
    assert lone.dtype == np.int32
    assert essential_points(K, 2).k == 0


@pytest.mark.parametrize("p,h,n", [(2, 2, 3), (3, 1, 4)], ids=["PG(3,4)", "PG(4,3)"])
def test_point_counts_are_the_mask(p, h, n):
    # at d = 0 a subspace is a point, so `_counts` returns the mask, with
    # no plan, and a blocking set's essential points are its members; the
    # scan of the same points, in its own order, gives the same spectrum,
    # blocking and essential points
    g = geometry_new(field_new(p, h), n)
    rng = np.random.default_rng(n)
    for K in (PointSet(g, rng.random(g.num_points) < 0.5), PointSet(g, np.ones(g.num_points, bool)),
              PointSet(g, np.zeros(g.num_points, bool))):
        counts = _counts(K, 0)
        np.testing.assert_array_equal(counts, K.mask)
        assert counts.dtype == np.uint8
        scan_counts, scan_lone = kernels.subspace_intersection_scan(
            n + 1, 0, g.q, g.count_plan(0), K.mask, lone=True)
        assert spectrum(K, 0) == spectrum_of_counts(g, scan_counts, 0)
        assert is_blocking(K, 0) == bool(scan_counts.min() > 0)
        if scan_counts.min() == 0:
            with pytest.raises(NotBlocking):
                essential_points(K, 0)
        else:
            marked = np.zeros(g.num_points, dtype=bool)
            marked[scan_lone[scan_lone >= 0]] = True
            assert essential_points(K, 0) == PointSet(g, marked) == K


def test_essential_points_of_a_line_in_space(pg34):
    # a line blocks every plane of PG(3,4) and each of its points lies on
    # planes that meet it there alone, found by counting the planes met once
    line = pointset_from_indices(pg34, pg34.span([0, 1]).point_indices)
    assert essential_points(line, 2) == line


def test_essential_points_import_no_masked_arrays():
    # `np.unique` would import numpy.ma, about 1.5 MB of RSS; a fresh
    # interpreter shows whether a spectrum or an essential set pulls it in
    code = dedent("""
        import sys
        from pgcones import (PointSet, essential_points, field_new, geometry_new,
                             hyperoval_cone, spectrum)
        g = geometry_new(field_new(2, 2), 3)
        plane, K = PointSet(g, g.points[:, 0] == 0), hyperoval_cone(g)
        assert spectrum(K, 2).by_size == {1: 6, 6: 64, 9: 15}
        assert essential_points(K, 2).k == 1
        assert spectrum(plane, 1).by_size == {1: 336, 5: 21}
        assert essential_points(plane, 1) == plane
        print("numpy.ma" in sys.modules)
    """)
    src = str(Path(pgcones.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def _essential_by_dots(K):
    """The members that are the one member of some hyperplane, from the
    field dot products of every hyperplane with the members, a block of
    hyperplanes at a time; None where some hyperplane misses K."""
    g, f = K.geometry, K.geometry.field
    members, marked = g.points[K.indices], np.zeros(K.geometry.num_points, dtype=bool)
    step = max(1, kernels.DOT_CELLS // K.k)
    for lo in range(0, g.num_points, step):
        on = kernels.field_dots(g.points[lo:lo + step], members, f.add, f.mul) == 0
        met = on.sum(axis=1)
        if met.min() == 0:
            return None
        marked[K.indices[on[met == 1].argmax(axis=1)]] = True
    return marked


# PG(n,q), n = 2..5, q <= 9, and PG(3,31); at PG(3,31) and PG(5,9) the
# hyperplanes met once are counted with residues taken before stages and
# gathers, as the hyperplane counts are
@pytest.mark.parametrize("p,h,n", [(p, h, n) for p, h in ((2, 1), (3, 1), (2, 2), (5, 1),
                                                          (7, 1), (2, 3), (3, 2))
                                   for n in (2, 3, 4, 5)] + [(31, 1, 3)])
def test_essential_points_at_hyperplanes_match_dot_products(p, h, n):
    # a line and three points, which many hyperplanes meet once; where the
    # dot products stay small, every point but one, which every hyperplane
    # meets often, and a random nine tenths, blocking or not
    g = geometry_new(field_new(p, h), n)
    rng = np.random.default_rng(g.num_points)
    line = np.zeros(g.num_points, dtype=bool)
    line[g.span(rng.choice(g.num_points, 2, replace=False).tolist()).point_indices] = True
    line[rng.choice(g.num_points, 3, replace=False)] = True
    sets = [line]
    if g.num_points <= 2000:
        sets += [np.arange(g.num_points) != rng.integers(g.num_points),
                 rng.random(g.num_points) < 0.9]
    for mask in sets:
        K = PointSet(g, mask)
        want = _essential_by_dots(K)
        if want is None:
            with pytest.raises(NotBlocking):
                essential_points(K, n - 1)
        else:
            np.testing.assert_array_equal(essential_points(K, n - 1).mask, want)
    assert _essential_by_dots(PointSet(g, line)).any()
    if len(sets) > 1:
        assert not _essential_by_dots(PointSet(g, sets[1])).any()


def test_essential_points_not_blocking(plane4):
    with pytest.raises(NotBlocking):
        essential_points(pointset_from_indices(plane4, [0]), 1)


def test_pencil_counts_sum(pg44):
    K = unital_cone(pg44)
    prof = pencil_counts(K, axis_vertex(pg44, 2))
    assert sum(prof.u.values()) == 5


def test_pencil_wrong_dimension(pg44):
    with pytest.raises(WrongDimension):
        pencil_counts(unital_cone(pg44), pg44.span([0]))


def test_pencil_unital_a_hyperplane_law(pg44):
    K = unital_cone(pg44)
    counts = _counts(K, 3)
    a_hyps = np.nonzero(counts == 21)[0]
    assert len(a_hyps) == 9
    for h in a_hyps:
        row = hyperplane_point_indices(pg44, h)
        axis = pg44.span(row[K.mask[row]])
        assert axis.dim == 2
        assert pencil_counts(K, axis).u == {21: 1, 53: 4}


def test_pencil_hyperoval_cone_tangent_line_law(pg34):
    K = hyperoval_cone(pg34)
    vertex = recognize_cone(K).vertex
    vidx = int(vertex.point_indices[0])
    checked = 0
    for line in subspaces_iter(pg34, 1):
        if vidx in line.point_indices and K.mask[line.point_indices].sum() == 1:
            assert pencil_counts(K, line).u == {1: 2, 9: 3}
            checked += 1
    assert checked > 0


def test_recognize_subspace_is_its_own_vertex(pg34):
    plane_pts = hyperplane_point_indices(pg34, 3)
    ps = pointset_from_indices(pg34, plane_pts)
    rec = recognize_cone(ps)
    assert rec.vertex.dim == 2
    assert sorted(rec.vertex.point_indices) == sorted(plane_pts)
    assert rec.is_cone_over_vertex


def test_recognize_hyperoval_cone_round_trip(pg34):
    K = hyperoval_cone(pg34)
    rec = recognize_cone(K)
    assert rec.vertex.dim == 0
    assert rec.base.k == 6
    assert rec.is_cone_over_vertex
    assert cone(pg34, rec.vertex, rec.base) == K


def test_recognize_damaged_cone(pg34):
    K = hyperoval_cone(pg34)
    vset = set(recognize_cone(K).vertex.point_indices.tolist())
    victim = next(i for i in K.indices if i not in vset)
    mask = K.mask.copy()
    mask[victim] = False
    rec = recognize_cone(PointSet(pg34, mask))
    assert (not rec.is_cone_over_vertex) or rec.vertex.dim < 0


def test_recognize_cone_round_trip_all_families(pg44, pg54):
    for K, vdim in ((unital_cone(pg44), 1), (maxarc_cone(pg54, 2), 2)):
        rec = recognize_cone(K)
        assert rec.vertex.dim == vdim
        assert rec.is_cone_over_vertex
