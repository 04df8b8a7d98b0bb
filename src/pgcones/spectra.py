"""Intersection spectra, blocking tests, pencil counts, the pencil law of
`verify`, cone recognition."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from math import gcd

import numpy as np

from . import kernels
from .errors import NotBlocking, WrongDimension
from .objects import PointSet, cone
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

    u: dict


@dataclass(frozen=True)
class ConeRecognition:
    vertex: Subspace = dc_field(repr=False)
    base: PointSet = dc_field(repr=False)
    is_cone_over_vertex: bool


def _counts(K: PointSet, d: int, workers: int = 1):
    """Intersection counts of K with every d-subspace, from the geometry's
    plan for d, which charges a scan before it is built.  At d = 0 a
    subspace is a point: the counts are the mask as uint8, with no plan."""
    g = K.geometry
    if not 0 <= d <= g.n - 1:
        raise WrongDimension(f"need 0 <= d <= n-1, got d={d}")
    if d == 0:
        return K.mask.view(np.uint8)
    if d == g.n - 1:
        return kernels.hyperplane_intersection_counts(g.points, K.mask, g.count_plan(d))
    return kernels.subspace_intersection_scan(g.n + 1, d, g.q, g.count_plan(d), K.mask,
                                              workers)[0]


# counts per `bincount`, which copies them to intp, and per comparison, a bool
# each: one chunk's copy or comparison is `kernels.BLOCK_BYTES`
TALLY_CHUNK = kernels.BLOCK_BYTES // np.dtype(np.intp).itemsize
COMPARE_CHUNK = kernels.BLOCK_BYTES


def _tally(values, top: int) -> np.ndarray:
    """`bincount` of values in 0..top, one TALLY_CHUNK at a time, so that
    its intp copy is one chunk's, the later chunks' tallies added in place
    to the first's."""
    tally = np.bincount(values[:TALLY_CHUNK], minlength=top + 1)
    for lo in range(TALLY_CHUNK, len(values), TALLY_CHUNK):
        tally += np.bincount(values[lo:lo + TALLY_CHUNK], minlength=top + 1)
    return tally


def spectrum_of_counts(g: Geometry, counts: np.ndarray, d: int) -> Spectrum:
    """The spectrum tallied from the intersection counts of every d-subspace,
    which lie in 0..theta_d: no sort.  A cone's counts come in long runs of
    one value, whose `bincount` increments wait on one another.  uint8
    counts up to 10 are tallied by one comparison per value, which has no
    such wait and, over up to 11 values, costs about what pairs do where
    there are no runs, a COMPARE_CHUNK of counts at a time into one bool
    buffer; larger ones in uint16 pairs, each adding to the tally of both
    its bytes, whatever the byte order, the pair tally sized by the largest
    count.  Every `bincount` runs in chunks (`_tally`)."""
    top = int(counts.max(initial=0))
    if counts.dtype != np.uint8:
        tally = _tally(counts, top)
    elif top <= 10:  # one chunk at least, so that no counts compare each value once too
        tally = np.zeros(top + 1, dtype=np.intp)
        equal = np.empty(min(len(counts), COMPARE_CHUNK), dtype=bool)
        for lo in range(0, max(len(counts), 1), COMPARE_CHUNK):
            chunk = counts[lo:lo + COMPARE_CHUNK]
            for v in range(top + 1):
                tally[v] += np.count_nonzero(np.equal(chunk, v, out=equal[:len(chunk)]))
    else:  # a pair of counts up to top is below 256 (top + 1)
        pairs = _tally(counts[:len(counts) & ~1].view(np.uint16), 256 * top + 255)
        pairs = pairs.reshape(top + 1, 256)
        tally = pairs.sum(axis=0)[:top + 1] + pairs.sum(axis=1)
        tally[counts[len(counts) & ~1:]] += 1  # the odd last count
    return Spectrum(by_size={int(s): int(tally[s]) for s in np.flatnonzero(tally)},
                    d=d, total=gaussian_binomial(g.n + 1, d + 1, g.q))


def spectrum(K: PointSet, d: int, workers: int = 1) -> Spectrum:
    """Exact intersection spectrum of K against all d-subspaces."""
    return spectrum_of_counts(K.geometry, _counts(K, d, workers), d)


def is_blocking(K: PointSet, d: int) -> bool:
    """True iff every d-subspace meets K."""
    return bool(_counts(K, d).min() > 0)


def essential_points(K: PointSet, d: int) -> PointSet:
    """Points whose removal unblocks some d-subspace.

    A point is essential exactly when some d-subspace meets K in that
    point alone.  Raises NotBlocking if K is not a d-blocking set.  The
    lone points, the members at d = 0, are marked straight from the
    scan's lone array, whose -1 marks an extra last entry.  At d = n-1
    point h has the coordinates of hyperplane h, so the count of the
    hyperplanes met once, if any, is the number of them through each point.
    """
    g = K.geometry
    if 0 < d < g.n - 1:
        counts, lone = kernels.subspace_intersection_scan(g.n + 1, d, g.q, g.count_plan(d),
                                                          K.mask, lone=True)
    else:
        counts, lone = _counts(K, d), K.indices if d == 0 else None
    if counts.min() == 0:
        raise NotBlocking(f"K does not block every {d}-subspace")
    if lone is None:
        once = counts == 1
        return PointSet(g, K.mask & (kernels.hyperplane_intersection_counts(
            g.points, once, g.count_plan(d)) > 0 if once.any() else False))
    marked = np.zeros(g.num_points + 1, dtype=bool)  # -1, no lone point, marks the last
    marked[lone] = True
    return PointSet(g, marked[:-1].copy())


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
    return PencilProfile(u=dict(Counter(sizes.tolist())))


# ---------------------------------------------------------------------------
# the pencil law, read off the hyperplane counts
# ---------------------------------------------------------------------------

def _member_order(k: int) -> np.ndarray:
    """The member positions 0..k-1 in steps of a fixed stride coprime to k,
    near k/phi, so that a run of the order spreads over the whole set."""
    stride = max(1, round(k * 0.6180339887))
    while gcd(stride, k) != 1:
        stride += 1
    return np.arange(k) * stride % k


def _samples(g, planes, members, r: int, a: int):
    """Per hyperplane of `planes`, the reduced span of members met on it and
    its rank, in rounds until the rank reaches r: the members, in their
    order, in blocks doubling from 2(n+1) k/a, which an a-hyperplane meets
    in about 2(n+1) of its members, up to `kernels.DOT_CELLS`.  Each round
    adds the first n+1 members a hyperplane meets in the block to its
    reduced rows, in one stacked `kernels.rref`; the hyperplanes are dotted
    with the block DOT_CELLS products at a time.  Rows (planes, r, n+1); a
    rank above r leaves its first r reduced rows."""
    f, cols, k = g.field, g.n + 1, len(members)
    rows, ranks = np.zeros((len(planes), r, cols), dtype=np.int16), np.zeros(len(planes), int)
    active, lo = np.arange(len(planes)), 0
    size = min(kernels.DOT_CELLS, -(-2 * cols * k // a))
    while active.size and lo < k:
        block, met = g.points[members[lo:lo + size]], np.zeros((active.size, cols, cols), np.int16)
        step = max(1, kernels.DOT_CELLS // len(block))
        for c in range(0, active.size, step):
            on = kernels.field_dots(g.points[planes[active[c:c + step]]], block, f.add, f.mul) == 0
            seen = np.cumsum(on, axis=1, dtype=np.int32)
            p, m = np.nonzero(on & (seen <= cols))
            met[c + p, seen[p, m] - 1] = block[m]
        reduced, ranks[active] = kernels.rref(np.concatenate([rows[active], met], axis=1),
                                              f.add, f.mul, f.inv, f.neg)
        rows[active] = reduced[:, :r]
        active, lo, size = active[ranks[active] < r], lo + size, min(kernels.DOT_CELLS, 2 * size)
    return rows, ranks


def _inside(K, bases) -> np.ndarray:
    """Whether the span of each basis of a stack lies in K, its points named
    a few spans at a time."""
    g, (_, rows, cols) = K.geometry, bases.shape
    step = max(1, kernels.DOT_CELLS // (theta(rows - 1, g.q) * cols))  # coordinates named at a time
    return np.concatenate([
        K.mask[g.indices_of(kernels.span_vectors(bases[lo:lo + step], g.field.add, g.field.mul))]
        .all(axis=1) for lo in range(0, len(bases), step)])


def _sampled_traces(K, a_planes, r: int, a: int):
    """The a-hyperplanes whose trace is confirmed from r of its members, as
    {reduced basis bytes: (first a-hyperplane, reduced basis)}, and those
    left to the full trace, ascending.  The first a-hyperplane is sampled
    alone, then the rest in one batch, as several can share one trace:
    each batch's distinct spans are checked against K, then every later
    hyperplane holding a confirmed one has it as its trace, with no sample."""
    g, f = K.geometry, K.geometry.field
    members, traces, left, pending, size = K.indices[_member_order(K.k)], {}, [], a_planes, 1
    while pending.size:
        batch, pending = pending[:size], pending[size:]
        rows, ranks = _samples(g, batch, members, r, a)
        left += batch[ranks != r].tolist()
        spans = {}  # per distinct span of a rank-r sample, the batch positions holding it
        for i in np.flatnonzero(ranks == r):
            spans.setdefault(rows[i].tobytes(), []).append(i)
        firsts = np.array([held[0] for held in spans.values()], dtype=int)
        inside = _inside(K, rows[firsts]) if spans else np.zeros(0, dtype=bool)
        for i, held, ok in zip(firsts, spans.values(), inside):
            if ok:
                traces[rows[i].tobytes()] = batch[i], rows[i]
            else:
                left += batch[held].tolist()
        confirmed = rows[firsts[inside]].reshape(-1, g.n + 1)
        if confirmed.size and pending.size:
            step = max(1, kernels.DOT_CELLS // len(confirmed))
            own = np.concatenate([(kernels.field_dots(g.points[pending[lo:lo + step]], confirmed,
                                                      f.add, f.mul) == 0)
                                  .reshape(-1, len(confirmed) // r, r).all(axis=2).any(axis=1)
                                  for lo in range(0, pending.size, step)])
            pending = pending[~own]
        size = pending.size
    return traces, np.array(sorted(left), dtype=a_planes.dtype)


def _full_traces(K, planes, a: int):
    """For a-hyperplanes whose trace no sample confirmed, K ∩ h from the
    dot products of h with every member, one h per distinct K ∩ h, all
    row-reduced in one stacked reduction: the failures of the traces that
    do not fill their span, and the others as in `_sampled_traces`.  K ∩ h
    fills its span exactly when its rank r has theta_(r-1) = a."""
    if planes.size == 0:
        return [], {}
    g, f = K.geometry, K.geometry.field
    members, traces, step = g.points[K.indices], {}, max(1, kernels.DOT_CELLS // K.k)
    for lo in range(0, planes.size, step):
        block = kernels.field_dots(g.points[planes[lo:lo + step]], members, f.add, f.mul) == 0
        for h, trace, key in zip(planes[lo:lo + step], block, np.packbits(block, axis=1)):
            if key.tobytes() not in traces:  # its a members, not a view that keeps the block
                traces[key.tobytes()] = h, np.flatnonzero(trace)
    hs, on = map(np.array, zip(*traces.values()))
    reduced, ranks = kernels.rref(members[on], f.add, f.mul, f.inv, f.neg)
    failures = [f"K ∩ h spans dimension {r - 1} at an a-hyperplane h, not a subspace"
                f" of a={a} points" for r in ranks.tolist() if theta(r - 1, g.q) != a]
    return failures, {basis[:r].tobytes(): (h, basis[:r]) for h, basis, r
                      in zip(hs, reduced, ranks.tolist()) if theta(r - 1, g.q) == a}


def pencil_law_failures(K: PointSet, counts: np.ndarray, a: int, c: int, u_a: int) -> list:
    """The failures of the pencil law of K, given its hyperplane counts and
    the sizes a < c: at each a-hyperplane h, one per distinct K ∩ h, K ∩ h
    fills its span, and each axis, an (n-2)-space A with K ∩ h in A in h,
    lies on u_a a-hyperplanes and q+1-u_a c-hyperplanes; with no
    a-hyperplane it fails.  No point of a hyperplane or axis is listed.

    With a = theta_(r-1), K ∩ h is the span of r independent members B on h
    exactly when every point of span(B) is in K, as both have a points.
    `_sampled_traces` finds B from a few members per hyperplane, one at
    a = 1, and a hyperplane it cannot confirm, where the law fails or the
    sample falls short, goes to `_full_traces`, which writes every failure
    of a trace, in the order of the traces' first a-hyperplanes; then come
    those of the profiles, in the same order.  The reduced basis of each
    trace gives its dual D, of n+1-r rows, by `kernels.dual_of_reduced`.
    The hyperplanes through A are a dual line through h in D.  With U
    completing h to a basis (U, h) of D, its `kernels.span_vectors` are h,
    then per point x of <U> the q points x + s h, s in GF(q), of <x, h> but
    h: one line when D has 2 rows, q+1 when it has 3, each a profile: its a
    and c tallies are compared, and a Counter built only where they fail."""
    g, q = K.geometry, K.geometry.q
    a_planes = np.flatnonzero(counts == a)
    if a_planes.size == 0:
        return [f"no hyperplane meets K in a={a} points to give the axes"]
    r = next((r for r in range(1, g.n + 1) if theta(r - 1, q) == a), None)
    traces, left = _sampled_traces(K, a_planes, r, a) if r else ({}, a_planes)
    failures, full = _full_traces(K, left, a)
    if not traces and not full:
        return failures
    hs, reduced = map(np.array, zip(*sorted([*traces.values(), *full.values()],
                                            key=lambda trace: trace[0])))
    add, mul, neg = g.field.add, g.field.mul, g.field.neg
    h, dual = g.points[hs], kernels.dual_of_reduced(reduced, add, neg)
    # as in `kernels.dual_of_reduced`, h is the sum of h[f] times the row whose last
    # nonzero column is f
    last = g.n - np.argmax(dual[:, :, ::-1] != 0, axis=2)
    drop = np.argmax(np.take_along_axis(h, last, axis=1) != 0, axis=1)[:, None]
    basis = np.concatenate([dual[np.arange(dual.shape[1]) != drop].reshape(len(h), -1, g.n + 1),
                            h[:, None]], axis=1)
    lines = counts[g.indices_of(kernels.span_vectors(basis, add, mul)[:, 1:])].reshape(-1, q)
    bad = lines[((lines == a).sum(axis=1) != u_a - 1)
                | ((lines == c).sum(axis=1) != q + 1 - u_a)]
    expected = {a: u_a, c: q + 1 - u_a}
    return failures + [f"axis profile {dict(sorted(Counter(line.tolist() + [a]).items()))}"
                       f" != {expected}" for line in bad]


# ---------------------------------------------------------------------------
# cone recognition
# ---------------------------------------------------------------------------

def _cone_structure(K: PointSet):
    """The vertex, base and hyperplane counts of `recognize_cone`."""
    g = K.geometry
    if K.k == 0:
        raise ValueError("K must be nonempty")
    counts = _counts(K, g.n - 1)
    f = g.field
    vertex = g.subspace_from_basis(
        kernels.cone_points(K.mask, counts, g.points, f.add, f.mul, f.inv, f.neg))
    pivots = g.pivot_columns(vertex)
    return vertex, PointSet(g, K.mask & (g.points[:, pivots] == 0).all(axis=1)), counts


def recognize_cone(K: PointSet) -> ConeRecognition:
    """Detect the maximal vertex of K and test whether K is a cone over it.

    The vertex is the subspace of the points P of K such that every line
    joining P to another point of K lies entirely in K, the annihilator of
    the hyperplanes off the cone law in the counts of K.  The base is K on
    the greedy complement of the vertex, which extends the vertex one at a
    time by the least point independent of it: the points that are 0 at the
    pivot columns of the vertex's reduced basis, the span of the unit
    vectors at its free columns.  Points are listed with coordinate 0 most
    significant.  Let W be the span so far, E_c the span of e_c, ..., e_n,
    and c the largest column with E_c not in W.  Every point before e_c lies
    in E_(c+1), inside W, so e_c is the least point off W, and c is W's
    largest free column: each step adds the unit vector at the largest free
    column left.
    """
    vertex, base, _ = _cone_structure(K)
    is_cone = vertex.dim >= 0 and cone(K.geometry, vertex, base) == K
    return ConeRecognition(vertex=vertex, base=base, is_cone_over_vertex=is_cone)
