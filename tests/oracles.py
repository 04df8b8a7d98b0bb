"""Brute-force listings that only the tests use as oracles: the points and
the code table of PG(n,q) from a filter of all q^(n+1) vectors, the points
of a hyperplane from a dot product with every point, a scan plan built
one take and one free column at a time, every d-subspace from
the echelon bases of its pivot pattern, in the canonical order of the
subspace scan (patterns in lexicographic order, the free slots of each by
column, then row, as `pivot_patterns` lists them), the membership mask of
a subspace, a set of PG(2,q) copied into the first coordinates of PG(n,q),
the vectors of a span one coefficient row at a time, the reduced rows of
a set of vectors, a textbook Gauss-Jordan elimination, the pencil law from
the full trace of every a-hyperplane, the prime powers q <= 128 with every
theorem instance `theorem_instance` admits among them up to a dimension,
and the closed forms of each theorem's type, size and vertex dimension,
with the feasible-k screen they give.
"""

from collections import Counter
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import numpy as np

from pgcones import kernels
from pgcones.counting import THEOREMS, TypeParameters, theorem_instance
from pgcones.errors import HypothesisViolated, NonSquareOrder, PgconesError
from pgcones.kernels import combo_vectors, pivot_patterns
from pgcones.objects import pointset_from_indices
from pgcones.pg import theta


def points_and_codes(field, n):
    """The points of PG(n,q), first nonzero coordinate 1 in lexicographic
    order, kept from all q^(n+1) vectors, and the table from the code
    sum_i v[i] q^i of every nonzero vector v to its point, filled with the
    points scaled by each t != 0 in turn; -1 at the zero code."""
    q = field.q
    vecs = np.indices((q,) * (n + 1), dtype=np.int16).reshape(n + 1, -1).T
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    points = vecs[lead == 1]
    pows = q ** np.arange(n + 1, dtype=np.int64)
    codes = np.full(q ** (n + 1), -1, dtype=np.int64)
    for t in range(1, q):
        codes[field.mul[t, points].astype(np.int64) @ pows] = np.arange(len(points))
    return points, codes


def dot(g, a, vectors):
    """Field dot products sum_c a[c] x[c] with the rows x of vectors, one
    coordinate at a time."""
    acc = 0
    for c in range(g.n + 1):
        acc = g.field.add[acc, g.field.mul[a[c], vectors[:, c]]]
    return acc


def hyperplane_point_indices(g, h):
    """Sorted indices of the points of hyperplane h."""
    return np.flatnonzero(dot(g, g.points[h], g.points) == 0)


def reference_scan_plan(n_cols, d, q, add, mul):
    """The offsets and dtype of the counts of a scan plan of (n_cols, d, q)
    and, per pivot pattern, its index, one outer sum per free column, and
    its blocks, each take of m rows (values[m-1][lo:hi] b + c, b = hi - lo)
    a new array, the value tables from `field_dots` of the combos with all
    m digit tuples; no code table."""
    patterns, combos = pivot_patterns(n_cols, d + 1), combo_vectors(d + 1, q)
    values = [kernels.field_dots(combos[:, :m], np.indices((q,) * m).reshape(m, -1).T, add, mul)
              for m in range(1, d + 2)]
    pows = q ** np.arange(n_cols, dtype=np.int64)
    place = pows[:, None] * np.arange(q)
    at = combos.astype(np.int64) @ pows[[list(pivots) for pivots, _ in patterns]].T
    sizes = [q ** len(free) for _, free in patterns]
    dtype = np.min_scalar_type(len(combos))
    entries = kernels.BLOCK_BYTES // dtype.itemsize
    plan = SimpleNamespace(dtype=dtype, offsets=np.cumsum([0] + sizes), patterns=[])
    for (pivots, free), size, codes in zip(patterns, sizes, at.T):
        cols, step = sorted({col for _, col in free}), max(1, entries // size)
        rows = [sum(p < col for p in pivots) for col in cols]
        bounds = [(lo, min(lo + step, len(combos))) for lo in range(0, len(combos), step)]
        blocks = [(lo, hi, [(values[m - 1][lo:hi] * np.intp(hi - lo)
                             + np.arange(hi - lo)[:, None]).ravel() for m in rows])
                  for lo, hi in bounds]
        index = np.zeros(1, dtype=np.int64)
        for col in cols:
            index = np.add.outer(index, place[col]).ravel()
        plan.patterns.append((index[:, None] + codes, blocks))
    return plan


def pattern_bases(pivots, free, rows, n_cols, q):
    """All echelon basis matrices for one pivot pattern: (q^nf, rows, n_cols).

    The free slots take the base-q digits of the subspace's position within
    the pattern, most significant first."""
    nf = len(free)
    m = q ** nf
    bases = np.zeros((m, rows, n_cols), dtype=np.int16)
    for i, p in enumerate(pivots):
        bases[:, i, p] = 1
    codes = np.arange(m, dtype=np.int64)
    for j, (r, c) in enumerate(free):
        bases[:, r, c] = (codes // q ** (nf - 1 - j)) % q
    return bases


def subspaces_iter(g, d):
    """Every d-subspace of g exactly once, canonical echelon-basis order."""
    rows = d + 1
    for pivots, free in pivot_patterns(g.n + 1, rows):
        for b in pattern_bases(pivots, free, rows, g.n + 1, g.q):
            yield g.subspace_from_basis(b)


def subspace_mask(g, subspace):
    """Membership mask over the points of g of the points of a subspace."""
    mask = np.zeros(g.num_points, dtype=bool)
    mask[subspace.point_indices] = True
    return mask


def embed_in_first_coords(g, plane_set):
    """Copy a point set of a lower-dimensional PG(m,q) into the subspace
    spanned by the first m+1 coordinates of g, padding its points with
    zeros."""
    small = plane_set.geometry
    vecs = small.points[plane_set.indices]
    padded = np.zeros((vecs.shape[0], g.n + 1), dtype=np.int16)
    padded[:, : small.n + 1] = vecs
    return pointset_from_indices(g, g.indices_of(padded))


def rref(g, vectors):
    """The nonzero rows of the reduced row echelon form over the field of g
    of coordinate vectors (the last axis), from `kernels.rref`."""
    f = g.field
    reduced, rank = kernels.rref(np.reshape(vectors, (-1, g.n + 1)), f.add, f.mul, f.inv, f.neg)
    return reduced[:rank]


def reference_rref(g, vectors):
    """Gauss-Jordan elimination, one Python integer at a time."""
    add, mul, inv, neg = (g.field.add, g.field.mul, g.field.inv, g.field.neg)
    rows = [[int(c) for c in v] for v in vectors]
    rank = 0
    for col in range(g.n + 1):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        s = int(inv[rows[rank][col]])
        rows[rank] = [int(mul[s, c]) for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = int(neg[rows[i][col]])
                rows[i] = [int(add[a, mul[f, b]]) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return np.array(rows[:rank], dtype=np.int16).reshape(rank, g.n + 1)


def pencil_failures_full_trace(th, inst, K, counts):
    """The failures of the pencil law, in order, from the full trace of every
    a-hyperplane: K ∩ h from the dot products of h with every member, one h
    per distinct K ∩ h, all row-reduced in one stacked reduction; the traces
    of rank r with theta_(r-1) = a give their duals by `annihilator`, whose
    dual lines through h are the profiles.  The failures of the traces come
    first, then those of the profiles, each in the order of the traces'
    first a-hyperplanes."""
    if th.pencil_u_a is None:
        return []
    g, q = K.geometry, inst.q
    add, mul, inv, neg = g.field.add, g.field.mul, g.field.inv, g.field.neg
    u_a = th.pencil_u_a(q, inst.t_or_d)
    expected = {inst.a: u_a, inst.c: q + 1 - u_a}
    a_planes = np.nonzero(counts == inst.a)[0]
    if a_planes.size == 0:
        return [f"no hyperplane meets K in a={inst.a} points to give the axes"]
    members, traces, step = g.points[K.indices], {}, max(1, (1 << 20) // K.k)
    for lo in range(0, a_planes.size, step):
        block = kernels.field_dots(g.points[a_planes[lo:lo + step]], members, add, mul) == 0
        for h, trace, key in zip(a_planes[lo:lo + step], block, np.packbits(block, axis=1)):
            if key.tobytes() not in traces:
                traces[key.tobytes()] = h, np.flatnonzero(trace)
    hs, on = map(np.array, zip(*traces.values()))
    reduced, ranks = kernels.rref(members[on], add, mul, inv, neg)
    fills = np.array([theta(r - 1, q) == inst.a for r in ranks.tolist()])
    failures = [f"K ∩ h spans dimension {r - 1} at an a-hyperplane h, not a subspace"
                f" of a={inst.a} points" for r in ranks[~fills].tolist()]
    if not fills.any():
        return failures
    rank = ranks[fills][0]
    h, dual = g.points[hs[fills]], kernels.annihilator(reduced[fills, :rank], add, mul, inv, neg)
    last = g.n - np.argmax(dual[:, :, ::-1] != 0, axis=2)
    drop = np.argmax(np.take_along_axis(h, last, axis=1) != 0, axis=1)[:, None]
    basis = np.concatenate([dual[np.arange(dual.shape[1]) != drop].reshape(len(h), -1, g.n + 1),
                            h[:, None]], axis=1)
    lines = counts[g.indices_of(kernels.span_vectors(basis, add, mul)[:, 1:])].reshape(-1, q)
    profiles = (dict(sorted(Counter(line.tolist() + [inst.a]).items())) for line in lines)
    return failures + [f"axis profile {u} != {expected}" for u in profiles if u != expected]


def span_vectors_by_rows(bases, add, mul):
    """The vectors sum_r c_r B_r of each basis of a stack (..., R, C), per
    row c of `combo_vectors(R, q)`, summed one coefficient row r at a time."""
    bases = np.asarray(bases)
    *stack, R, C = bases.shape
    combos = combo_vectors(R, len(add))
    acc = np.zeros((*stack, len(combos), C), dtype=add.dtype)
    for r in range(R):
        acc = add[acc, mul[combos[:, r, None], bases[..., r, None, :]]]
    return acc


PRIMES = [p for p in range(2, 129) if all(p % d for d in range(2, p))]
PRIME_POWERS = sorted(p ** h for p in PRIMES for h in range(1, 8) if p ** h <= 128)


def admitted_instances(n_max):
    """(theorem id, n, q, t or d, instance) for every n <= n_max, prime
    power q <= 128 and t or d that `theorem_instance` admits, t from 1 to
    n/2 and d from 2 to q-1 as the theorems' hypotheses bound them."""
    for theorem_id, th in THEOREMS.items():
        for n in range(2, n_max + 1):
            for q in PRIME_POWERS:
                for x in {"t": range(1, n // 2 + 1), "d": range(2, q)}.get(th.param, (None,)):
                    try:
                        yield theorem_id, n, q, x, theorem_instance(theorem_id, n, q, x)
                    except PgconesError:
                        continue


def _root(q):
    r = isqrt(q)
    if r * r != q:
        raise NonSquareOrder(f"q = {q} is not a square")
    return r


def c_rs(r, s, q):
    """Number of points of a cone with r-dim vertex over an s-dim Baer
    subgeometry: theta_s(sqrt q) * q^(r+1) + theta_r(q).

    Exact rational for r < -1; an integer otherwise.
    """
    if s < -1 or (r < -1 and s < 0):
        raise ValueError(f"bad cone dimensions r={r}, s={s}")
    rt = _root(q)
    base = (rt ** (s + 1) - 1) // (rt - 1)
    value = base * Fraction(q) ** (r + 1) + (Fraction(q) ** (r + 1) - 1) / (q - 1)
    return int(value) if value.denominator == 1 else value


# theorem id -> (type (a, b, c), size k, vertex dimension), each a function
# of (n, q, x) derived for that theorem alone; the type is rational where
# degenerate
CLOSED_FORMS = {
    "baer": (lambda n, q, t: (c_rs(n - 2 * t - 1, 2 * t - 2, q), c_rs(n - 2 * t - 2, 2 * t, q),
                              c_rs(n - 2 * t - 1, 2 * t - 1, q)),
             lambda n, q, t: c_rs(n - 2 * t - 1, 2 * t, q),
             lambda n, q, t: n - 2 * t - 1),
    "unital": (lambda n, q, x: (theta(n - 2, q), theta(n - 3, q) + _root(q) ** (2 * n - 3),
                                theta(n - 2, q) + _root(q) ** (2 * n - 3)),
               lambda n, q, x: theta(n - 2, q) + _root(q) ** (2 * n - 1),
               lambda n, q, x: n - 3),
    "hyperoval3": (lambda n, q, x: (1, q + 2, 2 * q + 1),
                   lambda n, q, x: q * q + 2 * q + 1,
                   lambda n, q, x: 0),
    "hyperovalN": (lambda n, q, x: (theta(n - 3, q), theta(n - 2, q) + q ** (n - 3),
                                    theta(n - 2, q) + q ** (n - 2)),
                   lambda n, q, x: theta(n - 1, q) + q ** (n - 2),
                   lambda n, q, x: n - 3),
    "maxarc": (lambda n, q, d: (theta(n - 3, q), q ** (n - 3) * (q * d + d - q) + theta(n - 4, q),
                                q ** (n - 2) * d + theta(n - 3, q)),
               lambda n, q, d: q ** (n - 2) * (q * d + d - q) + theta(n - 3, q),
               lambda n, q, d: n - 3),
}


def closed_form_screen(theorem_id, n, q, x):
    """(type parameters, k range, congruences, K-points on the pencil axis)
    of the feasible-k screen from `CLOSED_FORMS`, the top of hyperovalN's
    range its own closed form 2q^(n-1) + theta_(n-3); the record gives the
    other tops, the congruences and the axis.  HypothesisViolated where the
    type is not integral."""
    th = THEOREMS[theorem_id]
    abc_of, k_of, _ = CLOSED_FORMS[theorem_id]
    abc = abc_of(n, q, x)
    if not all(isinstance(v, int) for v in abc):
        raise HypothesisViolated(f"{theorem_id}: non-integral type at (n={n}, q={q})")
    params = TypeParameters(*abc, n, q)
    top = (2 * q ** (n - 1) + theta(n - 3, q) if theorem_id == "hyperovalN"
           else th.k_max(n, q, x, abc, k_of(n, q, x)))
    axis = params.a if th.axis_points is None else th.axis_points
    return params, range(params.c, top + 1), th.congruences(params, x), axis
