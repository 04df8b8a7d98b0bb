"""Brute-force listings that only the tests use as oracles: the points and
the code table of PG(n,q) from a filter of all q^(n+1) vectors, the points
of a hyperplane from a dot product with every point, every d-subspace from
the echelon bases of its pivot pattern, in the canonical order of the
subspace scan (patterns in lexicographic order, the free slots of each by
column, then row, as `pivot_patterns` lists them), the membership mask of
a subspace, and a set of PG(2,q) copied into the first coordinates of
PG(n,q).
"""

import numpy as np

from pgcones.kernels import pivot_patterns
from pgcones.objects import pointset_from_indices


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
