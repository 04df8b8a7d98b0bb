"""Hot numeric kernels, one numpy implementation each.

The kernels work in code space: a coordinate vector v of GF(q)^(n+1) has
the code sum_i v[i] q^i, and `Geometry.code_to_index` maps the code of
every nonzero vector, in any scaling, to the index of its projective
point.  So no kernel normalizes a vector before looking it up.

All kernels work on the raw arrays of a Geometry: field tables (add/mul/
inv), the point coordinate matrix, the powers q^i, the code table and
boolean membership masks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np

from .errors import GeometryTooLarge
from .gf import _is_prime

# The kernels have no compiled variant; run metadata reads this flag.
USE_NUMBA = False

CONE_BLOCK = 64          # most points that prune all cone_points candidates at once
CONE_CELLS = 1 << 20     # most line points held at once by cone_points


# ---------------------------------------------------------------------------
# subspace enumeration: canonical reduced-echelon representatives
# ---------------------------------------------------------------------------

def pivot_patterns(n_cols: int, rows: int):
    """Pivot-column choices for echelon bases of `rows`-row matrices.

    Each pattern yields q^(number of free slots) distinct subspaces; summed
    over patterns this is the Gaussian binomial.  Order is lexicographic,
    which fixes the global subspace enumeration order.
    """
    out = []
    for pivots in combinations(range(n_cols), rows):
        free = []
        for i, p in enumerate(pivots):
            later_pivots = set(pivots[i + 1:])
            for col in range(p + 1, n_cols):
                if col not in later_pivots:
                    free.append((i, col))
        out.append((pivots, tuple(free)))
    return out


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


def combo_vectors(dim_plus_1: int, q: int) -> np.ndarray:
    """Normalized coefficient vectors (first nonzero = 1), i.e. the points
    of PG(dim, q), in lexicographic order.  Shape (theta_dim, dim_plus_1)."""
    vecs = np.indices((q,) * dim_plus_1, dtype=np.int16).reshape(dim_plus_1, -1).T
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    return vecs[lead == 1]  # the rows of np.indices are already in lexicographic order


def span_point_indices(basis, combos, add, mul, pows, code_to_index):
    """Sorted point indices of the span of `basis` (rows linearly independent)."""
    acc = mul[combos[:, 0][:, None], basis[0][None, :]]
    for r in range(1, basis.shape[0]):
        acc = add[acc, mul[combos[:, r][:, None], basis[r][None, :]]]
    return np.sort(code_to_index[acc.astype(np.int64) @ pows])


# ---------------------------------------------------------------------------
# intersection counts of a point set against all d-subspaces
# ---------------------------------------------------------------------------

def _scan_pattern(pivots, free, combos, add, mul, pows, member_code, q,
                  counts, lone_code):
    """Counts and last member code for the q^nf subspaces of one pattern.

    For a coefficient vector c the point sum_r c_r B_r of the echelon basis
    B has c_r in pivot column p_r and, in a free column, the field sum of
    c_r times the free digits of that column.  Its code is therefore
    sum_r c_r q^(p_r) plus one small table per free column, broadcast over
    the nf digit axes; the point is already normalized because B is in
    reduced echelon form.
    """
    nf = len(free)
    slots = {}  # free column -> [(digits along axis j, basis row)]
    for j, (r, col) in enumerate(free):
        axis = np.arange(q, dtype=np.int16).reshape((1,) * j + (q,) + (1,) * (nf - j - 1))
        slots.setdefault(col, []).append((axis, r))
    codes = np.empty(counts.shape[0], dtype=np.int64)
    grid_codes = codes.reshape((q,) * nf)
    for c in combos:
        codes.fill(sum(int(c[r]) * int(pows[p]) for r, p in enumerate(pivots)))
        for col, axes in slots.items():
            value = np.zeros((1,) * nf, dtype=np.int16)
            for digits, r in axes:
                if c[r]:
                    value = add[value, mul[c[r], digits]]
            if value.any():
                grid_codes += value.astype(np.int64) * pows[col]
        hit = member_code[codes]
        counts += hit
        np.copyto(lone_code, codes, where=hit)


def subspace_intersection_scan(n_cols, d, q, add, mul, pows,
                               code_to_index, member, workers: int = 1):
    """Intersection size of `member` with every d-subspace, plus the lone
    member point where that size is 1.

    Returns (counts, lone) int64/int64 arrays over the canonical subspace
    order.  The worker count only chunks the pattern loop; results are
    byte-identical for any value.
    """
    rows = d + 1
    patterns = pivot_patterns(n_cols, rows)
    combos = combo_vectors(rows, q)
    sizes = [q ** len(free) for _, free in patterns]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    counts = np.zeros(offsets[-1], dtype=np.int64)
    lone_code = np.zeros(offsets[-1], dtype=np.int64)
    member_code = np.asarray(member)[code_to_index]  # only the zero code, never built, is -1

    def run(i):
        pivots, free = patterns[i]
        lo, hi = offsets[i], offsets[i + 1]
        _scan_pattern(pivots, free, combos, add, mul, pows, member_code, q,
                      counts[lo:hi], lone_code[lo:hi])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(len(patterns))))
    lone = np.where(counts == 1, code_to_index[lone_code], -1)
    return counts, lone


# ---------------------------------------------------------------------------
# hyperplane intersection counts from one transform over GF(q)^(n+1)
# ---------------------------------------------------------------------------

def hyperplane_intersection_counts(hyperplanes, member, mul, p, pows, code_to_index,
                                   lone=False):
    """Per-hyperplane |H ∩ member|, and with `lone` the lone member where
    the count is 1 (-1 elsewhere; None without `lone`).

    Row h of `hyperplanes` holds the coordinates a of hyperplane h.  Let
    c(y) be the constant coefficient of y, an F_p-linear map onto F_p.
    Over the q-1 multiples v of a point, omega^c(a.v) sums to q-1 if the
    point is on h and to -1 otherwise.  So for f, 1 on the nonzero vectors
    of the k members, the transform f^(a) = sum_v f(v) omega^c(a.v) is
    q N(h) - k; it takes one q-point transform per coordinate.  The member
    indices sum over h the same way, which names a lone member.  Modulo a
    prime ell = 1 (mod p) above the number of points, every result is exact.
    """
    q, member = len(mul), np.asarray(member)
    ell = member.size + 1 + (-member.size) % p  # = 1 (mod p), above every result
    while not (_is_prime(ell) and pow(2, (ell - 1) // p, ell) != 1):  # omega of order p
        ell += p
    if q * ell * ell >= 1 << 63:  # a stage sums q products below ell^2 in int64
        raise GeometryTooLarge(f"{member.size} points overflow the transform modulus {ell}")
    omega, inv_q = pow(2, (ell - 1) // p, ell), pow(q, -1, ell)
    w = np.array([pow(omega, s, ell) for s in range(p)], dtype=np.int64)[mul % p]
    at = hyperplanes.astype(np.int64) @ pows
    in_k = member[code_to_index]
    in_k[0] = False  # the zero code, mapped to -1

    def per_hyperplane(values, total):
        """Sum over each hyperplane of a point function, `values` on every
        vector; each stage transforms the lowest coordinate, rotated to the top."""
        for _ in pows:
            values = (values.reshape(-1, q) @ w % ell).T.ravel()
        return (total % ell + values[at]) * inv_q % ell

    counts = per_hyperplane(in_k.astype(np.int64), int(member.sum()))
    if not lone:
        return counts, None
    indices = per_hyperplane(np.where(in_k, code_to_index, 0), int(np.flatnonzero(member).sum()))
    return counts, np.where(counts == 1, indices, -1)


# ---------------------------------------------------------------------------
# cone-point detection: P such that every line P-Q, Q in K, stays in K
# ---------------------------------------------------------------------------

def cone_points(member, points, add, mul, inv, pows, code_to_index):
    """Sorted indices of the member points that see every joining line
    inside the set.

    These cone points form a subspace: if P1 and P2 are cone points, the
    lines from P2 to the points of P1Q, Q in K, cover the plane P1P2Q, so
    every point of P1P2 is one too.  A point P of K is not a cone point
    exactly when some line PX is mixed: its points other than P, that is X
    and the P + tX, t != 0, looked up by code, lie partly in K and partly
    outside it.  X may be in K (a witness Q) or off it (a hole).  For
    X = P the points are P or the zero vector, which counts as inside K.

    The lowest remaining candidate is tested against the unused points of
    K, in growing slices, up to the first slice that holds a witness.  A
    candidate without one is a cone point; the span of the cone points
    found so far is then taken as found, without a test, and leaves the
    candidates and the unused points, since a cone point never makes a
    line mixed.  Then all candidates are pruned at once: after a failure,
    against the holes on the witness lines and the witnesses, since a hole
    such as a point missing from a cone lies on the mixed lines of many
    candidates; after a pass, against the next unused points.  Each prune
    takes 1, 2, 4, ... up to CONE_BLOCK points, and the witnesses among
    them are used.  Only dim V + 1 candidates take a full pass over K.
    """
    q, n_cols = inv.shape[0], points.shape[1]
    member = np.asarray(member)
    in_k = member[code_to_index]
    in_k[0] = True  # the zero vector (1+t)P, t = -1; the only code mapped to -1
    # add_code[col, a, b]: code of a + b placed in column col
    add_code = add.astype(np.int64)[None] * pows[:, None, None]
    ts = np.arange(1, q, dtype=np.int16)
    full = max(1, CONE_CELLS // (q - 1))  # largest slice of a candidate's test

    def mixed(cand, rs):
        """mixed[i, j]: the points of the line cand[i] rs[j] other than
        cand[i] lie partly in K and partly outside it."""
        tq = mul[ts[:, None, None], points[rs][None]]
        chunk = max(1, CONE_CELLS // max(1, tq[..., 0].size))
        out = np.empty((cand.size, rs.size), dtype=bool)
        for lo in range(0, cand.size, chunk):
            pc = points[cand[lo:lo + chunk]][:, None, None, :]
            codes = add_code[0][pc[..., 0], tq[..., 0]]
            for col in range(1, n_cols):
                codes += add_code[col][pc[..., col], tq[..., col]]
            out[lo:lo + chunk] = (in_k[codes] != member[rs]).any(axis=1)
        return out

    def witnesses(p, qs):
        """The witnesses against p in the first slice of qs holding any,
        after the points off K on their lines through p."""
        lo, step = 0, CONE_BLOCK
        while lo < qs.size:
            part = qs[lo:lo + step]
            bad = part[mixed(p, part)[0]]
            if bad.size:
                line = code_to_index[add[points[p], mul[ts[:, None, None], points[bad][None]]]
                                     .astype(np.int64) @ pows]
                return np.concatenate([np.unique(line[~member[line]]), bad])
            lo, step = lo + step, min(2 * step, full)
        return qs[:0]

    cand = unused = np.flatnonzero(member)
    found, vertex = [], cand[:0]
    block = 1
    while cand.size:
        head, cand = cand[:1], cand[1:]
        tested = witnesses(head, unused)
        if tested.size == 0:
            found.append(head[0])
            vertex = span_point_indices(points[found], combo_vectors(len(found), q),
                                        add, mul, pows, code_to_index)
            cand = cand[~np.isin(cand, vertex)]
            unused = tested = unused[~np.isin(unused, vertex)]
        tested = tested[:block]
        cand = cand[~mixed(cand, tested).any(axis=1)]
        unused = unused[~np.isin(unused, tested)]
        block = min(2 * block, CONE_BLOCK)
    return vertex
