"""Hot numeric kernels, one numpy implementation each.

The kernels work in code space: a coordinate vector v of GF(q)^(n+1) has
the code sum_i v[i] q^i, and `Geometry.code_to_index` maps the code of
every nonzero vector, in any scaling, to the index of its projective
point.  So no kernel normalizes a vector before looking it up.

All kernels work on the raw arrays of a Geometry: field tables (add/mul/
inv), the point coordinate matrix, the powers q^i, the code table and
membership masks, which the scan reads as q-ary tensors indexed by code;
`cone_points` also takes the hyperplane counts and returns their annihilator.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np

from .errors import GeometryTooLarge
from .gf import _is_prime

# The kernels have no compiled variant; run metadata reads this flag.
USE_NUMBA = False


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

SCAN_BLOCK = 1 << 20  # tensor entries gathered by the last take of a block


def _scan_pattern(pivots, free, combos, add, mul, pows, tensors, q):
    """Per member tensor, its sums over the q^nf subspaces of one pattern.

    The point sum_r c_r B_r of the echelon basis B has c_r in pivot column
    p_r, 0 before p_0 and, in a free column, the field sum of c_r times its
    digits.  Fixing the first two leaves a tensor over the free columns and
    the combos c; from the last free column to the first, one `take` along
    its axis, merged with the combo axis, puts the column's digit axes in
    its place.  The sum over c, in the least dtype holding theta_d, goes
    from column-grouped to (row, col) slot order by one transpose.
    """
    cols = sorted({col for _, col in free})
    rows = [[r for r, f in free if f == col] for col in cols]  # ascending, as in `free`
    codes = np.indices((q,) * len(cols)).reshape(len(cols), q ** len(cols)).T @ pows[cols]
    block = max(1, SCAN_BLOCK // q ** len(free))
    dtypes = [np.result_type(t.dtype, np.min_scalar_type(len(combos))) for t in tensors]
    sums = [0] * len(tensors)
    for lo in range(0, len(combos), block):
        c = combos[lo:lo + block]
        b = len(c)
        at = codes[:, None] + c.astype(np.int64) @ pows[list(pivots)]
        takes = []
        for rs in rows:  # the column at every combo and digits, one row's digits at a time
            value = np.zeros((b, 1), dtype=add.dtype)
            for r in rs:  # flat addition table at s q + t < q^2 <= 2^14, as in `_add_outer`
                value = add.ravel().take(value[:, :, None] * q + mul[c[:, r]][:, None]).reshape(b, -1)
            takes.append((value * np.intp(b) + np.arange(b)[:, None]).ravel())
        for i, tensor in enumerate(tensors):
            t = tensor[at]  # the free columns, then the combo
            for k in reversed(range(len(cols))):
                t = t.reshape(q ** k, q * b, -1).take(takes[k], axis=1)
            sums[i] = sums[i] + t.reshape(b, -1).sum(axis=0, dtype=dtypes[i])
    perm = np.argsort(sorted(range(len(free)), key=lambda j: free[j][::-1]))
    return [s.reshape((q,) * len(free)).transpose(perm).ravel() for s in sums]


def subspace_intersection_scan(n_cols, d, q, add, mul, pows,
                               code_to_index, member, workers: int = 1, lone=False):
    """Intersection size of `member` with every d-subspace, and with `lone`
    the lone member point where that size is 1 (-1 elsewhere; None without
    `lone`), as int64 arrays over the canonical subspace order.

    The lone point is the sum of the member indices, 0 off the set, through
    the same takes.  The worker count only chunks the pattern loop; results
    are byte-identical for any value.
    """
    rows = d + 1
    patterns = pivot_patterns(n_cols, rows)
    combos = combo_vectors(rows, q)
    sizes = [q ** len(free) for _, free in patterns]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    member_code = np.asarray(member)[code_to_index]  # only the zero code, never built, is -1
    tensors = [member_code.astype(np.uint8)]
    if lone:
        tensors.append(np.where(member_code, code_to_index, 0))
    out = [np.zeros(offsets[-1], dtype=np.int64) for _ in tensors]

    def run(i):
        sums = _scan_pattern(*patterns[i], combos, add, mul, pows, tensors, q)
        for o, s in zip(out, sums):
            o[offsets[i]:offsets[i + 1]] = s

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(len(patterns))))
    return out[0], (np.where(out[0] == 1, out[1], -1) if lone else None)


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
    q N(h) - k, one q-point transform per coordinate, exact modulo a prime
    ell = 1 (mod p) above the number of points.  Only if some count is 1 do
    the member indices, summed over h the same way, name the lone members.
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

    def per_hyperplane(values, total, bound):
        """Sum over each hyperplane of a point function, `values` < `bound` on
        every vector; each stage transforms the lowest coordinate, rotated to
        the top.  Values are reduced mod ell only where int64 could overflow."""
        for _ in pows:  # a stage sums q products below (ell-1) bound, < 2^63 after a reduction
            if q * (ell - 1) * bound >= 1 << 63:
                values, bound = values % ell, ell
            values, bound = (values.reshape(-1, q) @ w).T.ravel(), q * (ell - 1) * bound
        return (total % ell + values[at] % ell) * inv_q % ell

    counts = per_hyperplane(in_k.astype(np.int64), int(member.sum()), 2)
    if not lone or not (counts == 1).any():
        return counts, (np.full_like(counts, -1) if lone else None)
    indices = per_hyperplane(np.where(in_k, code_to_index, 0),
                             int(np.flatnonzero(member).sum()), member.size)
    return counts, np.where(counts == 1, indices, -1)


# ---------------------------------------------------------------------------
# dot products, row reduction, annihilators and the cone points
# ---------------------------------------------------------------------------

def _add_outer(acc, a, b, add, mul):
    """acc + a_i b_j over the field, acc of shape (len(a), len(b)); the sum
    s + t is the flat addition table at s q + t < q^2 <= 2^14, in int16."""
    return add.ravel().take(acc * len(add) + mul[a][:, b])


def field_dots(rows, vectors, add, mul):
    """The field dot products of every row with every vector, shape
    (len(rows), len(vectors)), one outer product per coordinate."""
    acc = np.zeros((len(rows), len(vectors)), dtype=add.dtype)
    for r_c, x_c in zip(np.asarray(rows).T, np.asarray(vectors).T):
        acc = _add_outer(acc, r_c, x_c, add, mul)
    return acc


def rref(rows, add, mul, inv, neg):
    """Reduced row echelon form of a matrix over the field tables, nonzero
    rows only: each pivot row is scaled by the inverse of its pivot, then
    one outer product clears the pivot column in every other row, over the
    columns from the pivot on, as the pivot row is 0 before it."""
    m = np.array(rows, dtype=np.int16)
    rank = 0
    for col in range(m.shape[1]):
        if rank == len(m):
            break
        nonzero = np.flatnonzero(m[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = rank + nonzero[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = mul[inv[m[rank, col]], m[rank]]
        factor = neg[m[:, col]]
        factor[rank] = 0
        m[:, col:] = _add_outer(m[:, col:], factor, m[rank, col:], add, mul)
        rank += 1
    return m[:rank]


def annihilator(rows, add, mul, inv, neg):
    """A basis, not echelonized, of the a with a . x = 0 for every row x: per
    free column f of the reduced rows, 1 there and minus that column at the
    pivots, 0 at those after f as a reduced row is 0 before its pivot.  So f
    is the row's last nonzero column, and each a is sum_f a[f] times the row."""
    basis = rref(rows, add, mul, inv, neg)
    pivots = np.argmax(basis != 0, axis=1)
    free = np.setdiff1d(np.arange(basis.shape[1]), pivots)
    dual = np.zeros((len(free), basis.shape[1]), dtype=np.int16)
    dual[np.arange(len(free)), free] = 1
    dual[:, pivots] = neg[basis[:, free]].T
    return dual


def cone_points(member, counts, points, add, mul, inv):
    """A basis of the cone points, the members whose every joining line
    stays in the set, read off its hyperplane counts N(h).

    Let S be the nonzero vectors of the k members and 0.  For any point P,
    S + tP = S for every t exactly when the transform of S (as in
    `hyperplane_intersection_counts`) vanishes at every a with a.P != 0; at
    hyperplane h it is q N(h) - k + 1.  Then 0 + tP is in S, so P is a
    member, and the line PQ, P and the Q + tP, stays in the set.  So the
    cone points are the annihilator of the hyperplanes with q N(h) != k - 1.
    """
    neg = np.argmax(add == 0, axis=1)
    off = points[len(mul) * counts != np.asarray(member).sum() - 1]
    return annihilator(off, add, mul, inv, neg)
