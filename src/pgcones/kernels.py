"""Hot numeric kernels, one numpy implementation each, on the raw arrays
of a Geometry: field tables (add/mul/inv/neg), the point coordinate matrix
and membership masks.  `span_vectors` lists the vectors of a stack of
spans, for `Geometry.indices_of` to name.  The scan alone works in code
space: v in GF(q)^(n+1) has the code sum_i v[i] q^i, the `code_table`
that a geometry's first scan plan builds, and its later ones share, maps
every nonzero code, in any scaling, to its point, and the scan takes a
mask, as a q-ary tensor by code, through d + 1 value tables, one per
pivot prefix, a pattern at a time (free slots by column, then row) in
blocks of combos, one pool task per pattern above one
worker (the pool is imported only then), each writing its sums in place,
with no working array over BLOCK_BYTES.  Only the scan sums member
indices, for lone points only where a subspace is met once, a byte at a
time in uint8, and returns them in int32.  The hyperplane count takes a
0/1 mask, reads no code table, builds no array above q^n, runs its
products in float64 through BLAS, exact below 2^53, and takes residues by
floor division.  Each count runs a plan of all it needs besides the point
set, a `ScanPlan` or a `TransformPlan`, which a Geometry builds the first
time a query needs it and keeps, one per d; no kernel keeps a plan itself.
`cone_points` returns the annihilator of the hyperplanes off the cone law,
reducing only a spanning subset of them, in at most n+1 rounds.
`rref` reduces a stack of matrices in one column loop; `annihilator` is
`rref` then `dual_of_reduced`, which a caller holding reduced bases calls
alone.
"""

from __future__ import annotations

from bisect import bisect
from functools import cache
from itertools import combinations, repeat
from math import prod

import numpy as np

from .errors import GeometryTooLarge
from .gf import _is_prime

# The kernels have no compiled variant; run metadata reads this flag.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# subspace enumeration: canonical reduced-echelon representatives
# ---------------------------------------------------------------------------

@cache
def pivot_patterns(n_cols: int, rows: int):
    """Pivot-column choices for echelon bases of `rows`-row matrices.

    Each pattern yields q^(number of free slots) distinct subspaces; summed
    over patterns this is the Gaussian binomial.  The patterns run in
    lexicographic order, each one's free slots (row, col) by column, then
    row, which fixes the global subspace enumeration order.
    """
    return tuple((pivots, tuple((i, col) for col in range(n_cols) if col not in pivots
                                for i, p in enumerate(pivots) if p < col))
                 for pivots in combinations(range(n_cols), rows))


@cache
def pattern_columns(n_cols: int, rows: int):
    """Per pattern of `pivot_patterns(n_cols, rows)`: its columns, the
    pivots, the p columns before the first pivot p, then the n_cols - rows
    - p free ones; and per free column the pivots before it."""
    columns = tuple(pivots + tuple(col for col in range(n_cols) if col not in pivots)
                    for pivots, _ in pivot_patterns(n_cols, rows))
    return columns, tuple(tuple(bisect(cols[:rows], col) for col in cols[rows + cols[0]:])
                          for cols in columns)


def combo_vectors(dim_plus_1: int, q: int) -> np.ndarray:
    """Normalized coefficient vectors (first nonzero = 1), i.e. the points
    of PG(dim, q), in lexicographic order.  Shape (theta_dim, dim_plus_1).
    Per i from dim down to 0, a block of the vectors led by a 1 at i: tail
    digit j of GF(q)^m, m = dim - i, runs q^j times through GF(q), each value
    held for q^(m-1-j) rows."""
    out = np.zeros(((q ** dim_plus_1 - 1) // (q - 1), dim_plus_1), dtype=np.int16)
    for m in range(dim_plus_1):  # the block of i = dim - m starts at theta_(m-1)
        block, i = out[(q ** m - 1) // (q - 1):(q ** (m + 1) - 1) // (q - 1)], dim_plus_1 - 1 - m
        block[:, i] = 1
        for j in range(m):
            block[:, i + 1 + j].reshape(q ** j, q, -1)[...] = np.arange(q)[:, None]
    return out


def span_vectors(bases, add, mul):
    """The vectors sum_r c_r B_r of each basis B of a stack (..., R, C), one
    per row c of `combo_vectors(R, q)` in its order: shape (..., theta_(R-1),
    C).  Those led by c_i = 1, the block at theta_(m-1), m = R-1-i, are B_i
    plus W_m, the combinations of the m rows after it in the lex order of
    their coefficients: W_0 is 0, and W_(m+1) is t B_(R-1-m) + W_m for t in
    GF(q) in turn.  So each vector costs one sum through the flat addition
    table, as in `field_dots`, not one per row."""
    bases = np.asarray(bases)
    *stack, R, C = bases.shape
    q, flat_add = len(add), add.ravel()
    out = np.empty((*stack, (q ** R - 1) // (q - 1), C), dtype=add.dtype)
    w = np.zeros((*stack, 1, C), dtype=add.dtype)  # W_m
    for m in range(R):
        row = bases[..., R - 1 - m, None, :]
        lo = (q ** m - 1) // (q - 1)  # theta_(m-1)
        out[..., lo:lo + q ** m, :] = flat_add.take(row * q + w)
        if m < R - 1:
            w = flat_add.take(mul[np.arange(q)[:, None, None], row[..., None, :, :]] * q
                              + w[..., None, :, :]).reshape(*stack, q ** (m + 1), C)
    return out


# ---------------------------------------------------------------------------
# intersection counts of a point set against all d-subspaces
# ---------------------------------------------------------------------------

BLOCK_BYTES = 1 << 18  # bytes of any working array of a scan block or a tally chunk


def code_table(n, q, mul, inv):
    """The point of every vector v of GF(q)^(n+1) by its code sum_i v[i] q^i,
    in int32 as theta_n < 2^31, -1 at 0, from PG(0) up.  In PG(k) the codes
    with v[0] = 0 are q times those of PG(k-1), naming the same points, and
    led by t = v[0], then y, v is the point q P + y_k / t + 1, P that of
    (t, y_1, ..., y_(k-1)) in PG(k-1)."""
    step = np.zeros((q, q), dtype=np.int32)
    step[:, 1:] = mul[:, inv[1:]] + 1  # [y, t] = y / t + 1
    table = np.zeros(q, dtype=np.int32)  # PG(0): point 0, -1 at the zero code
    table[0] = -1
    for _ in range(n):
        below, table = table, np.empty(q * len(table), dtype=np.int32)
        np.add((below * q).reshape(-1, q), step[:, None], out=table.reshape(q, -1, q))
        table[::q] = below
    return table


class ScanPlan:
    """What a scan of the d-subspaces of PG(n_cols - 1, q) needs besides
    the point set, built once.  Per pivot pattern: `index`, the code of its
    pivot and leading values at every value of its free columns and every
    combo c, and its blocks of combos (lo, hi, takes), one take per free
    column, each block's last take within BLOCK_BYTES of counts, the
    widest tensor a scan sums.  The rows free in a column are those of the
    pivots before it, so a value table per prefix, V_m[c, x] = sum_(r<m)
    c_r x_r, in intp, gives the takes of every pattern (`_takes`).  The
    counts come in `dtype`, the least holding theta_d, and pattern i fills
    `offsets[i]` to `offsets[i + 1]` of the canonical order.  The plan
    holds `code_to_index`, the geometry's `code_table`, built from `mul`
    and `inv` unless given, through which the scan reads a mask by code."""

    def __init__(self, n_cols, d, q, add, mul, inv, code_to_index=None):
        patterns, combos = pivot_patterns(n_cols, d + 1), combo_vectors(d + 1, q)
        total, wide = len(combos), n_cols - d - 1  # combos; free columns of a first pivot 0
        sizes = [q ** len(free) for _, free in patterns]
        self.shape = (n_cols, d, q)
        self.code_to_index = (code_table(n_cols - 1, q, mul, inv) if code_to_index is None
                              else code_to_index)
        self.dtype, self.offsets = np.min_scalar_type(total), np.cumsum([0] + sizes)
        entries = BLOCK_BYTES // self.dtype.itemsize
        flat_add, values = add.ravel().astype(np.intp), [np.zeros((total, 1), dtype=np.intp)]
        for terms in mul[combos.T][:, :, None]:  # V_(r+1)[c, (x, y)] = V_r[c, x] + c_r y
            values.append(flat_add.take(values[-1][:, :, None] * q + terms).reshape(total, -1))
        columns, rows_before = pattern_columns(n_cols, d + 1)
        weights = (q ** np.arange(n_cols, dtype=np.int64))[np.array(columns)]  # q^col
        at = weights[:, :d + 1] @ combos.T.astype(np.int64)  # pivot and leading values' codes
        digits = np.indices((q,) * wide, dtype=np.int64).reshape(wide, -1).T  # lex, first slowest
        free = weights[:, d + 1:] @ digits.T  # the first q^k: the codes of k free columns
        keys = [(rows, min(total, max(1, entries // size)))  # (rows, step) per pattern
                for rows, size in zip(rows_before, sizes)]
        needed = {(m, step) for rows, step in keys for m in rows}
        takes = {(m, step): _takes(values[m], step, (m, 1) in needed) for m, step in needed}
        blocks = {key: _blocks(total, *key, takes) for key in set(keys)}
        self.patterns = [(free[i, :q ** (wide - cols[0]), None] + at[i], blocks[key])
                         for i, (cols, key) in enumerate(zip(columns, keys))]


def _takes(value, step, rows_held):
    """The take of each block of `step` combos from the value table V_m:
    V_m[lo:hi] b + c - lo at combo c, b = hi - lo.  A one-combo block's is
    its row, a view if the plan holds V_m's rows anyway (`rows_held`); the
    others are the rows of one array, shared by every pattern."""
    total, last = len(value), len(value) % step
    if step == 1:
        return list(value)
    ramp = np.arange(step)[:, None]
    t = value[:total - last].reshape(-1, step, value.shape[1]) * step
    t += ramp
    takes = list(t.reshape(len(t), -1))
    if last == 1 and rows_held:
        takes.append(value[-1])
    elif last:
        takes.append((value[-last:] * last + ramp[:last]).ravel())
    return takes


def _blocks(total, rows, step, takes):
    """The blocks (lo, hi, takes) of `step` combos of free columns with
    `rows` pivots before them, from the `_takes` of each (m, step)."""
    los = range(0, total, step)
    return list(zip(los, [*los[1:], total],
                    zip(*[takes[m, step] for m in rows]) if rows else repeat(())))


def _scan_pattern(out, index, blocks, tensor, q):
    """Write to `out`, in its dtype, the sums of a member tensor over the
    q^nf subspaces of one pattern of a `ScanPlan`, by free column: the first
    block's sum, then each later block's added in place.  The point sum_r
    c_r B_r is c_r at pivot p_r, 0 before p_0 and, at free column k after m
    pivots, sum_(r<m) c_r times its digits: `index[:, c]` codes the first
    two, then per free column, last first, one `take` along its axis merged
    with the combos' puts its m digit axes in.  A block holds at most
    BLOCK_BYTES at its last take; a pattern over that, one combo a block,
    runs in `_one_combo` under the same bound."""
    if blocks[0][1] == 1 and blocks[0][2]:  # one combo a block, with free columns
        return _one_combo(out, index, blocks, tensor, q)
    for lo, hi, takes in blocks:
        t = tensor[index[:, lo:hi]]  # free columns, combo
        for k in reversed(range(len(takes))):  # the column at every combo and digits
            t = t.reshape(q ** k, q * (hi - lo), -1).take(takes[k], axis=1)
        t = t.reshape(hi - lo, -1)
        if lo == 0:
            np.sum(t, axis=0, dtype=out.dtype, out=out)
        else:
            np.add(out, t.sum(axis=0, dtype=out.dtype), out=out)


def _one_combo(out, index, blocks, tensor, q):
    """`_scan_pattern` of a pattern whose blocks hold one combo each, no
    working array over BLOCK_BYTES.  At the digits D_k of free column k the
    combo's point has the value takes[k][D_k] there, so its term is the
    tensor at `index[:, c]` taken along each column's axis.
    Row column r is the first whose q values, by the digits of the columns
    after it, fit the bound: those are gathered and taken once per value
    tuple of the columns before r, then the rows of `takes[r]` are taken
    from them straight into each block of `out` whose digits before r give
    that tuple, as many rows at a time as fit."""
    entries, sizes = BLOCK_BYTES // tensor.itemsize, [len(take) for take in blocks[0][2]]
    r = 0
    while r < len(sizes) - 1 and q * prod(sizes[r + 1:]) > entries:
        r += 1
    tail = prod(sizes[r + 1:])
    step, rows = max(1, entries // tail), out.reshape(-1, sizes[r], tail)
    for lo, _, takes in blocks:
        before = np.zeros(1, dtype=np.intp)  # per block of `out`, the values before r
        for k in range(r):
            before = np.add.outer(before * q, takes[k]).ravel()
        at = {}
        for i, x in enumerate(before.tolist()):
            at.setdefault(x, []).append(i)
        codes = index[:, lo].reshape(q ** r, -1)
        for x, where in at.items():
            t = tensor[codes[x]]  # the free columns from r on
            for k in reversed(range(r + 1, len(sizes))):
                t = t.reshape(q ** (k - r), q, -1).take(takes[k], axis=1)
            t = t.reshape(q, tail)
            for i in where:
                for a in range(0, sizes[r], step):
                    if lo == 0:  # "clip", unlike "raise", writes to `out` unbuffered
                        t.take(takes[r][a:a + step], axis=0, out=rows[i, a:a + step], mode="clip")
                    else:
                        rows[i, a:a + step] += t.take(takes[r][a:a + step], axis=0)


def subspace_intersection_scan(n_cols, d, q, plan, member, workers: int = 1, lone=False):
    """Intersection size of `member` with every d-subspace, in the plan's
    dtype, and with `lone` the lone member point where that size is 1 as
    int32 (-1 elsewhere; None without `lone`), over the canonical subspace
    order.  `plan` is the `ScanPlan` of (n_cols, d, q), checked.

    Patterns run inline at one worker, else one pool task each; the results
    are the same.  Only if some size is 1 is the lone point summed, on the
    patterns holding a 1, a byte of the member indices a pass: byte b of
    every index, 0 off the set, summed in uint8, then copied to byte b of
    the int32 sums (little-endian).  A byte sum wraps mod 256, but where a
    subspace holds one member it is that byte of the member's index, and
    only there is it read; the sums are then set to -1 in place off the
    counts of 1.  Each pattern writes its own slice, whose canonical order
    is the order its takes run its free slots in.
    """
    if plan.shape != (n_cols, d, q):
        raise ValueError(f"a scan plan of (n_cols, d, q) = {plan.shape}, not {(n_cols, d, q)}")
    offsets, member = plan.offsets, np.asarray(member, dtype=bool)
    # a take of the mask's bytes, a third of a bool gather's time; the zero code, -1, is unread
    member_code = member.view(np.uint8).take(plan.code_to_index)

    def scan(tensor, which, out):  # `out` is written only at the patterns of `which`
        def run(i):  # each pattern writes its own slice
            _scan_pattern(out[offsets[i]:offsets[i + 1]], *plan.patterns[i], tensor, q)

        if workers == 1:
            list(map(run, which))
        else:  # imported here, so that a one-worker run never loads the pool
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run, which))
        return out

    counts = scan(member_code.astype(plan.dtype, copy=False), range(len(plan.patterns)),
                  np.empty(offsets[-1], dtype=plan.dtype))
    if not lone or not (counts == 1).any():
        return counts, (np.full(len(counts), -1, dtype=np.int32) if lone else None)
    which = np.flatnonzero(np.logical_or.reduceat(counts == 1, offsets[:-1]))
    index_bytes = plan.code_to_index.astype("<i4", copy=False).view(np.uint8).reshape(-1, 4)
    sums, part = np.zeros(len(counts), dtype="<i4"), np.empty(len(counts), dtype=np.uint8)
    for b in range(((len(member) - 1).bit_length() + 7) // 8):  # the bytes of an index
        sums.view(np.uint8)[b::4] = scan(index_bytes[:, b] * member_code, which, part)
    sums[np.not_equal(counts, 1, out=part.view(bool))] = -1  # in place, the mask in `part`
    return counts, sums


# ---------------------------------------------------------------------------
# hyperplane intersection counts, one transform per level of PG(n,q)
# ---------------------------------------------------------------------------

# OpenBLAS runs a product of at most 65 536 x 4 multiply-adds on the calling thread
BLAS_ONE_THREAD = 1 << 18


def _product(a, b):
    """a @ b in float64 through BLAS, in column blocks of at most
    BLAS_ONE_THREAD multiply-adds: on 2 vCPUs, a product handed to a second
    BLAS thread took up to 90 times as long (7.8 ms against 85 us in blocks
    for a 9 x 9 by 9 x 6561 one)."""
    step = max(1, BLAS_ONE_THREAD // a.size)
    if b.shape[1] <= step:
        return a @ b
    out = np.empty((len(a), b.shape[1]))
    for lo in range(0, b.shape[1], step):
        np.matmul(a, b[:, lo:lo + step], out=out[:, lo:lo + step])
    return out


class TransformPlan:
    """What a hyperplane count over a point matrix of `shape` (points, n+1)
    needs besides the point set, built once: the least prime `ell` = 1
    (mod p) above the points in which 2 has an omega = 2^((ell-1)/p) of
    order p, `w`[x, y] = omega^c(x y) and the `scale` omega^c(s / mu), in
    float64 for BLAS, the codes of s b per level and q^-1 mod ell.  Each
    power is its centered representative, -1 at p = 2 and at most
    (ell-1)/2 in size at odd p, and `w_max` is the largest size.  A stage
    on residues, at most ell/2 + 2 in size, sums q products below ell^2 / 2,
    exact in float64 below 2^53 - ell, so q ell^2 >= 2^53 is refused here;
    no geometry `pg.charge` admits reaches it."""

    def __init__(self, shape, mul, inv, p):
        (points, n_cols), q = shape, len(mul)
        ell = points + 1 + (-points) % p  # = 1 (mod p), above every result
        while not (_is_prime(ell) and pow(2, (ell - 1) // p, ell) != 1):
            ell += p
        if q * ell * ell >= 1 << 53:
            raise GeometryTooLarge(f"{points} points overflow the transform modulus {ell}")
        omega = pow(2, (ell - 1) // p, ell)
        self.shape, self.q, self.ell, self.q_inv = shape, q, ell, pow(q, -1, ell)
        powers = [x if 2 * x < ell else x - ell for x in (pow(omega, j, ell) for j in range(p))]
        self.w, self.w_max = np.array(powers, dtype=np.float64)[mul % p], max(map(abs, powers))
        self.scale, s = self.w[inv][:, 1:], np.arange(1, q)[:, None]  # 1 at mu = 0
        self.codes, sy = [s], np.zeros((q - 1, 1), dtype=np.int64)  # per level, the codes of s b
        for m in range(1, n_cols - 1):  # s (0, b) = (0, s b), s (1, y) = (s, s y)
            sy = (sy[:, :, None] * q + mul[1:, None, :]).reshape(q - 1, -1)  # y in GF(q)^m
            self.codes.append(np.concatenate([self.codes[-1], s * q ** m + sy], axis=1))


def hyperplane_intersection_counts(points, member, plan):
    """Per-hyperplane |H ∩ member| of a 0/1 mask, as int64.  `plan` is the
    `TransformPlan` of the shape of `points`, checked.

    For f, 1 on the nonzero vectors of the k members, and c(y) the constant
    coefficient of y, f^(a) = sum_v f(v) omega^c(a.v) is q N(h) - k at the
    coordinates a of point h, exact modulo a prime ell = 1 (mod p) above the
    number of points.  The rows are PG(m) = PG(m-1) ∪ AG(m), m = 1..n, and
    by scaling f^(a0, a') = H(a') + sum_(s != 0) omega^c(a0 s) G(s a'), H
    being f^ on PG(m-1), G the m-stage transform of y -> f(1, y) on GF(q)^m.
    Each level writes H and its AG(m) in place over the values in `out`.
    Point h has the coordinates of hyperplane h, so on a mask of
    hyperplanes the count at h is the number of them through point h.

    The values are integers in float64, each class mod ell held by some
    representative, with a Python-int bound on their size for the stage
    values, the gathered level and `out`, the mask's being 1.  A sum whose
    bound could pass 2^53 - ell is not taken: its terms are reduced first,
    in place, to x - rint(x / ell) ell, exact there, at most ell/2 + 2 in
    size.  At p = 2 the powers are +-1 and the bound never gets there, so
    only the final q^-1 step takes a residue.
    """
    if plan.shape != points.shape:
        raise ValueError(f"a transform plan of {plan.shape} points, not {points.shape}")
    q, ell, w, w_max = plan.q, plan.ell, plan.w, plan.w_max
    limit, small = (1 << 53) - ell, ell // 2 + 2  # every sum below limit is exact

    def reduce(x):  # for |x| <= limit the float x / ell is within 2 / ell of x / ell
        t = x * (1 / ell)
        np.rint(t, out=t)
        t *= ell
        x -= t
        return x

    out = np.array(member, dtype=np.float64)  # transformed in place; w = w^T
    below, out[0], h_top = int(out[0]), -out[0], 1  # f^ = -f on PG(0); below sums f there
    for m, at in enumerate(plan.codes, 1):
        lo = at.shape[1]  # PG(m-1) is the first lo rows, AG(m) the q^m rows (1, y)
        g, g_top = out[lo:lo + q ** m], 1
        for _ in range(m):
            if q * w_max * g_top > limit:
                g, g_top = reduce(g), small
            g, g_top = _product(w, g.reshape(-1, q).T).ravel(), q * w_max * g_top  # (g w)^T
        u, h, g0 = g[at], out[:lo], int(g[0])  # U[s, b] = G(s b); G(0) sums f
        if (q - 1) * w_max * g_top + min(h_top, small) > limit:  # unless h's alone will do
            u, g_top = reduce(u), small
        if (q - 1) * w_max * g_top + h_top > limit:
            h_top = small
            reduce(h)
        r = _product(plan.scale, u)  # at (0, b) for mu = 0, else at (1, mu b)
        r += h
        h[:], out[lo:lo + q ** m][at] = r[0], r[1:]
        out[lo], below = ((q - 1) * below - g0) % ell, below + g0  # (1, 0); omega^c sums to 0
        h_top = max(h_top + (q - 1) * w_max * g_top, ell - 1)
    if (h_top + ell - 1) * (ell - 1) > limit:
        reduce(out)
    out += below % ell
    out *= plan.q_inv
    counts = out.astype(np.int64)
    counts -= counts // ell * ell  # numpy reuses the temporary quotient for the product
    return counts


# ---------------------------------------------------------------------------
# dot products, row reduction, annihilators and the cone points
# ---------------------------------------------------------------------------

DOT_CELLS = 1 << 20  # field dot products in one gather of the pencil law or `cone_points`


def field_dots(rows, vectors, add, mul):
    """The field dot products of every row with every vector, shape
    (len(rows), len(vectors)), one outer product per coordinate; the sum
    s + t is the flat addition table at s q + t < q^2 <= 2^14, in int16."""
    acc = np.zeros((len(rows), len(vectors)), dtype=add.dtype)
    for r_c, x_c in zip(np.asarray(rows).T, np.asarray(vectors).T):
        acc = add.ravel().take(acc * len(add) + mul[r_c][:, x_c])
    return acc


def rref(rows, add, mul, inv, neg):
    """Reduced row echelon form over the field tables of each matrix of a
    stack (..., R, C), a matrix being a stack of one, and the ranks.  Rows
    stay in place.  Per column, one outer product clears the column in every
    row, from the column on as a pivot row is 0 before its pivot, with each
    matrix's first row nonzero there and not yet a pivot, which is then put
    back scaled by the inverse of that entry; a matrix with no such row uses
    an extra zero row.  The pivot rows in pivot order, then the zero rows
    left, are the reduced form."""
    rows = np.asarray(rows)
    *stack, R, C = rows.shape
    q, flat_add, flat_mul = len(add), add.ravel(), mul.ravel()  # at s q + t, as in `field_dots`
    inv_q, neg_q = inv * q, neg * q
    m = np.zeros((prod(stack), R + 1, C), dtype=np.int16)
    m[:, :R] = rows.reshape(len(m), R, C)
    flat, first = m.reshape(-1, C), np.arange(len(m))[:, None] * (R + 1)
    at = np.full(m.shape[:2], C)  # the pivot column of each row, C for none yet
    for col in range(C):
        nonzero = (m[:, :, col] != 0) & (at == C)
        if not nonzero.any():  # no pivot here in any matrix, or no row left
            continue
        nonzero[:, R] = True
        pivot = first[:, 0] + nonzero.argmax(axis=1)
        row = flat[pivot, col:]
        row = flat_mul.take(inv_q[row[:, :1]] + row)
        product = flat_mul.take(neg_q[m[:, :, col, None]] + row[:, None])
        m[:, :, col:] = flat_add.take(m[:, :, col:] * q + product)
        flat[pivot, col:], at.ravel()[pivot] = row, col
    reduced = flat[first + np.argsort(at[:, :R], axis=1)]
    return reduced.reshape(rows.shape), (at[:, :R] < C).sum(axis=1).reshape(stack)


def annihilator(rows, add, mul, inv, neg):
    """A basis, not echelonized, of the a with a . x = 0 for every row x, per
    matrix of a stack (..., R, C) of one rank: the `dual_of_reduced` of
    its `rref`."""
    reduced, ranks = rref(rows, add, mul, inv, neg)
    return dual_of_reduced(reduced[..., :int(ranks.max(initial=0)), :], add, neg)


def dual_of_reduced(basis, add, neg):
    """A basis, not echelonized, of the a with a . x = 0 for every row x, per
    reduced basis of a stack (..., R, C), its R rows in pivot order as
    `rref` leaves them.  In the square of the reduced rows, row p the one
    with pivot p and 0 where p is free, each free column f gives e_f minus
    column f: 1 at f and minus that column at the pivots, 0 at those after
    f as a reduced row is 0 before its pivot.  So f is the row's last
    nonzero column, and each a is sum_f a[f] times the row."""
    basis = np.asarray(basis)
    *stack, R, C = basis.shape
    basis = basis.reshape(prod(stack), R, C)
    b, square = np.arange(len(basis))[:, None], np.zeros((len(basis), C, C), dtype=np.int16)
    square[b, np.argmax(basis != 0, axis=2)] = basis
    free = np.nonzero(np.diagonal(square, axis1=1, axis2=2) == 0)[1].reshape(len(basis), -1)
    dual = add[np.eye(C, dtype=np.int16), neg[square]].transpose(0, 2, 1)[b, free]
    return dual.reshape(*stack, C - R, C)


def cone_points(member, counts, points, add, mul, inv, neg):
    """A basis of the cone points, the members whose every joining line
    stays in the set, read off its hyperplane counts N(h).

    Let S be the nonzero vectors of the k members and 0.  For any point P,
    S + tP = S for every t exactly when the transform of S (as in
    `hyperplane_intersection_counts`) vanishes at every a with a.P != 0; at
    hyperplane h it is q N(h) - k + 1.  Then 0 + tP is in S, so P is a
    member, and the line PQ, P and the Q + tP, stays in the set.  So the
    cone points are the annihilator of the hyperplanes with q N(h) != k - 1.

    That is the dual of the span of a subset of those rows.  2(n+1) of them,
    spread over all, as the first points in lex order lie in a small
    subspace, are reduced.  Then the rows are checked against the dual,
    DOT_CELLS field dot products at a time, and the first block holding
    rows off it adds up to n+1 of them to the reduced ones for the next
    round.  The rank rises every round, so at most n+1 rounds follow, and
    the last, whose rows are all on the dual or whose rank is n+1, gives
    `annihilator` of them all, as a reduced basis is unique.
    """
    q, cols = len(mul), points.shape[1]
    off = np.flatnonzero(q * counts != np.count_nonzero(member) - 1)
    rows = points[off[::max(1, len(off) // (2 * cols))][:2 * cols]]
    lo, step = 0, max(1, DOT_CELLS // cols)
    while rows is not None:
        reduced, rank = rref(rows, add, mul, inv, neg)
        dual, rows = dual_of_reduced(reduced[:rank], add, neg), None
        while rank < cols and lo < len(off) and rows is None:  # rows before lo are on the dual
            block = points[off[lo:lo + step]]
            outside = block[(field_dots(block, dual, add, mul) != 0).any(axis=1)]
            if len(outside):  # the block is read again in the next round
                rows = np.concatenate([reduced[:rank], outside[:cols]])
            else:
                lo += step
    return dual
