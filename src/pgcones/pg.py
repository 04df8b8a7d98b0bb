"""PG(n,q): normalized point enumeration, point indices, subspaces and
the byte budget.

Points are homogeneous coordinate vectors of length n+1 with the first
nonzero coordinate scaled to 1, listed in lexicographic order, built block
by block, one block per leading coordinate as PG(m) = PG(m-1) ∪ AG(m);
hyperplane h is {x : sum_c P_h[c] x[c] = 0}, P_h the coordinates of point
h.  `Geometry.indices_of` names the point of a vector by arithmetic.
`charge` holds what a geometry, and a d < n-1 scan of it, would allocate
against MAX_BYTES before anything is allocated.  A subspace is given by a
basis and its points, the sorted indices of `kernels.span_vectors` of the
basis; a basis from `span` is reduced, one from `kernels.annihilator` is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache
from math import comb

import numpy as np

from . import kernels
from .errors import GeometryTooLarge, WrongDimension
from .gf import Field

MAX_BYTES = 3 << 29  # 1.5 GiB, what a geometry with its verification or one scan may allocate
INDEX_CHUNK = 1 << 13  # vectors `Geometry.indices_of` names at a time


def theta(m: int, q: int) -> int:
    """Number of points of PG(m,q); theta(-1) = 0 for the empty space."""
    if m < -1:
        raise ValueError(f"projective dimension must be >= -1, got {m}")
    return (q ** (m + 1) - 1) // (q - 1)


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """q-binomial [m choose r]_q: number of r-dim linear subspaces of F_q^m."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    num = den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def charge(n: int, q: int, d: int | None = None) -> int:
    """The bytes a verification in PG(n,q) allocates, and with d < n-1 a scan
    of its d-subspaces and lone points, charged before any is allocated:
    GeometryTooLarge over MAX_BYTES, and before theta_n > 2^n is computed
    from n >= MAX_BYTES.bit_length().  A point costs its int16 coordinates,
    three more point matrices (cone vectors, pencil traces) and 12 words
    (transform codes, stages, counts); 32 MiB cover what runs in blocks of
    at most `kernels.BLOCK_BYTES`: the scan's combo blocks, the tally
    chunks and the dot products of the pencil law and
    `kernels.cone_points`.  A scan adds 9 bytes per code, which cover the
    geometry's int32 table, the member mask and the tensor it sums; per
    subspace its counts, int32 index sums and one bool mask; per row count
    m and block size (a block holds BLOCK_BYTES of counts at its last take)
    theta_d q^m intp takes, and 3 words for the intp value tables; the
    codes of the patterns; and the digit tables."""
    if n >= MAX_BYTES.bit_length():
        raise GeometryTooLarge(f"PG({n},{q}) needs over 2^{n} bytes, which exceeds the bound"
                               f" of {MAX_BYTES} bytes")
    if n < 2:
        return 0
    need = theta(n, q) * (8 * (n + 1) + 96) + (1 << 25)
    scan = ""
    if d is not None and d < n - 1:
        td = theta(d, q)
        size = np.min_scalar_type(td).itemsize  # of a count
        span = (d + 1) * (n - d - 1)  # a column after m pivots has m to m + span free slots
        sizes = [len({min(td, max(1, kernels.BLOCK_BYTES // size // q ** f))
                      for f in range(m, m + span + 1)}) for m in range(1, d + 2)]
        need += 8 * td * (sum(q ** m * (k + 3) for m, k in enumerate(sizes, 1)) + comb(n + 1, d + 1)
                          + sum(comb(n - p, d) * q ** (n - p - d) for p in range(n - d + 1)))
        need += 8 * sum(m * q ** m for m in range(1, d + 2))
        need += 9 * q ** (n + 1) + gaussian_binomial(n + 1, d + 1, q) * (5 + size)
        scan = f" with its {d}-subspaces"
    if need > MAX_BYTES:
        raise GeometryTooLarge(f"PG({n},{q}) needs {need} bytes{scan}, which exceeds the bound"
                               f" of {MAX_BYTES} bytes")
    return need


@cache
def _lead_weights(n: int, q: int):
    """The weights q^(n-j) of the columns of a vector of PG(n,q) and, per
    leading column i, theta_(n-i-1) - q^(n-i), for `Geometry.indices_of`."""
    weights = q ** np.arange(n, -1, -1, dtype=np.int64)
    return weights, (weights - 1) // (q - 1) - weights


@dataclass(frozen=True)
class Subspace:
    """A projective subspace given by a basis and its points.  The basis is
    echelonized except where it comes from an annihilator."""

    dim: int
    basis: np.ndarray = dc_field(repr=False)  # (dim+1, n+1), empty for dim -1
    point_indices: np.ndarray = dc_field(repr=False)


class Geometry:
    """Fully enumerated PG(n,q) over a table-backed field.  It keeps, with
    its points, the plan of each intersection count asked of it, one per d,
    built at the first query (`count_plan`)."""

    def __init__(self, field: Field, n: int):
        if n < 2:
            raise WrongDimension(f"projective dimension must be >= 2, got {n}")
        q = field.q
        charge(n, q)
        self.field = field
        self.n = n
        self.q = q
        self.num_points = theta(n, q)
        self._plans = {}  # d -> the kernel plan of `count_plan`

        self.points = kernels.combo_vectors(n + 1, q)  # normalized, lex order

    def count_plan(self, d: int):
        """The plan of the intersection counts of a point set with every
        d-subspace: a `kernels.TransformPlan` at d = n-1, else a
        `kernels.ScanPlan`.  It depends on the geometry alone, so it is
        built the first time it is asked for and kept, a scan's once it
        is charged.  Later scan plans share the first one's code table."""
        if d not in self._plans:
            f = self.field
            charge(self.n, self.q, d)
            if d == self.n - 1:
                self._plans[d] = kernels.TransformPlan(self.points.shape, f.mul, f.inv, f.p)
            else:
                codes = next((plan.code_to_index for plan in self._plans.values()
                              if isinstance(plan, kernels.ScanPlan)), None)
                self._plans[d] = kernels.ScanPlan(self.n + 1, d, self.q, f.add, f.mul, f.inv, codes)
        return self._plans[d]

    # -- coordinate helpers -------------------------------------------------

    def indices_of(self, vectors) -> np.ndarray:
        """Point indices of coordinate vectors (the last axis), in any
        scaling, in int32; -1 for the zero vector.  Led by t at column i, v
        is the point theta_(n-i-1) + sum_(j>i) (v_j / t) q^(n-j), named
        INDEX_CHUNK vectors at a time, so no temporary grows with them."""
        vectors, f = np.asarray(vectors), self.field
        v, shape = vectors.reshape(-1, self.n + 1), vectors.shape[:-1]
        if len(v) > INDEX_CHUNK:
            return np.concatenate([self.indices_of(v[lo:lo + INDEX_CHUNK])
                                   for lo in range(0, len(v), INDEX_CHUNK)]).reshape(shape)
        weights, offsets = _lead_weights(self.n, self.q)
        lead = (v != 0).argmax(axis=1)
        t = v[np.arange(len(v)), lead]
        named = f.mul.take(f.inv[t][:, None] * self.q + v) @ weights + offsets[lead]
        return np.where(t == 0, -1, named).astype(np.int32).reshape(shape)

    def pivot_columns(self, S: Subspace) -> np.ndarray:
        """The pivot columns of the reduced basis of S, ascending: the leading
        columns of its points, as a vector of S leads at the pivot of the
        first reduced row in its combination, and each reduced row leads at
        its own pivot.  Point p leads at column n - m, where theta_(m-1) <=
        p < theta_m, m being the number of theta_j, j < n, at most p."""
        bounds = [theta(m, self.q) for m in range(self.n)]
        leads = self.n - np.searchsorted(bounds, S.point_indices, side="right")
        return np.flatnonzero(np.bincount(leads, minlength=self.n + 1))

    def span(self, point_indices) -> Subspace:
        """Smallest subspace containing the given points (possibly empty)."""
        idx, f = np.asarray(list(point_indices), dtype=np.int64), self.field
        reduced, rank = kernels.rref(self.points[idx], f.add, f.mul, f.inv, f.neg)
        return self.subspace_from_basis(reduced[:rank])

    def subspace_from_basis(self, basis: np.ndarray) -> Subspace:
        """The subspace of a basis (rows linearly independent), its points sorted."""
        vectors = kernels.span_vectors(basis, self.field.add, self.field.mul)
        return Subspace(len(basis) - 1, basis, np.sort(self.indices_of(vectors)))


def geometry_new(field: Field, n: int) -> Geometry:
    return Geometry(field, n)
