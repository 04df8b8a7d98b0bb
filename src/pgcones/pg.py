"""PG(n,q): normalized point enumeration, the code table, subspaces.

Points are homogeneous coordinate vectors of length n+1 with the first
nonzero coordinate scaled to 1, listed in lexicographic order; hyperplane
h is {x : sum_c P_h[c] x[c] = 0}, P_h the coordinates of point h.  The
code table maps each of the q^(n+1) vectors to its point, in int32 as
theta_n < 2^31.  Both are built block by block, one block per leading
coordinate as PG(m) = PG(m-1) ∪ AG(m), with no list of all q^(n+1)
vectors.  MAX_POINTS bounds the table before anything is allocated, and
with it the transforms of the hyperplane count, which hold at most q^n
values; an n too large for it is refused before theta_n(q) is computed.
A subspace is given by a basis and its points, the sorted indices of
`kernels.span_vectors` of the basis; a basis from `span` is reduced, one
from `kernels.annihilator` is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import kernels
from .errors import GeometryTooLarge, WrongDimension
from .gf import Field

MAX_POINTS = 100_000


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


def check_dimension(n: int, q: int):
    """Refuse an n for which PG(n,q) has over MAX_POINTS points at any
    q >= 2, without computing theta_n(q): theta_n(q) > 2^n."""
    if n >= MAX_POINTS.bit_length():
        raise GeometryTooLarge(f"theta_{n}({q}) > 2^{n} exceeds the bound {MAX_POINTS}")


@dataclass(frozen=True)
class Subspace:
    """A projective subspace given by a basis and its points.  The basis is
    echelonized except where it comes from an annihilator."""

    dim: int
    basis: np.ndarray = dc_field(repr=False)  # (dim+1, n+1), empty for dim -1
    point_indices: np.ndarray = dc_field(repr=False)


class Geometry:
    """Fully enumerated PG(n,q) over a table-backed field.  It keeps, with
    the points and the code table, the plan of each intersection count
    asked of it, one per d, built at the first query (`count_plan`)."""

    def __init__(self, field: Field, n: int):
        if n < 2:
            raise WrongDimension(f"projective dimension must be >= 2, got {n}")
        q = field.q
        check_dimension(n, q)
        npts = theta(n, q)
        if npts > MAX_POINTS:
            raise GeometryTooLarge(f"theta_{n}({q}) = {npts} exceeds the bound {MAX_POINTS}")
        self.field = field
        self.n = n
        self.q = q
        self.num_points = npts
        self._plans = {}  # d -> the kernel plan of `count_plan`

        self.points = kernels.combo_vectors(n + 1, q)  # normalized, lex order
        # code sum_i v[i] q^i of every nonzero vector v -> index of its point.  Led by t
        # at n - m, then y, v is the point theta_(m-1) + sum_j (y_j / t) q^(n-j): in the
        # cube of codes, axis a holding coordinate n - a, an outer sum over axes 0..m-1
        self.pows = q ** np.arange(n + 1, dtype=np.int64)
        self.code_to_index = np.empty(q ** (n + 1), dtype=np.int32)  # theta_n < 2^31
        self.code_to_index[0] = -1
        cube = self.code_to_index.reshape((q,) * (n + 1))
        over_t = field.mul[:, field.inv[1:]].astype(np.int32)  # [y, t - 1] = y / t
        for m in range(n + 1):
            block = np.full(q - 1, theta(m - 1, q), dtype=np.int32)  # over t on axis m
            for a in reversed(range(m)):
                block = (over_t * q ** a).reshape((q,) + (1,) * (m - 1 - a) + (q - 1,)) + block
            cube[(slice(None),) * m + (slice(1, None),) + (0,) * (n - m)] = block

    def count_plan(self, d: int):
        """The plan of the intersection counts of a point set with every
        d-subspace: a `kernels.TransformPlan` at d = n-1, else a
        `kernels.ScanPlan`.  It depends on the geometry alone, so it is
        built the first time it is asked for and kept."""
        if d not in self._plans:
            f = self.field
            self._plans[d] = (kernels.TransformPlan(self.points.shape, f.mul, f.inv, f.p)
                              if d == self.n - 1 else
                              kernels.ScanPlan(self.n + 1, d, self.q, f.add, f.mul,
                                               self.code_to_index))
        return self._plans[d]

    # -- coordinate helpers -------------------------------------------------

    def indices_of(self, vectors) -> np.ndarray:
        """Point indices of coordinate vectors (the last axis), in any
        scaling; -1 for the zero vector."""
        return self.code_to_index[np.asarray(vectors, dtype=np.int64) @ self.pows]

    def point_index(self, vector) -> int:
        """Index of the projective point with the given coordinates."""
        idx = int(self.indices_of(vector))
        if idx < 0:
            raise ValueError("the zero vector is not a projective point")
        return idx

    def rref(self, vectors: np.ndarray) -> np.ndarray:
        """Reduced row echelon form over the field; returns the nonzero rows."""
        f = self.field
        reduced, rank = kernels.rref(np.reshape(vectors, (-1, self.n + 1)), f.add, f.mul, f.inv, f.neg)
        return reduced[:rank]

    def span(self, point_indices) -> Subspace:
        """Smallest subspace containing the given points (possibly empty)."""
        idx = np.asarray(list(point_indices), dtype=np.int64)
        return self.subspace_from_basis(self.rref(self.points[idx]))

    def subspace_from_basis(self, basis: np.ndarray) -> Subspace:
        """The subspace of a basis (rows linearly independent), its points sorted."""
        vectors = kernels.span_vectors(basis, self.field.add, self.field.mul)
        return Subspace(len(basis) - 1, basis, np.sort(self.indices_of(vectors)))


def geometry_new(field: Field, n: int) -> Geometry:
    return Geometry(field, n)
