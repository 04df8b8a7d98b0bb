"""PG(n,q): normalized point/hyperplane enumeration, incidence, subspaces.

Points and hyperplanes are homogeneous coordinate vectors of length n+1
with the first nonzero coordinate scaled to 1, listed in lexicographic
order.  Incidence is a dense boolean matrix (hyperplane x point) so that
hyperplane spectra reduce to masked row sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterator

import numpy as np

from . import kernels
from .errors import GeometryTooLarge, WrongDimension
from .gf import Field

DEFAULT_MAX_POINTS = 100_000


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


@dataclass(frozen=True)
class Subspace:
    """A projective subspace given by an echelonized basis and its points."""

    dim: int
    basis: np.ndarray = dc_field(repr=False)  # (dim+1, n+1), empty for dim -1
    point_indices: np.ndarray = dc_field(repr=False)

    def mask(self, num_points: int) -> np.ndarray:
        m = np.zeros(num_points, dtype=bool)
        m[self.point_indices] = True
        return m


class Geometry:
    """Fully enumerated PG(n,q) over a table-backed field."""

    def __init__(self, field: Field, n: int, max_points: int = DEFAULT_MAX_POINTS):
        if n < 2:
            raise WrongDimension(f"projective dimension must be >= 2, got {n}")
        q = field.q
        npts = theta(n, q)
        if npts > max_points:
            raise GeometryTooLarge(f"theta_{n}({q}) = {npts} exceeds the bound {max_points}")
        self.field = field
        self.n = n
        self.q = q
        self.num_points = npts

        self.points = kernels.combo_vectors(n + 1, q)  # normalized, lex order
        # code sum_i v[i] q^i of every nonzero vector v -> index of its point
        self.pows = q ** np.arange(n + 1, dtype=np.int64)
        self.code_to_index = np.full(q ** (n + 1), -1, dtype=np.int64)
        index = np.arange(npts, dtype=np.int64)
        for t in range(1, q):
            self.code_to_index[field.mul[t, self.points].astype(np.int64) @ self.pows] = index

        # incidence[i, j]: point j lies on hyperplane i (field dot product 0)
        add, mul = field.add, field.mul
        dot = mul[self.points[:, 0][None, :], self.points[:, 0][:, None]]
        for c in range(1, n + 1):
            dot = add[dot, mul[self.points[:, c][None, :], self.points[:, c][:, None]]]
        self.incidence = dot == 0

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
        add, mul, inv, neg = (self.field.add, self.field.mul,
                              self.field.inv, self.field.neg)
        rows = [np.array(v, dtype=np.int16) for v in vectors]
        out = []
        col = 0
        while rows and col <= self.n:
            pivot = next((i for i, r in enumerate(rows) if r[col] != 0), None)
            if pivot is None:
                col += 1
                continue
            piv = mul[inv[rows[pivot][col]], rows.pop(pivot)]
            rows = [add[r, mul[neg[r[col]], piv]] if r[col] != 0 else r for r in rows]
            out = [add[r, mul[neg[r[col]], piv]] if r[col] != 0 else r for r in out]
            out.append(piv)
            col += 1
        return np.array(out, dtype=np.int16) if out else np.empty((0, self.n + 1), dtype=np.int16)

    def span(self, point_indices) -> Subspace:
        """Smallest subspace containing the given points (possibly empty)."""
        idx = np.asarray(list(point_indices), dtype=np.int64)
        if idx.size == 0:
            return Subspace(-1, np.empty((0, self.n + 1), dtype=np.int16),
                            np.empty(0, dtype=np.int64))
        basis = self.rref(self.points[idx])
        return self.subspace_from_basis(basis)

    def subspace_from_basis(self, basis: np.ndarray) -> Subspace:
        if basis.shape[0] == 0:
            return Subspace(-1, basis, np.empty(0, dtype=np.int64))
        combos = kernels.combo_vectors(basis.shape[0], self.q)
        pts = kernels.span_point_indices(basis, combos, self.field.add, self.field.mul,
                                         self.pows, self.code_to_index)
        return Subspace(basis.shape[0] - 1, basis, pts)

    # -- subspace streams ---------------------------------------------------

    def subspaces_iter(self, d: int) -> Iterator[Subspace]:
        """Every d-subspace exactly once, canonical echelon-basis order."""
        if not 0 <= d <= self.n - 1:
            raise WrongDimension(f"need 0 <= d <= n-1, got d={d}")
        rows = d + 1
        for pivots, free in kernels.pivot_patterns(self.n + 1, rows):
            bases = kernels.pattern_bases(pivots, free, rows, self.n + 1, self.q)
            for b in bases:
                yield self.subspace_from_basis(b)


def geometry_new(field: Field, n: int, max_points: int = DEFAULT_MAX_POINTS) -> Geometry:
    return Geometry(field, n, max_points)
