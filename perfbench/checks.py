"""Result checks for the benchmark, written independently of pgcones.

Nothing here imports the code it checks: subspace counts, the
double-counting solve, the theorem types and the pencil enumeration are
re-derived from their definitions.  The expected tables were recorded from
the CLI at the commit that introduced the benchmark.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from math import isqrt


class Mismatch(Exception):
    """A program result disagrees with the benchmark's own check."""


def require(cond: bool, msg: str):
    if not cond:
        raise Mismatch(msg)


# -- projective counting ------------------------------------------------------

def theta(m: int, q: int) -> int:
    """Points of PG(m,q)."""
    return (q ** (m + 1) - 1) // (q - 1)


def gauss(m: int, r: int, q: int) -> int:
    """r-dimensional subspaces of an m-dimensional vector space over GF(q)."""
    if r < 0 or r > m:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# -- spectra --------------------------------------------------------------------

def check_spectrum_counts(by_size: dict, k: int, n: int, d: int, q: int):
    """The three d-subspace double-counting identities of a spectrum of a
    k-set in PG(n,q), and the range of each intersection size."""
    total = gauss(n + 1, d + 1, q)
    require(sum(by_size.values()) == total,
            f"d={d}: {sum(by_size.values())} subspaces counted, expected {total}")
    require(sum(m * t for m, t in by_size.items()) == k * gauss(n, d, q),
            f"d={d}: sum m*t != k*[{n},{d}]_{q}")
    require(sum(m * (m - 1) * t for m, t in by_size.items()) == k * (k - 1) * gauss(n - 1, d - 1, q),
            f"d={d}: sum m(m-1)*t != k(k-1)*[{n - 1},{d - 1}]_{q}")
    require(all(0 <= m <= min(k, theta(d, q)) and t > 0 for m, t in by_size.items()),
            f"d={d}: intersection size out of range in {by_size}")


# PG label -> (n, q), and spectra of the canonical cones by (label, d).
GEOMETRIES = {"PG(5,4)": (5, 4), "PG(4,9)": (4, 9), "PG(4,4)": (4, 4), "PG(3,9)": (3, 9)}
CANONICAL_SPECTRA = {
    ("PG(5,4)", 4): {21: 6, 101: 1344, 149: 15},
    ("PG(5,4)", 2): {1: 32256, 5: 1260, 6: 262144, 9: 80640, 21: 505},
    ("PG(5,4)", 1): {0: 24576, 1: 5040, 2: 61440, 5: 2037},
    ("PG(4,9)", 3): {91: 28, 253: 7290, 334: 63},
    ("PG(4,9)", 1): {1: 189378, 4: 413343, 10: 2521},
    ("PG(4,4)", 3): {5: 6, 25: 320, 37: 15},
    ("PG(4,4)", 2): {1: 480, 5: 15, 6: 4096, 9: 1200, 21: 6},
    ("PG(4,4)", 1): {0: 1536, 1: 300, 2: 3840, 5: 121},
    ("PG(3,9)", 2): {10: 28, 28: 729, 37: 63},
    ("PG(3,9)", 1): {1: 2331, 4: 5103, 10: 28},
}


def check_spectrum(spec, mask, label: str, d: int, canonical: bool):
    n, q = GEOMETRIES[label]
    k = int(mask.sum())
    require(spec.d == d and spec.total == gauss(n + 1, d + 1, q),
            f"{label} d={d}: spectrum header d={spec.d} total={spec.total}")
    check_spectrum_counts(spec.by_size, k, n, d, q)
    if canonical:
        expected = CANONICAL_SPECTRA[(label, d)]
        require(spec.by_size == expected,
                f"{label} d={d}: spectrum {spec.by_size} != recorded {expected}")


def check_hyperplane_query(result, mask, label: str, canonical: bool, not_blocking):
    """A hyperplane spectrum together with the essential points of the same
    set: the essential points are members, each is the lone member of some
    1-hyperplane, and `not_blocking` is raised exactly when a hyperplane
    misses the set."""
    spec, essential = result
    n, _ = GEOMETRIES[label]
    check_spectrum(spec, mask, label, n - 1, canonical)
    if isinstance(essential, not_blocking):
        require(0 in spec.by_size, f"{label}: NotBlocking raised for a blocking set")
        return
    require(0 not in spec.by_size, f"{label}: essential points of a non-blocking set")
    ess = essential.mask
    require(not (ess & ~mask).any(), f"{label}: essential points outside K")
    lone = spec.by_size.get(1, 0)
    require(int(ess.sum()) <= lone and (lone == 0) == (int(ess.sum()) == 0),
            f"{label}: {int(ess.sum())} essential points for {lone} 1-hyperplanes")


# -- verify ----------------------------------------------------------------------

# header after "PASS " -> (k, hyperplane spectrum, vertex dimension)
VERIFY_TABLE = {
    "hyperoval3 n=3 q=4": (25, {1: 6, 6: 64, 9: 15}, 0),
    "hyperovalN n=4 q=4": (101, {5: 6, 25: 320, 37: 15}, 1),
    "unital n=4 q=4": (149, {21: 9, 37: 320, 53: 12}, 1),
    "maxarc n=5 q=4 t_or_d=2": (405, {21: 6, 101: 1344, 149: 15}, 2),
    "baer n=4 q=4 t_or_d=1": (117, {21: 14, 29: 320, 53: 7}, 1),
    "hyperovalN n=4 q=8": (649, {9: 28, 81: 4608, 137: 45}, 1),
    "unital n=4 q=9": (2278, {91: 28, 253: 7290, 334: 63}, 1),
}
_DETAIL = re.compile(r"^  k=(\d+) spectrum=(\{[^}]*\}) vertex_dim=(-?\d+)$")


def check_verify(result, header: str, n: int, q: int):
    rc, out, err = result
    require(rc == 0, f"verify {header}: exit code {rc}: {err.strip()}")
    lines = out.splitlines()
    require(len(lines) == 2 and lines[0] == f"PASS {header}",
            f"verify {header}: output {lines!r}")
    match = _DETAIL.match(lines[1])
    require(match is not None, f"verify {header}: unparsable line {lines[1]!r}")
    k, spec, vertex_dim = int(match[1]), ast.literal_eval(match[2]), int(match[3])
    expected = VERIFY_TABLE[header]
    require((k, spec, vertex_dim) == expected,
            f"verify {header}: (k, spectrum, vertex_dim) = {(k, spec, vertex_dim)} != recorded {expected}")
    check_spectrum_counts(spec, k, n, n - 1, q)


# -- counting ------------------------------------------------------------------

def solve_counts(a, b, c, n: int, q: int, k: int) -> tuple:
    """Hyperplane counts (t_a, t_b, t_c) of a k-set of type (a, b, c) in
    PG(n,q), from the three double-counting equations by Cramer's rule."""
    m = [[1, 1, 1], [a, b, c], [a * (a - 1), b * (b - 1), c * (c - 1)]]
    rhs = [theta(n, q), k * theta(n - 1, q), k * (k - 1) * theta(n - 2, q)]

    def det(x):
        return (x[0][0] * (x[1][1] * x[2][2] - x[1][2] * x[2][1])
                - x[0][1] * (x[1][0] * x[2][2] - x[1][2] * x[2][0])
                + x[0][2] * (x[1][0] * x[2][1] - x[1][1] * x[2][0]))
    base = det(m)
    out = []
    for col in range(3):
        mc = [[rhs[i] if j == col else m[i][j] for j in range(3)] for i in range(3)]
        out.append(Fraction(det(mc)) / base)
    return tuple(out)


def realizable(ts) -> bool:
    return all(t.denominator == 1 and t >= 1 for t in ts)


def pencil_kept(a: int, b: int, c: int, q: int, x: int, k: int) -> bool:
    """Some split u_a + u_b + u_c = q + 1 with u_a >= 1 of the hyperplanes
    through an axis meeting K in x points adds up to k."""
    return any(x + (a - x) * ua + (b - x) * ub + (c - x) * (q + 1 - ua - ub) == k
               for ua in range(1, q + 2) for ub in range(q + 2 - ua))


def congruence_holds(cong, k: int) -> bool:
    if cong is None:
        return True
    if cong[0] == "mod":
        _, alpha, beta = cong
        return k % beta == alpha
    q = cong[1]  # ("hyperoval3", q): (q+1) | k and q | (k-1)(k-2)
    return k % (q + 1) == 0 and (k - 1) * (k - 2) % q == 0


def check_screen(result, screen, sample):
    """CSV output of feasible-k against the screen's recorded rows (if any),
    the independent solve for each survivor, and the seeded sample of
    k values that must have been rejected."""
    rc, out, err = result
    a, b, c, n, q = screen.abc_nq
    require(rc == 0, f"feasible-k {screen.argv}: exit code {rc}: {err.strip()}")
    lines = out.splitlines()
    require(lines[:1] == ["k,t_a,t_b,t_c,kept"], f"feasible-k {screen.argv}: header {lines[:1]}")
    rows = []
    for line in lines[1:]:
        k, ta, tb, tc, kept = line.split(",")
        rows.append((int(k), int(ta), int(tb), int(tc), kept == "true"))
    if screen.rows is not None:
        require(rows == screen.rows,
                f"feasible-k {screen.argv}: rows {rows} != recorded {screen.rows}")
    lo, hi = screen.k_range
    for k, ta, tb, tc, kept in rows:
        require(lo <= k <= hi and congruence_holds(screen.congruence, k),
                f"feasible-k {screen.argv}: survivor k={k} outside the screen")
        require(solve_counts(a, b, c, n, q, k) == (ta, tb, tc) and realizable((ta, tb, tc)),
                f"feasible-k {screen.argv}: k={k} counts {(ta, tb, tc)} disagree with the solve")
        require(kept == pencil_kept(a, b, c, q, screen.axis_x, k),
                f"feasible-k {screen.argv}: k={k} pencil verdict {kept}")
    survivors = {r[0] for r in rows}
    for k in sample:
        if k not in survivors:
            require(not (congruence_holds(screen.congruence, k)
                         and realizable(solve_counts(a, b, c, n, q, k))),
                    f"feasible-k {screen.argv}: k={k} is feasible but was rejected")


def theorem_abc(theorem_id: str, n: int, q: int, t_or_d):
    """(a, b, c) of each characterization's hyperplane type, from the
    paper's formulas; Baer types may be rational at the sign-check
    endpoints."""
    rt = isqrt(q)

    def th(m):
        return (Fraction(q) ** (m + 1) - 1) / (q - 1)

    def cone_size(r, s):  # cone, r-dim vertex over an s-dim Baer subgeometry
        return (rt ** (s + 1) - 1) // (rt - 1) * Fraction(q) ** (r + 1) + th(r)
    if theorem_id == "baer":
        t = t_or_d
        return (cone_size(n - 2 * t - 1, 2 * t - 2), cone_size(n - 2 * t - 2, 2 * t),
                cone_size(n - 2 * t - 1, 2 * t - 1))
    if theorem_id == "unital":
        return th(n - 2), th(n - 3) + rt ** (2 * n - 3), th(n - 2) + rt ** (2 * n - 3)
    if theorem_id == "hyperovalN":
        return th(n - 3), th(n - 2) + q ** (n - 3), th(n - 2) + q ** (n - 2)
    d = t_or_d  # maxarc
    return (th(n - 3), q ** (n - 3) * (q * d + d - q) + th(n - 4),
            q ** (n - 2) * d + th(n - 3))


_CLAIMS = {"<0": lambda v: v < 0, "<=1/2": lambda v: v <= Fraction(1, 2), "<1": lambda v: v < 1}
_WHICH = {"t_a": 0, "t_b": 1, "t_c": 2}


def check_sign_reports(reports, grid):
    """Each endpoint value re-solved from the theorem's type, and each
    verdict re-evaluated against its claim."""
    require(len(reports) == len(grid), f"{len(reports)} sign reports for {len(grid)} grid points")
    for report, (tid, n, q, t_or_d) in zip(reports, grid):
        require(report.checks and report.ok == all(c.passed for c in report.checks),
                f"sign check {tid} n={n} q={q}: empty or inconsistent report")
        a, b, c = theorem_abc(tid, n, q, t_or_d)
        for chk in report.checks:
            value = solve_counts(a, b, c, n, q, chk.k)[_WHICH[chk.label[:3]]]
            require(value == chk.value and chk.passed == _CLAIMS[chk.claim](value),
                    f"sign check {tid} n={n} q={q} {chk.label!r}: {chk.value} vs {value}")
