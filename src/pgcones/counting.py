"""Exact counting machinery: double-counting identities, closed forms for
the hyperplane counts, the coprime-residue congruence, the type and size
of a cone from its vertex and base, feasibility screens and endpoint sign
checks, together with `THEOREMS`, one record of facts per
characterization, and `run_verification`, which checks one instance end
to end on its canonical cone, its pencil law read off the hyperplane
counts by `spectra.pencil_law_failures`.

The counting is integer/rational arithmetic; floating point is never
used, so every sign and divisibility decision is exact.  The closed-form
counts are computed in integers, with one Fraction per count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable

import numpy as np

from . import objects, spectra
from .errors import DegenerateType, EmptyRange, HypothesisViolated, NonSquareOrder
from .gf import factor_field_order, field_new
from .pg import Geometry, charge, gaussian_binomial, theta
from .spectra import Spectrum


def _sqrt_q(q: int) -> int:
    r = isqrt(q)
    if r * r != q:
        raise NonSquareOrder(f"q = {q} is not a square")
    return r


@dataclass(frozen=True)
class TypeParameters:
    """Three hyperplane intersection sizes a < b < c in PG(n,q); rational
    only at the endpoint sign checks of a degenerate type."""

    a: int
    b: int
    c: int
    n: int
    q: int

    def __post_init__(self):
        if not self.a < self.b < self.c:
            raise DegenerateType(f"need a < b < c, got ({self.a}, {self.b}, {self.c})")


@dataclass(frozen=True)
class Congruence:
    """k = alpha (mod beta)."""

    alpha: int
    beta: int

    def holds(self, k: int) -> bool:
        return k % self.beta == self.alpha % self.beta

    __call__ = holds


@dataclass(frozen=True)
class TheoremInstance:
    theorem_id: str
    n: int
    q: int
    t_or_d: int | None
    a: int
    b: int
    c: int
    expected_k: int
    expected_t: tuple
    vertex_dim: int

    @property
    def params(self) -> TypeParameters:
        return TypeParameters(self.a, self.b, self.c, self.n, self.q)


def cone_type(q: int, r: int, size: int, x1: int, x2: int) -> tuple:
    """((a, b, c), k) of a cone K with an r-dim vertex V over a base X of
    `size` points in a complement of V that every hyperplane of the
    complement meets in x1 or x2 points: k = theta_r + q^(r+1) |X|.  A
    hyperplane on V meets K in theta_r + q^(r+1) x_i points.  One off V
    meets V in an (r-1)-space and each <V, P>, P in X, in an r-space
    through it, so K in theta_(r-1) + q^r |X| = (k-1)/q points.  The type
    is unsorted, (k-1)/q second, and that is a Fraction where it is not
    integral."""
    on_v, scale = theta(r, q), q ** (r + 1)
    k = on_v + scale * size
    b = Fraction(k - 1, q)
    return (on_v + scale * x1, int(b) if b.denominator == 1 else b, on_v + scale * x2), k


def t_closed_form(params: TypeParameters, k) -> tuple:
    """The three rational hyperplane counts solving the double-counting
    system at the given set size; exact Fractions, one per count, over
    integers where a, b, c and k are."""
    a, b, c, n, q = params.a, params.b, params.c, params.n, params.q
    th_n, th_n1, th_n2 = theta(n, q), theta(n - 1, q), theta(n - 2, q)

    def quad(x, y):
        # count of hyperplanes meeting in the third size, given the other two x,y
        return k * k * th_n2 - k * (th_n2 + (x + y - 1) * th_n1) + x * y * th_n
    return (Fraction(quad(b, c), (b - a) * (c - a)), Fraction(quad(a, c), (c - b) * (a - b)),
            Fraction(quad(a, b), (a - c) * (b - c)))


def verify_identities(spectrum: Spectrum, k: int, n: int, q: int) -> bool:
    """Exact check of the double counts of subspaces, points and point pairs
    in a k-set's spectrum on the d-subspaces: sum t = [n+1, d+1]_q, sum m t =
    k [n, d]_q, sum m(m-1) t = k(k-1) [n-1, d-1]_q; the theta ones at n-1."""
    d, items = spectrum.d, spectrum.by_size.items()
    eq1 = sum(t for _, t in items) == gaussian_binomial(n + 1, d + 1, q)
    eq2 = sum(m * t for m, t in items) == k * gaussian_binomial(n, d, q)
    pairs = gaussian_binomial(n - 1, d - 1, q) if d else 0
    return eq1 and eq2 and sum(m * (m - 1) * t for m, t in items) == k * (k - 1) * pairs


def lemma_congruence(params: TypeParameters, beta: int):
    """If a, b, c and theta_{n-1} share a residue alpha coprime to beta,
    k must be congruent to theta_n mod beta.  Returns the Congruence on k,
    or None when the hypothesis fails."""
    alpha = params.a % beta
    th_n1 = theta(params.n - 1, params.q)
    if not (params.b % beta == alpha and params.c % beta == alpha
            and th_n1 % beta == alpha):
        return None
    if gcd(alpha, beta) != 1:
        return None
    return Congruence(alpha=theta(params.n, params.q) % beta, beta=beta)


def pencil_feasible(params: TypeParameters, k: int, u_a_min: int = 0,
                    axis_points=None) -> list:
    """Non-negative integer solutions (u_a, u_b, u_c) of the through-axis
    hyperplane system

        u_a + u_b + u_c = q + 1
        x + (a-x) u_a + (b-x) u_b + (c-x) u_c = k

    where x is the number of points of K on the axis (default a, the
    generic case where the axis is the trace of an a-hyperplane).
    """
    a, b, c, q = params.a, params.b, params.c, params.q
    x = params.a if axis_points is None else axis_points
    sols = []
    for u_b in range(q + 2):
        for u_c in range(q + 2 - u_b):
            u_a = q + 1 - u_b - u_c
            if u_a < u_a_min:
                continue
            if x + (a - x) * u_a + (b - x) * u_b + (c - x) * u_c == k:
                sols.append((u_a, u_b, u_c))
    return sols


def feasible_k(params: TypeParameters, k_range, congruences=()) -> list:
    """Scan a k-range, keeping values that satisfy every congruence, each a
    callable on k, and whose closed-form hyperplane counts are positive
    integers.  Returns (k, (t_a, t_b, t_c)) pairs.  k_range has a length
    and is iterated once, without a copy."""
    if len(k_range) == 0:
        raise EmptyRange("empty k range")
    out = []
    for k in k_range:
        if not all(holds(k) for holds in congruences):
            continue
        ts = t_closed_form(params, k)
        if all(t.denominator == 1 and t >= 1 for t in ts):
            out.append((k, tuple(int(t) for t in ts)))
    return out


def hyperoval3_step1_congruences(q: int) -> tuple:
    """The two integrality conditions for the 3-dimensional hyperoval
    characterization: (q+1) | k and q | (k-1)(k-2)."""
    return (lambda k: k % (q + 1) == 0,
            lambda k: (k - 1) * (k - 2) % q == 0)


# ---------------------------------------------------------------------------
# the characterizations: one record of facts per theorem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem:
    """The facts of one characterization.  Formulas take (n, q, x), x being
    the extra parameter named by `param`, which is None where `param` is;
    k_max and endpoint sizes also take the type (a, b, c) and the size k.
    The cone's shape is (r, |X|, x1, x2): the dimension of its vertex, the
    size of its base X and the sizes x1 < x2 in which the hyperplanes of a
    complement of the vertex meet X; `cone_type` gives the type and k.  A
    hypothesis is (holds, message), the message formatted with n, q and x
    (also as t and d).  An endpoint is (label, index into (t_a, t_b, t_c),
    claim, size), the size None where its interval is empty.  The pencil
    law, where u_a is given, holds at every a-hyperplane h, for every axis
    of h through K ∩ h."""

    id: str
    param: str | None          # "t", "d" or None
    default_n: int
    hypotheses: tuple          # checked in order by theorem_instance and step_sign_check
    shape: Callable            # (n, q, x) -> (r, |X|, x1, x2)
    base: Callable             # (geometry, x) -> X, in the first coordinates
    k_max: Callable            # top of the feasible-k screen, which starts at c
    modulus: Callable | None = None  # (n, q, x) -> beta of lemma_congruence
    divisibilities: Callable | None = None  # q -> conditions on k in place of the lemma
    axis_points: int | None = None  # K-points on the feasible-k pencil axis; None: a
    instance_hypotheses: tuple = ()  # checked after the others, by theorem_instance only
    endpoints: tuple = ()      # evaluated by step_sign_check
    empty_note: str | None = None  # note when endpoints of an empty interval are skipped
    pencil_u_a: Callable | None = None  # (q, x) -> u_a, the a-hyperplanes on each axis

    def check(self, n: int, q: int, x, instance: bool = True):
        """Raise HypothesisViolated at a parameter the theorem does not name,
        then at the first hypothesis that fails; the instance hypotheses
        are checked last, and only with instance."""
        if self.param is None and x is not None:
            raise HypothesisViolated(f"{self.id}: no extra parameter expected")
        for holds, message in self.hypotheses + (self.instance_hypotheses if instance else ()):
            if not holds(n, q, x):
                raise HypothesisViolated(f"{self.id}: " + message.format(n=n, q=q, t=x, d=x))

    def congruences(self, params: TypeParameters, x) -> tuple:
        """The conditions on k, each a callable, that the counting gives at
        the type: the divisibilities where the theorem has them, else the
        lemma's congruence at the modulus; none where its hypothesis fails
        there, which happens only outside the theorem's hypotheses."""
        if self.divisibilities is not None:
            return self.divisibilities(params.q)
        cong = lemma_congruence(params, self.modulus(params.n, params.q, x))
        return (cong,) if cong else ()

    def integral_type(self, n: int, q: int, x) -> tuple:
        """((a, b, c), k) of the cone; HypothesisViolated where the type is
        not integral."""
        abc, k = cone_type(q, *self.shape(n, q, x))
        if not all(isinstance(v, int) for v in abc):
            raise HypothesisViolated(
                f"{self.id}: degenerate type at (n={n}, q={q}): non-integral intersection size")
        return abc, k


# _sqrt_q raises NonSquareOrder itself when q is not a square
_SQUARE_Q = (lambda n, q, x: _sqrt_q(q) >= 0, "q must be a square")


# each the top of the feasible-k screen and the last sign-check endpoint
def _baer_top(n, q, t, abc, k):
    return abc[0] + _sqrt_q(q) ** (2 * n - 4 * t + 3) * theta(t - 1, q)


def _maxarc_top(n, q, d, abc, k):
    return d * q ** (n - 1) + theta(n - 3, q)


THEOREMS = {th.id: th for th in (
    Theorem(
        id="baer", param="t", default_n=4,
        hypotheses=((lambda n, q, t: t is not None and t >= 1, "the half-codimension t is required"),
                    (lambda n, q, t: n >= 4, "need n >= 4, got n={n}"),
                    (lambda n, q, t: 2 * t <= n, "need 2t <= n, got t={t}, n={n}"),
                    _SQUARE_Q,
                    (lambda n, q, t: q >= 16 or t == 1, "need q >= 16 when t >= 2, got q={q}"),
                    (lambda n, q, t: q >= 4, "need q >= 4, got q={q}")),
        # a 2t-dim Baer subgeometry, met by the hyperplanes of its span in a
        # (2t-2)- or a (2t-1)-dim one; an m-dim one has theta_m(sqrt q) points
        shape=lambda n, q, t: (n - 2 * t - 1, *[theta(m, _sqrt_q(q))
                                                for m in (2 * t, 2 * t - 2, 2 * t - 1)]),
        base=lambda g, t: objects.baer_subgeometry(g, 2 * t),
        # at n = 2t+1 the vertex is a point, b - a = sqrt q, and the lemma
        # holds mod beta only for beta dividing sqrt q
        modulus=lambda n, q, t: q if n >= 2 * t + 2 else _sqrt_q(q), k_max=_baer_top,
        endpoints=(("t_a at lower interval endpoint", 0, "<0", lambda n, q, t, abc, k: k + q),
                   ("t_a at upper interval endpoint", 0, "<0", _baer_top))),
    Theorem(
        id="unital", param=None, default_n=4,
        hypotheses=((lambda n, q, x: n >= 4, "need n >= 4, got n={n}"),
                    _SQUARE_Q,
                    (lambda n, q, x: q >= 4, "need q >= 4, got q={q}")),
        shape=lambda n, q, x: (n - 3, q * _sqrt_q(q) + 1, 1, _sqrt_q(q) + 1),
        base=lambda g, x: objects.hermitian_unital(g),
        modulus=lambda n, q, x: q ** (n - 2), k_max=lambda n, q, x, abc, k: k,
        endpoints=(("t_c at lower interval endpoint", 2, "<0",
                    lambda n, q, x, abc, k: theta(n - 1, q) + q ** (n - 2)),
                   ("t_c at upper interval endpoint", 2, "<0",
                    lambda n, q, x, abc, k: theta(n - 3, q) + _sqrt_q(q) ** (2 * n - 1)),
                   ("t_b at k = theta_{n-1}", 1, "<0", lambda n, q, x, abc, k: theta(n - 1, q))),
        pencil_u_a=lambda q, x: 1),
    Theorem(
        id="hyperoval3", param=None, default_n=3,
        hypotheses=((lambda n, q, x: n == 3, "the 3-dimensional statement needs n=3, got n={n}"),
                    (lambda n, q, x: q % 2 == 0, "hyperovals require even q, got q={q}")),
        shape=lambda n, q, x: (0, q + 2, 0, 2),
        base=lambda g, x: objects.hyperoval(g),
        divisibilities=hyperoval3_step1_congruences,
        k_max=lambda n, q, x, abc, k: 2 * q * q + 1, axis_points=0,
        pencil_u_a=lambda q, x: q // 2),
    Theorem(
        id="hyperovalN", param=None, default_n=4,
        hypotheses=((lambda n, q, x: n >= 4, "need n >= 4, got n={n}"),),
        instance_hypotheses=((lambda n, q, x: q % 2 == 0, "hyperovals require even q, got q={q}"),),
        shape=lambda n, q, x: (n - 3, q + 2, 0, 2),
        base=lambda g, x: objects.hyperoval(g),
        modulus=lambda n, q, x: q ** (n - 3),
        k_max=lambda n, q, x, abc, k: _maxarc_top(n, q, 2, abc, k),
        endpoints=(("t_c at k = c", 2, "<0", lambda n, q, x, abc, k: abc[2]),
                   ("t_c at upper endpoint of the low interval", 2, "<0",
                    lambda n, q, x, abc, k: k - q ** (n - 3)),
                   ("t_a at lower endpoint of the high interval", 0, "<=1/2",
                    lambda n, q, x, abc, k: k + q ** (n - 3) if q > 2 else None),
                   ("t_a at k = 2q^{n-1} + theta_{n-3}", 0, "<0",
                    lambda n, q, x, abc, k: _maxarc_top(n, q, 2, abc, k) if q > 2 else None)),
        empty_note="high interval is empty for q = 2; its checks are skipped",
        pencil_u_a=lambda q, x: q // 2),
    Theorem(
        id="maxarc", param="d", default_n=4,
        hypotheses=((lambda n, q, d: d is not None, "the arc degree d is required"),
                    (lambda n, q, d: n >= 5, "need n >= 5, got n={n}"),
                    (lambda n, q, d: 2 <= d <= q - 1, "need 2 <= d <= q-1, got d={d}"),
                    (lambda n, q, d: gcd(d - 1, q) == 1, "need gcd(d-1, q) = 1, got d={d}, q={q}")),
        instance_hypotheses=((lambda n, q, d: q % 2 == 0 and q % d == 0,
                              "maximal arcs of degree 1 < d < q exist only for even q and d | q"
                              " (Denniston; Ball, Blokhuis and Mazzocca), got d={d}, q={q}"),),
        shape=lambda n, q, d: (n - 3, q * d + d - q, 0, d),
        base=objects.denniston_arc,
        modulus=lambda n, q, d: q ** (n - 3), k_max=_maxarc_top,
        endpoints=(("t_c at k = c", 2, "<0", lambda n, q, d, abc, k: abc[2]),
                   ("t_c at upper endpoint of the low interval", 2, "<0",
                    lambda n, q, d, abc, k: k - q ** (n - 3)),
                   ("t_a at lower endpoint of the high interval", 0, "<0",
                    lambda n, q, d, abc, k: k + q ** (n - 3)),
                   ("t_a at k = d*q^{n-1} + theta_{n-3}", 0, "<1", _maxarc_top)),
        pencil_u_a=lambda q, d: q // d),
)}


def _theorem(theorem_id: str) -> Theorem:
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    return THEOREMS[theorem_id]


def theorem_instance(theorem_id: str, n: int, q: int, t_or_d=None) -> TheoremInstance:
    """Fully populated parameters for one characterization at one (n, q).

    Raises HypothesisViolated when the named theorem's hypotheses fail.
    """
    th = _theorem(theorem_id)
    th.check(n, q, t_or_d)
    (a, b, c), k = th.integral_type(n, q, t_or_d)
    ts = t_closed_form(TypeParameters(a, b, c, n, q), k)
    if not all(t.denominator == 1 and t >= 1 for t in ts):
        raise HypothesisViolated(
            f"{theorem_id}: closed-form counts are not realizable at (n={n}, q={q})")
    return TheoremInstance(theorem_id=theorem_id, n=n, q=q, t_or_d=t_or_d,
                           a=a, b=b, c=c, expected_k=k,
                           expected_t=tuple(int(t) for t in ts),
                           vertex_dim=th.shape(n, q, t_or_d)[0])


def screen_defaults(theorem_id: str, n: int, q: int, t_or_d=None) -> tuple:
    """(type parameters, k range, congruences, K-points on the pencil axis)
    of the feasible-k screen for a theorem's type.  The theorem's
    hypotheses are not checked; a non-integral type raises
    HypothesisViolated."""
    th = _theorem(theorem_id)
    abc, k = th.integral_type(n, q, t_or_d)
    params = TypeParameters(*abc, n, q)
    k_max = th.k_max(n, q, t_or_d, abc, k)
    axis = params.a if th.axis_points is None else th.axis_points
    return params, range(params.c, k_max + 1), th.congruences(params, t_or_d), axis


# ---------------------------------------------------------------------------
# endpoint sign checks for the quadratic count expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignCheck:
    label: str
    k: Fraction
    value: Fraction
    claim: str  # "<0", "<=1/2", "<1"
    passed: bool


@dataclass(frozen=True)
class SignReport:
    theorem_id: str
    n: int
    q: int
    t_or_d: int | None
    checks: tuple
    notes: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


_CLAIMS = {
    "<0": lambda v: v < 0,
    "<=1/2": lambda v: v <= Fraction(1, 2),
    "<1": lambda v: v < 1,
}


def step_sign_check(theorem_id: str, n: int, q: int, t_or_d=None) -> SignReport:
    """Evaluate the interval-endpoint count expressions the proofs rely on
    and assert the claimed signs, in exact rational arithmetic.  The type
    may be rational here (degenerate Baer parameters)."""
    th = _theorem(theorem_id)
    if not th.endpoints:
        raise HypothesisViolated(f"no endpoint sign checks for theorem id {theorem_id!r}")
    th.check(n, q, t_or_d, instance=False)
    abc, k_theorem = cone_type(q, *th.shape(n, q, t_or_d))
    params = TypeParameters(*abc, n, q)
    checks = []
    for label, which, claim, size in th.endpoints:
        k = size(n, q, t_or_d, abc, k_theorem)
        if k is not None:
            value = t_closed_form(params, k)[which]
            checks.append(SignCheck(label=label, k=Fraction(k), value=value,
                                    claim=claim, passed=_CLAIMS[claim](value)))
    notes = (th.empty_note,) if len(checks) < len(th.endpoints) else ()
    return SignReport(theorem_id=theorem_id, n=n, q=q, t_or_d=t_or_d,
                      checks=tuple(checks), notes=notes)


# ---------------------------------------------------------------------------
# end-to-end verification of one instance
# ---------------------------------------------------------------------------

def _pencil_failures(th: Theorem, inst: TheoremInstance, K, counts) -> list:
    """The failures of the pencil law, `spectra.pencil_law_failures`, at the
    theorem's type and u_a; none where the theorem gives no u_a."""
    if th.pencil_u_a is None:
        return []
    return spectra.pencil_law_failures(K, counts, inst.a, inst.c,
                                       th.pencil_u_a(inst.q, inst.t_or_d))


def run_verification(theorem_id: str, n: int, q: int, t_or_d=None) -> dict:
    """Build the canonical cone and check every instance-level claim.
    The hyperplane counts of cone recognition give the spectrum and the
    pencils, so the run takes one transform.  The cone over the vertex
    and base recognized is rebuilt only where they are not those of K.

    Returns a report dict; report["ok"] is the overall verdict.
    """
    p, h = factor_field_order(q)  # before a closed form reads a q that is no field order
    charge(n, q)  # before any closed form grows with n
    inst = theorem_instance(theorem_id, n, q, t_or_d)
    th = THEOREMS[theorem_id]
    g = Geometry(field_new(p, h), n)
    V, X = objects.axis_vertex(g, inst.vertex_dim), th.base(g, t_or_d)
    K = objects.cone(g, V, X)
    vertex, base, counts = spectra._cone_structure(K)
    reproduced = vertex.dim >= 0 and (
        (np.array_equal(vertex.point_indices, V.point_indices) and base == X)
        or objects.cone(g, vertex, base) == K)
    failures = []

    if K.k != inst.expected_k:
        failures.append(f"size {K.k} != expected {inst.expected_k}")
    spec = spectra.spectrum_of_counts(K.geometry, counts, n - 1)
    expected_spec = dict(zip((inst.a, inst.b, inst.c), inst.expected_t))
    if spec.by_size != expected_spec:
        failures.append(f"spectrum {spec.by_size} != expected {expected_spec}")
    if not verify_identities(spec, K.k, n, q):
        failures.append("double-counting identities fail")

    conditions = th.congruences(inst.params, t_or_d)
    if not conditions:
        failures.append(f"congruence hypothesis fails mod {th.modulus(n, q, t_or_d)}")
    elif not all(holds(K.k) for holds in conditions):
        failures.append(f"k={K.k} fails a congruence")
    failures += _pencil_failures(th, inst, K, counts)

    if vertex.dim != inst.vertex_dim:
        failures.append(f"recognized vertex dim {vertex.dim} != {inst.vertex_dim}")
    if not reproduced:
        failures.append("recognition failed to reproduce the cone")

    sign_note = None
    if th.endpoints:
        report = step_sign_check(theorem_id, n, q, t_or_d)
        if not report.ok:
            failures.append("endpoint sign check failed")
        sign_note = [(c.label, str(c.value), c.claim, c.passed) for c in report.checks]

    return {
        "theorem": theorem_id, "n": n, "q": q, "t_or_d": t_or_d,
        "k": K.k, "spectrum": spec.by_size, "vertex_dim": vertex.dim,
        "sign_checks": sign_note, "failures": failures, "ok": not failures,
    }
