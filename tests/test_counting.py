"""Exact counting machinery: closed-form hyperplane counts, congruence
filters, pencil systems, and the per-theorem parameter tables."""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgcones import (
    Congruence,
    TypeParameters,
    feasible_k,
    field_new,
    geometry_new,
    hyperoval3_step1_congruences,
    lemma_congruence,
    pencil_counts,
    pencil_feasible,
    pointset_from_indices,
    recognize_cone,
    run_verification,
    screen_defaults,
    spectrum,
    step_sign_check,
    t_closed_form,
    theorem_instance,
    theta,
    verify_identities,
)
from pgcones.errors import (
    DegenerateType,
    EmptyRange,
    HypothesisViolated,
    NonSquareOrder,
    PgconesError,
)
from pgcones import kernels, objects, spectra
from pgcones.counting import THEOREMS, _pencil_failures, cone_type
from pgcones.gf import factor_prime_power
from pgcones.objects import axis_vertex, cone, hyperoval_cone
from pgcones.spectra import _counts

from oracles import (
    CLOSED_FORMS,
    PRIME_POWERS,
    admitted_instances,
    c_rs,
    closed_form_screen,
    hyperplane_point_indices,
    pencil_failures_full_trace,
    subspace_mask,
)


HYP3_Q4 = TypeParameters(1, 6, 9, 3, 4)


def test_c_rs_values():
    # [DERIVED] vertex dim r over a Baer subgeometry of dim s
    assert c_rs(-1, 0, 4) == 1
    assert c_rs(1, 1, 4) == 53
    assert c_rs(1, 2, 4) == 117
    assert c_rs(0, 2, 4) == 29


def test_c_rs_rational_for_negative_vertex_dim():
    v = c_rs(-2, 4, 16)
    assert isinstance(v, Fraction) and v.denominator != 1


def test_c_rs_bad_dimensions():
    with pytest.raises(ValueError):
        c_rs(1, -2, 4)


def _hypothesis_admitted(n_max):
    """(theorem id, n, q, t or d) for every n <= n_max, prime power q <= 128
    and t or d that `Theorem.check` admits without the instance hypotheses,
    t from 1 to n/2 and d from 2 to q-1; Baer's type is rational at n = 2t."""
    for theorem_id, th in THEOREMS.items():
        for n in range(2, n_max + 1):
            for q in PRIME_POWERS:
                for x in {"t": range(1, n // 2 + 1), "d": range(2, q)}.get(th.param, (None,)):
                    try:
                        th.check(n, q, x, instance=False)
                    except PgconesError:
                        continue
                    yield theorem_id, n, q, x


def test_cone_type_equals_each_theorems_closed_forms():
    # the one formula on each record's (r, |X|, x1, x2) gives the type, k and
    # vertex dimension derived for that theorem alone, each value an int or a
    # Fraction as there, at every admitted (n, q, t or d)
    rational = 0
    for theorem_id, n, q, x in _hypothesis_admitted(14):
        abc_of, k_of, r_of = CLOSED_FORMS[theorem_id]
        shape = THEOREMS[theorem_id].shape(n, q, x)
        got, want = cone_type(q, *shape), (abc_of(n, q, x), k_of(n, q, x))
        assert got == want and shape[0] == r_of(n, q, x), (theorem_id, n, q, x)
        assert [type(v) for v in (*got[0], got[1])] == [type(v) for v in (*want[0], want[1])]
        rational += not isinstance(got[0][1], int)
    assert rational == 36  # Baer at n = 2t


def _screen_or_refusal(screen, theorem_id, n, q, x):
    """The screen's parameters, k range, axis and lemma congruences, or
    None where it is refused."""
    try:
        params, krange, congruences, axis = screen(theorem_id, n, q, x)
    except (PgconesError, ValueError):
        return None
    return params, krange, axis, [c if isinstance(c, Congruence) else "divisibility"
                                  for c in congruences]


def test_screen_defaults_equal_the_closed_form_screen_outside_the_hypotheses():
    # the unsorted formula accepts and refuses what the closed forms do,
    # with the same screen, also where the hypotheses fail: n from 2, odd q
    # for the hyperovals, non-square q, and t or d from -3
    accepted = 0
    for theorem_id, th in THEOREMS.items():
        for n in range(2, 8):
            for q in (2, 3, 4, 5, 8, 9, 16, 25):
                for x in (range(-3, 12) if th.param else (None,)):
                    got = _screen_or_refusal(screen_defaults, theorem_id, n, q, x)
                    assert got == _screen_or_refusal(closed_form_screen, theorem_id, n, q, x), (
                        theorem_id, n, q, x)
                    accepted += got is not None
    assert accepted > 0


def test_type_parameters_require_strict_order():
    with pytest.raises(DegenerateType):
        TypeParameters(6, 6, 9, 3, 4)


def test_t_closed_form_hyperoval_cone_point():
    # [DERIVED] matches the actual spectrum of the 25-point cone in PG(3,4)
    assert t_closed_form(HYP3_Q4, 25) == (6, 64, 15)


def test_t_closed_form_rational_reject():
    ts = t_closed_form(HYP3_Q4, 10)
    assert ts[2] == Fraction(-25, 2)


def test_t_closed_form_solves_identities():
    for k in (12, 25, 30, 33):
        t_a, t_b, t_c = t_closed_form(HYP3_Q4, k)
        assert t_a + t_b + t_c == theta(3, 4)
        assert 1 * t_a + 6 * t_b + 9 * t_c == k * theta(2, 4)


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(0, 30),
    db=st.integers(1, 30),
    dc=st.integers(1, 30),
    n=st.integers(2, 6),
    q=st.sampled_from([2, 3, 4, 5, 8, 9]),
    k=st.integers(0, 400),
)
def test_t_closed_form_identities_always_hold(a, db, dc, n, q, k):
    # the three counts always solve the double-counting system exactly,
    # whatever (possibly unrealizable) type and size are fed in
    params = TypeParameters(a, a + db, a + db + dc, n, q)
    t_a, t_b, t_c = t_closed_form(params, k)
    sizes = (params.a, params.b, params.c)
    ts = (t_a, t_b, t_c)
    assert sum(ts) == theta(n, q)
    assert sum(m * t for m, t in zip(sizes, ts)) == k * theta(n - 1, q)
    assert sum(m * (m - 1) * t for m, t in zip(sizes, ts)) == k * (k - 1) * theta(n - 2, q)


def _t_closed_form_in_fractions(params, k):
    """The three counts with every term a Fraction, k first."""
    a, b, c, n, q = params.a, params.b, params.c, params.n, params.q
    th_n, th_n1, th_n2 = theta(n, q), theta(n - 1, q), theta(n - 2, q)
    k = Fraction(k)

    def quad(x, y):
        return k * k * th_n2 - k * (th_n2 + (x + y - 1) * th_n1) + x * y * th_n
    return (quad(b, c) / ((b - a) * (c - a)), quad(a, c) / ((c - b) * (a - b)),
            quad(a, b) / ((a - c) * (b - c)))


@pytest.mark.parametrize("theorem_id,n,q,x", [
    ("baer", 4, 16, 2), ("baer", 5, 16, 2), ("baer", 6, 16, 3), ("baer", 4, 9, 1),
    ("baer", 6, 4, 1), ("unital", 4, 4, None), ("unital", 5, 9, None), ("hyperoval3", 3, 8, None),
    ("hyperovalN", 4, 2, None), ("hyperovalN", 5, 8, None), ("maxarc", 5, 8, 4),
    ("maxarc", 6, 4, 2)])
def test_t_closed_form_equals_the_fraction_form(theorem_id, n, q, x):
    # integer arithmetic with one Fraction per count gives the values of the
    # form with every term a Fraction, on the theorem's type, rational for
    # the degenerate Baer types, at the screen's sizes from c, the theorem's
    # k, the sign-check endpoints and rational sizes
    th = THEOREMS[theorem_id]
    abc, k = cone_type(q, *th.shape(n, q, x))
    params = TypeParameters(*abc, n, q)
    sizes = [*range(int(abc[2]), int(abc[2]) + 40), k, Fraction(2 * k + 1, 2), Fraction(-3, 7)]
    sizes += [size(n, q, x, abc, k) for _, _, _, size in th.endpoints]
    for size in (size for size in sizes if size is not None):
        got = t_closed_form(params, size)
        assert got == _t_closed_form_in_fractions(params, size)
        assert all(isinstance(t, Fraction) for t in got)


def test_verify_identities_on_real_spectrum(pg34):
    K = hyperoval_cone(pg34)
    sp = spectrum(K, pg34.n - 1)
    assert verify_identities(sp, K.k, pg34.n, 4)


def test_verify_identities_detects_perturbation(pg34):
    K = hyperoval_cone(pg34)
    sp = spectrum(K, pg34.n - 1)
    bad = sp.by_size.copy()
    bad[6] += 1
    bad[9] -= 1
    broken = type(sp)(by_size=bad, d=sp.d, total=sp.total)
    assert not verify_identities(broken, K.k, pg34.n, 4)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_verify_identities_at_every_dimension(pg44, d):
    # the subspaces, their points and their pairs of points, counted over
    # the d-subspaces of PG(4,4) met by a seeded set and by its cone
    rng = np.random.default_rng(19)
    for K in (hyperoval_cone(pg44), pointset_from_indices(
            pg44, rng.choice(pg44.num_points, 40, replace=False).tolist())):
        sp = spectrum(K, d)
        assert verify_identities(sp, K.k, pg44.n, 4)
        # one subspace moved from each size to the next keeps the total only
        for m in sp.by_size:
            bad = sp.by_size.copy()
            bad[m] -= 1
            bad[m + 1] = bad.get(m + 1, 0) + 1
            assert not verify_identities(type(sp)(bad, d, sp.total), K.k, pg44.n, 4)
        # one subspace each to the sizes either side keeps the points too,
        # so only the pair count is off, by 2
        spread = [m for m, t in sp.by_size.items() if m > 0 and t > 1]
        assert spread
        for m in spread:
            bad = sp.by_size.copy()
            bad[m] -= 2
            bad[m - 1], bad[m + 1] = bad.get(m - 1, 0) + 1, bad.get(m + 1, 0) + 1
            assert not verify_identities(type(sp)(bad, d, sp.total), K.k, pg44.n, 4)


def test_congruence_holds():
    c = Congruence(alpha=5, beta=16)
    assert c.holds(149) and not c.holds(148)


def test_lemma_congruence_unital():
    # [DERIVED] 21, 37, 53 and theta_3 = 85 all leave residue 5 mod 16
    params = TypeParameters(21, 37, 53, 4, 4)
    cong = lemma_congruence(params, 16)
    assert cong == Congruence(alpha=5, beta=16)
    assert cong.holds(149)


def test_lemma_congruence_hyperoval_cone():
    params = TypeParameters(5, 25, 37, 4, 4)
    assert lemma_congruence(params, 4) == Congruence(alpha=1, beta=4)


def test_lemma_congruence_rejects_common_factor():
    # 3, 9, 15 and theta_2 = 21 share the residue 3 mod 6, which is not
    # coprime to 6; 2, 4 and 6 share 0 mod 2, but theta_2 leaves 1
    assert lemma_congruence(TypeParameters(3, 9, 15, 3, 4), 6) is None
    assert lemma_congruence(TypeParameters(2, 4, 6, 3, 4), 2) is None


def test_lemma_congruence_rejects_mixed_residues():
    assert lemma_congruence(TypeParameters(1, 6, 9, 3, 4), 4) is None


def test_pencil_feasible_generic_axis():
    # [DERIVED] axis carrying one point of the set, k = 25
    assert pencil_feasible(HYP3_Q4, 25) == [(2, 0, 3)]


def test_pencil_feasible_empty_axis_kills_30():
    # an axis disjoint from the set inside a 1-point hyperplane: no solutions
    assert pencil_feasible(HYP3_Q4, 30, u_a_min=1, axis_points=0) == []
    assert pencil_feasible(HYP3_Q4, 25, u_a_min=1, axis_points=0) == [(1, 4, 0)]


def test_feasible_k_screen():
    # [DERIVED] divisibility + integral non-negative counts over [9, 33]
    rows = feasible_k(HYP3_Q4, range(9, 34),
                      congruences=hyperoval3_step1_congruences(4))
    assert [k for k, _ in rows] == [25, 30]
    assert dict(rows)[25] == (6, 64, 15)


def test_feasible_k_single_value():
    params = TypeParameters(21, 37, 53, 4, 4)
    assert feasible_k(params, [149]) == [(149, (9, 320, 12))]


def test_feasible_k_empty_range():
    with pytest.raises(EmptyRange):
        feasible_k(HYP3_Q4, [])


def test_feasible_k_iterates_its_range_lazily():
    class Screened(Exception):
        pass

    def first(k):
        raise Screened(k)

    # a list of the range would exhaust memory before the first k
    with pytest.raises(Screened) as exc:
        feasible_k(HYP3_Q4, range(0, 10 ** 18), congruences=(first,))
    assert exc.value.args == (0,)


def test_theorem_instance_hyperoval3():
    inst = theorem_instance("hyperoval3", 3, 4)
    assert (inst.a, inst.b, inst.c) == (1, 6, 9)
    assert inst.expected_k == 25
    assert inst.expected_t == (6, 64, 15)
    assert inst.vertex_dim == 0


def test_theorem_instance_unital():
    inst = theorem_instance("unital", 4, 4)
    assert (inst.a, inst.b, inst.c) == (21, 37, 53)
    assert inst.expected_k == 149
    assert inst.expected_t == (9, 320, 12)
    assert inst.vertex_dim == 1


def test_theorem_instance_maxarc():
    inst = theorem_instance("maxarc", 5, 4, 2)
    assert inst.expected_k == 405
    assert inst.expected_t == (6, 1344, 15)
    assert inst.vertex_dim == 2


def test_theorem_instance_baer():
    inst = theorem_instance("baer", 4, 4, 1)
    assert (inst.a, inst.b, inst.c) == (21, 29, 53)
    assert inst.expected_k == 117
    assert inst.expected_t == (14, 320, 7)


def test_theorem_instance_hypothesis_failures():
    with pytest.raises(HypothesisViolated):
        theorem_instance("hyperoval3", 3, 9)  # hyperovals need even order
    with pytest.raises(HypothesisViolated):
        theorem_instance("maxarc", 5, 4, 3)  # gcd(d-1, q) != 1
    with pytest.raises(HypothesisViolated):
        theorem_instance("maxarc", 4, 4, 2)  # dimension too small
    with pytest.raises(HypothesisViolated, match="even q and d [|] q"):
        theorem_instance("maxarc", 5, 9, 3)  # no maximal arc at odd q
    with pytest.raises(HypothesisViolated, match="even q and d [|] q"):
        theorem_instance("maxarc", 5, 8, 6)  # 6 does not divide 8
    with pytest.raises(NonSquareOrder):
        theorem_instance("unital", 4, 8)
    with pytest.raises(HypothesisViolated):
        theorem_instance("baer", 4, 4, 2)  # q too small for t = 2
    with pytest.raises(HypothesisViolated):
        theorem_instance("baer", 4, 16, 2)  # degenerate: fractional b
    with pytest.raises(ValueError):
        theorem_instance("nonsense", 3, 4)
    with pytest.raises(HypothesisViolated, match="no extra parameter expected"):
        theorem_instance("hyperovalN", 4, 4, 7)  # hyperovalN names no parameter


def test_every_admitted_instance_meets_its_congruences():
    # with no geometry built: at every admitted instance the lemma's
    # hypothesis holds at the record's modulus, and k meets each condition
    # the one rule gives
    seen = set()
    for theorem_id, n, q, x, inst in admitted_instances(12):
        th = THEOREMS[theorem_id]
        if th.modulus is not None:
            assert lemma_congruence(inst.params, th.modulus(n, q, x)) is not None, (n, q, x)
        conditions = th.congruences(inst.params, x)
        assert conditions and all(holds(inst.expected_k) for holds in conditions), (n, q, x)
        seen.add(theorem_id)
    assert seen == set(THEOREMS)


@pytest.mark.parametrize("n,q,t", [(5, 16, 2), (5, 25, 2), (5, 49, 2), (7, 16, 3)])
def test_baer_screen_at_a_point_vertex_keeps_the_theorems_k(n, q, t):
    # at n = 2t+1 the modulus is sqrt q, and the screen keeps the one k it
    # kept with no congruence
    params, krange, congruences, _ = screen_defaults("baer", n, q, t)
    assert congruences == (Congruence(alpha=1, beta=isqrt(q)),)
    assert [k for k, _ in feasible_k(params, krange, congruences)] == [
        theorem_instance("baer", n, q, t).expected_k]


def test_step_sign_check_unital():
    report = step_sign_check("unital", 4, 4)
    assert report.ok and len(report.checks) == 3
    assert all(c.value < 0 for c in report.checks)


def test_step_sign_check_hyperoval_small_order_note():
    report = step_sign_check("hyperovalN", 4, 2)
    assert report.ok
    assert len(report.checks) == 2 and len(report.notes) == 1


def test_step_sign_check_hyperoval_large_order():
    report = step_sign_check("hyperovalN", 5, 8)
    assert report.ok and len(report.checks) == 4 and not report.notes


def test_step_sign_check_maxarc():
    assert step_sign_check("maxarc", 5, 4, 2).ok


def test_step_sign_check_baer_degenerate_type_still_evaluates():
    # fractional intersection sizes are fine here: everything is rational
    assert step_sign_check("baer", 5, 16, 2).ok
    assert step_sign_check("baer", 4, 16, 2).ok  # theorem_instance rejects this one


def test_step_sign_check_unknown_id():
    with pytest.raises(HypothesisViolated):
        step_sign_check("hyperoval3", 3, 4)


def test_run_verification_report():
    report = run_verification("hyperoval3", 3, 4)
    assert report["ok"] and report["failures"] == []
    assert report["sign_checks"] is None  # no endpoint sign checks for hyperoval3
    report = run_verification("unital", 4, 4)
    assert report["ok"] and report["spectrum"] == {21: 9, 37: 320, 53: 12}
    assert len(report["sign_checks"]) == 3


def _counted_cones(monkeypatch):
    calls, build = [], objects.cone

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(objects, "cone", counted)
    return calls


@pytest.mark.parametrize("theorem,n,q,x", [("hyperoval3", 3, 4, None), ("unital", 4, 4, None),
                                           ("hyperovalN", 4, 4, None), ("maxarc", 5, 4, 2),
                                           ("baer", 4, 4, 1)])
def test_verify_builds_its_cone_once(monkeypatch, theorem, n, q, x):
    # the recognized vertex and base are those the cone was built from, so
    # the cone over them is not built again
    calls = _counted_cones(monkeypatch)
    assert run_verification(theorem, n, q, x)["ok"]
    assert len(calls) == 1


def test_verify_rebuilds_a_cone_recognized_over_another_vertex(monkeypatch):
    # a wrong vertex, the last point, not the axis point 0 of the hyperoval
    # cone: the cone over it and its base is built and is not K
    calls = _counted_cones(monkeypatch)
    monkeypatch.setattr(kernels, "cone_points", lambda member, counts, points, *tables: points[-1:])
    report = run_verification("hyperoval3", 3, 4)
    assert "recognition failed to reproduce the cone" in report["failures"]
    assert len(calls) == 2 and not report["ok"]


# the theorem instances of the pencil-law tests: all four at q = 4, the
# unital in odd characteristic, hyperovalN at q = 8, and a maximal arc of
# degree d = 4, where u_a = q/d = 2
PENCIL_CASES = [("unital", 4, 4, None), ("hyperoval3", 3, 4, None), ("hyperovalN", 4, 4, None),
                ("maxarc", 5, 4, 2), ("unital", 4, 9, None), ("hyperovalN", 4, 8, None),
                ("maxarc", 5, 8, 4)]


@lru_cache(maxsize=None)
def _canonical_cone(theorem_id, n, q, x):
    th, inst = THEOREMS[theorem_id], theorem_instance(theorem_id, n, q, x)
    g = geometry_new(field_new(*factor_prime_power(q)), n)
    return th, inst, cone(g, axis_vertex(g, inst.vertex_dim), th.base(g, x))


def _pencil_law_by_brute_force(th, inst, K, counts):
    """The failures of the pencil law from point lists, sorted: K ∩ h from
    every point of each a-hyperplane h, one h per distinct K ∩ h, spanned
    with `Geometry.span`.  Where the span has a points, its axes in h are
    the span itself at dimension n-2; at dimension n-3 they join it to each
    point of h on no axis found before.  Each axis is recounted with
    `pencil_counts`."""
    g, n, q = K.geometry, inst.n, inst.q
    u_a = th.pencil_u_a(q, inst.t_or_d)
    law = {inst.a: u_a, inst.c: q + 1 - u_a}
    a_planes = np.flatnonzero(counts == inst.a)
    if a_planes.size == 0:
        return [f"no hyperplane meets K in a={inst.a} points to give the axes"]
    traces = {}
    for h in a_planes:
        row = hyperplane_point_indices(g, h)
        traces.setdefault(tuple(row[K.mask[row]]), row)
    failures, axes = [], []
    for trace, row in traces.items():
        span = g.span(trace)
        if len(span.point_indices) != inst.a:
            failures.append(f"K ∩ h spans dimension {span.dim} at an a-hyperplane h,"
                            f" not a subspace of a={inst.a} points")
        elif span.dim == n - 2:
            axes.append(span)
        else:
            assert span.dim == n - 3
            covered, found = subspace_mask(g, span), len(axes)
            for x in row[~covered[row]]:
                if not covered[x]:
                    axes.append(g.span(list(trace) + [x]))
                    covered[axes[-1].point_indices] = True
            assert len(axes) - found == q + 1
    failures += [f"axis profile {dict(sorted(u.items()))} != {law}"
                 for u in (pencil_counts(K, axis).u for axis in axes) if u != law]
    return sorted(failures)


@pytest.mark.parametrize("damage", [None, "remove", "add"])
@pytest.mark.parametrize("theorem_id,n,q,x", PENCIL_CASES)
def test_pencil_failures_match_pencil_counts(monkeypatch, theorem_id, n, q, x, damage):
    # the pencil law read off the hyperplane counts on dual lines equals the
    # law recounted over axes listed point by point, on the cone and with
    # one point off the vertex removed from it or one point added to it;
    # one a-hyperplane per dot-product gather changes nothing
    th, inst, K = _canonical_cone(theorem_id, n, q, x)
    g = K.geometry
    rng = np.random.default_rng(7)
    if damage:
        mask = K.mask.copy()
        off_vertex = np.setdiff1d(K.indices, recognize_cone(K).vertex.point_indices)
        mask[rng.choice(off_vertex if damage == "remove" else np.flatnonzero(~mask))] ^= True
        K = pointset_from_indices(g, np.flatnonzero(mask))
    counts = _counts(K, n - 1)
    got = _pencil_failures(th, inst, K, counts)
    assert sorted(got) == _pencil_law_by_brute_force(th, inst, K, counts)
    assert bool(got) == bool(damage)
    monkeypatch.setattr(kernels, "DOT_CELLS", 1)
    assert _pencil_failures(th, inst, K, counts) == got


def _damaged(K, a_planes, rng):
    """K with a few points changed, one of four ways: points dropped,
    points added, both, or one point of K ∩ h moved to a point of h off K
    for an a-hyperplane h of K."""
    g, mask = K.geometry, K.mask.copy()
    kind = rng.integers(4)
    if kind < 3:
        if kind != 1:
            mask[rng.choice(K.indices, size=rng.integers(1, 3), replace=False)] = False
        if kind != 0:
            mask[rng.choice(np.flatnonzero(~K.mask), size=rng.integers(1, 3), replace=False)] = True
    else:
        row = hyperplane_point_indices(g, rng.choice(a_planes))
        mask[rng.choice(row[K.mask[row]])] = False
        mask[rng.choice(row[~K.mask[row]])] = True
    return pointset_from_indices(g, np.flatnonzero(mask))


KINDS = ("no hyperplane", "axis profile", "not a subspace")


@pytest.mark.parametrize("theorem_id,n,q,x", PENCIL_CASES)
def test_pencil_failures_match_brute_force_on_damaged_sets(theorem_id, n, q, x):
    # a seeded differential, 50 damaged sets per instance, 10 in PG(5,8),
    # and 310 in all; every kind of failure the law can report occurs
    th, inst, K = _canonical_cone(theorem_id, n, q, x)
    a_planes = np.flatnonzero(_counts(K, n - 1) == inst.a)
    rng = np.random.default_rng(sum(map(ord, theorem_id)) + 100 * n + q)
    seen = set()
    for _ in range(10 if (n, q) == (5, 8) else 50):
        D = _damaged(K, a_planes, rng)
        counts = _counts(D, n - 1)
        got = _pencil_failures(th, inst, D, counts)
        assert sorted(got) == _pencil_law_by_brute_force(th, inst, D, counts)
        seen.update(kind for f in got for kind in KINDS if kind in f)
    kinds = {"axis profile", "not a subspace"}
    if inst.a == 1:  # one point is always a subspace
        kinds.remove("not a subspace")
    assert kinds <= seen


@pytest.mark.parametrize("theorem_id,n,q,x", [
    ("unital", 4, 9, None), ("unital", 4, 16, None), ("hyperovalN", 4, 8, None),
    ("hyperovalN", 5, 4, None), ("maxarc", 5, 8, 2), ("maxarc", 5, 8, 4), ("hyperoval3", 3, 16, None)])
def test_pencil_failures_match_the_full_trace_in_order(theorem_id, n, q, x):
    # the traces confirmed from r members, and the full traces where none
    # is, give the failures, in order, of the law read off every full trace:
    # the cone and 30 seeded damaged sets per instance, 8 in PG(4,16);
    # hyperoval3, where a = 1, samples one member per trace
    th, inst, K = _canonical_cone(theorem_id, n, q, x)
    counts = _counts(K, n - 1)
    assert _pencil_failures(th, inst, K, counts) == []
    assert pencil_failures_full_trace(th, inst, K, counts) == []
    a_planes = np.flatnonzero(counts == inst.a)
    rng = np.random.default_rng(sum(map(ord, theorem_id)) + 100 * n + q + 1)
    for _ in range(8 if q == 16 and n == 4 else 30):
        D = _damaged(K, a_planes, rng)
        counts = _counts(D, n - 1)
        want = pencil_failures_full_trace(th, inst, D, counts)
        assert _pencil_failures(th, inst, D, counts) == want


@pytest.mark.parametrize("fallback", ["below rank r", "above rank r", "span leaves K"])
def test_pencil_failures_fall_back_to_the_full_trace(monkeypatch, fallback):
    # member orders built against an a-hyperplane h of the PG(4,4) unital
    # cone, where a = 21 and r = 3, and K ∩ h is the plane joining the vertex
    # line V to a point P; the first block holds 71 of the 149 members:
    # - below rank r: the 5 points of a line L through P first, then the
    #   rest of K ∩ h, all in the first block, where h meets L's points
    #   first, so that its sample stays at rank 2 after all members;
    # - above rank r: a point of K ∩ h off V and P moved to a point y of h
    #   off K, y, P and V first: the sample has rank 4;
    # - span leaves K: the same set, P and V first and y last: the sample
    #   spans K ∩ h as it was, which holds the moved point.
    # h goes to the full trace, and the failures, in order, are its own.
    th, inst, K = _canonical_cone("unital", 4, 4, None)
    g, counts = K.geometry, _counts(K, 3)
    h = np.flatnonzero(counts == inst.a)[-1]
    row = hyperplane_point_indices(g, h)
    trace, vertex = row[K.mask[row]], recognize_cone(K).vertex.point_indices
    P = np.setdiff1d(trace, vertex)[0]
    D, last = K, []
    if fallback == "below rank r":
        line = g.span([P, vertex[0]]).point_indices
        first = [*line, *np.setdiff1d(trace, line)]
    else:
        mask, y = K.mask.copy(), row[~K.mask[row]][0]
        mask[np.setdiff1d(trace, [*vertex, P])[0]], mask[y] = False, True
        D = pointset_from_indices(g, np.flatnonzero(mask))
        first, last = ([y, P, *vertex], []) if fallback == "above rank r" else ([P, *vertex], [y])
        counts = _counts(D, 3)
    assert counts[h] == inst.a
    first, last = np.searchsorted(D.indices, first), np.searchsorted(D.indices, last)
    order = np.concatenate([first, np.setdiff1d(np.arange(D.k), [*first, *last]), last])
    rows, ranks = spectra._samples(g, np.array([h]), D.indices[order], 3, inst.a)
    assert ranks[0] == {"below rank r": 2, "above rank r": 4, "span leaves K": 3}[fallback]
    if fallback == "span leaves K":
        assert not spectra._inside(D, rows).any()
    monkeypatch.setattr(spectra, "_member_order", lambda k: order)
    full, planes = spectra._full_traces, []
    monkeypatch.setattr(spectra, "_full_traces",
                        lambda K, left, a: planes.extend(left.tolist()) or full(K, left, a))
    got = _pencil_failures(THEOREMS["unital"], inst, D, counts)
    assert h in planes
    assert got == pencil_failures_full_trace(THEOREMS["unital"], inst, D, counts)
    assert bool(got) == (D is not K)


@pytest.mark.parametrize("theorem_id,n,x", [("unital", 4, None), ("hyperoval3", 3, None),
                                            ("hyperovalN", 4, None), ("maxarc", 5, 2)])
def test_pencil_law_without_an_a_hyperplane_fails_once(theorem_id, n, x):
    # the a-hyperplanes meet the q = 4 cone in its vertex (or, for the
    # unital, in the vertex joined to a point of the unital), so without
    # one vertex point no hyperplane meets the set in a points
    th, inst, K = _canonical_cone(theorem_id, n, 4, x)
    mask = K.mask.copy()
    mask[recognize_cone(K).vertex.point_indices[0]] = False
    D = pointset_from_indices(K.geometry, np.flatnonzero(mask))
    counts = _counts(D, n - 1)
    assert not (counts == inst.a).any()
    assert _pencil_failures(th, inst, D, counts) == [
        f"no hyperplane meets K in a={inst.a} points to give the axes"]
