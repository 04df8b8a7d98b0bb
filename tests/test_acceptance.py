"""End-to-end acceptance gate: ten criteria, each printing one PASS/FAIL
line (run with -s to see them) and asserting exact values within a time
budget."""

import json
import time

import numpy as np
import pytest

from pgcones import (
    Congruence,
    TypeParameters,
    feasible_k,
    hyperoval3_step1_congruences,
    is_blocking,
    lemma_congruence,
    pencil_counts,
    pencil_feasible,
    recognize_cone,
    spectrum,
    step_sign_check,
    t_closed_form,
    theorem_instance,
    verify_identities,
)
from pgcones.cli import main
from pgcones.objects import (
    PointSet,
    baer_cone,
    hyperoval_cone,
    maxarc_cone,
    pointset_from_indices,
    unital_cone,
)

from oracles import hyperplane_point_indices


@pytest.fixture(scope="module", autouse=True)
def warm_kernels(pg34):
    # trigger any one-time compilation before the timed criteria run
    K = hyperoval_cone(pg34)
    spectrum(K, 2)
    spectrum(K, 1)
    recognize_cone(K)


def _report(name: str, ok: bool, elapsed=None):
    stamp = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"{'PASS' if ok else 'FAIL'} {name}{stamp}")
    assert ok, name


def test_criterion_1_hyperoval_cone(pg34):
    start = time.perf_counter()
    K = hyperoval_cone(pg34)
    sp = spectrum(K, 2)
    elapsed = time.perf_counter() - start
    ok = (K.k == 25 and sp.by_size == {1: 6, 6: 64, 9: 15}
          and sp.total == 85 and elapsed < 1.0)
    _report("criterion 1: hyperoval cone PG(3,4)", ok, elapsed)


def test_criterion_2_unital_cone(pg44):
    start = time.perf_counter()
    K = unital_cone(pg44)
    sp = spectrum(K, 3)
    pencils_ok = True
    counts = sp  # hyperplane profile
    for h in range(pg44.num_points):
        row = hyperplane_point_indices(pg44, h)
        in_h = row[K.mask[row]]
        if len(in_h) != 21:
            continue
        axis = pg44.span(list(in_h))
        prof = pencil_counts(K, axis)
        pencils_ok &= (axis.dim == 2 and prof.u == {21: 1, 53: 4})
    elapsed = time.perf_counter() - start
    ok = (K.k == 149 and sp.by_size == {21: 9, 37: 320, 53: 12}
          and pencils_ok and elapsed < 5.0)
    _report("criterion 2: unital cone PG(4,4) with pencil law", ok, elapsed)


def test_criterion_3_maxarc_cone(pg54):
    start = time.perf_counter()
    K = maxarc_cone(pg54, 2)
    sp = spectrum(K, 4)
    blocks = is_blocking(K, 2)
    elapsed = time.perf_counter() - start
    ok = (K.k == 405 and sp.by_size == {21: 6, 101: 1344, 149: 15}
          and blocks and elapsed < 60.0)
    _report("criterion 3: maximal-arc cone PG(5,4) blocks all planes", ok, elapsed)


def test_criterion_4_baer_cone(pg44):
    start = time.perf_counter()
    K = baer_cone(pg44, 1, 2)
    sp = spectrum(K, 3)
    elapsed = time.perf_counter() - start
    ok = (K.k == 117 and set(sp.by_size) == {21, 29, 53} and elapsed < 5.0)
    _report("criterion 4: Baer cone PG(4,4)", ok, elapsed)


def test_criterion_5_feasible_k_screen():
    inst = theorem_instance("hyperoval3", 3, 4)
    rows = feasible_k(inst.params, range(9, 34),
                      congruences=hyperoval3_step1_congruences(4))
    survivors = [k for k, _ in rows]
    kept = [k for k in survivors
            if pencil_feasible(inst.params, k, u_a_min=1, axis_points=0)]
    ok = survivors == [25, 30] and kept == [25]
    _report("criterion 5: size screen keeps 25 and kills 30", ok)


def test_criterion_6_random_sets_identity_suite(pg34):
    rng = np.random.default_rng(20260826)
    all_ok = True
    for _ in range(120):
        k = int(rng.integers(1, 86))
        idx = rng.choice(pg34.num_points, size=k, replace=False)
        K = pointset_from_indices(pg34, idx.tolist())
        sp = spectrum(K, 2)
        all_ok &= verify_identities(sp, k, 3, 4)
        if len(sp.by_size) == 3:
            sizes = sorted(sp.by_size)
            ts = t_closed_form(TypeParameters(*sizes, 3, 4), k)
            all_ok &= tuple(ts) == tuple(sp.by_size[s] for s in sizes)
    _report("criterion 6: counting identities on 120 random sets", all_ok)


def test_criterion_7_congruence_suite():
    ok = True
    # cone over a planar oval in dimension 3: the shared-residue route is
    # unavailable, so the two divisibility conditions stand in
    div1, div2 = hyperoval3_step1_congruences(4)
    ok &= div1(25) and div2(25)
    cases = [
        ("unital", 4, 4, None, 149, (16, 4)),
        ("maxarc", 5, 4, 2, 405, (16, 4)),
        ("baer", 4, 4, 1, 117, (4,)),
    ]
    for tid, n, q, t_or_d, k, betas in cases:
        inst = theorem_instance(tid, n, q, t_or_d)
        for beta in betas:
            cong = lemma_congruence(inst.params, beta)
            ok &= isinstance(cong, Congruence) and cong.holds(k)
    _report("criterion 7: residue conditions on all four instances", ok)


def test_criterion_8_recognition_round_trip(pg34, pg44, pg54):
    cones = [
        (hyperoval_cone(pg34), 0),
        (unital_cone(pg44), 1),
        (baer_cone(pg44, 1, 2), 1),
        (maxarc_cone(pg54, 2), 2),
    ]
    ok = True
    for K, vdim in cones:
        rec = recognize_cone(K)
        ok &= rec.is_cone_over_vertex and rec.vertex.dim == vdim

    # removing any single non-vertex point must break the structure
    K = cones[0][0]
    rec = recognize_cone(K)
    vertex_idx = set(rec.vertex.point_indices)
    removable = [i for i in K.indices if i not in vertex_idx]
    ok &= len(removable) == 24
    for i in removable:
        damaged = pointset_from_indices(pg34, [j for j in K.indices if j != i])
        rec2 = recognize_cone(damaged)
        ok &= (not rec2.is_cone_over_vertex) or rec2.vertex.dim < rec.vertex.dim
    _report("criterion 8: cone recognition and single-point damage", ok)


def test_criterion_9_sign_check_grid():
    start = time.perf_counter()
    grid = []
    grid += [("unital", n, q, None) for n in (4, 5) for q in (4, 9, 16)]
    grid += [("hyperovalN", n, q, None) for n in (4, 5) for q in (2, 4, 8)]
    grid += [("maxarc", 5, 4, 2)]
    grid += [("maxarc", 5, 8, d) for d in (2, 4)]
    grid += [("baer", n, q, 1) for n in (4, 5) for q in (4, 9, 16)]
    grid += [("baer", n, 16, 2) for n in (4, 5)]
    ok = all(step_sign_check(*case).ok for case in grid)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(f"criterion 9: endpoint signs on {len(grid)} grid cases", ok, elapsed)


def test_criterion_10_determinism(tmp_path, capsys):
    specs = [
        ("hyperoval-cone", "3"),
        ("unital-cone", "4"),
        ("baer-cone", "4", "--r", "1", "--s", "2"),
        ("maxarc-cone", "5", "--d", "2"),
    ]
    ok = True
    for name, n, *extra in specs:
        outs = []
        for run, workers in ((0, "1"), (1, "1"), (2, "4")):
            path = tmp_path / f"{name}-{run}.json"
            main(["construct", "--object", name, "--n", n, "--q", "4",
                  *extra, "--out", str(path)])
            main(["spectrum", "--file", str(path), "--workers", workers])
            outs.append((path.read_bytes(), capsys.readouterr().out))
        ok &= outs[0] == outs[1] == outs[2]
    with capsys.disabled():
        _report("criterion 10: byte-identical output across runs and workers", ok)
