"""Command-line round trips, formats, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from textwrap import dedent

import pytest

import pgcones
from pgcones import cli, kernels, objects
from pgcones.cli import main
from pgcones.counting import THEOREMS


def _construct(tmp_path, name, *extra):
    path = tmp_path / f"{name}.json"
    rc = main(["construct", "--object", name, *extra, "--out", str(path)])
    assert rc == 0
    return path


def test_construct_spectrum_csv(tmp_path, capsys):
    path = _construct(tmp_path, "hyperoval-cone", "--n", "3", "--q", "4")
    assert main(["spectrum", "--file", str(path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == "size,count\n1,6\n6,64\n9,15\n"


def test_spectrum_json_reports_identities(tmp_path, capsys):
    path = _construct(tmp_path, "hyperoval-cone", "--n", "3", "--q", "4")
    assert main(["spectrum", "--file", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identities_ok"] is True
    assert doc["total"] == 85
    assert doc["rows"] == [[1, 6], [6, 64], [9, 15]]


def test_import_and_one_worker_scans_load_no_thread_pool():
    # the pool module is imported only by a scan at more than one worker; a
    # fresh interpreter shows what `import pgcones.cli` and each scan load
    code = dedent("""
        import sys
        import pgcones.cli
        from pgcones import field_new, geometry_new, hyperoval_cone, spectrum
        loaded = ["concurrent.futures" in sys.modules]
        K = hyperoval_cone(geometry_new(field_new(2, 2), 3))
        spectrum(K, 1)
        loaded.append("concurrent.futures" in sys.modules)
        spectrum(K, 1, workers=2)
        print(loaded + ["concurrent.futures" in sys.modules])
    """)
    src = str(Path(pgcones.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[False, False, True]"


def test_construct_is_deterministic(tmp_path):
    p1 = _construct(tmp_path, "unital-cone", "--n", "4", "--q", "4")
    p2 = tmp_path / "again.json"
    main(["construct", "--object", "unital-cone", "--n", "4", "--q", "4",
          "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_spectrum_workers_agree(tmp_path, capsys):
    path = _construct(tmp_path, "unital-cone", "--n", "4", "--q", "4")
    main(["spectrum", "--file", str(path), "--workers", "1"])
    one = capsys.readouterr().out
    main(["spectrum", "--file", str(path), "--workers", "4"])
    four = capsys.readouterr().out
    assert one == four
    assert json.loads(one)["rows"] == [[21, 9], [37, 320], [53, 12]]


@pytest.mark.parametrize("d", ["1", "2"])
def test_spectrum_checks_the_identities_below_hyperplanes(tmp_path, capsys, monkeypatch, d):
    path = _construct(tmp_path, "unital-cone", "--n", "4", "--q", "4")
    assert main(["spectrum", "--file", str(path), "--d", d]) == 0
    assert json.loads(capsys.readouterr().out)["identities_ok"] is True
    spectrum = cli.spectra.spectrum

    def tampered(ps, d, workers=1):  # one subspace moved to the next size
        sp = spectrum(ps, d, workers)
        sizes, low = dict(sp.by_size), min(sp.by_size)
        sizes[low], sizes[low + 1] = sizes[low] - 1, sizes.get(low + 1, 0) + 1
        return type(sp)(sizes, sp.d, sp.total)

    monkeypatch.setattr(cli.spectra, "spectrum", tampered)
    assert main(["spectrum", "--file", str(path), "--d", d]) == 0
    assert json.loads(capsys.readouterr().out)["identities_ok"] is False


def test_spectrum_lower_dimension(tmp_path, capsys):
    path = _construct(tmp_path, "hyperoval", "--n", "2", "--q", "4")
    main(["spectrum", "--file", str(path), "--d", "1", "--format", "csv"])
    assert capsys.readouterr().out == "size,count\n0,6\n2,15\n"


def test_verify_pass(capsys):
    assert main(["verify", "--theorem", "hyperoval3", "--q", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS hyperoval3")
    assert "k=25" in out


def _damage_theorem(monkeypatch, theorem, **changes):
    monkeypatch.setitem(THEOREMS, theorem, dataclasses.replace(THEOREMS[theorem], **changes))


def _base_without_its_last_point(monkeypatch, theorem):
    build = THEOREMS[theorem].base

    def damaged(g, x):
        X = build(g, x)
        mask = X.mask.copy()
        mask[X.indices[-1]] = False
        return objects.PointSet(g, mask)
    _damage_theorem(monkeypatch, theorem, base=damaged)


def _last_hyperplane_count_one_too_high(monkeypatch, theorem):
    count = kernels.hyperplane_intersection_counts

    def damaged(*args):
        counts = count(*args)
        counts[-1] += 1
        return counts
    monkeypatch.setattr(kernels, "hyperplane_intersection_counts", damaged)


BAER = ["baer", "--n", "4", "--q", "4", "--t", "1"]
UNITAL = ["unital", "--n", "4", "--q", "4"]
BAER_SPECTRUM = "{21: 14, 29: 320, 53: 7}"


@pytest.mark.parametrize("argv,damage,printed", [
    (BAER, _base_without_its_last_point,
     ["FAIL baer n=4 q=4 t_or_d=1",
      "  k=101 spectrum={5: 2, 21: 12, 25: 320, 37: 3, 53: 4} vertex_dim=1",
      "  mismatch: size 101 != expected 117",
      "  mismatch: spectrum {5: 2, 21: 12, 25: 320, 37: 3, 53: 4} != expected " + BAER_SPECTRUM]),
    (BAER, lambda mp, th: _damage_theorem(  # a base that is a whole plane: K is PG(4,4)
        mp, th, base=lambda g, t: objects.PointSet(g, (g.points[:, 3:] == 0).all(axis=1))),
     ["FAIL baer n=4 q=4 t_or_d=1",
      "  k=341 spectrum={85: 341} vertex_dim=4",
      "  mismatch: size 341 != expected 117",
      "  mismatch: spectrum {85: 341} != expected " + BAER_SPECTRUM,
      "  mismatch: recognized vertex dim 4 != 1"]),
    (BAER, _last_hyperplane_count_one_too_high,
     ["FAIL baer n=4 q=4 t_or_d=1",
      "  k=117 spectrum={21: 14, 29: 319, 30: 1, 53: 7} vertex_dim=0",
      "  mismatch: spectrum {21: 14, 29: 319, 30: 1, 53: 7} != expected " + BAER_SPECTRUM,
      "  mismatch: double-counting identities fail",
      "  mismatch: recognized vertex dim 0 != 1"]),
    (UNITAL, lambda mp, th: _damage_theorem(  # 21, 37, 53 and 85 leave 0, 1, 2 and 1 mod 3
        mp, th, modulus=lambda n, q, x: 3),
     ["FAIL unital n=4 q=4",
      "  k=149 spectrum={21: 9, 37: 320, 53: 12} vertex_dim=1",
      "  mismatch: congruence hypothesis fails mod 3"]),
    (["hyperoval3", "--q", "4"], lambda mp, th: _damage_theorem(  # 6 does not divide k = 25
        mp, th, divisibilities=lambda q: (lambda k: k % (q + 2) == 0,)),
     ["FAIL hyperoval3 n=3 q=4",
      "  k=25 spectrum={1: 6, 6: 64, 9: 15} vertex_dim=0",
      "  mismatch: k=25 fails a congruence"]),
    (UNITAL, lambda mp, th: _damage_theorem(  # t_b at the cone's own k is 320, not < 0
        mp, th, endpoints=(("t_b at k", 1, "<0", lambda n, q, x, abc, k: k),)),
     ["FAIL unital n=4 q=4",
      "  k=149 spectrum={21: 9, 37: 320, 53: 12} vertex_dim=1",
      "  mismatch: endpoint sign check failed"]),
], ids=["base-without-a-point", "base-a-whole-plane", "a-count-one-too-high",
        "modulus-without-the-lemma", "divisibility-k-misses", "endpoint-claim-that-fails"])
def test_verify_prints_each_mismatch(monkeypatch, capsys, argv, damage, printed):
    # a damaged theorem record, or damaged hyperplane counts, fails one or
    # more of the checks of `run_verification`, each printed on its own line
    damage(monkeypatch, argv[0])
    assert main(["verify", "--theorem", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == printed and captured.err == ""


def test_calls_in_one_process_share_the_parser(tmp_path, capsys):
    # the parser is built once; a parse error in between leaves it as it was
    argv = ["verify", "--theorem", "hyperoval3", "--q", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "hyperoval3", "--q", "4", "--no-such-flag"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    path = _construct(tmp_path, "hyperoval-cone", "--n", "3", "--q", "4")
    capsys.readouterr()
    assert main(["spectrum", "--file", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "size,count\n1,6\n6,64\n9,15\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_rejects_bad_arc_degree(capsys):
    rc = main(["verify", "--theorem", "maxarc", "--n", "5", "--q", "4", "--d", "3"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("q,d", [(9, 3), (8, 6)], ids=["odd-q", "d-not-dividing-q"])
def test_verify_names_the_maxarc_existence_condition(q, d, capsys):
    # both pass gcd(d-1, q) = 1, but no maximal arc of degree d exists in
    # PG(2, q), so no canonical cone is built
    assert main(["verify", "--theorem", "maxarc", "--n", "5", "--q", str(q), "--d", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: maxarc: maximal arcs of degree 1 < d < q exist only for"
                            f" even q and d | q (Denniston; Ball, Blokhuis and Mazzocca),"
                            f" got d={d}, q={q}\n")


def test_feasible_k_screen_csv(capsys):
    rc = main(["feasible-k", "--theorem", "hyperoval3", "--q", "4",
               "--k-min", "9", "--k-max", "33", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["k,t_a,t_b,t_c,kept", "25,6,64,15,true", "30,3,37,45,false"]


def test_feasible_k_large_prime_q(capsys):
    # q = 10^9 + 7 is prime: it is its own first exact root, and no k survives
    rc = main(["feasible-k", "--abc", "1", "2", "3", "--n", "3", "--q", "1000000007",
               "--k-max", "10"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["rows"] == []


@pytest.mark.parametrize("argv", [
    ["--abc", "1", "2", "3", "--n", "9", "--q", "9", "--format", "csv"],
    ["--theorem", "unital", "--n", "9", "--q", "9"],
    ["--abc", "1", "2", "3", "--n", "3", "--q", "4", "--k-min", "0", "--k-max", "1000000"],
], ids=["abc", "theorem", "explicit-bounds"])
def test_feasible_k_refuses_a_screen_over_the_bound(capsys, argv):
    # about 4.4 * 10^8 values of k for the first; refused before any is screened
    start = time.perf_counter()
    assert main(["feasible-k", *argv]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "--k-min/--k-max" in captured.err and "1000000" in captured.err


def test_feasible_k_screens_a_range_at_the_bound(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_SCREEN", 10)
    argv = ["feasible-k", "--abc", "1", "6", "9", "--n", "3", "--q", "4", "--k-min", "21"]
    assert main(argv + ["--k-max", "30"]) == 0
    assert [r["k"] for r in json.loads(capsys.readouterr().out)["rows"]] == [25, 30]
    assert main(argv + ["--k-max", "31"]) == 2


def test_feasible_k_manual_type(capsys):
    rc = main(["feasible-k", "--abc", "21", "37", "53", "--n", "4", "--q", "4",
               "--k-min", "149", "--k-max", "149"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["k"] == 149
    assert doc["rows"][0]["t"] == [9, 320, 12]


def test_recognize_cone_file(tmp_path, capsys):
    path = _construct(tmp_path, "hyperoval-cone", "--n", "3", "--q", "4")
    assert main(["recognize", "--file", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"k": 25, "vertex_dim": 0, "base_size": 6,
                   "is_cone_over_vertex": True}


def test_invalid_vector_named_in_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "p": 2, "h": 2, "n": 2, "object": "junk", "size": 1,
        "points": [[1, 0, 0], [9, 0, 1]],
    }))
    assert main(["spectrum", "--file", str(path)]) == 2
    assert "[9, 0, 1]" in capsys.readouterr().err


def test_missing_file_is_invalid(tmp_path, capsys):
    assert main(["spectrum", "--file", str(tmp_path / "nope.json")]) == 2


def test_bad_construct_arguments(capsys):
    assert main(["construct", "--object", "maxarc-cone", "--n", "5", "--q", "4",
                 "--out", "-"]) == 2  # missing --d
    capsys.readouterr()
    assert main(["construct", "--object", "hyperoval", "--n", "2", "--q", "9",
                 "--out", "-"]) == 2  # odd order has no such arc


@pytest.mark.parametrize("r,s,message", [
    ("10", "-7", "need s >= -1 and r+s < n, got r=10, s=-7, n=4"),
    ("-5", "2", "need -1 <= r <= n, got r=-5, n=4"),
])
def test_construct_baer_cone_refuses_r_or_s_out_of_range(capsys, r, s, message):
    assert main(["construct", "--object", "baer-cone", "--n", "4", "--q", "4",
                 "--r", r, "--s", s, "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["baer", "--n", "4", "--q", "4", "--s", "9"], "need 0 <= s <= n, got s=9"),
    (["unital", "--n", "2", "--q", "8"], "q = 8 is not a square"),
    (["denniston-arc", "--n", "2", "--q", "8", "--d", "1"],
     "degree must satisfy 2 <= d <= q, got d=1"),
], ids=["baer-s-over-n", "unital-q-not-a-square", "denniston-arc-degree-1"])
def test_construct_refuses_a_base_that_does_not_exist(capsys, argv, message):
    assert main(["construct", "--object", *argv, "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_construct_a_planar_base_in_space(capsys):
    # a planar base lies in the plane x_3 = ... = x_n = 0 of any PG(n,q)
    assert main(["construct", "--object", "hyperoval", "--n", "4", "--q", "4",
                 "--out", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4 and doc["size"] == 6 == len(doc["points"])
    assert all(pt[3:] == [0, 0] for pt in doc["points"])


@pytest.mark.parametrize("argv", [
    ["--abc", "21", "37", "53", "--q", "4"],             # no --n
    ["--theorem", "maxarc", "--n", "5", "--q", "4"],     # no --d
    ["--theorem", "baer", "--n", "4", "--q", "4"],       # no --t
], ids=["abc-without-n", "maxarc-without-d", "baer-without-t"])
def test_feasible_k_missing_parameter(argv, capsys):
    assert main(["feasible-k", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,named", [
    (["verify", "--theorem", "unital", "--q", "9", "--t", "3"], "--theorem unital takes no --t"),
    (["verify", "--theorem", "baer", "--n", "4", "--q", "9", "--t", "1", "--d", "5"],
     "--theorem baer takes no --d"),
    (["feasible-k", "--theorem", "hyperoval3", "--q", "4", "--t", "7"],
     "--theorem hyperoval3 takes no --t"),
    (["feasible-k", "--abc", "1", "6", "9", "--n", "3", "--q", "4", "--t", "7", "--k-max", "30",
      "--format", "csv"], "--abc takes no --t"),
    (["feasible-k", "--abc", "1", "6", "9", "--n", "3", "--q", "4", "--d", "2"],
     "--abc takes no --d"),
], ids=["verify-unital-t", "verify-baer-d", "feasible-k-hyperoval3-t", "feasible-k-abc-t",
        "feasible-k-abc-d"])
def test_theorem_refuses_a_parameter_it_does_not_name(argv, named, capsys):
    # refused, not dropped: the run would not be the one the command line asks for
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


@pytest.mark.parametrize("argv,named", [
    (["--abc", "1", "2", "3", "--n", "3", "--q", "1"], "q must be >= 2, got 1"),
    (["--abc", "1", "6", "9", "--n", "3", "--q", "6", "--format", "csv"],
     "q = 6 is not a prime power"),
    (["--theorem", "hyperoval3", "--q", "1"], "q must be >= 2, got 1"),
    (["--theorem", "hyperoval3", "--q", "6"], "q = 6 is not a prime power"),
], ids=["abc-q1", "abc-q6", "theorem-q1", "theorem-q6"])
def test_feasible_k_rejects_non_prime_power_q(argv, named, capsys):
    assert main(["feasible-k", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


@pytest.mark.parametrize("argv,named", [
    (["--theorem", "hyperoval3", "--q", "0"], "q must be >= 2, got 0"),
    (["--theorem", "hyperoval3", "--q", "-2"], "q must be >= 2, got -2"),
    (["--theorem", "hyperovalN", "--n", "4", "--q", "0"], "q must be >= 2, got 0"),
    (["--theorem", "hyperoval3", "--q", "6"], "q = 6 is not a prime power"),
], ids=["hyperoval3-q0", "hyperoval3-q-2", "hyperovalN-q0", "hyperoval3-q6"])
def test_verify_rejects_non_prime_power_q(argv, named, capsys):
    # q is checked before the closed forms of the type, which would read a
    # q that is no field order as a degenerate type
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


@pytest.mark.parametrize("argv,named", [
    (["--abc", "-1", "2", "3", "--n", "3", "--q", "4", "--format", "csv"],
     "a must be >= 0, got -1"),
    (["--abc", "1", "2", "22", "--n", "3", "--q", "4"], "c must be <= theta_2(4) = 21, got 22"),
    (["--abc", "1", "2", "3", "--n", "1", "--q", "4"], "n must be >= 2, got 1"),
], ids=["abc-negative-a", "abc-c-over-a-hyperplane", "abc-n1"])
def test_feasible_k_rejects_impossible_types(argv, named, capsys):
    assert main(["feasible-k", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


def test_feasible_k_accepts_the_bounds_of_a_type(capsys):
    # a = 0, c = theta_1(4) = 5 (a whole line of PG(2,4)) and n = 2 are possible
    assert main(["feasible-k", "--abc", "0", "1", "5", "--n", "2", "--q", "4",
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("k,t_a,t_b,t_c,kept\n")


_POINTS_DOC = {"p": 2, "h": 2, "n": 2, "object": "junk", "size": 2,
               "points": [[1, 0, 0], [0, 1, 0]]}


@pytest.mark.parametrize("change,named", [
    ({"p": "2"}, "'p'"),
    ({"h": True}, "'h'"),
    ({"n": 2.0}, "'n'"),
    ({"points": [[True, 0, 0], [0, 1, 0]]}, "[True, 0, 0]"),
    ({"points": [[1, 0, 0], [1, 0, 0]]}, "duplicate point [1, 0, 0]"),
    ({"points": [[1, 1, 0], [2, 2, 0]]}, "duplicate point [2, 2, 0]"),  # same projective point
    # the first fault in file order is reported, a duplicate or an invalid vector
    ({"points": [[1, 0, 0], [1, 0, 0], [1, 0]]}, "duplicate point [1, 0, 0]"),
    ({"points": [[1, 0, 0], [1, 0], [1, 0, 0]]}, "invalid coordinate vector [1, 0]"),
    ({"points": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}, "vector [0, 0, 0] (zero vector)"),
    ({"size": 3}, "'size'"),
    ({"size": True}, "'size'"),
    # refused before a primality test of p or a power p ** h is computed
    ({"p": 2 ** 61 - 1}, "exceeds the bound 128"),
    ({"h": 10 ** 12}, "exceeds the bound 128"),
], ids=["p-string", "h-bool", "n-float", "bool-coordinate", "duplicate", "duplicate-scaled",
        "invalid-after-duplicate", "duplicate-after-invalid", "zero-vector", "size-mismatch",
        "size-bool", "p-huge-prime", "h-huge"])
def test_point_file_contract(tmp_path, capsys, change, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_POINTS_DOC, **change}))
    assert main(["spectrum", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert named in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--file", "unused.json", "--workers", "0"],
    ["verify", "--theorem", "hyperoval3", "--q", "4", "--workers", "-3"],
    ["feasible-k", "--theorem", "hyperoval3", "--q", "4", "--workers", "1"],  # no such flag
], ids=["spectrum-workers-0", "verify-workers-negative", "feasible-k-workers"])
def test_rejected_worker_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "hyperovalN", "--n", "3000000", "--q", "4"],
    ["verify", "--theorem", "unital", "--n", "100000", "--q", "4"],
    ["construct", "--object", "hyperoval-cone", "--n", "3000000", "--q", "4"],
    ["feasible-k", "--theorem", "unital", "--n", "100000", "--q", "4"],
    ["feasible-k", "--theorem", "baer", "--n", "5", "--q", "16", "--t", "100000000"],
    ["feasible-k", "--theorem", "maxarc", "--n", "5", "--q", "4", "--d", "-1000000000"],
    ["verify", "--theorem", "hyperoval3", "--q", "1000000000000000003"],
], ids=["verify-hyperovalN", "verify-unital", "construct", "feasible-k", "feasible-k-baer-t",
        "feasible-k-maxarc-d", "verify-odd-q"])
def test_huge_n_exits_2_before_big_integer_work(argv, capsys):
    # n, t and d are bounded before theta_n(q) or a closed form of the
    # theorem is computed, and the q of verify before it is factored
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "exceeds the bound" in err or "over the bound" in err


def test_feasible_k_factors_an_18_digit_prime_at_once(capsys):
    q = 10 ** 18 + 3  # prime
    start = time.perf_counter()
    assert main(["feasible-k", "--theorem", "hyperoval3", "--q", str(q)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: the k range [") and "narrow it with --k-min/--k-max" in err
    assert main(["feasible-k", "--theorem", "hyperoval3", "--q", str(q),
                 "--k-min", str(2 * q + 1), "--k-max", str(2 * q + 100)]) == 0
    assert json.loads(capsys.readouterr().out)["q"] == q


def test_feasible_k_refuses_a_q_over_the_bit_bound_before_factoring(capsys):
    # 4300 digits, Python's limit for parsing an int: factor_prime_power
    # would take seconds of bisection on it, and no screen at n >= 2 fits
    q = 10 ** 4299 + 1
    start = time.perf_counter()
    assert main(["feasible-k", "--theorem", "hyperoval3", "--q", str(q)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: q has 14281 bits, over the bound 2730 of a screen at n >= 2\n"


def test_construct_refuses_an_order_over_the_bound_before_factoring(capsys):
    # an 18-digit prime q is held against the field-order bound before it is
    # factored, so every q over the bound, prime power or not, is refused
    # with one message that names the bound
    start = time.perf_counter()
    assert main(["construct", "--object", "hyperoval-cone", "--n", "3",
                 "--q", "1000000000000000003", "--out", "-"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p^h = 1000000000000000003 exceeds the bound 128\n"


def test_verify_over_the_byte_budget_exits_2(capsys):
    # PG(4,64) has 17 043 521 points and needs more bytes than MAX_BYTES:
    # refused before anything is allocated
    tracemalloc.start()
    try:
        assert main(["verify", "--theorem", "unital", "--n", "4", "--q", "64"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: PG(4,64) needs 2351473288 bytes, which exceeds the bound"
                            " of 1610612736 bytes\n")


@pytest.mark.parametrize("p,n,d,need", [(2, 10, 3, 5234323378), (3, 8, 3, 37085600887)],
                         ids=["PG(10,2)-d3", "PG(8,3)-d3"])
def test_spectrum_over_the_scan_bound_exits_2(tmp_path, capsys, p, n, d, need):
    # a one-point file whose d-subspace scan is charged before it is planned
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"p": p, "h": 1, "n": n, "object": "junk", "size": 1,
                                "points": [[1] + [0] * n]}))
    start = time.perf_counter()
    assert main(["spectrum", "--file", str(path), "--d", str(d)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: PG({n},{p}) needs {need} bytes with its {d}-subspaces,"
                            f" which exceeds the bound of 1610612736 bytes\n")
