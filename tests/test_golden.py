"""Golden CLI output: the full stdout and exit code of `verify` for the five
characterizations at q = 4 and for `baer` at t = 2 in PG(5,16), of
`feasible-k --format csv` for each theorem at its smallest (n, q) that the
theorem's hypotheses admit, and of `spectrum` and `recognize` on two
constructed cones."""

import pytest

from pgcones.cli import main

VERIFY_GOLDEN = [
    (["--theorem", "hyperoval3", "--n", "3", "--q", "4"],
     "PASS hyperoval3 n=3 q=4\n"
     "  k=25 spectrum={1: 6, 6: 64, 9: 15} vertex_dim=0\n"),
    (["--theorem", "hyperovalN", "--n", "4", "--q", "4"],
     "PASS hyperovalN n=4 q=4\n"
     "  k=101 spectrum={5: 6, 25: 320, 37: 15} vertex_dim=1\n"),
    (["--theorem", "unital", "--n", "4", "--q", "4"],
     "PASS unital n=4 q=4\n"
     "  k=149 spectrum={21: 9, 37: 320, 53: 12} vertex_dim=1\n"),
    (["--theorem", "maxarc", "--n", "5", "--q", "4", "--d", "2"],
     "PASS maxarc n=5 q=4 t_or_d=2\n"
     "  k=405 spectrum={21: 6, 101: 1344, 149: 15} vertex_dim=2\n"),
    (["--theorem", "baer", "--n", "4", "--q", "4", "--t", "1"],
     "PASS baer n=4 q=4 t_or_d=1\n"
     "  k=117 spectrum={21: 14, 29: 320, 53: 7} vertex_dim=1\n"),
]

FEASIBLE_K_GOLDEN = [
    (["--theorem", "baer", "--n", "4", "--q", "4", "--t", "1"],
     "k,t_a,t_b,t_c,kept\n117,14,320,7,true\n"),
    (["--theorem", "unital", "--n", "4", "--q", "4"],
     "k,t_a,t_b,t_c,kept\n149,9,320,12,true\n"),
    (["--theorem", "hyperoval3", "--n", "3", "--q", "2"],
     "k,t_a,t_b,t_c,kept\n9,1,8,6,true\n"),
    (["--theorem", "hyperovalN", "--n", "4", "--q", "2"],
     "k,t_a,t_b,t_c,kept\n19,1,24,6,true\n"),
    (["--theorem", "maxarc", "--n", "5", "--q", "3", "--d", "2"],
     "k,t_a,t_b,t_c,kept\n148,3,351,10,false\n"),
]


@pytest.mark.parametrize("argv,expected", VERIFY_GOLDEN,
                         ids=[argv[1] for argv, _ in VERIFY_GOLDEN])
def test_verify_golden(argv, expected, capsys):
    assert main(["verify", *argv]) == 0
    assert capsys.readouterr().out == expected


def test_verify_golden_baer_at_a_point_vertex(capsys):
    # t = 2 at n = 2t+1: the vertex is a point and the congruence is mod sqrt q
    assert main(["verify", "--theorem", "baer", "--n", "5", "--q", "16", "--t", "2"]) == 0
    assert capsys.readouterr().out == (
        "PASS baer n=5 q=16 t_or_d=2\n"
        "  k=5457 spectrum={337: 69564, 341: 1048576, 1361: 341} vertex_dim=0\n")


@pytest.mark.parametrize("argv,expected", FEASIBLE_K_GOLDEN,
                         ids=[argv[1] for argv, _ in FEASIBLE_K_GOLDEN])
def test_feasible_k_golden(argv, expected, capsys):
    assert main(["feasible-k", *argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected


# the cones `spectrum` and `recognize` read, written by `construct`
CONES = {
    "unital": ["--object", "unital-cone", "--n", "4", "--q", "4"],
    "maxarc": ["--object", "maxarc-cone", "--n", "5", "--q", "4", "--d", "2"],
}

# (cone, --d or None for the hyperplanes, --format) -> stdout of `spectrum`
SPECTRUM_GOLDEN = {
    ("unital", None, "json"): """\
{
 "d": 3,
 "rows": [
  [
   21,
   9
  ],
  [
   37,
   320
  ],
  [
   53,
   12
  ]
 ],
 "total": 341,
 "identities_ok": true
}
""",
    ("unital", None, "csv"): """\
size,count
21,9
37,320
53,12
""",
    ("unital", "1", "json"): """\
{
 "d": 1,
 "rows": [
  [
   1,
   2544
  ],
  [
   3,
   3072
  ],
  [
   5,
   181
  ]
 ],
 "total": 5797,
 "identities_ok": true
}
""",
    ("unital", "1", "csv"): """\
size,count
1,2544
3,3072
5,181
""",
    ("unital", "2", "json"): """\
{
 "d": 2,
 "rows": [
  [
   5,
   732
  ],
  [
   9,
   4096
  ],
  [
   13,
   960
  ],
  [
   21,
   9
  ]
 ],
 "total": 5797,
 "identities_ok": true
}
""",
    ("unital", "2", "csv"): """\
size,count
5,732
9,4096
13,960
21,9
""",
    ("maxarc", None, "json"): """\
{
 "d": 4,
 "rows": [
  [
   21,
   6
  ],
  [
   101,
   1344
  ],
  [
   149,
   15
  ]
 ],
 "total": 1365,
 "identities_ok": true
}
""",
    ("maxarc", None, "csv"): """\
size,count
21,6
101,1344
149,15
""",
    ("maxarc", "1", "json"): """\
{
 "d": 1,
 "rows": [
  [
   0,
   24576
  ],
  [
   1,
   5040
  ],
  [
   2,
   61440
  ],
  [
   5,
   2037
  ]
 ],
 "total": 93093,
 "identities_ok": true
}
""",
    ("maxarc", "1", "csv"): """\
size,count
0,24576
1,5040
2,61440
5,2037
""",
    ("maxarc", "2", "json"): """\
{
 "d": 2,
 "rows": [
  [
   1,
   32256
  ],
  [
   5,
   1260
  ],
  [
   6,
   262144
  ],
  [
   9,
   80640
  ],
  [
   21,
   505
  ]
 ],
 "total": 376805,
 "identities_ok": true
}
""",
    ("maxarc", "2", "csv"): """\
size,count
1,32256
5,1260
6,262144
9,80640
21,505
""",
    # d = 3 > (n-1)/2: most combo blocks of a pattern hold one combo
    ("maxarc", "3", "json"): """\
{
 "d": 3,
 "rows": [
  [
   5,
   2016
  ],
  [
   21,
   15
  ],
  [
   25,
   86016
  ],
  [
   37,
   5040
  ],
  [
   85,
   6
  ]
 ],
 "total": 93093,
 "identities_ok": true
}
""",
    ("maxarc", "3", "csv"): """\
size,count
5,2016
21,15
25,86016
37,5040
85,6
""",
}

RECOGNIZE_GOLDEN = {
    "unital": """\
{
 "k": 149,
 "vertex_dim": 1,
 "base_size": 9,
 "is_cone_over_vertex": true
}
""",
    "maxarc": """\
{
 "k": 405,
 "vertex_dim": 2,
 "base_size": 6,
 "is_cone_over_vertex": true
}
""",

}


def _cone_file(tmp_path, cone):
    path = tmp_path / f"{cone}.json"
    assert main(["construct", *CONES[cone], "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("cone,d,fmt", list(SPECTRUM_GOLDEN),
                         ids=[f"{c}-d{d or 'default'}-{f}" for c, d, f in SPECTRUM_GOLDEN])
def test_spectrum_golden(cone, d, fmt, tmp_path, capsys):
    path = _cone_file(tmp_path, cone)
    capsys.readouterr()
    assert main(["spectrum", "--file", path, *(["--d", d] if d else []), "--format", fmt]) == 0
    assert capsys.readouterr().out == SPECTRUM_GOLDEN[cone, d, fmt]


@pytest.mark.parametrize("cone", list(RECOGNIZE_GOLDEN))
def test_recognize_golden(cone, tmp_path, capsys):
    path = _cone_file(tmp_path, cone)
    capsys.readouterr()
    assert main(["recognize", "--file", path]) == 0
    assert capsys.readouterr().out == RECOGNIZE_GOLDEN[cone]
