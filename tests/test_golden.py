"""Golden CLI output: the full stdout and exit code of `verify` for the five
characterizations at q = 4, and of `feasible-k --format csv` for each
theorem at its smallest (n, q) that the theorem's hypotheses admit."""

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


@pytest.mark.parametrize("argv,expected", FEASIBLE_K_GOLDEN,
                         ids=[argv[1] for argv, _ in FEASIBLE_K_GOLDEN])
def test_feasible_k_golden(argv, expected, capsys):
    assert main(["feasible-k", *argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected
