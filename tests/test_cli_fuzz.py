"""The exit-code contract of `pgcones.cli.main` on generated input.

Point files and argument vectors are drawn by hypothesis (derandomized in
conftest.py), within q <= 9 and n <= 4, or n up to 10^7 and t and d up to
10^9 either way on the command line.  Whatever the input, `main` returns
or exits with 0, 1 or 2 and never lets an exception or a traceback out; an
exit 2 names the problem on an `error:` line, and one that `main` reports
itself prints that line alone.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given
from hypothesis import strategies as st

from pgcones.cli import main

# (p, h, n) of the geometries a generated point file may name: every
# PG(n, q) with q <= 9 up to n = 3, and PG(4, q) up to q = 4, so that a
# line or plane scan stays small
GEOMETRIES = [(p, h, n) for (p, h) in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
              for n in (2, 3, 4) if n < 4 or p ** h <= 4]

RARELY = st.sampled_from([False] * 4 + [True])
JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                 st.lists(st.integers(-2, 3), max_size=3))


def _run(argv):
    """(exit code, stderr text, whether main reported the error itself)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc, own = main(argv), True
        except SystemExit as exc:  # argparse, after printing the usage
            rc, own = exc.code, False
    return rc, err.getvalue(), own


def _check(argv):
    rc, err, own = _run(argv)
    assert rc in (0, 1, 2), (argv, rc, err)
    assert "Traceback" not in err
    if rc == 2:
        lines = err.splitlines()
        assert any("error:" in line for line in lines), (argv, err)
        if own:
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)


@st.composite
def point_docs(draw):
    """A point-set document: mostly well formed, with one field or one
    vector spoiled now and then."""
    p, h, n = draw(st.sampled_from(GEOMETRIES))
    q = p ** h
    # distinct points, each with its first nonzero coordinate scaled to 1
    point = st.integers(0, n).flatmap(lambda lead: st.lists(
        st.integers(0, q - 1), min_size=n - lead, max_size=n - lead).map(
        lambda tail: [0] * lead + [1] + tail))
    points = draw(st.lists(point, max_size=30, unique_by=tuple))
    if draw(RARELY):  # spoil one vector
        bad = draw(st.one_of(
            st.lists(st.integers(-1, q), min_size=n + 1, max_size=n + 1),
            st.lists(st.integers(0, q - 1), min_size=0, max_size=n + 3),
            JUNK))
        points.insert(draw(st.integers(0, len(points))), bad)
    doc = {"p": p, "h": h, "n": n, "points": points}
    if draw(st.booleans()):
        doc["size"] = draw(st.one_of(st.just(len(points)), st.integers(-1, 40), JUNK))
    key = draw(st.sampled_from([None] * 6 + ["p", "h", "n", "points", "drop"]))
    if key == "drop":
        del doc[draw(st.sampled_from(["p", "h", "n", "points"]))]
    elif key is not None:
        doc[key] = draw(st.one_of(st.integers(-2, 9), JUNK))
    return doc


@given(doc=point_docs(), command=st.sampled_from(
    [["recognize"], ["spectrum"], ["spectrum", "--format", "csv"], ["spectrum", "--d", "0"],
     ["spectrum", "--d", "1"], ["spectrum", "--d", "2"], ["spectrum", "--d", "-1"],
     ["spectrum", "--d", "9"]]),
    text=st.sampled_from([None] * 15 + ["", "[1, 2", "[]", "7", "\"points\""]))
def test_point_files_keep_the_exit_code_contract(doc, command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "points.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(doc) if text is None else text)
        _check([command[0], "--file", path, *command[1:]])


# flag -> values drawn for it, the valid ones more often than the others
FLAG_VALUES = {
    # now and then an n from 22, over the byte budget at every q, up to 10^7
    "--n": st.sampled_from([2, 3, 4] * 3 + [-1, 0, 1] + [None] * 3).flatmap(
        lambda n: st.integers(22, 10 ** 7) if n is None else st.just(n)).map(str),
    "--q": st.sampled_from([2, 3, 4, 5, 7, 8, 9] * 3 + [-1, 0, 1, 6]).map(str),
    # now and then a t or d from anywhere within 10^9 either way
    "--t": st.sampled_from([1, 2] * 3 + [-1, 0, 3, None]).flatmap(
        lambda t: st.integers(-10 ** 9, 10 ** 9) if t is None else st.just(t)).map(str),
    "--d": st.sampled_from([2, 4] * 3 + [-1, 0, 1, 3, 5, None]).flatmap(
        lambda d: st.integers(-10 ** 9, 10 ** 9) if d is None else st.just(d)).map(str),
    "--r": st.integers(-2, 3).map(str),
    "--s": st.integers(-1, 4).map(str),
    "--k-min": st.integers(-5, 60).map(str),
    "--k-max": st.integers(-5, 60).map(str),
    "--workers": st.sampled_from([1, 2, 3] * 2 + [0]).map(str),
    "--format": st.sampled_from(["json", "csv"] * 3 + ["xml"]),
    "--theorem": st.sampled_from(["baer", "unital", "hyperoval3", "hyperovalN", "maxarc"] * 2
                                 + ["x"]),
    "--object": st.sampled_from(["hyperoval-cone", "unital-cone", "maxarc-cone", "baer-cone",
                                 "hyperoval", "unital", "denniston-arc", "baer", "x"]),
    "--abc": st.lists(st.integers(-2, 25).map(str), min_size=3, max_size=3).map(" ".join),
    "--file": st.sampled_from(["missing.json", "{cone}"]),
    "--out": st.just("-"),
}

# (command, flags it needs, flags it takes besides)
COMMANDS = [
    ("construct", ["--object", "--n", "--q", "--out"], ["--r", "--s", "--d"]),
    ("spectrum", ["--file"], ["--d", "--workers", "--format"]),
    ("verify", ["--theorem", "--q"], ["--n", "--t", "--d"]),
    ("feasible-k", ["--theorem", "--q"], ["--n", "--t", "--d", "--k-min", "--k-max", "--format"]),
    ("feasible-k", ["--abc", "--n", "--q"], ["--k-min", "--k-max", "--format"]),
    ("recognize", ["--file"], []),
]


@st.composite
def argument_vectors(draw):
    """A command with its needed flags, some of the others, and now and then
    a needed flag left out, a flag of another command, or a stray token."""
    command, needed, optional = draw(st.sampled_from(COMMANDS))
    flags = needed + (draw(st.lists(st.sampled_from(optional), unique=True)) if optional else [])
    if draw(RARELY):
        flags = [f for f in flags if f != draw(st.sampled_from(needed))]
    if draw(RARELY):
        flags.append(draw(st.sampled_from(sorted(FLAG_VALUES))))
    argv = [command]
    for flag in flags:
        argv += [flag, *draw(FLAG_VALUES[flag]).split()]
    if draw(RARELY):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["1", "-x", "--help"])))
    return argv


@given(argv=argument_vectors())
@example(argv=["verify", "--theorem", "hyperovalN", "--q", "4", "--n", str(10 ** 7)])
@example(argv=["construct", "--object", "unital-cone", "--n", str(10 ** 7), "--q", "9",
               "--out", "-"])
@example(argv=["feasible-k", "--abc", "1", "2", "3", "--n", str(10 ** 7), "--q", "2"])
@example(argv=["feasible-k", "--theorem", "baer", "--n", "5", "--q", "9", "--t", str(10 ** 8)])
def test_argument_vectors_keep_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        cone = os.path.join(tmp, "cone.json")
        if "{cone}" in argv:
            assert main(["construct", "--object", "hyperoval-cone", "--n", "3", "--q", "4",
                         "--out", cone]) == 0
        _check([cone if a == "{cone}" else
                os.path.join(tmp, a) if a == "missing.json" else a for a in argv])
