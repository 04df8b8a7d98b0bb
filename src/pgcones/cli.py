"""Command-line surface: construct / spectrum / verify / feasible-k / recognize.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input or failed
hypothesis.  Point-set files are JSON objects {p, h, n, points: [[c_0..c_n]]}
with integer-encoded field elements matching the field's element enumeration,
each point listed once, and an optional size equal to the number of points.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import counting, objects, spectra
from .errors import PgconesError
from .gf import factor_field_order, factor_prime_power, field_new
from .pg import Geometry, theta

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2

MAX_SCREEN = 10 ** 6  # values of k one feasible-k run screens, one at a time
MAX_BITS = 8192  # bits of q^(n+1) in a feasible-k screen, above every number it prints


# ---------------------------------------------------------------------------
# point-set files
# ---------------------------------------------------------------------------

def write_pointset(path, ps: objects.PointSet, object_name: str):
    g = ps.geometry
    doc = {
        "p": g.field.p,
        "h": g.field.h,
        "n": g.n,
        "object": object_name,
        "size": ps.k,
        "points": g.points[ps.indices].tolist(),
    }
    text = json.dumps(doc, indent=1) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def read_pointset(path) -> objects.PointSet:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a point-set file must hold a JSON object")
    for key in ("p", "h", "n", "points"):
        if key not in doc:
            raise ValueError(f"point-set file is missing the {key!r} field")
    for key in ("p", "h", "n"):
        if type(doc[key]) is not int:
            raise ValueError(f"point-set field {key!r} must be an integer, got {doc[key]!r}")
    points = doc["points"]
    if not isinstance(points, list):
        raise ValueError("point-set field 'points' must be a list of coordinate vectors")
    g = Geometry(field_new(doc["p"], doc["h"]), doc["n"])
    valid = next((i for i, vec in enumerate(points)
                  if not isinstance(vec, list) or len(vec) != g.n + 1
                  or not all(type(c) is int and 0 <= c < g.q for c in vec)), len(points))
    named = g.indices_of(np.array(points[:valid], dtype=np.int64).reshape(valid, g.n + 1))
    _, first, inverse = np.unique(named, return_index=True, return_inverse=True)
    # a zero vector or a repeat before the first invalid vector comes first in the file
    faults = np.flatnonzero((named < 0) | (first[inverse] != np.arange(valid)))
    if len(faults):
        i = faults[0]
        if named[i] < 0:
            raise ValueError(f"invalid coordinate vector {points[i]} (zero vector)")
        raise ValueError(f"duplicate point {points[i]} (same point as {points[first[inverse[i]]]})")
    if valid < len(points):
        raise ValueError(f"invalid coordinate vector {points[valid]}")
    if "size" in doc and (type(doc["size"]) is not int or doc["size"] != len(points)):
        raise ValueError(f"point-set field 'size' is {doc['size']!r},"
                         f" but the file lists {len(points)} points")
    return objects.pointset_from_indices(g, named)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

# object name -> (required arguments, constructor taking the geometry and args)
OBJECTS = {
    "hyperoval-cone": ((), lambda g, args: objects.hyperoval_cone(g)),
    "unital-cone": ((), lambda g, args: objects.unital_cone(g)),
    "maxarc-cone": (("d",), lambda g, args: objects.maxarc_cone(g, args.d)),
    "baer-cone": (("r", "s"), lambda g, args: objects.baer_cone(g, args.r, args.s)),
    "hyperoval": ((), lambda g, args: objects.hyperoval(g)),
    "unital": ((), lambda g, args: objects.hermitian_unital(g)),
    "denniston-arc": (("d",), lambda g, args: objects.denniston_arc(g, args.d)),
    "baer": (("s",), lambda g, args: objects.baer_subgeometry(g, args.s)),
}


def cmd_construct(args) -> int:
    g = Geometry(field_new(*factor_field_order(args.q)), args.n)
    required, build = OBJECTS[args.object]
    if any(getattr(args, name) is None for name in required):
        raise ValueError(f"{args.object} requires " + " and ".join(f"--{r}" for r in required))
    write_pointset(args.out, build(g, args), args.object)
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    ps = read_pointset(args.file)
    g = ps.geometry
    d = args.d if args.d is not None else g.n - 1
    spec = spectra.spectrum(ps, d, workers=args.workers)
    assert sum(spec.by_size.values()) == spec.total
    rows = sorted(spec.by_size.items())
    if args.format == "csv":
        print("size,count")
        for size, count in rows:
            print(f"{size},{count}")
    else:
        print(json.dumps({"d": spec.d, "rows": rows, "total": spec.total, "identities_ok":
                          counting.verify_identities(spec, ps.k, g.n, g.q)}, indent=1))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _theorem_args(args) -> tuple:
    """(n, extra parameter) of a --theorem command; the parameter the
    theorem names is required, and one it does not name is refused."""
    th = counting.THEOREMS[args.theorem]
    for name in ("t", "d"):
        if name != th.param and getattr(args, name) is not None:
            raise ValueError(f"--theorem {args.theorem} takes no --{name}")
    x = getattr(args, th.param) if th.param else None
    if th.param and x is None:
        raise ValueError(f"--theorem {args.theorem} requires --{th.param}")
    return (th.default_n if args.n is None else args.n), x


def cmd_verify(args) -> int:
    n, t_or_d = _theorem_args(args)
    report = counting.run_verification(args.theorem, n, args.q, t_or_d)
    verdict = "PASS" if report["ok"] else "FAIL"
    print(f"{verdict} {args.theorem} n={n} q={args.q}"
          + (f" t_or_d={t_or_d}" if t_or_d is not None else ""))
    print(f"  k={report['k']} spectrum={report['spectrum']}"
          f" vertex_dim={report['vertex_dim']}")
    for f in report["failures"]:
        print(f"  mismatch: {f}")
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# feasible-k
# ---------------------------------------------------------------------------

def cmd_feasible_k(args) -> int:
    bits = args.q.bit_length()
    if 3 * bits > MAX_BITS:  # every screen has n >= 2; factoring such a q would take seconds
        raise ValueError(f"q has {bits} bits, over the bound {MAX_BITS // 3}"
                         " of a screen at n >= 2")
    factor_prime_power(args.q)  # PG(n, q) exists only for prime powers q
    if args.n is not None and (args.n + 1) * bits > MAX_BITS:
        raise ValueError(f"n = {args.n} is over the bound {MAX_BITS // bits - 1}"
                         f" of a screen at q = {args.q}")
    if args.abc:
        for name in ("t", "d"):
            if getattr(args, name) is not None:
                raise ValueError(f"--abc takes no --{name}")
        if args.n is None:
            raise ValueError("--abc requires --n")
        if args.n < 2:
            raise ValueError(f"n must be >= 2, got {args.n}")
        a, b, c = args.abc
        if a < 0:
            raise ValueError(f"a must be >= 0, got {a}")
        hyperplane = theta(args.n - 1, args.q)  # points of a hyperplane of PG(n, q)
        if c > hyperplane:
            raise ValueError(f"c must be <= theta_{args.n - 1}({args.q}) = {hyperplane}, got {c}")
        params = counting.TypeParameters(a, b, c, args.n, args.q)
        krange, congs, axis_x = range(c, theta(args.n, args.q) + 1), (), a
    elif args.theorem:
        n, t_or_d = _theorem_args(args)
        # t is an exponent of sqrt(q) in the closed forms, d a factor
        if t_or_d is not None and abs(t_or_d) * bits > MAX_BITS:
            raise ValueError(f"{counting.THEOREMS[args.theorem].param} = {t_or_d} is over the"
                             f" bound {MAX_BITS // bits} of a screen at q = {args.q}")
        params, krange, congs, axis_x = counting.screen_defaults(args.theorem, n, args.q, t_or_d)
    else:
        raise ValueError("feasible-k requires --theorem or --abc")
    lo = krange.start if args.k_min is None else args.k_min
    hi = krange.stop - 1 if args.k_max is None else args.k_max
    if hi - lo + 1 > MAX_SCREEN:
        raise ValueError(f"the k range [{lo}, {hi}] holds {hi - lo + 1} values, over the bound"
                         f" {MAX_SCREEN}; narrow it with --k-min/--k-max")

    survivors = counting.feasible_k(params, range(lo, hi + 1), congs)
    rows = []
    for k, cert in survivors:
        sols = counting.pencil_feasible(params, k, u_a_min=1, axis_points=axis_x)
        rows.append({"k": k, "t": list(cert),
                     "pencil_solutions": [list(s) for s in sols],
                     "kept": bool(sols)})
    if args.format == "csv":
        print("k,t_a,t_b,t_c,kept")
        for r in rows:
            print(f"{r['k']},{r['t'][0]},{r['t'][1]},{r['t'][2]},{str(r['kept']).lower()}")
    else:
        print(json.dumps({"a": params.a, "b": params.b, "c": params.c,
                          "n": params.n, "q": params.q, "rows": rows}, indent=1))
    return EXIT_OK


# ---------------------------------------------------------------------------
# recognize
# ---------------------------------------------------------------------------

def cmd_recognize(args) -> int:
    ps = read_pointset(args.file)
    rec = spectra.recognize_cone(ps)
    print(json.dumps({
        "k": ps.k,
        "vertex_dim": rec.vertex.dim,
        "base_size": rec.base.k,
        "is_cone_over_vertex": rec.is_cone_over_vertex,
    }, indent=1))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _workers(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pgcones",
        description="Cone constructions, spectra and counting checks in PG(n,q)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a canonical point set")
    p.add_argument("--object", required=True, choices=OBJECTS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("spectrum", help="intersection spectrum of a point-set file")
    p.add_argument("--file", required=True)
    p.add_argument("--d", type=int, default=None,
                   help="subspace dimension (default: hyperplanes)")
    p.add_argument("--workers", type=_workers, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify", help="verify a characterization instance")
    p.add_argument("--theorem", required=True, choices=counting.THEOREMS)
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--d", type=int)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("feasible-k", help="screen candidate set sizes")
    p.add_argument("--theorem", choices=counting.THEOREMS)
    p.add_argument("--abc", type=int, nargs=3, metavar=("A", "B", "C"))
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_feasible_k)

    p = sub.add_parser("recognize", help="detect the cone structure of a point set")
    p.add_argument("--file", required=True)
    p.set_defaults(fn=cmd_recognize)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PgconesError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
