"""The benchmark's three workloads: fixed task lists generated from a seed.

Each workload has `setup(seed, smoke)`, which generates the inputs and
builds whatever the workload keeps across tasks, `warm_up(state)`, and
`tasks(state, pass_index)`, the list of tasks of one pass.  A task's call
goes through the public API or the in-process CLI and looks up the pgcones
function at call time, so a Tracer installed around the pass sees it.
`smoke` swaps in tiny instances for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pgcones import cli, counting, gf, objects, pg, spectra
from pgcones.errors import NotBlocking

import checks


@dataclass(frozen=True)
class Task:
    label: str
    part: str                       # the part metric its time counts towards
    call: Callable[[], object]      # the timed program call
    check: Callable[[object], None] # raises checks.Mismatch on a wrong result
    geometries: tuple = ()          # (n, q) of every geometry the call builds


# ---------------------------------------------------------------------------
# memory guard: the dense incidence matrix is the largest allocation
# ---------------------------------------------------------------------------

MEMORY_BUDGET_BYTES = 2 * 2 ** 30
# Peak RSS per incidence cell (theta_n^2 of them): building PG(4,9) and
# querying its hyperplanes peaked near 10 bytes per cell.
PEAK_BYTES_PER_CELL = 10


class OverBudget(Exception):
    """A task's estimated footprint exceeds MEMORY_BUDGET_BYTES."""


def footprint_bytes(n: int, q: int) -> int:
    return PEAK_BYTES_PER_CELL * checks.theta(n, q) ** 2


def require_fits(geometries):
    """Refuse, before anything is allocated, a geometry that would not fit."""
    for n, q in geometries:
        need = footprint_bytes(n, q)
        if need > MEMORY_BUDGET_BYTES:
            raise OverBudget(f"PG({n},{q}) needs about {need / 2 ** 30:.1f} GiB,"
                             f" over the {MEMORY_BUDGET_BYTES / 2 ** 30:.0f} GiB budget")


def run_cli(argv: list) -> tuple:
    """`pgcones.cli.main(argv)` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# verify-suite: `pgcones verify` end to end, each task building its geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyCase:
    part: str
    theorem: str
    n: int
    q: int
    extra: tuple = ()   # ("--d", 2) or ("--t", 1)

    @property
    def argv(self) -> list:
        return ["verify", "--theorem", self.theorem, "--n", str(self.n),
                "--q", str(self.q), *map(str, self.extra)]

    @property
    def header(self) -> str:
        tail = f" t_or_d={self.extra[1]}" if self.extra else ""
        return f"{self.theorem} n={self.n} q={self.q}{tail}"


VERIFY_SMALL = (
    VerifyCase("verify_small_s", "hyperoval3", 3, 4),
    VerifyCase("verify_small_s", "hyperovalN", 4, 4),
    VerifyCase("verify_small_s", "unital", 4, 4),
    VerifyCase("verify_small_s", "maxarc", 5, 4, ("--d", 2)),
    VerifyCase("verify_small_s", "baer", 4, 4, ("--t", 1)),
)
VERIFY_LARGE = (
    VerifyCase("verify_odd_s", "unital", 4, 9),
    VerifyCase("verify_even_s", "hyperovalN", 4, 8),
)
VERIFY_LARGE_SMOKE = (
    VerifyCase("verify_odd_s", "unital", 4, 4),
    VerifyCase("verify_even_s", "hyperovalN", 4, 4),
)


class VerifySuite:
    name = "verify-suite"
    parts = ("verify_small_s", "verify_odd_s", "verify_even_s")

    def setup(self, seed: int, smoke: bool):
        cases = list(VERIFY_SMALL + (VERIFY_LARGE_SMOKE if smoke else VERIFY_LARGE))
        random.Random(seed).shuffle(cases)  # the seed fixes the task order
        return cases

    def warm_up(self, cases):
        for case in VERIFY_SMALL:
            run_cli(case.argv)

    def tasks(self, cases, pass_index: int) -> list:
        return [Task(f"verify {c.header}", c.part,
                     lambda c=c: run_cli(c.argv),
                     lambda r, c=c: checks.check_verify(r, c.header, c.n, c.q),
                     geometries=((c.n, c.q), (2, c.q)))
                for c in cases]


# ---------------------------------------------------------------------------
# spectra-batch: many queries against geometries built once
# ---------------------------------------------------------------------------

@dataclass
class BatchGeometry:
    label: str
    part: str               # part metric of its d < n-1 scans
    scan_dims: tuple        # scanned on one set per pass, in rotation
    line_scan_all: bool     # lines additionally scanned on every set
    geometry: object = None
    sets: dict = None       # name -> PointSet; "cone" is the canonical one


FIELDS = {4: (2, 2), 9: (3, 2)}   # q -> (p, h)


def _batch_plan(smoke: bool) -> list:
    even, odd = ("PG(4,4)", "PG(3,9)") if smoke else ("PG(5,4)", "PG(4,9)")
    return [BatchGeometry(even, "scan_even_s", (2, 1), True),
            BatchGeometry(odd, "scan_odd_s", (1,), False)]


def _point_sets(rng, geometry, cone) -> dict:
    """The canonical cone, copies with r seeded points removed or added,
    and a uniform random set of the cone's size."""
    num, member = geometry.num_points, np.nonzero(cone.mask)[0]
    outside = np.nonzero(~cone.mask)[0]
    r = int(rng.integers(1, 9))
    minus, plus, uniform = (np.zeros(num, dtype=bool) for _ in range(3))
    minus[member] = True
    minus[rng.choice(member, r, replace=False)] = False
    plus[member] = True
    plus[rng.choice(outside, r, replace=False)] = True
    uniform[rng.choice(num, member.size, replace=False)] = True
    return {"cone": cone, **{name: objects.PointSet(geometry, mask) for name, mask in
                             (("minus", minus), ("plus", plus), ("random", uniform))}}


def hyperplane_query(ps, d: int) -> tuple:
    spec = spectra.spectrum(ps, d)
    try:
        essential = spectra.essential_points(ps, d)
    except NotBlocking as exc:
        essential = exc
    return spec, essential


class SpectraBatch:
    name = "spectra-batch"
    parts = ("hyperplane_query_s", "scan_even_s", "scan_odd_s")

    def setup(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        plan = _batch_plan(smoke)
        for bg in plan:
            n, q = checks.GEOMETRIES[bg.label]
            require_fits([(n, q)])
            bg.geometry = pg.geometry_new(gf.field_new(*FIELDS[q]), n)
            cone = (objects.maxarc_cone(bg.geometry, 2) if q % 2 == 0
                    else objects.unital_cone(bg.geometry))
            bg.sets = _point_sets(rng, bg.geometry, cone)
        return plan

    def warm_up(self, plan):
        bg = plan[0]
        spectra.spectrum(bg.sets["cone"], bg.geometry.n - 1)

    def tasks(self, plan, pass_index: int) -> list:
        out = []
        for bg in plan:
            n = bg.geometry.n
            for name, ps in bg.sets.items():
                out.append(Task(
                    f"{bg.label} hyperplanes {name}", "hyperplane_query_s",
                    lambda ps=ps, n=n: hyperplane_query(ps, n - 1),
                    lambda r, ps=ps, bg=bg, name=name: checks.check_hyperplane_query(
                        r, ps.mask, bg.label, name == "cone", NotBlocking)))
        for bg in plan:
            names = list(bg.sets)
            rotated = names[pass_index % len(names)]
            scans = [(d, rotated) for d in bg.scan_dims]
            if bg.line_scan_all:
                scans += [(1, name) for name in names if name != rotated]
            for d, name in scans:
                ps = bg.sets[name]
                out.append(Task(
                    f"{bg.label} d={d} scan {name}", bg.part,
                    lambda ps=ps, d=d: spectra.spectrum(ps, d),
                    lambda r, ps=ps, bg=bg, d=d, name=name: checks.check_spectrum(
                        r, ps.mask, bg.label, d, name == "cone")))
        return out

    def plane_scan_speedup(self, plan) -> float:
        """Plane scan of the even geometry's canonical cone, 1 worker over 2."""
        cone = plan[0].sets["cone"]
        times = []
        for workers in (1, 2):
            start = time.perf_counter()
            spectra.spectrum(cone, 2, workers=workers)
            times.append(time.perf_counter() - start)
        return times[0] / times[1]


# ---------------------------------------------------------------------------
# k-screen: exact rational screening, no numpy layer involved
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Screen:
    argv: tuple             # feasible-k arguments before --format csv
    abc_nq: tuple           # (a, b, c, n, q)
    k_range: tuple          # screened k values, inclusive
    congruence: tuple       # ("mod", alpha, beta), ("hyperoval3", q) or None
    axis_x: int             # K-points on the pencil axis
    rows: list = None       # recorded survivors (k, t_a, t_b, t_c, kept)


THEOREM_SCREENS = (
    Screen(("--theorem", "unital", "--n", "5", "--q", "16"), (4369, 16657, 20753, 5, 16),
           (20753, 266513), ("mod", 273, 4096), 4369, [(266513, 65, 1118208, 208, True)]),
    Screen(("--theorem", "baer", "--n", "5", "--q", "16", "--t", "1"), (4369, 5393, 20753, 5, 16),
           (20753, 266513), ("mod", 1, 16), 4369, [(86289, 252, 1118208, 21, True)]),
    Screen(("--theorem", "baer", "--n", "5", "--q", "16", "--t", "2"), (337, 341, 1361, 5, 16),
           (1361, 17745), None, 337, [(5457, 69564, 1048576, 341, True)]),
    Screen(("--theorem", "maxarc", "--n", "6", "--q", "8", "--d", "2"), (585, 5193, 8777, 6, 8),
           (8777, 66121), ("mod", 73, 512), 585, [(41545, 28, 299520, 45, True)]),
    Screen(("--theorem", "hyperovalN", "--n", "6", "--q", "8"), (585, 5193, 8777, 6, 8),
           (8777, 66121), ("mod", 73, 512), 585, [(41545, 28, 299520, 45, True)]),
    Screen(("--theorem", "hyperoval3", "--q", "64"), (1, 66, 129, 3, 64),
           (129, 8193), ("hyperoval3", 64), 0, [(4225, 2016, 262144, 2145, True)]),
)
THEOREM_SCREENS_SMOKE = (
    Screen(("--theorem", "unital", "--n", "4", "--q", "4"), (21, 37, 53, 4, 4),
           (53, 149), ("mod", 5, 16), 21, [(149, 9, 320, 12, True)]),
    Screen(("--theorem", "hyperoval3", "--q", "4"), (1, 6, 9, 3, 4),
           (9, 33), ("hyperoval3", 4), 0, [(25, 6, 64, 15, True), (30, 3, 37, 45, False)]),
)
ABC_GRID = ((4, 4), (4, 8), (5, 4), (5, 8))


def _random_screen(rng: random.Random, n: int, q: int) -> Screen:
    """A seeded type (a, b, c) with c <= theta_{n-2}, so the screened range
    c..theta_n keeps nearly the same length whatever the seed."""
    th = checks.theta
    a = rng.randint(1, th(n - 3, q))
    b = rng.randint(a + 1, th(n - 2, q) - 1)
    c = rng.randint(b + 1, th(n - 2, q))
    argv = ("--abc", str(a), str(b), str(c), "--n", str(n), "--q", str(q))
    return Screen(argv, (a, b, c, n, q), (c, th(n, q)), None, a)


def sign_grid(smoke: bool) -> list:
    """(theorem, n, q, t_or_d) points inside each theorem's hypotheses."""
    if smoke:
        return [("unital", 4, 4, None), ("hyperovalN", 4, 4, None),
                ("maxarc", 5, 4, 2), ("baer", 4, 4, 1)]
    grid = [("unital", n, q, None) for n in range(4, 8) for q in (4, 9, 16, 25)]
    grid += [("hyperovalN", n, q, None) for n in range(4, 8) for q in (2, 4, 8, 16)]
    grid += [("maxarc", n, q, d) for n in range(5, 8) for q in (4, 8, 16)
             for d in range(2, q, 2)]
    grid += [("baer", n, q, t) for n in range(4, 9) for t in range(1, n // 2 + 1)
             for q in (4, 9, 16, 25) if t == 1 or q >= 16]
    return grid


class KScreen:
    name = "k-screen"
    parts = ("screen_s", "sign_check_s")
    SAMPLE = 40   # rejected k values re-checked per screen

    def setup(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        screens = list(THEOREM_SCREENS_SMOKE if smoke else THEOREM_SCREENS)
        screens += [_random_screen(rng, n, q) for n, q in (ABC_GRID[:1] if smoke else ABC_GRID)]
        rng.shuffle(screens)
        samples = [rng.sample(range(s.k_range[0], s.k_range[1] + 1),
                              min(self.SAMPLE, s.k_range[1] - s.k_range[0] + 1))
                   for s in screens]
        return list(zip(screens, samples)), sign_grid(smoke)

    def warm_up(self, state):
        run_cli(["feasible-k", "--theorem", "hyperoval3", "--q", "4", "--format", "csv"])

    def tasks(self, state, pass_index: int) -> list:
        screens, grid = state
        out = [Task(f"feasible-k {' '.join(s.argv)}", "screen_s",
                    lambda s=s: run_cli(["feasible-k", *s.argv, "--format", "csv"]),
                    lambda r, s=s, sample=sample: checks.check_screen(r, s, sample))
               for s, sample in screens]
        out.append(Task(f"step_sign_check grid of {len(grid)}", "sign_check_s",
                        lambda: [counting.step_sign_check(*g) for g in grid],
                        lambda r: checks.check_sign_reports(r, grid)))
        return out


WORKLOADS = {w.name: w for w in (VerifySuite(), SpectraBatch(), KScreen())}
