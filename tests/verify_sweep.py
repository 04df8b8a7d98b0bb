"""Run `pgcones verify` on every admitted instance, one process each.

An instance is a (theorem, n <= 30, prime power q <= 128, t or d) that
`theorem_instance` admits and whose geometry `pg.charge` admits.  Each
instance's stdout and stderr are printed in turn, with its exit code where
it is not 0; the count, the failures and the total time go to stderr, so
the stdout of two trees can be compared with `diff`; the stdout is
committed as tests/verify_sweep.out.  Exits 1 if any instance exits
nonzero.  Pytest does not collect this file; run it and compare as

    PYTHONPATH=src python tests/verify_sweep.py > sweep.out
    diff tests/verify_sweep.out sweep.out
"""

import subprocess
import sys
import time

from oracles import admitted_instances

from pgcones.counting import THEOREMS
from pgcones.errors import GeometryTooLarge
from pgcones.pg import charge


def charged(n, q):
    try:
        charge(n, q)
    except GeometryTooLarge:
        return False
    return True


def main() -> int:
    failed, start = [], time.perf_counter()
    instances = [(theorem_id, n, q, x) for theorem_id, n, q, x, _ in admitted_instances(30)
                 if charged(n, q)]
    for theorem_id, n, q, x in instances:
        argv = ["verify", "--theorem", theorem_id, "--n", str(n), "--q", str(q)]
        if x is not None:
            argv += [f"--{THEOREMS[theorem_id].param}", str(x)]
        run = subprocess.run([sys.executable, "-m", "pgcones.cli", *argv],
                             capture_output=True, text=True)
        sys.stdout.write(run.stdout + run.stderr)
        if run.returncode:
            print(f"  exit {run.returncode}")
            failed.append(" ".join(argv))
        sys.stdout.flush()
    print(f"{len(instances)} instances, {len(failed)} failed,"
          f" {time.perf_counter() - start:.1f} s", file=sys.stderr)
    for argv in failed:
        print(f"failed: pgcones {argv}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
