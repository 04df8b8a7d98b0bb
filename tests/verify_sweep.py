"""Run `pgcones verify` on every admitted instance, one process each.

An instance is a (theorem, n <= 30, prime power q <= 128, t or d) that
`theorem_instance` admits and whose geometry `pg.charge` admits.  Each
instance's stdout and stderr are printed in turn, with its exit code where
it is not 0.  Each instance's wall time, peak RSS (`ru_maxrss` of the
child, read with `os.wait4`) and the bytes `pg.charge` charges its
verification, then the count, the failures and the total time go to
stderr, so the stdout of two trees can be compared with `diff`;
the stdout is committed as tests/verify_sweep.out.  Exits 1 if any
instance exits nonzero.  Pytest does not collect this file; run it and
compare as

    PYTHONPATH=src python tests/verify_sweep.py > sweep.out
    diff tests/verify_sweep.out sweep.out
"""

import os
import subprocess
import sys
import tempfile
import time

from oracles import admitted_instances

from pgcones.counting import THEOREMS
from pgcones.errors import GeometryTooLarge
from pgcones.pg import charge


def charged(n, q):
    """The bytes `pg.charge` charges a verification in PG(n,q), None where
    it refuses it."""
    try:
        return charge(n, q)
    except GeometryTooLarge:
        return None


def run(argv):
    """The exit code, stdout, stderr, wall time and peak RSS in MiB of
    `pgcones argv` in a child process, reaped with `os.wait4` for its own
    resource usage (Linux gives `ru_maxrss` in KiB)."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "pgcones.cli", *argv], stdout=out,
                                 stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (child.returncode, out.read().decode(), err.read().decode(), wall,
                usage.ru_maxrss / 1024)


def main() -> int:
    failed, start = [], time.perf_counter()
    instances = [(theorem_id, n, q, x, need) for theorem_id, n, q, x, _ in admitted_instances(30)
                 if (need := charged(n, q)) is not None]
    for theorem_id, n, q, x, need in instances:
        argv = ["verify", "--theorem", theorem_id, "--n", str(n), "--q", str(q)]
        if x is not None:
            argv += [f"--{THEOREMS[theorem_id].param}", str(x)]
        code, out, err, wall, rss = run(argv)
        sys.stdout.write(out + err)
        if code:
            print(f"  exit {code}")
            failed.append(" ".join(argv))
        sys.stdout.flush()
        print(f"{' '.join(argv[1:])}: {wall:.2f} s, {rss:.0f} MiB, charged {need / 2 ** 20:.0f} MiB",
              file=sys.stderr, flush=True)
    print(f"{len(instances)} instances, {len(failed)} failed,"
          f" {time.perf_counter() - start:.1f} s", file=sys.stderr)
    for argv in failed:
        print(f"failed: pgcones {argv}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
