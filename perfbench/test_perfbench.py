"""Smoke tests of the benchmark itself, on tiny instances of every workload.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()  # puts the checkout's src/ on sys.path for workloads

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = ["verify-suite", "spectra-batch", "k-screen"]


def smoke(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_without_failures(capsys, workload, trace):
    result = smoke(capsys, workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0 and result["correct"]
    import pgcones.cli
    import pgcones.pg
    assert not hasattr(pgcones.cli.main, "__wrapped__")  # the tracer restored the program
    assert not hasattr(pgcones.pg.Geometry.__init__, "__wrapped__")


def test_tampered_expected_values_count_as_failures(capsys, monkeypatch):
    import checks
    k, spectrum, vertex_dim = checks.VERIFY_TABLE["hyperoval3 n=3 q=4"]
    monkeypatch.setitem(checks.VERIFY_TABLE, "hyperoval3 n=3 q=4", (k + 1, spectrum, vertex_dim))
    result = smoke(capsys, "verify-suite", 0)
    assert result["failed"] == 1 and not result["correct"]

    wrong = dict(checks.CANONICAL_SPECTRA[("PG(4,4)", 3)], extra=0)
    monkeypatch.setitem(checks.CANONICAL_SPECTRA, ("PG(4,4)", 3), wrong)
    result = smoke(capsys, "spectra-batch", 0)
    assert result["failed"] == 1 and not result["correct"]


def test_independent_solve_matches_recorded_screens():
    import checks
    import workloads
    for screen in workloads.THEOREM_SCREENS + workloads.THEOREM_SCREENS_SMOKE:
        a, b, c, n, q = screen.abc_nq
        for k, *ts, kept in screen.rows:
            assert checks.solve_counts(a, b, c, n, q, k) == tuple(ts)
            assert checks.pencil_kept(a, b, c, q, screen.axis_x, k) == kept


def test_memory_guard_refuses_before_the_call():
    import workloads
    for n, q in ((4, 16), (5, 8)):
        with pytest.raises(workloads.OverBudget):
            workloads.require_fits([(n, q)])
    workloads.require_fits([(4, 9), (5, 4)])

    def must_not_run():
        raise AssertionError("the refused task was called")

    class OneTask:
        parts = ("x_s",)

        def tasks(self, state, index):
            return [workloads.Task("PG(4,16)", "x_s", must_not_run, lambda r: None,
                                   geometries=((4, 16),))]

    result = run.run_pass(OneTask(), None, 0)
    assert result["attempted"] == 1
    assert len(result["failures"]) == 1 and "budget" in result["failures"][0]
