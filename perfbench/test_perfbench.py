"""Self-tests of the benchmark harness.

Run from the repository root (they are not part of the repository's
tier-1 suite, which collects ``tests/`` only)::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import scenarios
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
#: Horizon scale of the tiny runs: a few milliseconds of simulated time.
TINY = 0.05


def _tiny_reference(tmp_path: Path, perturb: bool = False) -> Path:
    """A reference table for the tiny size, from in-process scalar lanes.

    With *perturb*, one observable of every entry is changed before
    hashing, as a regression that moved a simulated result would.
    """
    hashes = {}
    for workload in scenarios.WORKLOADS:
        lane = scenarios.build(workload, 3, False, TINY)
        lane.run()
        observables = lane.observables()
        if perturb:
            observables["perturbed"] = True
        hashes[workload] = [scenarios.observables_hash(observables)] * scenarios.VARIANTS
    path = tmp_path / ("perturbed.json" if perturb else "reference.json")
    path.write_text(json.dumps({"variants": scenarios.VARIANTS, "hashes": hashes}))
    return path


def _bench(reference: Path, workload: str, trace: int) -> dict:
    """A tiny-size run, as ``run.py --trace`` *trace* makes it."""
    if trace:
        return run.traced_run(workload, 3, TINY, reference)
    return run.timed_run(workload, 3, 0, TINY, reference)


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("references")
    return _tiny_reference(tmp), _tiny_reference(tmp, perturb=True)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(references, workload, trace):
    # The timed lanes run sliced (calibrate.py) and still match the
    # hashes of the unsliced runs above.
    result = _bench(references[0], workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (3 if trace else 4 * run.MIN_PAIRS)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_work_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        lane = scenarios.build(workload, 5, False, TINY)
        lane.run()
        counts.append(lane.counts())
    assert counts[0] == counts[1]
    assert counts[0]["sim.events"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_perturbed_observable_fails_every_lane_run(references, workload):
    result = _bench(references[1], workload, 0)
    assert not result["correct"]
    # Half the runs are set-up-only runs, which hash nothing.
    assert result["failed"] == result["attempted"] // 2 > 0


def test_lane_disagreement_fails_the_fast_run():
    ok = {"hash": "a", "ledger_problem": None}
    off = {"hash": "b", "ledger_problem": None}
    verdicts = run.judge_pair({False: ok, True: off}, "a")
    assert verdicts[False] == []
    assert any("disagree" in p for p in verdicts[True])


def test_unbalanced_ledger_and_errors_fail():
    assert run.problems({"hash": "a", "ledger_problem": "unbalanced"}, "a")
    assert run.problems({"error": "Traceback...\nValueError: boom"}, "a") == [
        "ValueError: boom"]
    assert run.problems({"hash": "a", "ledger_problem": None}, None)


def test_wrappers_leave_no_residue():
    before = tracing.snapshot_classes()
    tracer = tracing.Tracer()
    tracer.install(extra_modules=(scenarios,))
    try:
        assert tracing.snapshot_classes() != before, "nothing was wrapped"
        lane = scenarios.build("fabric_abr", 0, False, TINY)
        lane.run()
    finally:
        tracer.uninstall()
    assert tracing.snapshot_classes() == before
    assert tracer.spans > 0 and tracer.self_time("sim") > 0
    # Self times partition the time in spans; the event loop's own time
    # is in a span but not in a layer.
    assert sum(tracer.self_s) == pytest.approx(tracer.attributed_s, rel=1e-9)
    assert 0 < tracer.self_time("sim.loop")
    assert tracer.layer_s == pytest.approx(
        tracer.attributed_s - tracer.self_time("sim.loop")
        - tracer.self_time("untraced"), rel=1e-9)


def test_dispatched_closures_land_in_their_layer():
    tracer = tracing.Tracer()
    tracer.install(extra_modules=(scenarios,))
    try:
        lane = scenarios.build("rx_interleave", 0, False, TINY)
        lane.run()
    finally:
        tracer.uninstall()
    # CellFifo.get registers a per-cell closure that the kernel calls back.
    assert tracer.function_calls["repro.nic.fifo.CellFifo.get.<locals>.sample"] > 0
    assert tracer.self_time("nic.fifo") > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(scenarios.WORKLOADS)


def test_reference_covers_every_workload_and_variant():
    reference = json.loads(run.REFERENCE.read_text())
    assert reference["variants"] == scenarios.VARIANTS
    for workload in run.WORKLOADS:
        assert len(reference["hashes"][workload]) == scenarios.VARIANTS


def test_refuses_to_run_without_the_simulator(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rx_interleave",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
