"""Kernel event-order golden runs: the scheduler's total order is frozen.

Each run below was recorded before the kernel's event loop was inlined
and its calendar-queue backend deleted.  The fixture
(``tests/data/kernel_golden.json``) holds, per run, every simulator's
``events_processed`` and ``peak_queue_occupancy`` (in construction
order) and the canonical result JSON.  Any change to the
``(time, priority, sequence)`` dispatch order -- or to the number of
events a model schedules -- moves at least one of them.

The S1 run's second simulator is its fast-path parity lane, which was
recorded on the calendar queue and now runs on the heap.

Re-record (only for a deliberate model change, with the reason in
CHANGES.md)::

    PYTHONPATH=src python -m tests.test_kernel_golden
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List

import pytest

from repro.results.experiments import run_f3
from repro.results.perf import canonical_result_json
from repro.scale.experiment import run_s1
from repro.sim import core
from repro.tm.experiment import run_c1

DATA = Path(__file__).parent / "data" / "kernel_golden.json"

GOLDEN_RUNS: Dict[str, Callable[[], Any]] = {
    "f3_scalar": lambda: run_f3(sizes=(9180,), window=0.03, fast_path=False),
    "f3_fast": lambda: run_f3(sizes=(9180,), window=0.03, fast_path=True),
    "c1": lambda: run_c1(seeds=[1], duration=0.03, warmup=0.01),
    "s1": lambda: run_s1(seeds=[1], duration=0.2),
}


def capture(run: Callable[[], Any], patch: Callable[..., None]) -> Dict[str, Any]:
    """Run *run*, recording every simulator it builds.

    *patch* is ``setattr``-shaped (``monkeypatch.setattr`` in tests) and
    installs the recording ``Simulator.__init__``.
    """
    made: List[core.Simulator] = []
    original = core.Simulator.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    patch(core.Simulator, "__init__", recording_init)
    try:
        result = run()
    finally:
        patch(core.Simulator, "__init__", original)
    return {
        "simulators": [
            {
                "events_processed": sim.events_processed,
                "peak_queue_occupancy": sim.peak_queue_occupancy,
            }
            for sim in made
        ],
        "result": json.loads(canonical_result_json(result)),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_matches_golden(name, golden, monkeypatch):
    observed = capture(GOLDEN_RUNS[name], monkeypatch.setattr)
    expected = golden[name]
    assert observed["simulators"] == expected["simulators"]
    assert observed["result"] == expected["result"]


if __name__ == "__main__":
    DATA.write_text(
        json.dumps(
            {name: capture(run, setattr) for name, run in GOLDEN_RUNS.items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {DATA}")
