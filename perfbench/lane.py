"""One lane run in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per lane run so that set-up time and
peak memory are those of a fresh process::

    PYTHONPATH=src python3 perfbench/lane.py time WORKLOAD SEED SIZE FAST T0
    PYTHONPATH=src python3 perfbench/lane.py setup WORKLOAD SEED SIZE FAST T0
    PYTHONPATH=src python3 perfbench/lane.py trace WORKLOAD SEED SIZE OUT_DIR

``time`` builds and runs one lane untraced.  *T0* is the
``time.monotonic()`` reading the parent took just before starting this
interpreter, so ``setup_s`` covers interpreter start, imports,
configuration and topology build, up to the lane's first
``Simulator.run``.  The host-speed calibration (``calibrate.py``) runs
right before and right after ``Simulator.run`` and is timed in neither.

``setup`` only builds the lane, for one more ``setup_s`` sample, and
runs the calibration once after the build.

``trace`` runs the scalar lane untraced, then again under the
:class:`~tracer.Tracer`, removes the wrappers, and runs the fast lane
untraced for its event count; it reports the per-layer metrics.

Either mode reports the observables hash and any ledger imbalance;
``run.py`` judges them against ``reference.json``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import scenarios
from calibrate import calibration_s

#: Slices a timed lane's run is cut into (see ``time_lane``).
CALIBRATION_SLICES = 8


def _check(lane) -> dict:
    return {
        "hash": scenarios.observables_hash(lane.observables()),
        "ledger_problem": scenarios.ledger_problem(lane),
    }


def time_lane(workload: str, seed: int, size: float, fast: bool,
              t0: float) -> dict:
    lane = scenarios.build(workload, seed, fast, size)
    built = time.monotonic()
    # The run is cut into slices with a calibration loop before, between
    # and after them, so the calibration samples the host's speed over
    # the same stretch of time as the run.  Resuming ``Simulator.run``
    # at a later horizon continues the same event sequence.
    calib = [calibration_s()]
    run_s = 0.0
    for k in range(1, CALIBRATION_SLICES + 1):
        until = lane.until if k == CALIBRATION_SLICES else \
            lane.until * k / CALIBRATION_SLICES
        start = time.monotonic()
        lane.sim.run(until=until)
        run_s += time.monotonic() - start
        calib.append(calibration_s())
    return {
        "setup_s": built - t0,
        "run_s": run_s,
        "calib_s": sum(calib) / len(calib),
        "cells": lane.cells(),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **_check(lane),
    }


def setup_lane(workload: str, seed: int, size: float, fast: bool,
               t0: float) -> dict:
    scenarios.build(workload, seed, fast, size)
    return {"setup_s": time.monotonic() - t0, "calib_s": calibration_s()}


def trace_lane(workload: str, seed: int, size: float, out_dir: str) -> dict:
    # Imported here so the timed lanes' set-up does not pay for it.
    import tracer as tracing

    start = time.perf_counter()
    plain = scenarios.build(workload, seed, False, size)
    plain.run()
    untraced_s = time.perf_counter() - start
    plain_check = _check(plain)
    del plain

    before = tracing.snapshot_classes()
    tracer = tracing.Tracer()
    tracer.install(extra_modules=(scenarios,))
    try:
        start = time.perf_counter()
        lane = scenarios.build(workload, seed, False, size)
        lane.run()
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    residue = tracing.snapshot_classes() != before
    counts = lane.counts()
    traced_check = _check(lane)

    fast = scenarios.build(workload, seed, True, size)
    fast.run()
    fast_events = fast.sim.events_processed
    fast_cells = fast.cells()

    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"{workload}.spans"))

    calls, self_s = tracer.function_calls, tracer.self_time
    metrics = {
        **counts,
        "sim.fast_events_per_cell": fast_events / fast_cells if fast_cells else 0.0,
        "sim.resumes": float(calls.get("repro.sim.process.Process._resume", 0)),
        "aal.segment.calls": float(
            calls.get("repro.aal.aal5.Aal5Segmenter.segment", 0)),
        "net.route.calls": float(
            calls.get("repro.net.testbed.Scenario.add_route", 0)
            + calls.get("repro.net.testbed.Scenario.remove_route", 0)),
        "net.build_s": tracer.function_s.get("repro.net.testbed.Testbed.build", 0.0),
        "trace.overhead": traced_s / untraced_s,
        "trace.coverage": tracer.layer_s / traced_s,
    }
    for bucket in tracer.buckets:
        metrics[f"{bucket}.self_s"] = self_s(bucket)
    # The event loop's own time is kernel work, though no layer called it.
    metrics["sim.self_s"] = self_s("sim") + self_s("sim.loop")
    return {
        "metrics": metrics,
        "residue": residue,
        "checks": [plain_check, traced_check, _check(fast)],
    }


def main(argv: list) -> int:
    mode, workload, seed, size = argv[0], argv[1], int(argv[2]), float(argv[3])
    try:
        if mode in ("time", "setup"):
            lane = time_lane if mode == "time" else setup_lane
            result = lane(workload, seed, size, argv[4] == "1", float(argv[5]))
        elif mode == "trace":
            result = trace_lane(workload, seed, size, argv[4])
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    except Exception:  # the boundary: report the failure, never hide it
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
