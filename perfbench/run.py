"""The simulator benchmark: one workload, both lanes, checked results.

Run from the repository root::

    python3 perfbench/run.py --workload rx_interleave --seed 7 --seconds 20 --trace 0

With ``--trace 0`` it alternates scalar-lane (``SimConfig()``) and
fast-lane (``SimConfig(fast_path=True)``) runs, each in a fresh
interpreter, for as many pairs as fit in ``--seconds`` (at least
:data:`MIN_PAIRS`), and reports the medians of the end-to-end
metrics.  With ``--trace 1`` it makes one traced run instead and reports
the per-layer metrics.  Every lane run is checked: it must not raise,
its observables must hash to the value recorded in ``reference.json``
for the workload and seed, the two lanes must agree, and a
conservation ledger, where the scenario carries one, must balance.
A lane run that fails any check counts in ``failed``, and so does a
set-up-only run (one per lane after each pair) that raises.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
#: Where traced runs leave their span files and timed runs their
#: per-lane records.
TRACE_DIR = ROOT / ".perfbench"

WORKLOADS = ("rx_interleave", "fabric_abr", "session_churn")

#: (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("cells_per_s", "cells/s"),
    ("fast_cells_per_s", "cells/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics the traced run reports.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.events_per_cell", "events/cell"),
    ("sim.fast_events_per_cell", "events/cell"),
    ("sim.resumes", "count"),
    ("sim.self_s", "s"),
    ("sim.peak_queue", "count"),
    ("atm.link.cells", "count"),
    ("atm.link.self_s", "s"),
    ("atm.switch.cells", "count"),
    ("atm.switch.self_s", "s"),
    ("atm.cell.self_s", "s"),
    ("atm.mux.offers", "count"),
    ("atm.mux.dropped", "count"),
    ("atm.mux.self_s", "s"),
    ("atm.signalling.msgs", "count"),
    ("atm.signalling.self_s", "s"),
    ("aal.segment.calls", "count"),
    ("aal.segment.self_s", "s"),
    ("aal.crc.self_s", "s"),
    ("aal.reassembly.cells", "count"),
    ("aal.reassembly.self_s", "s"),
    ("nic.rx.self_s", "s"),
    ("nic.tx.self_s", "s"),
    ("nic.fifo.self_s", "s"),
    ("nic.bufmem.self_s", "s"),
    ("nic.engine.self_s", "s"),
    ("nic.other.self_s", "s"),
    ("nic.cam.lookups", "count"),
    ("nic.cam.miss_ratio", "ratio"),
    ("nic.cam.evictions", "count"),
    ("host.bus.self_s", "s"),
    ("host.bus.wait_us", "us"),
    ("host.dma.self_s", "s"),
    ("host.cpu.self_s", "s"),
    ("host.interrupts.self_s", "s"),
    ("tm.abr.self_s", "s"),
    ("tm.erica.self_s", "s"),
    ("tm.cac.self_s", "s"),
    ("tm.cac.refused", "count"),
    ("scale.session.self_s", "s"),
    ("scale.sessions", "count"),
    ("net.build_s", "s"),
    ("net.route.calls", "count"),
    ("net.route.self_s", "s"),
    ("obs.self_s", "s"),
    ("obs.registry_metrics", "count"),
    ("faults.audit.self_s", "s"),
    ("workloads.source.self_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
)

#: Fewest scalar/fast pairs a timed run makes, however short --seconds is.
MIN_PAIRS = 3
#: A timed run starts no new pair after this many seconds.
HARD_STOP_S = 120.0
#: A lane that has not finished after this long counts as failed.
LANE_TIMEOUT_S = 60.0
TRACE_TIMEOUT_S = 150.0


def _lane_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # Fixed string hashing keeps dict layouts, and so memory, the same
    # from one fresh interpreter to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: List[str], timeout: float) -> dict:
    """Run ``lane.py`` with *args*; its JSON line, or an ``error`` entry."""
    cmd = [sys.executable, str(HERE / "lane.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_lane_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"error": f"lane timed out after {timeout} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"exit {proc.returncode}"
    return result


def load_reference(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def expected_hash(reference: dict, workload: str, seed: int) -> Optional[str]:
    hashes = reference["hashes"].get(workload)
    if hashes is None:
        return None
    return hashes[seed % reference["variants"]]


def problems(check: dict, expected: Optional[str]) -> List[str]:
    """Why a lane run fails its correctness check (empty: it passes)."""
    if "error" in check:
        return [check["error"].strip().splitlines()[-1]]
    found = []
    if expected is None:
        found.append("no reference hash recorded")
    elif check["hash"] != expected:
        found.append(f"observables hash {check['hash'][:12]} != reference "
                     f"{expected[:12]}")
    if check.get("ledger_problem"):
        found.append(check["ledger_problem"])
    return found


def judge_pair(results: Dict[bool, dict], expected: Optional[str]
               ) -> Dict[bool, List[str]]:
    """Problems of a scalar (False) and fast (True) lane run of one seed.

    Beyond each run's own checks, the fast run fails when the two lanes'
    observables differ.
    """
    found = {fast: problems(results[fast], expected) for fast in results}
    scalar, fast = results[False], results[True]
    if "hash" in scalar and "hash" in fast and scalar["hash"] != fast["hash"]:
        found[True].append("scalar and fast lanes disagree")
    return found


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_run(workload: str, seed: int, seconds: float, size: float,
              reference: Path) -> dict:
    expected = expected_hash(load_reference(reference), workload, seed)
    samples: Dict[str, List[float]] = {name: [] for name, _ in END_TO_END}
    raw: Dict[str, List[float]] = {name: [] for name, _ in END_TO_END[:3]}
    lane_runs: List[dict] = []
    attempted = failed = 0
    started = time.monotonic()
    pairs = 0
    pair_s: List[float] = []
    while True:
        elapsed = time.monotonic() - started
        # Start a pair only if it should end within --seconds.
        if pairs >= MIN_PAIRS and (
            elapsed + statistics.median(pair_s) > seconds
            or elapsed > HARD_STOP_S
        ):
            break
        # Alternate which lane goes first, so neither always runs on
        # the warmer machine.
        order = (False, True) if pairs % 2 == 0 else (True, False)
        results = {}
        for fast in order:
            t0 = time.monotonic()
            results[fast] = _spawn(
                ["time", workload, str(seed), repr(size), "1" if fast else "0",
                 repr(t0)],
                LANE_TIMEOUT_S)
        # Set-up is short and noisy, so each pair also makes one
        # set-up-only run per lane, for more set-up samples.
        setups = []
        for fast in order:
            t0 = time.monotonic()
            setups.append(_spawn(
                ["setup", workload, str(seed), repr(size), "1" if fast else "0",
                 repr(t0)],
                LANE_TIMEOUT_S))
        pairs += 1
        pair_s.append(time.monotonic() - started - elapsed)
        verdicts = judge_pair(results, expected)
        for fast in order:
            result, found = results[fast], verdicts[fast]
            attempted += 1
            lane = "fast" if fast else "scalar"
            lane_runs.append({"lane": lane, "pair": pairs, "problems": found,
                              **{k: v for k, v in result.items()
                                 if k not in ("hash", "ledger_problem")}})
            if found:
                failed += 1
                print(f"FAILED {lane} lane, pair {pairs}: {'; '.join(found)}",
                      file=sys.stderr)
            if "error" in result:
                continue
            rate_metric = "fast_cells_per_s" if fast else "cells_per_s"
            rate = result["cells"] / result["run_s"]
            raw[rate_metric].append(rate)
            raw["setup_s"].append(result["setup_s"])
            # Scale host times to the reference host speed (calibrate.py).
            speed = calibrate.REFERENCE_S / result["calib_s"]
            samples[rate_metric].append(rate / speed)
            samples["setup_s"].append(result["setup_s"] * speed)
            if not fast:
                samples["peak_rss_mb"].append(result["peak_rss_mb"])
        for result in setups:
            attempted += 1
            lane_runs.append({"lane": "setup", "pair": pairs, **result})
            if "error" in result:
                failed += 1
                print(f"FAILED set-up run, pair {pairs}: "
                      f"{problems(result, None)[0]}", file=sys.stderr)
                continue
            raw["setup_s"].append(result["setup_s"])
            samples["setup_s"].append(
                result["setup_s"] * calibrate.REFERENCE_S / result["calib_s"])
    missing = [name for name, values in samples.items() if not values]
    if missing:
        raise RuntimeError(f"every lane run failed; no samples for {missing}")
    print(f"{workload} seed {seed}: {pairs} pairs, "
          f"{time.monotonic() - started:.1f} s")
    metrics = {}
    unscaled = {}
    for name, unit in END_TO_END:
        q1, median, q3 = _quartiles(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        print(f"  {name:18s} {median:14.6g} {unit:8s} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])})")
        if name in raw:
            unscaled[name] = {"value": statistics.median(raw[name]), "unit": unit}
            print(f"  {'':18s} {unscaled[name]['value']:14.6g} {unit:8s} "
                  "unscaled host time")
    # The full record, unscaled host times included, for later reading.
    TRACE_DIR.mkdir(exist_ok=True)
    (TRACE_DIR / f"{workload}-seed{seed}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "size": size,
        "reference_s": calibrate.REFERENCE_S, "metrics": metrics,
        "unscaled": unscaled, "lane_runs": lane_runs,
    }, indent=1))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_run(workload: str, seed: int, size: float, reference: Path) -> dict:
    expected = expected_hash(load_reference(reference), workload, seed)
    result = _spawn(["trace", workload, str(seed), repr(size), str(TRACE_DIR)],
                    TRACE_TIMEOUT_S)
    if "error" in result:
        raise RuntimeError(f"traced run failed:\n{result['error']}")
    checks = result["checks"]
    failed = 0
    for i, check in enumerate(checks):
        found = problems(check, expected)
        if i and check["hash"] != checks[0]["hash"]:
            found.append("lane disagrees with the untraced scalar lane")
        if i == 1 and result["residue"]:
            found.append("tracing wrappers left residue on patched classes")
        if found:
            failed += 1
            print(f"FAILED lane run {i}: {'; '.join(found)}", file=sys.stderr)
    metrics = {}
    for name, unit in PER_LAYER:
        value = result["metrics"].get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:26s} {value:14.6g} {unit}")
    return {"correct": failed == 0, "attempted": len(checks),
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile up front, so that no lane's set-up time includes
    # compiling the sources (the environment may stop the lanes from
    # writing bytecode caches themselves).
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    if args.trace:
        result = traced_run(args.workload, args.seed, 1.0, REFERENCE)
    else:
        result = timed_run(args.workload, args.seed, args.seconds, 1.0,
                           REFERENCE)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
