"""P1: the fast-path speedup benchmark, with its equivalence proof.

The fast path (``SimConfig(fast_path=True)``: burst-mode cell movement
plus span-collapsed bus/DMA walks, see ``docs/PERFORMANCE.md``) exists
only to make the simulator faster -- it must change *nothing* the
experiments report.  P1 measures both halves of that contract on
F3/F6-class receive workloads:

- **speedup** -- wall-clock time of the scalar reference path over the
  fast path for the same experiment call: the median of *pairs*
  interleaved per-pair ratios, so a noisy stretch of host time lands
  on both lanes of a pair and moves the median by one rank at most;
- **equivalence** -- the two paths' :class:`ExperimentResult` payloads
  (series, metrics, notes) must be byte-identical under canonical JSON,
  and a drained single-size receive run must produce byte-identical
  :class:`~repro.obs.MetricsRegistry` documents;
- **events_ratio** -- scheduler events the scalar run needed per fast
  event on the drained run: the mechanism behind the speedup, and a
  stable (deterministic) proxy for it that the regression gate can
  pin tightly while wall-clock only gates a floor.

Wall-clock measurement is inherently about the host running the
benchmark, so P1 is the one experiment allowed to read
``time.perf_counter`` (simlint's SL103 sanctions it: only simulated
*results* must be wall-clock free, and P1's equivalence check proves
they are).
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.aal.aal5 import Aal5Segmenter
from repro.atm.addressing import VcAddress
from repro.atm.burst import CellBurst
from repro.nic.config import aurora_oc3
from repro.nic.nic import HostNetworkInterface
from repro.obs.metrics import MetricsRegistry, instrument
from repro.sim.core import SimConfig, Simulator
from repro.workloads.generators import make_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see run_p1)
    from repro.results.experiments import ExperimentResult

#: Fewest interleaved scalar/fast pairs P1 times per workload: a median
#: of fewer ratios flips with host noise on an unchanged tree.
MIN_PAIRS = 7


def canonical_result_json(result: "ExperimentResult") -> str:
    """An ExperimentResult as canonical JSON, for byte comparison.

    ``repr``-faithful float serialisation (json round-trips Python
    floats exactly), sorted keys, no whitespace ambiguity: two results
    compare equal iff every reported number, label and note is
    bit-identical.
    """
    payload: Dict[str, Any] = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": result.headers,
        "rows": result.rows,
        "series": None,
        "metrics": result.metrics,
        "notes": result.notes,
    }
    if result.series is not None:
        payload["series"] = {
            "name": result.series.name,
            "x_label": result.series.x_label,
            "x": result.series.x,
            "columns": result.series.columns,
        }
    return json.dumps(payload, sort_keys=True)


def drained_rx_run(
    fast_path: bool, sdu_size: int = 1500, n_pdus: int = 60
) -> Tuple[str, int, int]:
    """One finite, fully-drained receive run; returns its evidence.

    Feeds exactly *n_pdus* PDUs of *sdu_size* bytes through the F3
    wire model (slot-spaced arrivals, upstream backpressure), runs to a
    fixed horizon comfortably past the drain point, and returns
    ``(registry_json, events_processed, pdus_delivered)``.  Because the
    run is drained and the horizon is path-independent, the metrics
    document must be byte-identical between the scalar and fast paths
    (a mid-flight cutoff would not be: the fast engine counts a popped
    burst's cells at pop time).
    """
    from repro.results.experiments import lab_host

    config = lab_host(aurora_oc3())
    sim = Simulator(SimConfig(fast_path=fast_path))
    nic = HostNetworkInterface(sim, config, name="rxhost")
    registry = MetricsRegistry(sim)
    instrument(registry, nic)
    received: List[Any] = []
    nic.on_pdu = received.append
    vc = nic.open_vc(address=VcAddress(0, 100))
    nic.start()
    segmenter = Aal5Segmenter(vc.address)
    payload = make_payload(sdu_size)
    cells: List[Any] = []
    for _ in range(n_pdus):
        cells.extend(segmenter.segment(payload))
    slot = config.link.cell_time

    def wire():
        for cell in cells:
            yield sim.timeout(slot)
            yield nic.rx_fifo.put(cell)

    def wire_fast():
        # The F3 wire's iterated-add arrival chain (first cell one slot
        # in), over a finite cell list (see docs/PERFORMANCE.md on why
        # the chain must be built with repeated adds, never
        # ``base + i * slot``).
        burst_len = max(
            1, min(sim.config.burst_cells, nic.rx_fifo.depth_cells // 2)
        )
        last = 0.0
        index = 0
        while index < len(cells):
            chunk = cells[index:index + burst_len]
            index += len(chunk)
            arrivals = []
            for _ in chunk:
                last = last + slot
                arrivals.append(last)
            accept = nic.rx_fifo.put_burst(CellBurst(chunk, arrivals))
            blocked = not accept.triggered
            yield accept
            if blocked:
                last = max(sim.now, last)
            wait = last - sim.now
            if wait > 0:
                yield sim.timeout(wait)

    sim.process(wire_fast() if fast_path else wire())
    # Feeding takes len(cells) slots at line rate; 3x covers any
    # engine-bound stretch, so both paths idle long before the horizon.
    sim.run(until=3.0 * len(cells) * slot)
    return registry.to_json(), sim.events_processed, len(received)


def _timed(fn: Any) -> Tuple[float, str]:
    """Wall-clock seconds of one ``fn()`` call, and its canonical JSON."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, canonical_result_json(result)


def _interleaved_pairs(
    runner: Any, pairs: int
) -> Tuple[List[float], List[float], List[float], bool]:
    """Time *pairs* scalar/fast pairs of ``runner(fast)``.

    Pairs alternate which lane runs first, so warm-up and drift fall on
    both lanes alike.  Returns the scalar seconds, fast seconds and
    scalar/fast ratio of every pair, and whether every run's canonical
    result JSON was identical.
    """
    scalar_s: List[float] = []
    fast_s: List[float] = []
    ratios: List[float] = []
    outputs = set()
    for index in range(pairs):
        order = (False, True) if index % 2 == 0 else (True, False)
        seconds: Dict[bool, float] = {}
        for fast in order:
            seconds[fast], output = _timed(lambda: runner(fast))
            outputs.add(output)
        scalar_s.append(seconds[False])
        fast_s.append(seconds[True])
        ratios.append(
            seconds[False] / seconds[True] if seconds[True] > 0 else float("inf")
        )
    return scalar_s, fast_s, ratios, len(outputs) == 1


def run_p1(
    config=None,
    *,
    seeds: Optional[Sequence[int]] = None,
    fast_path: bool = False,
    f3_sizes: Sequence[int] = (9180,),
    f3_window: float = 0.03,
    f6_vc_counts: Sequence[int] = (4, 16),
    f6_sdu_size: int = 9180,
    f6_window: float = 0.01,
    min_speedup: float = 2.5,
    pairs: int = MIN_PAIRS,
) -> "ExperimentResult":
    """P1: fast-path wall-clock speedup on F3/F6-class workloads.

    Runs F3 (single-VC receive throughput) and F6 (interleaved-VC
    receive, CAM vs software lookup) as *pairs* interleaved
    scalar/fast pairs each, asserts result equivalence, and reports
    each workload's speedup as the median of its per-pair ratios.
    ``speedup_ok`` is 1.0 when the *slower* of the two clears
    *min_speedup*; ``equivalence_ok`` is 1.0 when every comparison was
    byte-identical.  The regression gate
    (``benchmarks/baselines/P1.json``) pins both verdicts and the
    deterministic ``events_ratio``, leaving the raw wall-clock numbers
    ungated (they describe the machine, not the model).

    P1 runs both lanes by construction, so *config*, *seeds* and
    *fast_path* are accepted only for the uniform contract.
    """
    del config, seeds, fast_path
    if pairs < MIN_PAIRS:
        raise ValueError(f"P1 needs at least {MIN_PAIRS} pairs, got {pairs}")
    # Imported here, not at module top: experiments.py imports this
    # module to build the registry, exactly like run_r2 (and statistics
    # would weigh on every interpreter that only builds the registry).
    import statistics

    from repro.results.experiments import ExperimentResult, run_f3, run_f6

    series_x: List[float] = []
    scalar_col: List[float] = []
    fast_col: List[float] = []
    speedup_col: List[float] = []
    labels: List[str] = []
    equivalent = True

    workloads = (
        (
            "F3",
            lambda fast: run_f3(
                sizes=f3_sizes, window=f3_window, fast_path=fast
            ),
        ),
        (
            "F6",
            lambda fast: run_f6(
                vc_counts=f6_vc_counts,
                sdu_size=f6_sdu_size,
                window=f6_window,
                fast_path=fast,
            ),
        ),
    )
    speedups: Dict[str, float] = {}
    for index, (label, runner) in enumerate(workloads):
        scalar_s, fast_s, ratios, identical = _interleaved_pairs(runner, pairs)
        if not identical:
            equivalent = False
        speedup = statistics.median(ratios)
        speedups[label] = speedup
        labels.append(label)
        series_x.append(float(index))
        scalar_col.append(statistics.median(scalar_s))
        fast_col.append(statistics.median(fast_s))
        speedup_col.append(speedup)

    registry_scalar, events_scalar, pdus_scalar = drained_rx_run(False)
    registry_fast, events_fast, pdus_fast = drained_rx_run(True)
    if registry_scalar != registry_fast or pdus_scalar != pdus_fast:
        equivalent = False
    events_ratio = (
        events_scalar / events_fast if events_fast else float("inf")
    )

    from repro.analysis.sweep import Series

    series = Series(name="fast-path speedup", x_label="workload_index")
    for i in range(len(series_x)):
        series.add_point(
            series_x[i],
            scalar_seconds=scalar_col[i],
            fast_seconds=fast_col[i],
            speedup=speedup_col[i],
        )
    result = ExperimentResult(
        experiment_id="P1",
        title="Fast-path wall-clock speedup (scalar reference vs bursts)",
        series=series,
    )
    worst = min(speedup_col) if speedup_col else 0.0
    result.metrics["speedup_f3"] = speedups.get("F3", 0.0)
    result.metrics["speedup_f6"] = speedups.get("F6", 0.0)
    result.metrics["speedup_min"] = worst
    result.metrics["speedup_ok"] = 1.0 if worst >= min_speedup else 0.0
    result.metrics["equivalence_ok"] = 1.0 if equivalent else 0.0
    result.metrics["events_ratio"] = events_ratio
    result.notes.append(
        "workload 0 = F3 (sizes "
        + ",".join(str(s) for s in f3_sizes)
        + f"), workload 1 = F6 (VCs "
        + ",".join(str(v) for v in f6_vc_counts)
        + f", sdu {f6_sdu_size})"
    )
    result.notes.append(
        f"equivalence: ExperimentResults byte-identical per workload, "
        f"drained-run metrics registry byte-identical "
        f"({pdus_fast} PDUs); events_ratio = scalar scheduler events "
        f"per fast event on the drained run"
    )
    result.notes.append(
        f"gate: slowest workload's median of {pairs} interleaved "
        f"scalar/fast pair ratios must clear {min_speedup:.1f}x "
        f"(wall-clock; raw seconds are machine-dependent and ungated)"
    )
    return result
