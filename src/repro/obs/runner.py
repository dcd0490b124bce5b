"""Traced scenario runner behind ``python -m repro trace <experiment>``.

Each traceable id names the scenario builder its gated experiment
calls (``flap_scenario`` for R2, ``churn_scenario`` for S1, ...) and
the trace-sized arguments to call it with.  The runner builds that
scenario, attaches a :class:`TraceRecorder`, a :class:`CycleProfiler`
and a :class:`MetricsRegistry` to every host, link, port, agent and
auditor the builder's :class:`~repro.net.Scenario` holds, and runs it
for a short window -- a trace is for looking at individual cells, not for
converged averages.  Because the wiring is the gated code itself, what
Perfetto shows is the pipeline ``repro bench --check`` measures.

Usage::

    python -m repro trace f2 --out trace.json
    python -m repro trace r1 --out trace.jsonl --metrics metrics.csv

``--out`` picks the exporter by extension: ``.json`` writes a Chrome
``trace_event`` file (load it at https://ui.perfetto.dev), ``.jsonl``
writes one event per line for scripting.  ``--metrics`` does the same
with ``.csv`` / ``.json``.  The report printed to stdout includes the
profiler's measured T1'/T2' cycle-budget tables.
"""

from __future__ import annotations

import argparse
import importlib
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.obs.metrics import INSTRUMENT_DISPATCH, MetricsRegistry, instrument
from repro.obs.profiler import CycleProfiler, profile_interface
from repro.obs.trace import TraceRecorder
from repro.sim.core import Simulator

if TYPE_CHECKING:  # pragma: no cover - repro.obs imports no pipeline package
    from repro.net import Scenario


@dataclass
class TracedRun:
    """Everything one instrumented run produced."""

    experiment: str
    title: str
    sim: Simulator
    recorder: TraceRecorder
    registry: MetricsRegistry
    profiler: CycleProfiler
    notes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """The human-readable report: events, drops, measured budgets."""
        lines = [
            f"trace {self.experiment}: {self.title}",
            f"  simulated {self.sim.now * 1e3:.3f} ms, "
            f"{len(self.recorder)} events, "
            f"{self.registry.samples_taken} metric samples",
        ]
        tally = TallyCounter(e.name for e in self.recorder.events)
        top = ", ".join(
            f"{name} x{count}" for name, count in tally.most_common(6)
        )
        if top:
            lines.append(f"  busiest events: {top}")
        drops = self.recorder.drop_reasons()
        if drops:
            dropped = ", ".join(
                f"{reason}={count}" for reason, count in sorted(drops.items())
            )
            lines.append(f"  drops: {dropped}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        rendered = self.profiler.render()
        if rendered:
            lines.append("")
            lines.append(rendered)
        return "\n".join(lines)

    def export_trace(self, path: str) -> None:
        """Write the trace; ``.jsonl`` -> JSONL, anything else -> Chrome."""
        if path.endswith(".jsonl"):
            self.recorder.export_jsonl(path)
        else:
            self.recorder.export_chrome(path)

    def export_metrics(self, path: str) -> None:
        """Write the metrics; ``.csv`` -> series CSV, else JSON."""
        if path.endswith(".csv"):
            self.registry.to_csv(path)
        else:
            self.registry.to_json(path)


def attach(run: TracedRun, scenario: "Scenario") -> None:
    """Instrument every part of a built, not-yet-run scenario.

    Each host gets the recorder through ``attach_trace`` and the
    profiler on both engines; every other part with a ``trace`` hook
    gets the recorder; every part whose type :func:`instrument` knows
    registers its metrics.  A part whose instrumenter's default names
    are already taken (a second link, signalling agent or supervisor)
    registers under its own name instead.  Switches are left
    uninstrumented.
    """
    hosts = list(scenario.hosts.values())
    for nic in hosts:
        nic.attach_trace(run.recorder)
        profile_interface(nic, run.profiler)
    others = [
        *scenario.links.values(),
        *scenario.ports.values(),
        *scenario.agents.values(),
    ]
    if scenario.auditor is not None:
        others.append(scenario.auditor)
    for part in others:
        if hasattr(part, "trace"):
            part.trace = run.recorder
    for part in hosts + others:
        if type(part).__name__ in INSTRUMENT_DISPATCH:
            try:
                instrument(run.registry, part)
            except ValueError:
                instrument(run.registry, part, prefix=f"{part.name}.")


def _pdu_times(count: float, sdu_size: int, payload_rate_bps: float) -> float:
    """Seconds to carry *count* PDUs of *sdu_size* bytes on a link.

    Each PDU is costed at ``sdu_size / 48 + 2`` cells (AAL5 padding and
    trailer) of 424 bits at *payload_rate_bps*.
    """
    return count * (sdu_size / 48 + 2) * (424 / payload_rate_bps)


@dataclass(frozen=True)
class Traceable:
    """One traceable id: a gated experiment's builder at trace size."""

    #: ``"module:function"`` of the scenario builder (imported lazily).
    target: str
    #: Trace-sized keyword arguments for the builder (after the sim).
    kwargs: Mapping[str, Any]
    #: Default traced window, simulated seconds.
    duration: float
    title: str
    note: str

    def builder(self) -> Callable[..., Any]:
        """The builder function itself."""
        module, name = self.target.split(":")
        return getattr(importlib.import_module(module), name)


_STS3C = 149.76e6  # STS-3c payload rate, bit/s
_STS12C = 599.04e6  # STS-12c payload rate, bit/s

#: Traceable id -> the builder its gated experiment calls, at trace size.
TRACEABLE: Dict[str, Traceable] = {
    "f2": Traceable(
        "repro.results.experiments:transmit_scenario",
        {"sdu_size": 9180},
        _pdu_times(30, 9180, _STS3C),
        "greedy 9180-byte transmit over STS-3c (F2's interface lane)",
        "host software zeroed (lab_host): the trace shows the adaptor "
        "pipeline the paper budgets",
    ),
    "f3": Traceable(
        "repro.results.experiments:receive_scenario",
        {"sdu_size": 9180},
        _pdu_times(30, 9180, _STS3C),
        "backpressured 9180-byte receive on STS-3c (F3's scenario)",
        "cells are fed at link rate with upstream buffering",
    ),
    "r1": Traceable(
        "repro.results.experiments:loss_scenario",
        {
            "loss_rate": 0.02,
            "n_vcs": 4,
            "sdu_size": 8192,
            "seed": 7,
            "frame_discard": True,
        },
        _pdu_times(20 * 4, 8192, _STS12C),
        "4-VC overload at STS-12c, 2.0% cell loss, EPD/PPD on "
        "(R1's loss point)",
        "watch cell.drop events: every lost/refused cell carries its "
        "reason, and the audit.* gauges keep the conservation ledger",
    ),
    "r2": Traceable(
        "repro.resilience.experiment:flap_scenario",
        {
            "seed": 1,
            "recovery": True,
            "duration": 0.02,
            "flap_start": 0.006,
            "flap_down": 0.005,
            "n_calls": 4,
            "sdu_size": 4096,
            "send_gap": 1.5e-3,
        },
        0.02,
        "4-call link flap on STS-3c with the fault-management plane on "
        "(R2's recovery arm)",
        "watch oam.cc.loc / oam.alarm.* / link.supervisor.state / "
        "sig.retransmit / sig.call.restored: the alarm protocol and the "
        "restorer acting across the outage window",
    ),
    "c1": Traceable(
        "repro.tm.experiment:bottleneck_scenario",
        {
            "seed": 1,
            "closed_loop": True,
            "n_sources": 3,
            "buffer_cells": 256,
            "efci_threshold": 64,
            "sdu_size": 1528,
        },
        0.01,
        "3 weighted ABR sources at an OC-3 bottleneck (C1's closed-loop arm)",
        "watch rm.cell.sent / rm.cell.marked / rm.cell.turnaround / "
        "abr.rate.update / port.efci: the explicit-rate loop closing "
        "around the bottleneck queue",
    ),
    "s1": Traceable(
        "repro.scale.experiment:churn_scenario",
        {
            "seed": 1,
            "arrival_rate": 600.0,
            "holding_time": 0.05,
            "peak_rate_bps": 64000.0,
            "pdus_per_session": 2,
            "sdu_size": 256,
            "cam_entries": 32,
            "reassembly_quota": 64,
        },
        0.2,
        "Poisson session churn (~30 concurrent) through a two-switch "
        "fabric, CAM=32 (S1's scenario at trace size)",
        "watch rx.cam.evict / rx.cam.miss and cell.drop(unknown_vc): "
        "calls churn VCs through a CAM smaller than the connection "
        "population, released VCs' stragglers land as unroutable, and "
        "the audit.* ledger closes over both directions of the fabric",
    ),
    "quickstart": Traceable(
        "repro.results.experiments:quickstart_scenario",
        {},
        _pdu_times(10, 4096, _STS3C),
        "five 4096-byte PDUs with full host costs",
        "host costs are NOT zeroed here: interrupt and driver events "
        "appear between DMA completion and delivery",
    ),
}


def run_traced(
    experiment: str,
    duration: Optional[float] = None,
    sample_period: Optional[float] = None,
) -> TracedRun:
    """Build, instrument, and run one traceable experiment."""
    key = experiment.lower()
    spec = TRACEABLE.get(key)
    if spec is None:
        raise KeyError(
            f"unknown traceable experiment {experiment!r}; "
            f"known: {', '.join(sorted(TRACEABLE))}"
        )
    sim = Simulator()
    run = TracedRun(
        experiment=key,
        title=spec.title,
        sim=sim,
        recorder=TraceRecorder(sim),
        registry=MetricsRegistry(sim),
        profiler=CycleProfiler(),
        notes=[spec.note],
    )
    attach(run, spec.builder()(sim, **spec.kwargs))
    window = duration if duration is not None else spec.duration
    run.registry.start_sampling(
        sample_period if sample_period is not None else window / 50
    )
    sim.run(until=window)
    run.registry.sample()
    return run


def build_parser() -> argparse.ArgumentParser:
    """The ``repro trace`` argument parser (shared with DOC103 checks)."""
    parser = argparse.ArgumentParser(
        prog="repro-atm trace",
        description="Run one experiment fully instrumented and export the trace.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(TRACEABLE),
        help="scenario to trace",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="trace output: .json = Chrome/Perfetto, .jsonl = line JSON",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="metrics output: .csv = sampled series, .json = full snapshot",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds (default: scenario-appropriate)",
    )
    parser.add_argument(
        "--sample-period",
        type=float,
        default=None,
        help="metric sampling period in simulated seconds",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    run = run_traced(
        args.experiment,
        duration=args.duration,
        sample_period=args.sample_period,
    )
    print(run.summary())
    if args.out:
        run.export_trace(args.out)
        print(f"  trace written to {args.out}")
    if args.metrics:
        run.export_metrics(args.metrics)
        print(f"  metrics written to {args.metrics}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
