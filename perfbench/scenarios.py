"""The benchmark's three workloads, built from the simulator's public API.

Each workload is a function ``build(variant, fast_path, size) -> Lane``.
*variant* is the benchmark seed reduced to the range the reference
table covers (see ``reference.json``); *size* scales the simulated
horizon, 1.0 being the measured size.  The scenarios deliberately
re-declare their topology here instead of calling the experiment
helpers, so moving or rewriting those helpers cannot change what this
benchmark measures.

A :class:`Lane` exposes what the harness needs and nothing else: the
simulator and horizon to run, the cells carried (the throughput
numerator), the canonical observables (the correctness hash), an
optional cell-conservation ledger, and the per-layer work counters the
traced run reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.atm.addressing import VcAddress
from repro.atm.signalling import SIGNALLING_VC, SignallingAgent
from repro.faults.audit import CellConservationAuditor
from repro.host.interrupts import InterruptSpec
from repro.host.os_model import OsCostModel
from repro.net import Testbed
from repro.nic.config import aurora_oc3
from repro.nic.nic import HostNetworkInterface
from repro.obs.metrics import MetricsRegistry, instrument
from repro.scale.session import SessionEngine, SessionProfile
from repro.sim.core import SimConfig, Simulator
from repro.sim.random import RandomStreams
from repro.tm.abr import AbrAgent, AbrParams
from repro.tm.cac import CallAdmissionController
from repro.tm.erica import EricaAllocator
from repro.workloads.generators import GreedySource
from repro.workloads.scenarios import InterleavedCellSource

#: Benchmark seeds map onto this many recorded input variants.
VARIANTS = 16


@dataclass
class Lane:
    """One built scenario, ready for ``sim.run(until=until)``."""

    sim: Simulator
    until: float
    #: Cells sent on modelled links plus cells fed straight into an adaptor.
    cells: Callable[[], int]
    #: Model outcomes only: no host times, no scheduler footprint.
    observables: Callable[[], Dict[str, Any]]
    #: The scenario's conservation ledger, when it carries one.
    ledger: Optional[Callable[[], Any]]
    #: Deterministic per-layer work counters for the traced run.
    counts: Callable[[], Dict[str, float]]

    def run(self) -> None:
        self.sim.run(until=self.until)


def observables_hash(observables: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON form (floats keep every digit)."""
    text = json.dumps(observables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _completion_digest(completions: List) -> Dict[str, Any]:
    """Count, bytes and an exact hash of ``(time, vc, size)`` deliveries."""
    h = hashlib.sha256()
    for when, vc, size in completions:
        h.update(f"{when!r}|{vc.vpi}.{vc.vci}|{size};".encode())
    return {
        "pdus": len(completions),
        "bytes": sum(size for _, _, size in completions),
        "sha256": h.hexdigest(),
    }


def _recorder(sim: Simulator, nic: HostNetworkInterface) -> List:
    completions: List = []
    nic.on_pdu = lambda c: completions.append((sim.now, c.vc, c.size))
    return completions


def _lab_host(config):
    """Zero OS and interrupt costs so the adaptor is the stage under test."""
    return replace(
        config,
        os_costs=OsCostModel(
            syscall_cycles=0,
            copy_cycles_per_byte=0.0,
            buffer_mgmt_cycles=0,
            wakeup_cycles=0,
            driver_tx_cycles=0,
            driver_rx_cycles=0,
        ),
        interrupt=InterruptSpec(entry_cycles=0, exit_cycles=0),
    )


def _port_links(net) -> Dict[str, int]:
    """Cells sent on the links the switch ports feed, by port.

    A host's transmit link counts a fast-path burst when the burst is
    handed over, so at a mid-run cut-off it may run ahead of the scalar
    lane (docs/PERFORMANCE.md); a port feeds its link one cell at a
    time in both lanes.  The conservation ledger, whose offered and
    in-flight buckets read those counters, is checked for balance
    separately instead of being hashed.
    """
    return {name: port.link.cells_sent.count for name, port in net.ports.items()}


def _cam_counts(nics) -> Dict[str, float]:
    hits = misses = evictions = 0
    for nic in nics:
        if nic.cam is not None:
            hits += nic.cam.hits
            misses += nic.cam.misses
            evictions += nic.cam.evictions
    lookups = hits + misses
    return {
        "nic.cam.lookups": float(lookups),
        "nic.cam.miss_ratio": misses / lookups if lookups else 0.0,
        "nic.cam.evictions": float(evictions),
    }


def _link_cells(net) -> int:
    return sum(link.cells_sent.count for link in net.links.values())


def _fabric_counts(net) -> Dict[str, float]:
    ports = net.ports.values()
    return {
        "atm.link.cells": float(_link_cells(net)),
        "atm.switch.cells": float(
            sum(sw.cells_switched.count + sw.cells_unroutable.count
                for sw in net.switches.values())
        ),
        "atm.mux.offers": float(
            sum(p.enqueued.count + p.dropped.count for p in ports)
        ),
        "atm.mux.dropped": float(sum(p.dropped.count for p in ports)),
    }


def _host_counts(nics) -> Dict[str, float]:
    return {
        # Simulated time a bus request queues for the arbiter, on
        # average, on the most contended host bus.
        "host.bus.wait_us": 1e6 * max(
            nic.bus.mean_arbitration_wait for nic in nics
        ),
        "aal.reassembly.cells": float(
            sum(nic.rx_engine.cells_received.count for nic in nics)
        ),
    }


def _sim_counts(sim: Simulator, cells: int) -> Dict[str, float]:
    return {
        "sim.events": float(sim.events_processed),
        "sim.events_per_cell": sim.events_processed / cells if cells else 0.0,
        "sim.peak_queue": float(sim.peak_queue_occupancy),
    }


# ---------------------------------------------------------------------------
# rx_interleave: one adaptor's receive path, 64 interleaved VCs
# ---------------------------------------------------------------------------

RX_VCS = 64
RX_SDU = 1500
RX_HORIZON = 0.08


def build_rx_interleave(variant: int, fast_path: bool, size: float) -> Lane:
    """Closed loop: the synthetic wire waits on the FIFO's backpressure.

    There is no randomness, so *variant* is recorded but unused.
    """
    del variant
    config = _lab_host(replace(aurora_oc3(), rx_buffer_slots=4 * RX_VCS))
    sim = Simulator(SimConfig(fast_path=fast_path))
    nic = HostNetworkInterface(sim, config, name="rxhost")
    completions = _recorder(sim, nic)
    source = InterleavedCellSource(
        sim, nic.rx_engine, config.link, RX_VCS, RX_SDU,
        blocking_fifo=nic.rx_fifo,
    )
    for address in source.vcs:
        nic.open_vc(address=address)
    nic.start()
    source.start()

    def cells() -> int:
        return source.cells_emitted.count

    def observables() -> Dict[str, Any]:
        # Mid-run counters may run one burst ahead on the fast path
        # (docs/PERFORMANCE.md), so only exact deliveries are compared.
        return {"deliveries": _completion_digest(completions)}

    def counts() -> Dict[str, float]:
        n = cells()
        return {
            **_sim_counts(sim, n),
            **_cam_counts([nic]),
            **_host_counts([nic]),
        }

    return Lane(sim, RX_HORIZON * size, cells, observables, None, counts)


# ---------------------------------------------------------------------------
# fabric_abr: three greedy ABR sources through an ERICA-managed bottleneck
# ---------------------------------------------------------------------------

ABR_SOURCES = 3
ABR_SDU = 1528
ABR_HORIZON = 0.02


def build_fabric_abr(variant: int, fast_path: bool, size: float) -> Lane:
    """Closed loop: each source keeps one send in flight, ACR-paced."""
    sim = Simulator(SimConfig(fast_path=fast_path))
    streams = RandomStreams(variant)
    cfg = aurora_oc3()
    spec = cfg.link
    vcs = [VcAddress(0, 32 + i) for i in range(ABR_SOURCES)]
    weights = {vc: i + 1 for i, vc in enumerate(vcs)}
    srcs = [f"s{i}" for i in range(ABR_SOURCES)]

    tb = Testbed(default_config=cfg)
    for name in srcs:
        tb.add_host(name)
    tb.add_host("d")
    tb.add_switch("sw1").add_switch("sw2")
    tb.link("sw1", "sw2", buffer_cells=256, efci_threshold=64,
            port_name="bottleneck")
    tb.link("sw2", "d", port_name="p-egress")
    for i, name in enumerate(srcs):
        tb.link("sw2", name, port_name=f"p-ret{i}")
    for name in srcs:
        tb.link(name, "sw1")
    tb.link("d", "sw2")
    for name, vc in zip(srcs, vcs):
        tb.vc(vc, [name, "sw1", "sw2", "d"])
        tb.route(vc, ["d", "sw2", name])
    net = tb.build(sim)
    sources = [net.hosts[name] for name in srcs]
    dest = net.hosts["d"]

    auditor = CellConservationAuditor(
        net.links["s0->sw1"],
        dest,
        switches=list(net.switches.values()),
        ports=list(net.ports.values()),
        extra_links=[port.link for port in net.ports.values()],
        extra_injections=[net.links[f"{n}->sw1"] for n in srcs[1:]]
        + [net.links["d->sw2"]],
        extra_receivers=sources,
    )

    EricaAllocator(sim, net.switches["sw1"], target_utilization=0.95,
                   weight_of=weights.get)
    AbrAgent(sim, dest)
    params = AbrParams(pcr=spec.cell_rate, icr=spec.cell_rate / 16.0,
                       rif=1.0 / 32.0, rdf=1.0 / 16.0)
    for nic, vc in zip(sources, vcs):
        AbrAgent(sim, nic).add_vc(vc, params)
    completions = _recorder(sim, dest)

    start_rng = streams.stream("perfbench.abr.start")
    for i, (nic, vc) in enumerate(zip(sources, vcs)):
        source = GreedySource(sim, nic, vc, ABR_SDU, name=f"greedy{i}")
        sim.schedule_call(start_rng.uniform(0.0, 2e-3), source.start)
    dest.start()

    def cells() -> int:
        return _link_cells(net)

    def observables() -> Dict[str, Any]:
        ports = {
            name: {
                "enqueued": p.enqueued.count,
                "dropped": p.dropped.count,
                "efci": p.efci_marked.count,
                "peak": p.occupancy.maximum,
            }
            for name, p in net.ports.items()
        }
        return {
            "deliveries": _completion_digest(completions),
            "ports": ports,
            "port_links": _port_links(net),
        }

    def counts() -> Dict[str, float]:
        n = cells()
        nics = sources + [dest]
        return {
            **_sim_counts(sim, n),
            **_fabric_counts(net),
            **_cam_counts(nics),
            **_host_counts(nics),
        }

    return Lane(sim, ABR_HORIZON * size, cells, observables,
                auditor.snapshot, counts)


# ---------------------------------------------------------------------------
# session_churn: Poisson call churn through two switches under CAC
# ---------------------------------------------------------------------------

#: S1's session profile: 5,000 calls/s held 0.5 s on average, a mean
#: population of 2,500 live sessions.  The first 0.4 s place about
#: 2,000 of them and reach about 1,350 live, against a 512-entry CAM.
CHURN_ARRIVAL = 5000.0
CHURN_HOLD = 0.5
CHURN_CAM = 512
CHURN_HORIZON = 0.4
_FWD = ("caller", "sw1", "sw2", "callee")
_REV = ("callee", "sw2", "sw1", "caller")


def build_session_churn(variant: int, fast_path: bool, size: float) -> Lane:
    """Open loop in simulated time: arrivals ignore the fabric's state."""
    sim = Simulator(SimConfig(fast_path=fast_path))
    streams = RandomStreams(variant)
    cfg = replace(aurora_oc3(), cam_entries=CHURN_CAM, cam_eviction="lru",
                  reassembly_quota=512)

    tb = Testbed(default_config=cfg)
    tb.add_host("caller").add_host("callee")
    tb.add_switch("sw1").add_switch("sw2")
    tb.link("caller", "sw1")
    tb.link("sw1", "sw2", port_name="p-fwd")
    tb.link("sw2", "callee", port_name="p-egress")
    tb.link("callee", "sw2")
    tb.link("sw2", "sw1", port_name="p-rev")
    tb.link("sw1", "caller", port_name="p-ret")
    tb.route(SIGNALLING_VC, _FWD)
    tb.route(SIGNALLING_VC, _REV)
    net = tb.build(sim)
    caller, callee = net.hosts["caller"], net.hosts["callee"]

    auditor = CellConservationAuditor(
        net.links["caller->sw1"],
        callee,
        switches=list(net.switches.values()),
        ports=list(net.ports.values()),
        extra_links=[port.link for port in net.ports.values()],
        extra_injections=[net.links["callee->sw2"]],
        extra_receivers=[caller],
    )

    callee_sig = SignallingAgent(sim, callee, streams=streams,
                                 name="callee-sig", shape_data_vcs=False)
    caller_sig = SignallingAgent(sim, caller, streams=streams,
                                 name="caller-sig", shape_data_vcs=False)
    cac = CallAdmissionController(sim)
    cac.add_link(net.links["sw1->sw2"])
    cac.guard(callee_sig)
    caller_sig.on_call_active = lambda call: net.add_route(call.address, _FWD)
    caller_sig.on_call_released = lambda call: net.remove_route(
        call.address, _FWD
    )

    engine = SessionEngine(
        sim, caller_sig, streams,
        SessionProfile(arrival_rate=CHURN_ARRIVAL, holding_time=CHURN_HOLD,
                       peak_rate_bps=64000.0, pdus_per_session=2,
                       sdu_size=256),
    )
    callee_sig.on_user_pdu = lambda completion: engine.record_delivery(
        completion.vc, completion.size
    )

    registry = MetricsRegistry(sim)
    instrument(registry, caller, prefix="caller.")
    instrument(registry, callee, prefix="callee.")
    instrument(registry, net.ports["p-egress"], prefix="egress.")
    instrument(registry, caller_sig, prefix="sig.")
    instrument(registry, cac, prefix="cac.")
    instrument(registry, engine, prefix="sessions.")
    instrument(registry, auditor)

    engine.start()
    callee.start()

    def cells() -> int:
        return _link_cells(net)

    def observables() -> Dict[str, Any]:
        cam = callee.cam
        delivered = sorted(
            (vc.vpi, vc.vci, n) for vc, n in engine.delivered_by_vc.items()
        )
        return {
            "placed": engine.sessions_placed.count,
            "connected": engine.sessions_connected.count,
            "refused": engine.sessions_refused.count,
            "failed": engine.sessions_failed.count,
            "released": engine.sessions_released.count,
            "peak_active": engine.peak_active,
            "setup_mean": engine.setup_latency.mean,
            "setup_max": engine.setup_latency.maximum,
            "cam": [cam.hits, cam.misses, cam.evictions, cam.capacity_misses],
            "delivered": delivered,
            "port_links": _port_links(net),
            "registry_metrics": len(registry),
        }

    def counts() -> Dict[str, float]:
        n = cells()
        nics = [caller, callee]
        return {
            **_sim_counts(sim, n),
            **_fabric_counts(net),
            **_cam_counts(nics),
            **_host_counts(nics),
            "atm.signalling.msgs": float(
                caller_sig.messages_sent.count + callee_sig.messages_sent.count
            ),
            "tm.cac.refused": float(cac.calls_rejected.count),
            "scale.sessions": float(engine.sessions_placed.count),
            "obs.registry_metrics": float(len(registry)),
        }

    return Lane(sim, CHURN_HORIZON * size, cells, observables,
                auditor.snapshot, counts)


WORKLOADS: Dict[str, Callable[[int, bool, float], Lane]] = {
    "rx_interleave": build_rx_interleave,
    "fabric_abr": build_fabric_abr,
    "session_churn": build_session_churn,
}


def build(workload: str, seed: int, fast_path: bool, size: float = 1.0) -> Lane:
    """Build *workload*'s scenario for benchmark seed *seed*."""
    return WORKLOADS[workload](seed % VARIANTS, fast_path, size)


def ledger_problem(lane: Lane) -> Optional[str]:
    """A description of an unbalanced ledger, or None when it balances."""
    if lane.ledger is None:
        return None
    ledger = lane.ledger()
    if ledger.is_conserved:
        return None
    return f"unbalanced ledger: {ledger.unaccounted} cells unaccounted"

