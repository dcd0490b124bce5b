"""Fault campaigns: seeded plans composed onto a live testbed.

A :class:`FaultCampaign` builds a complete sender/receiver pair
(:func:`~repro.workloads.scenarios.build_point_to_point`), drives it
with bounded greedy traffic, materialises every fault plan against it,
runs to the configured horizon plus a quiet *drain* long enough for
the reassembly timer wheel to reclaim stranded contexts, and closes
the books with the :class:`~repro.faults.audit.CellConservationAuditor`.

Determinism: each plan's randomness is a named
:class:`~repro.sim.random.RandomStreams` stream derived from the
campaign seed, the plan's index, and its label, so the same campaign
object replays the identical fault schedule -- the property the
regression tests pin -- and no plan's draws perturb another's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.atm.errors import CompositeLoss
from repro.faults.audit import CellConservationAuditor, ConservationLedger
from repro.faults.plan import FaultPlan
from repro.net import Scenario
from repro.nic.config import NicConfig
from repro.nic.nic import NicStats
from repro.sim.core import Simulator
from repro.sim.random import RandomStreams
from repro.workloads.generators import GreedySource
from repro.workloads.scenarios import build_point_to_point


@dataclass(frozen=True)
class CampaignSpec:
    """Traffic shape and timing for one campaign run."""

    #: Horizon for traffic and fault activity, seconds.
    duration: float = 0.02
    #: Concurrent VCs, each with its own greedy source.
    n_vcs: int = 4
    #: SDU size per PDU, bytes.
    sdu_size: int = 8192
    #: PDUs each source offers (bounded so the run can drain; a source
    #: that finishes early simply goes quiet).
    pdus_per_vc: int = 40
    #: Quiet time after *duration* for in-flight cells to land and the
    #: timer wheel to reclaim stranded contexts.  None derives it from
    #: the config's reassembly timeout.
    drain: Optional[float] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.n_vcs < 1:
            raise ValueError("need at least one VC")
        if self.sdu_size < 1:
            raise ValueError("SDU size must be positive")
        if self.pdus_per_vc < 1:
            raise ValueError("pdus_per_vc must be >= 1")
        if self.drain is not None and self.drain < 0:
            raise ValueError("drain must be >= 0")


@dataclass
class CampaignResult:
    """Everything a campaign run produced, books included."""

    ledger: ConservationLedger
    stats: NicStats
    spec: CampaignSpec
    seed: int
    #: PDUs the receiving host's OS handed to the application.
    pdus_received: int
    #: Delivered user bits over the traffic horizon, Mb/s.
    goodput_mbps: float
    #: Simulated end time (horizon + drain).
    ended_at: float

    @property
    def is_conserved(self) -> bool:
        return self.ledger.is_conserved

    def summary(self) -> str:
        return (
            f"campaign seed={self.seed}: {self.pdus_received} PDUs, "
            f"{self.goodput_mbps:.1f} Mb/s goodput, "
            f"{self.ledger.unaccounted} unaccounted cells\n"
            f"{self.ledger.format()}"
        )


class FaultCampaign:
    """Composes fault plans onto a point-to-point testbed and runs it."""

    def __init__(
        self,
        config: NicConfig,
        plans: Sequence[FaultPlan] = (),
        spec: Optional[CampaignSpec] = None,
        seed: int = 1,
    ) -> None:
        self.config = config
        self.plans = list(plans)
        self.spec = spec if spec is not None else CampaignSpec()
        self.seed = seed

        self.sim = Simulator()
        #: Plans stack their loss episodes onto this composite.
        self.link_loss = CompositeLoss()
        self.scenario: Scenario = build_point_to_point(
            self.sim,
            config,
            n_vcs=self.spec.n_vcs,
            loss_ab=self.link_loss,
        )
        self.sender = self.scenario.hosts["sender"]
        self.receiver = self.scenario.hosts["receiver"]
        self.vcs = self.scenario.vcs
        self.link = self.scenario.links["sender->receiver"]
        self.auditor = CellConservationAuditor(self.link, self.receiver)
        self.sources: List[GreedySource] = [
            GreedySource(
                self.sim,
                self.sender,
                vc,
                self.spec.sdu_size,
                total_pdus=self.spec.pdus_per_vc,
                name=f"campaign-src{i}",
            )
            for i, vc in enumerate(self.vcs)
        ]
        self._ran = False

    def rng_for(self, index: int, plan: FaultPlan) -> random.Random:
        """The plan's private, replayable randomness stream."""
        return RandomStreams(self.seed).stream(f"plan.{index}.{plan.label}")

    @property
    def drain_time(self) -> float:
        """Quiet time appended after the horizon."""
        if self.spec.drain is not None:
            return self.spec.drain
        # Long enough for wire/FIFO/DMA residues to land and for the
        # timer wheel to sweep every stranded context at least once.
        return self.config.reassembly_timeout + 3 * self.config.reassembly_tick

    def run(self) -> CampaignResult:
        """Apply plans, drive traffic to the horizon, drain, audit."""
        if self._ran:
            raise RuntimeError("a campaign runs once; build a new one")
        self._ran = True
        for index, plan in enumerate(self.plans):
            plan.apply(self, self.rng_for(index, plan))
        for source in self.sources:
            source.start()
        self.sim.run(until=self.spec.duration)
        delivered_bytes = sum(c.size for c in self.scenario.delivered)
        span = self.spec.duration
        goodput = (delivered_bytes * 8 / span) / 1e6 if span > 0 else 0.0
        self.sim.run(until=self.spec.duration + self.drain_time)
        ledger = self.auditor.snapshot()
        return CampaignResult(
            ledger=ledger,
            stats=self.receiver.stats(),
            spec=self.spec,
            seed=self.seed,
            pdus_received=len(self.scenario.delivered),
            goodput_mbps=goodput,
            ended_at=self.sim.now,
        )
