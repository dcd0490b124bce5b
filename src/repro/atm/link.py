"""Physical links: serialization timing, propagation, loss injection.

A link is characterised by its *payload rate* -- the bit rate left for
cells after physical-layer framing overhead.  The presets carry the
numbers the 1991 host interface targeted:

- TAXI-class 100 Mb/s (the FDDI PMD many early ATM LANs borrowed),
- SONET STS-3c: 155.52 Mb/s line, 149.76 Mb/s payload,
- SONET STS-12c: 622.08 Mb/s line, 599.04 Mb/s payload,
- DS3: 44.736 Mb/s with PLCP framing (~40.7 Mb/s of cells).

The cell slot time of a link -- 53 bytes at payload rate -- is *the*
reference quantity of the paper's analysis: a protocol engine keeps up
with the link exactly when its per-cell service time stays below the
slot time (2.83 us at STS-3c, 0.71 us at STS-12c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.atm.burst import CellBurst
from repro.atm.cell import CELL_SIZE, AtmCell
from repro.atm.errors import LossModel, NoLoss
from repro.sim.core import Event, Simulator
from repro.sim.monitor import Counter

CellSink = Union[Callable[[AtmCell], None], "SupportsReceiveCell"]

#: simlint SL7 dual-path registry (docs/STATIC_ANALYSIS.md): burst
#: transmission must book the same per-cell loss and delivery
#: accounting as scalar sends.
PATH_PAIRS = [
    {
        "scalar": "PhysicalLink.send",
        "burst": "PhysicalLink.send_burst",
        "why": (
            "burst sends serialize, lose and deliver cells with the "
            "scalar path's exact accounting, batched per wire burst"
        ),
    },
]


class SupportsReceiveCell:
    """Structural interface: anything with ``receive_cell(cell)``."""

    def receive_cell(self, cell: AtmCell) -> None:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class LinkSpec:
    """Static description of a physical link type."""

    name: str
    line_rate_bps: float
    payload_rate_bps: float

    def __post_init__(self) -> None:
        if self.payload_rate_bps <= 0:
            raise ValueError("payload rate must be positive")
        if self.payload_rate_bps > self.line_rate_bps:
            raise ValueError("payload rate cannot exceed line rate")

    @property
    def cell_time(self) -> float:
        """Seconds to serialize one 53-byte cell at payload rate."""
        return (CELL_SIZE * 8) / self.payload_rate_bps

    @property
    def cell_rate(self) -> float:
        """Cells per second the link can carry."""
        return self.payload_rate_bps / (CELL_SIZE * 8)

    @property
    def effective_user_rate_bps(self) -> float:
        """Bit rate available to 48-byte cell payloads (the ATM tax)."""
        return self.payload_rate_bps * 48 / CELL_SIZE


TAXI_100 = LinkSpec("TAXI-100", 125e6, 100e6)
STS3C_155 = LinkSpec("STS-3c", 155.52e6, 149.76e6)
STS12C_622 = LinkSpec("STS-12c", 622.08e6, 599.04e6)
DS3_45 = LinkSpec("DS3", 44.736e6, 40.704e6)


class PhysicalLink:
    """A unidirectional cell pipe with serialization and propagation.

    ``send(cell)`` returns an event that fires when the cell has finished
    serializing (i.e. when the sender may reuse its transmit machinery);
    ``transmit(cell)`` returns that instant instead.  The cell is
    delivered to *sink* one propagation delay later, unless the loss
    model eats it.  Cells serialize strictly in order at the link's
    cell slot time; idle slots are implicit.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: LinkSpec,
        sink: Optional[CellSink] = None,
        propagation_delay: float = 0.0,
        loss_model: Optional[LossModel] = None,
        error_model=None,
        name: str = "",
    ) -> None:
        if propagation_delay < 0:
            raise ValueError("propagation delay must be >= 0")
        self.sim = sim
        self.spec = spec
        self.sink = sink
        self.propagation_delay = propagation_delay
        self.loss_model = loss_model if loss_model is not None else NoLoss()
        #: Optional corruption hook (``maybe_corrupt(cell) -> cell``,
        #: e.g. :class:`~repro.atm.errors.BitErrorModel`): applied to
        #: every cell that survives the loss model, modelling payload or
        #: header bit errors on the wire.
        self.error_model = error_model
        self.name = name or f"link-{spec.name}"
        self._next_free = 0.0
        self._busy_time = 0.0
        self.cells_sent = Counter(f"{self.name}.sent")
        self.cells_delivered = Counter(f"{self.name}.delivered")
        self.cells_lost = Counter(f"{self.name}.lost")
        #: Observability hook (repro.obs): a TraceRecorder, or None.
        self.trace = None

    def connect(self, sink: CellSink) -> None:
        """Attach (or replace) the receiving end."""
        self.sink = sink

    def send(self, cell: AtmCell) -> Event:
        """Enqueue *cell* for serialization; event fires at wire-out time."""
        finished = Event(self.sim)
        finished._state = Event._TRIGGERED
        finished._value = cell
        self.sim._schedule_at(self.transmit(cell), finished)
        return finished

    def transmit(self, cell: AtmCell) -> float:
        """Serialize *cell* and schedule its delivery; return wire-out time.

        :meth:`send` without the completion event, for a caller that
        schedules its own call at wire-out (an output port's drain).
        """
        now = self.sim.now
        start = max(now, self._next_free)
        done = start + self.spec.cell_time
        self._next_free = done
        self._busy_time += self.spec.cell_time
        self.cells_sent.increment()
        if self.trace is not None:
            self.trace.emit("link.cell.sent", actor=self.name, cell=cell)

        if self.loss_model.should_drop(cell, now):
            self.cells_lost.increment()
            if self.trace is not None:
                self.trace.emit(
                    "cell.drop", actor=self.name, cell=cell,
                    reason="link_lost",
                )
        else:
            if self.error_model is not None:
                cell = self.error_model.maybe_corrupt(cell)
            self.sim.schedule_call(
                (done - now) + self.propagation_delay, self._deliver, cell
            )
        return now + (done - now)

    def send_burst(self, burst: CellBurst) -> Event:
        """Serialize a pre-announced burst; event fires at last wire-out.

        The scalar arithmetic, run per cell in one pass: each cell
        starts serializing at ``max(arrival, next_free)`` -- its embedded
        arrival is exactly when the scalar framer would have offered it
        -- and the loss/error models see each cell individually at its
        start slot.  Surviving cells travel as one delivery event fired
        at the *first* survivor's arrival instant, carrying per-cell
        delivery times for the receiving end to replay.
        """
        now = self.sim.now
        cell_time = self.spec.cell_time
        propagation = self.propagation_delay
        done = self._next_free
        survivors = []
        deliveries = []
        for cell, available in zip(burst.cells, burst.arrivals):
            start = available if available > self._next_free else self._next_free
            done = start + cell_time
            self._next_free = done
            self._busy_time += cell_time
            self.cells_sent.increment()
            if self.trace is not None:
                self.trace.emit(
                    "link.cell.sent", actor=self.name, cell=cell, ts=start
                )
            if self.loss_model.should_drop(cell, start):
                self.cells_lost.increment()
                if self.trace is not None:
                    self.trace.emit(
                        "cell.drop", actor=self.name, cell=cell,
                        reason="link_lost", ts=start,
                    )
                continue
            if self.error_model is not None:
                cell = self.error_model.maybe_corrupt(cell)
            survivors.append(cell)
            # Same float expression as the scalar ``send`` delivery
            # (``(done - now) + propagation`` from the call time, which
            # for the scalar framer is this cell's start slot).
            deliveries.append(start + ((done - start) + propagation))
        if survivors:
            delivered = CellBurst(survivors, deliveries)
            self.sim.schedule_call_at(
                deliveries[0], self._deliver_burst, delivered
            )
        finished = Event(self.sim)
        finished._state = Event._TRIGGERED
        finished._value = burst
        self.sim._schedule_at(done, finished)
        return finished

    def _deliver(self, cell: AtmCell) -> None:
        self.cells_delivered.increment()
        if self.trace is not None:
            self.trace.emit("link.cell.delivered", actor=self.name, cell=cell)
        if self.sink is None:
            raise RuntimeError(f"{self.name} has no sink attached")
        receive = getattr(self.sink, "receive_cell", None)
        if receive is not None:
            receive(cell)
        else:
            self.sink(cell)

    def _deliver_burst(self, burst: CellBurst) -> None:
        if self.sink is None:
            raise RuntimeError(f"{self.name} has no sink attached")
        receive_burst = getattr(self.sink, "receive_burst", None)
        if receive_burst is not None:
            self.cells_delivered.increment(len(burst))
            if self.trace is not None:
                for cell, when in zip(burst.cells, burst.arrivals):
                    self.trace.emit(
                        "link.cell.delivered",
                        actor=self.name,
                        cell=cell,
                        ts=when,
                    )
            receive_burst(burst)
            return
        # Burst-unaware sink (e.g. a switch input): replay the cells at
        # their own arrival times, not all at the first -- a sink that
        # reads ``sim.now`` (fabric delays, port pacing) must see each
        # cell at exactly the instant the scalar path would deliver it.
        for cell, when in zip(burst.cells, burst.arrivals):
            if when <= self.sim.now:
                self._deliver(cell)
            else:
                self.sim.schedule_call_at(when, self._deliver, cell)

    @property
    def backlog_time(self) -> float:
        """Seconds of queued serialization work ahead of a new cell."""
        return max(0.0, self._next_free - self.sim.now)

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of elapsed time the link spent serializing cells."""
        end = self.sim.now if now is None else now
        if end <= 0:
            return 0.0
        return min(1.0, self._busy_time / end)
