"""Canned end-to-end testbeds used by several experiments.

- :func:`build_point_to_point` -- the workhorse: two interfaces, a link
  pair, one or more VCs, and a receive-side PDU log, declared on a
  :class:`~repro.net.Testbed` and returned as its
  :class:`~repro.net.Scenario`.
- :class:`InterleavedCellSource` -- a synthetic wire feeding a receive
  path with cells from many VCs round-robin at link rate, the worst
  case for reassembly-context locality (experiment F6).  A single real
  transmitter cannot produce this pattern (it finishes one PDU before
  the next), but a switch merging many senders does -- this source
  stands in for that switch fabric.  With one VC and a blocking FIFO it
  is the backlogged wire every receive-capacity measurement uses.
"""

from __future__ import annotations

from typing import List, Optional

from repro.aal.aal5 import Aal5Segmenter
from repro.atm.addressing import RESERVED_VCI_LIMIT, VcAddress
from repro.atm.cell import AtmCell
from repro.atm.errors import LossModel
from repro.atm.link import LinkSpec
from repro.net.testbed import Scenario, Testbed
from repro.nic.config import NicConfig
from repro.sim.core import Simulator
from repro.sim.monitor import Counter
from repro.workloads.generators import make_payload


def build_point_to_point(
    sim: Simulator,
    config: NicConfig,
    n_vcs: int = 1,
    propagation_delay: float = 0.0,
    loss_ab: Optional[LossModel] = None,
    link: Optional[LinkSpec] = None,
) -> Scenario:
    """Wire a ``sender``/``receiver`` testbed and open *n_vcs* VCs.

    The forward link is ``net.links["sender->receiver"]`` (carrying
    *loss_ab*), the VCs are ``net.vcs`` and every PDU the receiver
    completes lands in ``net.delivered``.
    """
    if n_vcs < 1:
        raise ValueError("need at least one VC")
    tb = Testbed(default_config=config)
    tb.add_host("sender").add_host("receiver")
    tb.connect(
        "sender",
        "receiver",
        spec=link,
        propagation_delay=propagation_delay,
        loss_ab=loss_ab,
    )
    for i in range(n_vcs):
        tb.vc(VcAddress(0, RESERVED_VCI_LIMIT + i), ["sender", "receiver"])
    net = tb.build(sim)
    net.hosts["receiver"].on_pdu = net.delivered.append
    return net


class InterleavedCellSource:
    """Feeds a receive path with round-robin interleaved VC streams.

    Each of *n_vcs* streams carries back-to-back PDUs of *sdu_size*
    bytes; the wire emits one cell per link slot, rotating across the
    streams.  With N streams, every stream's reassembly context is
    touched every N cells -- the working-set stress the CAM and the
    context table exist for.
    """

    def __init__(
        self,
        sim: Simulator,
        sink,
        link: LinkSpec,
        n_vcs: int,
        sdu_size: int,
        base_vci: int = 100,
        blocking_fifo=None,
        name: str = "interleave",
    ) -> None:
        if n_vcs < 1:
            raise ValueError("need at least one VC")
        if sdu_size < 1:
            raise ValueError("SDU size must be positive")
        self.sim = sim
        self.sink = sink
        self.link = link
        #: When set (a CellFifo), the source delivers with a *blocking*
        #: put -- modelling upstream buffering/backpressure so the
        #: receiver's sustainable rate is measured instead of its
        #: overload collapse.
        self.blocking_fifo = blocking_fifo
        self.n_vcs = n_vcs
        self.sdu_size = sdu_size
        self.name = name
        self.vcs = [VcAddress(0, base_vci + i) for i in range(n_vcs)]
        self._queues: List[List[AtmCell]] = [[] for _ in range(n_vcs)]
        self._segmenters = [Aal5Segmenter(vc) for vc in self.vcs]
        self.cells_emitted = Counter(f"{name}.cells")
        self.pdus_emitted = Counter(f"{name}.pdus")
        self._process = None

    def start(self):
        """Launch the wire process (idempotent); returns the process."""
        if self._process is None:
            if self.blocking_fifo is not None and self.sim.fast_path:
                self._process = self.sim.process(self._run_fast())
            else:
                self._process = self.sim.process(self._run())
        return self._process

    def _refill(self, stream: int) -> None:
        payload = make_payload(self.sdu_size)
        self._queues[stream] = self._segmenters[stream].segment(payload)
        self.pdus_emitted.increment()

    def _run(self):
        stream = 0
        while True:
            if not self._queues[stream]:
                self._refill(stream)
            cell = self._queues[stream].pop(0)
            fifo = self.blocking_fifo
            if fifo is not None:
                # Standing in for a transmit engine, the wire tags each
                # cell with a trace id when the FIFO it feeds is traced.
                if fifo.trace is not None:
                    fifo.trace.tag_cell(cell)
                yield fifo.put(cell)
            else:
                receive = getattr(self.sink, "receive_cell", None)
                if receive is not None:
                    receive(cell)
                else:
                    self.sink(cell)
            self.cells_emitted.increment()
            stream = (stream + 1) % self.n_vcs
            yield self.sim.timeout(self.link.cell_time)

    def _run_fast(self):
        """Burst-mode wire: same slot-spaced cell times, fewer events.

        The scalar loop puts cell *n* at ``start + n * cell_time``
        (shifted only while backpressured).  Here cells are batched into
        pre-announced :class:`~repro.atm.burst.CellBurst` runs whose
        embedded arrivals are that exact slot chain; after a blocking
        put the chain restarts from the accept time, matching the scalar
        loop's post-block resumption.  See ``docs/PERFORMANCE.md``.
        """
        from repro.atm.burst import CellBurst

        queues = self._queues
        stream = 0
        fifo = self.blocking_fifo
        slot = self.link.cell_time
        burst_len = max(
            1, min(self.sim.config.burst_cells, fifo.depth_cells // 2)
        )
        # Arrival of the next cell to emit; advanced with the same
        # iterated float adds as the scalar loop's timeout chain so the
        # values are bit-identical; like that chain it begins at the
        # start time, not at t=0.
        next_arrival = self.sim.now
        while True:
            cells = []
            arrivals = []
            for _ in range(burst_len):
                # The scalar loop's round-robin cell pick, inlined.
                if not queues[stream]:
                    self._refill(stream)
                cells.append(queues[stream].pop(0))
                stream = (stream + 1) % self.n_vcs
                arrivals.append(next_arrival)
                next_arrival = next_arrival + slot
            if fifo.trace is not None:
                for cell in cells:
                    fifo.trace.tag_cell(cell)
            accept = fifo.put_burst(CellBurst(cells, arrivals))
            blocked = not accept.triggered
            yield accept
            self.cells_emitted.increment(burst_len)
            if blocked:
                # Backpressured: the scalar chain restarts from the
                # unblock time (arrivals are engine-dominated here).
                next_arrival = max(self.sim.now, next_arrival)
            wait = next_arrival - self.sim.now
            if wait > 0:
                yield self.sim.timeout(wait)
