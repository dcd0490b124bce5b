"""Host-speed calibration for the timed lanes.

The hosts this benchmark runs on change speed by a third or more from
one few-second stretch to the next (other tenants share the physical
machine), far more than any change worth measuring.  Each timed lane
therefore runs this fixed loop before, between and after slices of its
``Simulator.run``, and ``run.py`` scales the lane's host times to
:data:`REFERENCE_S`, the loop's time on a host at reference speed.  A
slower host stretches the lane and the loop alike, so the scaled
figures stay put; a faster simulator shortens only the lane, so they
move.

The loop imports nothing from the simulator, so no change to the
simulator can move it.  It is a miniature of the simulator's per-cell
work, because the closer its instruction mix, the more closely its
slow-down tracks the simulator's: a heap-ordered event loop resuming
generator sources, frozen-dataclass cells and addresses (hashing and
``dataclasses.replace``), a route lookup, counters and reassembly by
byte joins.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace

#: The loop's time on a host at reference speed, seconds: its median
#: inside timed lanes on the 2-vCPU Xeon host the bounds were set on.
REFERENCE_S = 0.0145

CELL_TIME = 2.7e-6
PAYLOAD = 48


@dataclass(frozen=True)
class _Address:
    vpi: int
    vci: int


@dataclass(frozen=True)
class _Cell:
    vpi: int
    vci: int
    payload: bytes
    last: bool


class _Counter:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def increment(self, n: int = 1) -> None:
        self.count += n


class _Loop:
    def __init__(self) -> None:
        self.heap: list = []
        self.seq = 0
        self.now = 0.0

    def at(self, delay: float, fn, arg) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn, arg))

    def run(self) -> None:
        heap = self.heap
        while heap:
            self.now, _, fn, arg = heapq.heappop(heap)
            fn(arg)


class _Switch:
    def __init__(self, loop: _Loop, routes: dict, sink) -> None:
        self.loop, self.routes, self.sink = loop, routes, sink
        self.switched = _Counter()

    def receive(self, cell: _Cell) -> None:
        out_vci = self.routes.get(_Address(cell.vpi, cell.vci))
        if out_vci is None:
            return
        self.switched.increment()
        self.loop.at(CELL_TIME, self.sink, replace(cell, vci=out_vci))


class _Reassembler:
    def __init__(self) -> None:
        self.parts: dict = {}
        self.pdus = _Counter()

    def receive(self, cell: _Cell) -> None:
        key = (cell.vpi, cell.vci)
        self.parts.setdefault(key, []).append(cell.payload)
        if cell.last:
            b"".join(self.parts.pop(key))
            self.pdus.increment()


def _source(switch: _Switch, vci: int, pdus: int, sdu: bytes):
    for _ in range(pdus):
        for i in range(0, len(sdu), PAYLOAD):
            yield CELL_TIME
            last = i + PAYLOAD >= len(sdu)
            switch.receive(_Cell(0, vci, sdu[i:i + PAYLOAD], last))


def calibration_loop(vcs: int = 16, pdus: int = 4, sdu_size: int = 1500) -> int:
    """Switch and reassemble *pdus* SDUs on each of *vcs* interleaved VCs."""
    loop = _Loop()
    rx = _Reassembler()
    routes = {_Address(0, 32 + v): 100 + v for v in range(vcs)}
    switch = _Switch(loop, routes, rx.receive)
    sdu = (bytes(range(256)) * (sdu_size // 256 + 1))[:sdu_size]

    def resume(gen) -> None:
        try:
            delay = gen.send(None)
        except StopIteration:
            return
        loop.at(delay, resume, gen)

    for v in range(vcs):
        loop.at(0.0, resume, _source(switch, 32 + v, pdus, sdu))
    loop.run()
    return rx.pdus.count


def calibration_s() -> float:
    """Seconds one :func:`calibration_loop` takes right now."""
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start
