"""Event loop, clock, and the :class:`Event` primitive.

The kernel keeps a binary heap of ``(time, priority, sequence, event)``
entries and pops them in that total order: earlier time first, then
``URGENT`` before ``NORMAL``, then scheduling order.  An :class:`Event`
is the unit of synchronisation -- processes (see
:mod:`repro.sim.process`) suspend on events and are resumed by the
event's callbacks when it triggers.  A :class:`ScheduledCall` is the
other kind of entry: a bare ``fn(*args)`` that nothing waits on.

:class:`SimConfig` also carries the ``fast_path`` switch that lets the
NIC/link layers move :class:`repro.atm.burst.CellBurst` batches instead
of per-cell events (see ``docs/PERFORMANCE.md``).

Only the simulator advances time.  All model code runs inside event
callbacks, so there is no concurrency and no locking anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional, Union,
)

if TYPE_CHECKING:  # import cycle: process.py imports this module
    from repro.sim.process import Process


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, run-after-end...)."""


#: Events scheduled with ``URGENT`` priority fire before normal events that
#: share the same timestamp.  The kernel uses this internally to make
#: process termination visible before ordinary timeouts at the same instant.
NORMAL = 1
URGENT = 0


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event has three observable states:

    - *pending*: created but not yet triggered,
    - *triggered*: scheduled to fire (value/exception already decided),
    - *processed*: its callbacks have run.

    ``trigger(value)`` succeeds the event; ``fail(exc)`` makes every waiter
    re-raise ``exc``.  Both may be called at most once in total.

    ``cancel()`` withdraws an event that has not yet been processed: a
    queued occurrence (e.g. a :class:`Timeout`) is skipped when it
    reaches the front of the queue -- the clock never advances to it
    and its callbacks never run -- as if it had never been scheduled.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_state")

    _CANCELLED = -1
    _PENDING = 0
    _TRIGGERED = 1
    _PROCESSED = 2

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = Event._PENDING

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the outcome (value or exception) is decided."""
        return self._state > Event._PENDING

    @property
    def cancelled(self) -> bool:
        """True once the event has been withdrawn via :meth:`cancel`."""
        return self._state == Event._CANCELLED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == Event._PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value.  Raises if the event failed or is pending."""
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering ------------------------------------------------------

    def cancel(self) -> "Event":
        """Withdraw the event; it will never fire its callbacks.

        Legal until the event is processed (so both never-triggered
        events and queued-but-unprocessed ones can be withdrawn);
        cancelling twice is a no-op.  A queued entry is purged lazily:
        it stays in the scheduler queue until popped, then is skipped
        without advancing the clock or the processed-event count.
        Anything still waiting on a cancelled event waits forever --
        withdrawing an event other processes depend on is the caller's
        responsibility.
        """
        if self._state == Event._PROCESSED:
            raise SimulationError("cannot cancel a processed event")
        self._state = Event._CANCELLED
        return self

    def trigger(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Succeed the event with *value* after *delay* seconds."""
        if self._state != Event._PENDING:
            raise SimulationError(
                "cannot trigger a cancelled event"
                if self._state == Event._CANCELLED
                else "event triggered twice"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._value = value
        self._state = Event._TRIGGERED
        sim = self.sim
        sim._schedule_at(sim._now + delay, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Fail the event; waiters re-raise *exception*."""
        if self._state != Event._PENDING:
            raise SimulationError(
                "cannot fail a cancelled event"
                if self._state == Event._CANCELLED
                else "event triggered twice"
            )
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._exception = exception
        self._state = Event._TRIGGERED
        sim = self.sim
        sim._schedule_at(sim._now + delay, self)
        return self

    # -- waiting ---------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event is processed.

        If the event has already been processed the callback runs
        immediately, which makes late subscription race-free.
        """
        if self._state == Event._PROCESSED:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        self._state = Event._PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {
            Event._CANCELLED: "cancelled",
            Event._PENDING: "pending",
            Event._TRIGGERED: "triggered",
            Event._PROCESSED: "processed",
        }[self._state]
        return f"<{type(self).__name__} {state} at t={self.sim.now:.9f}>"


class ScheduledCall:
    """A queued ``fn(*args)``, as :meth:`Simulator.schedule_call` returns.

    The cheapest queue entry: one slotted object, with no callbacks
    list and no closure.  The loop dispatches it as it does an event
    (by its ``_state`` and ``_process``), so it takes a sequence number
    and counts in ``events_processed`` the same way.  ``cancel()``
    withdraws it with :meth:`Event.cancel`'s semantics.  Nothing can
    wait on it: a process that must wait yields an :class:`Event`.
    """

    __slots__ = ("fn", "args", "_state")

    def __init__(self, fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        self.fn = fn
        self.args = args
        self._state = Event._TRIGGERED

    def cancel(self) -> "ScheduledCall":
        """Withdraw the call; legal until it has run, idempotent before."""
        if self._state == Event._PROCESSED:
            raise SimulationError("cannot cancel a processed call")
        self._state = Event._CANCELLED
        return self

    def _process(self) -> None:
        self._state = Event._PROCESSED
        self.fn(*self.args)


class Timeout(Event):
    """An event that triggers itself *delay* seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # Event.__init__ inlined: a Timeout is built per simulated hop.
        self.sim = sim
        self.callbacks = []
        self._exception = None
        self.delay = delay
        self._value = value
        self._state = Event._TRIGGERED
        sim._schedule_at(sim._now + delay, self)


#: What the queue holds: anything with ``_state`` and ``_process()``.
_Entry = Union[Event, ScheduledCall]


@dataclass(frozen=True)
class SimConfig:
    """Kernel configuration: the fast-path switches.

    ``fast_path`` does not change the kernel itself -- it is the flag the
    NIC, link, and workload layers consult to decide whether to move
    cells one event at a time (the reference path) or batched into
    :class:`repro.atm.burst.CellBurst` objects with identical per-cell
    accounting.
    """

    fast_path: bool = False
    #: Preferred cells per burst on the fast path (producers may emit
    #: fewer, e.g. when capped by half the downstream FIFO depth).
    burst_cells: int = 32

    def __post_init__(self) -> None:
        if self.burst_cells < 1:
            raise ValueError(f"burst_cells must be >= 1, got {self.burst_cells}")


class Simulator:
    """The event loop: a clock plus a time-ordered queue of events.

    Typical use::

        sim = Simulator()
        sim.process(my_generator_function(sim))
        sim.run(until=1.0)

    Time is a float in seconds and only moves forward.  Events scheduled
    for identical times fire in scheduling order (FIFO), which keeps runs
    deterministic.
    """

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        self.config = config if config is not None else SimConfig()
        self._now: float = 0.0
        self._queue: list[tuple[float, int, int, _Entry]] = []
        self._sequence = 0
        self._running = False
        #: Lifetime count of events processed -- the kernel's own
        #: observability counter (P1's ``events_ratio`` and the
        #: benchmark's ``sim.events`` read it).
        self.events_processed = 0
        #: High-water mark of queued entries, updated O(1) on every
        #: push.  The scale experiments chart this against VC count to
        #: show the scheduler's footprint stays bounded under churn.
        self.peak_queue_occupancy = 0

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def fast_path(self) -> bool:
        """True when model layers should batch cells into bursts."""
        return self.config.fast_path

    # -- event construction helpers --------------------------------------

    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires *delay* seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator["Event", Any, Any]) -> "Process":
        """Launch *generator* as a cooperative process (see sim.process)."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling ------------------------------------------------------

    def _schedule_at(
        self, when: float, event: _Entry, priority: int = NORMAL
    ) -> None:
        """Schedule *event* (or a call entry) at the absolute time *when*.

        The fast path (docs/PERFORMANCE.md) schedules at precomputed
        absolute times rather than ``now + (when - now)`` deltas: the
        round trip through a delta can be off by one ulp, which would
        break bit-exact equivalence with the scalar reference.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past (at={when}, now={self._now})"
            )
        self._sequence += 1
        queue = self._queue
        heappush(queue, (when, priority, self._sequence, event))
        occupancy = len(queue)
        if occupancy > self.peak_queue_occupancy:
            self.peak_queue_occupancy = occupancy

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Process one queue entry (advancing the clock to it).

        A cancelled entry is discarded instead: the clock stays put and
        ``events_processed`` does not move, as if it was never queued.
        """
        when, _priority, _seq, event = heappop(self._queue)
        if event._state == Event._CANCELLED:
            return
        self._now = when
        self.events_processed += 1
        event._process()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass *until*.

        When *until* is given the clock is left exactly at *until* (even if
        the next event lies beyond it), mirroring simpy semantics so that
        rate computations over the run window are exact.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if until is None:
            horizon = float("inf")
        elif until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})"
            )
        else:
            horizon = until
        self._running = True
        queue = self._queue
        cancelled = Event._CANCELLED
        try:
            # step() inlined: this loop is the kernel's hot path.
            while queue and queue[0][0] <= horizon:
                when, _priority, _seq, event = heappop(queue)
                if event._state == cancelled:
                    continue
                self._now = when
                self.events_processed += 1
                event._process()
            if until is not None:
                self._now = until
        finally:
            self._running = False

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run to queue exhaustion; return the number of events processed.

        *max_events* is a runaway guard for tests -- exceeding it raises
        :class:`SimulationError` rather than hanging the test suite.
        """
        start = self.events_processed
        iterations = 0
        while self.pending_events() > 0:
            self.step()
            iterations += 1
            if iterations > max_events:
                raise SimulationError("simulation exceeded max_events guard")
        return self.events_processed - start

    # -- misc -------------------------------------------------------------

    def schedule_call(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> "ScheduledCall":
        """Call ``fn(*args)`` after *delay* seconds.

        Returns the queued :class:`ScheduledCall`, which can be
        cancelled but not waited on; ``fn``'s result is discarded.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        call = ScheduledCall(fn, args)
        self._schedule_at(self._now + delay, call)
        return call

    def wake_at(self, when: float, value: Any = None) -> Event:
        """An event firing at the absolute time *when* (fast-path timeout).

        Unlike ``timeout(when - now)`` this cannot be off by one ulp;
        see :meth:`_schedule_at`.
        """
        ev = Event(self)
        ev._state = Event._TRIGGERED
        ev._value = value
        self._schedule_at(when, ev)
        return ev

    def schedule_call_at(
        self, when: float, fn: Callable[..., None], *args: Any
    ) -> "ScheduledCall":
        """Like :meth:`schedule_call` at an absolute time (fast path)."""
        call = ScheduledCall(fn, args)
        self._schedule_at(when, call)
        return call

    def pending_events(self) -> int:
        """Number of entries still queued (triggered but unprocessed).

        Cancelled entries are purged lazily, so they are counted here
        until they reach the front of the queue (:meth:`peek` may
        likewise report a cancelled entry's time).
        """
        return len(self._queue)


def all_processed(events: Iterable[Event]) -> bool:
    """True when every event in *events* has been processed."""
    return all(ev.processed for ev in events)
