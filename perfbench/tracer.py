"""Per-layer host-time tracing installed from outside the simulator.

:class:`Tracer` wraps each layer's entry points in timing shims for
the length of one run and removes them afterwards, so the untraced
lanes time exactly the code in the repository.  Nothing in ``src/``
knows it is being traced.

What gets wrapped:

- in the kernel (``repro.sim``), the public methods and functions --
  the calls other layers make into it -- except ``Simulator.step``,
  which only the kernel's own loop calls.  ``Simulator.run`` is the
  event loop: its self time (queue pops and dispatch) goes to the
  ``sim.loop`` bucket, which :attr:`Tracer.layer_s` leaves out;
- in every model layer, every method, static method, class method and
  module function except dunders and generator functions, because the
  kernel calls private methods back as event callbacks and their time
  belongs to the layer;
- ``Process._resume`` and ``Process._throw``, whose spans are
  attributed to the layer whose module defines the generator being
  resumed (``generator.gi_code.co_filename``), so a process body's
  time lands in its own layer, not the kernel's;
- every other event callback the kernel dispatches
  (``Event._process``), such as a closure or lambda a layer method
  registers: its span is attributed to the layer whose module defines
  the callback's code (``__code__.co_filename``).  The kernel's
  ``schedule_call`` trampolines are seen through to the function they
  call.

Every wrapped call opens a span: its bucket, start, end and the span
that was open when it began.  A bucket's self time is the total of its
spans' durations minus the time their child spans cover.  Spans stay in
memory (a few flat arrays) and :meth:`Tracer.write_spans` writes them
once the run is over.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import struct
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Packages traced, i.e. the simulator's layers.
LAYERS = ("sim", "atm", "aal", "nic", "host", "tm", "scale", "net",
          "obs", "faults", "workloads")

#: (module, class or None, bucket): the first matching row names the
#: bucket of a wrapped function; a module row matches its submodules.
BUCKET_RULES: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("repro.sim", None, "sim"),
    ("repro.atm.link", None, "atm.link"),
    ("repro.atm.switch", None, "atm.switch"),
    ("repro.atm.mux", None, "atm.mux"),
    ("repro.atm.signalling", None, "atm.signalling"),
    ("repro.atm.cell", None, "atm.cell"),
    ("repro.atm", None, "atm.other"),
    ("repro.aal.aal5", "Aal5Segmenter", "aal.segment"),
    ("repro.aal.aal5", "Aal5Reassembler", "aal.reassembly"),
    ("repro.aal.reassembly", None, "aal.reassembly"),
    ("repro.aal.crc", None, "aal.crc"),
    ("repro.aal", None, "aal.other"),
    ("repro.nic.rx", None, "nic.rx"),
    ("repro.nic.tx", None, "nic.tx"),
    ("repro.nic.fifo", None, "nic.fifo"),
    ("repro.nic.bufmem", None, "nic.bufmem"),
    ("repro.nic.cam", None, "nic.cam"),
    ("repro.nic.engine", None, "nic.engine"),
    ("repro.nic", None, "nic.other"),
    ("repro.host.bus", None, "host.bus"),
    ("repro.host.dma", None, "host.dma"),
    ("repro.host.cpu", None, "host.cpu"),
    ("repro.host.interrupts", None, "host.interrupts"),
    ("repro.host", None, "host.other"),
    ("repro.tm.abr", None, "tm.abr"),
    ("repro.tm.erica", None, "tm.erica"),
    ("repro.tm.cac", None, "tm.cac"),
    ("repro.tm", None, "tm.other"),
    ("repro.scale.session", None, "scale.session"),
    ("repro.scale", None, "scale.other"),
    ("repro.net", "Testbed", "net.build"),
    ("repro.net", None, "net.route"),
    ("repro.obs", None, "obs"),
    ("repro.faults.audit", None, "faults.audit"),
    ("repro.faults", None, "faults.other"),
    ("repro.workloads", None, "workloads.source"),
)

#: Kernel functions left unwrapped: only the kernel's own loop calls them.
_KERNEL_INTERNAL = {("repro.sim.core", "Simulator", "step")}
#: The event loop, whose self time is kernel work but no layer's call.
_EVENT_LOOP = ("repro.sim.core", "Simulator", "run")
#: Buckets whose time :attr:`Tracer.layer_s` does not count.
UNATTRIBUTED = ("sim.loop", "untraced")
#: Route of a kernel trampoline callback: see through it.
_TRAMPOLINE = (-1, -1)

#: Span record layout in the file :meth:`Tracer.write_spans` writes.
SPAN_FORMAT = "<qqhdd"  # id, parent id (-1: none), bucket, start, end


def bucket_for(module: str, owner: Optional[str]) -> Optional[str]:
    """The bucket of a function defined in *module* (on class *owner*)."""
    for prefix, cls, bucket in BUCKET_RULES:
        if (module == prefix or module.startswith(prefix + ".")) and (
            cls is None or cls == owner
        ):
            return bucket
    return None


def layer_modules() -> List[Any]:
    """Import and return every module of the traced layers."""
    modules = []
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__, f"repro.{layer}."):
            modules.append(importlib.import_module(info.name))
    return modules


def _wanted(module: str, owner: Optional[str], name: str, fn: Any) -> bool:
    if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
        return False
    if name.startswith("__") and name.endswith("__"):
        return False
    if module == "repro.sim" or module.startswith("repro.sim."):
        return not name.startswith("_") and (module, owner, name) not in _KERNEL_INTERNAL
    return True


class Tracer:
    """Installs timing wrappers, records spans, and removes the wrappers."""

    def __init__(self) -> None:
        self.buckets: List[str] = []
        self._bucket_ids: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.calls: List[int] = []
        #: Calls per wrapped function, by ``module.Class.name``.
        self.function_calls: Dict[str, int] = {}
        self._function_ids: Dict[str, int] = {}
        self._function_counts: List[int] = []
        self._function_times: List[float] = []
        #: Inclusive seconds per wrapped function, by the same key.
        self.function_s: Dict[str, float] = {}
        #: (owner, attribute, original) for every patched binding.
        self._patches: List[Tuple[Any, str, Any]] = []
        self._resume_buckets: Dict[str, int] = {}
        #: Callback code -> (bucket id, function id) or _TRAMPOLINE.
        self._callback_routes: Dict[Any, Tuple[int, int]] = {}
        # Spans, recorded when they close; parent ids refer to ``_ids``.
        self._ids = array("q")
        self._parents = array("q")
        self._span_buckets = array("h")
        self._starts = array("d")
        self._ends = array("d")
        self._next_id = 0
        # One frame per open span: [span id, child time]; the sentinel
        # bottom frame collects the time of top-level spans.
        self._stack: List[List[float]] = [[-1, 0.0]]

    # -- buckets -----------------------------------------------------------

    def _bucket_id(self, bucket: str) -> int:
        bid = self._bucket_ids.get(bucket)
        if bid is None:
            bid = self._bucket_ids[bucket] = len(self.buckets)
            self.buckets.append(bucket)
            self.self_s.append(0.0)
            self.calls.append(0)
        return bid

    def _generator_bucket(self, filename: str) -> int:
        bid = self._resume_buckets.get(filename)
        if bid is None:
            module = _module_of_file(filename)
            bucket = bucket_for(module, None) if module else None
            bid = self._bucket_id(bucket or "untraced")
            self._resume_buckets[filename] = bid
        return bid

    def _callback_route(self, fn: Any) -> Optional[Tuple[int, int]]:
        """Bucket and function ids of a dispatched callback, or None when
        it opens its own span (a wrapped method) or has no Python code."""
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", None)
        if code is None or getattr(func, "_perfbench_shim", False):
            return None
        route = self._callback_routes.get(code)
        if route is None:
            module = _module_of_file(code.co_filename) or ""
            qualname = getattr(code, "co_qualname", code.co_name)
            if bucket_for(module, None) == "sim" and "fn" in code.co_freevars:
                route = _TRAMPOLINE
            else:
                owner = qualname.split(".")[0] if "." in qualname else None
                route = (self._bucket_id(bucket_for(module, owner) or "untraced"),
                         self._function_id(f"{module}.{qualname}"))
            self._callback_routes[code] = route
        if route is _TRAMPOLINE:
            # A kernel schedule_call runner: time it as the function it calls.
            cell = func.__closure__[code.co_freevars.index("fn")]
            return self._callback_route(cell.cell_contents)
        return route

    # -- wrapping ----------------------------------------------------------

    def _function_id(self, key: str) -> int:
        fid = self._function_ids.get(key)
        if fid is None:
            fid = self._function_ids[key] = len(self._function_counts)
            self._function_counts.append(0)
            self._function_times.append(0.0)
        return fid

    def _wrap(self, fn: Callable, bid: int, key: str) -> Callable:
        return self._shim(fn, lambda args: bid, self._function_id(key))

    def _dispatcher(self, process: Callable) -> Callable:
        """``Event._process`` that times each callback in its own span."""
        route, shim = self._callback_route, self._shim

        def timed(fn: Callable) -> Callable:
            ids = route(fn)
            if ids is None:
                return fn
            bid, fid = ids
            return shim(fn, lambda args: bid, fid)

        def dispatch(event: Any) -> None:
            if event.callbacks:
                event.callbacks = [timed(fn) for fn in event.callbacks]
            process(event)

        return dispatch

    def _shim(self, fn: Callable, bucket_of: Callable, fid: int) -> Callable:
        perf = time.perf_counter
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        fcounts, ftimes = self._function_counts, self._function_times
        ids, parents, sbuckets = self._ids, self._parents, self._span_buckets
        starts, ends = self._starts, self._ends
        tracer = self

        def traced(*args, **kwargs):
            bid = bucket_of(args)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                span = t1 - t0
                parent = stack[-1]
                parent[1] += span
                self_s[bid] += span - frame[1]
                calls[bid] += 1
                fcounts[fid] += 1
                ftimes[fid] += span
                ids.append(sid)
                parents.append(parent[0])
                sbuckets.append(bid)
                starts.append(t0)
                ends.append(t1)

        traced.__wrapped__ = fn
        traced._perfbench_shim = True
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, extra_modules: Tuple[Any, ...] = ()) -> None:
        """Wrap every traced entry point; *extra_modules* also see the
        wrapped module functions they imported by name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.sim.core import Event
        from repro.sim.process import Process

        modules = layer_modules()
        rebinding = modules + list(extra_modules)
        for module in modules:
            mname = module.__name__
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != mname:
                    continue
                if inspect.isclass(obj):
                    for attr, value in list(vars(obj).items()):
                        descriptor = type(value) if isinstance(
                            value, (staticmethod, classmethod)) else None
                        fn = value.__func__ if descriptor else value
                        if not _wanted(mname, obj.__name__, attr, fn):
                            continue
                        bucket = bucket_for(mname, obj.__name__)
                        if (mname, obj.__name__, attr) == _EVENT_LOOP:
                            bucket = "sim.loop"
                        key = f"{mname}.{obj.__name__}.{attr}"
                        wrapped = self._wrap(fn, self._bucket_id(bucket), key)
                        self._patch(obj, attr,
                                    descriptor(wrapped) if descriptor else wrapped)
                elif _wanted(mname, None, name, obj):
                    wrapped = self._wrap(
                        obj, self._bucket_id(bucket_for(mname, None)),
                        f"{mname}.{name}")
                    for holder in rebinding:
                        for bound, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, bound, wrapped)

        generator_bucket = self._generator_bucket
        for attr in ("_resume", "_throw"):
            self._patch(Process, attr, self._shim(
                Process.__dict__[attr],
                lambda args: generator_bucket(
                    args[0].generator.gi_code.co_filename),
                self._function_id(f"repro.sim.process.Process.{attr}"),
            ))
        self._patch(Event, "_process",
                    self._dispatcher(Event.__dict__["_process"]))

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self.function_calls = {
            key: self._function_counts[fid]
            for key, fid in self._function_ids.items()
        }
        self.function_s = {
            key: self._function_times[fid]
            for key, fid in self._function_ids.items()
        }

    # -- results -----------------------------------------------------------

    @property
    def spans(self) -> int:
        return len(self._ids)

    @property
    def attributed_s(self) -> float:
        """Total duration of top-level spans, i.e. all time in a span."""
        return self._stack[0][1]

    @property
    def layer_s(self) -> float:
        """Self time of the layers' own code: every bucket but the event
        loop's and that of callbacks defined outside the layers."""
        return sum(s for bucket, s in zip(self.buckets, self.self_s)
                   if bucket not in UNATTRIBUTED)

    def self_time(self, bucket: str) -> float:
        bid = self._bucket_ids.get(bucket)
        return self.self_s[bid] if bid is not None else 0.0

    def write_spans(self, path: str) -> None:
        """Write the spans (binary, :data:`SPAN_FORMAT`) and a JSON index."""
        record = struct.Struct(SPAN_FORMAT)
        with open(path, "wb") as out:
            for row in zip(self._ids, self._parents, self._span_buckets,
                           self._starts, self._ends):
                out.write(record.pack(*row))
        with open(path + ".json", "w") as out:
            json.dump({
                "format": SPAN_FORMAT,
                "spans": self.spans,
                "buckets": self.buckets,
                "self_s": dict(zip(self.buckets, self.self_s)),
                "calls": dict(zip(self.buckets, self.calls)),
                "function_calls": self.function_calls,
            }, out, indent=1, sort_keys=True)


def _module_of_file(filename: str) -> Optional[str]:
    for name, module in list(sys.modules.items()):
        if getattr(module, "__file__", None) == filename:
            return name
    return None


def snapshot_classes() -> Dict[Tuple[str, str], Dict[str, Any]]:
    """``vars()`` of every class and module in the traced layers.

    Comparing a snapshot taken before :meth:`Tracer.install` with one
    taken after :meth:`Tracer.uninstall` proves no wrapper is left.
    """
    seen: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for module in layer_modules():
        seen[(module.__name__, "")] = dict(vars(module))
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                seen[(module.__name__, obj.__name__)] = dict(vars(obj))
    return seen
