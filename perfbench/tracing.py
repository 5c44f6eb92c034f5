"""The traced run's wrappers around the simulator's public calls.

``Tracer.install`` replaces a fixed set of class attributes with
span-recording wrappers and ``uninstall`` puts the originals back; the
program's own files are never edited.  Wrapped:

* ``Simulator.at`` — every scheduled callback is wrapped in a span named
  after the callback's module (``cb:repro.net.network``) and charged to
  that module's layer, so the engine loop's own cost is what remains in
  the ``Simulator.run`` span;
* ``Simulator.at``, ``Simulator.run`` and ``Server.request`` are spans
  of layer ``sim``; the request wrapper also adds the server's queueing
  delay (``queue_delay()`` just before the request, i.e. completion
  time minus service minus now) to a per-server total;
* ``Network.send``, ``LockControlUnit.on_message``/``instr_acquire``/
  ``instr_release``/``instr_enqueue``, ``LockReservationTable.on_message``,
  ``MemorySystem.access``/``remote_rmw``/``memory_touch`` and
  ``Signal.wait``; the continuation each of these takes (a send's
  ``on_deliver``, an access's ``on_done``, a signal waiter) is wrapped
  like a scheduled callback (``cont:<module>``), so a thread resumed
  from inside a memory or network handler is charged to ``cpu``;
* ``ReliableLayer.send`` (its ``on_deliver`` is a continuation) and
  ``ReliableLayer.on_wire``, layer ``net.reliable``;
* ``Simulator.add_probe``: every probe (the invariant monitor's
  per-event check) is wrapped like a scheduled callback
  (``probe:<module>``), and ``remove_probe`` removes the wrapper;
* the invariant monitor's observer hooks (``InvariantMonitor.
  _on_hw_event``/``_on_lock_event``, which the monitor hands to the
  LCUs, LRTs and lock algorithm as their observers) and
  ``InvariantMonitor.finish``, layer ``check``; the fault injector's
  network filter and link predicate (``FaultInjector._fault_filter``,
  installed as ``Network.fault_filter``, and ``_link_covered``, handed
  to the ``ReliableLayer``), layer ``faults``;
* ``Machine.__init__`` and ``ReliableLayer.__init__``, which also record
  the instance, so the job's public counters can be read after it ends;
  ``ObjectSTM.__init__`` records the instance without a span.

Install before the job builds its machine: ``Machine.__init__`` binds
``MemorySystem.memory_touch`` and ``LockReservationTable.on_message``
into the network and the LRTs at construction time, and the monitor and
the injector bind their hooks when they attach.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Tuple

from spans import CLOSE, SpanLog, clock, layer_of_module


def _module_of(fn: Any) -> str:
    module = getattr(fn, "__module__", None)
    if module is None:
        inner = getattr(fn, "func", None)           # functools.partial
        module = getattr(inner, "__module__", None) or type(fn).__module__
    return module


class Tracer:
    """Span recorder for one run (see the module docstring)."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.machines: List[Any] = []
        self.reliables: List[Any] = []
        self.stms: List[Any] = []
        #: id(server) -> total queueing delay of its requests, in cycles
        self.server_wait: Dict[int, int] = {}
        self._saved: List[Tuple[Any, str, Any]] = []
        self._module_ids: Dict[Tuple[str, str], int] = {}
        #: (id(simulator), probe) -> its wrapper, for ``remove_probe``
        self._probes: Dict[Tuple[int, Any], Callable] = {}

    def begin_job(self) -> None:
        self.machines.clear()
        self.reliables.clear()
        self.stms.clear()
        self._probes.clear()
        self.server_wait.clear()

    def run_job(self, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` inside the job's root span (``harness``)."""
        return self._wrap_call(fn, "harness.job", "harness")(*args)

    # ------------------------------------------------------------------ #
    # wrappers

    def _wrap_call(self, fn: Callable, name: str, layer: str) -> Callable:
        opened = self.log.intern(name, layer)
        rec_t, rec_id = self.log.times.append, self.log.ids.append
        base = self.log.base

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec_t(clock() - base)
            rec_id(opened)
            try:
                return fn(*args, **kwargs)
            finally:
                rec_t(clock() - base)
                rec_id(CLOSE)

        return wrapped

    def _wrap_by_module(self, fn: Callable, kind: str) -> Callable:
        """Wrap a callback (``kind`` ``cb``) or continuation (``cont``)
        in a span named and charged after the callable's module.  A
        continuation that is already wrapped (``Network.send`` hands its
        wrapped ``on_deliver`` on to ``ReliableLayer.send``) is kept."""
        if getattr(fn, "_is_continuation", False):
            return fn
        module = _module_of(fn)
        opened = self._module_ids.get((kind, module))
        if opened is None:
            opened = self._module_ids[kind, module] = self.log.intern(
                f"{kind}:{module}", layer_of_module(module))
        rec_t, rec_id = self.log.times.append, self.log.ids.append
        base = self.log.base

        def wrapped(*args):
            rec_t(clock() - base)
            rec_id(opened)
            try:
                return fn(*args)
            finally:
                rec_t(clock() - base)
                rec_id(CLOSE)

        wrapped._is_continuation = kind == "cont"
        return wrapped

    # ------------------------------------------------------------------ #

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_span(self, owner: Any, attr: str, layer: str,
                    cont: Tuple[int, str] = (-1, "")) -> None:
        """Wrap ``owner.attr`` in a span; ``cont`` names the position and
        keyword of a callable argument to wrap as a continuation."""
        fn = owner.__dict__[attr]
        pos, kw = cont
        if pos >= 0:
            call = fn
            wrap = self._wrap_by_module

            def fn(obj, *args, **kwargs):
                if len(args) > pos:
                    if args[pos] is not None:
                        args = (*args[:pos], wrap(args[pos], "cont"),
                                *args[pos + 1:])
                elif kwargs.get(kw) is not None:
                    kwargs[kw] = wrap(kwargs[kw], "cont")
                return call(obj, *args, **kwargs)

            functools.update_wrapper(fn, call)
        self._patch(owner, attr, self._wrap_call(
            fn, f"{layer}.{owner.__name__}.{attr}", layer))

    def _patch_capture(self, owner: Any, into: List[Any], layer: str) -> None:
        """Record each instance of ``owner``; its ``__init__`` is a span
        of ``layer`` unless ``layer`` is empty."""
        init = owner.__dict__["__init__"]
        if layer:
            init = self._wrap_call(
                init, f"{layer}.{owner.__name__}.__init__", layer)

        @functools.wraps(init)
        def capture(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            into.append(obj)

        self._patch(owner, "__init__", capture)

    def install(self) -> None:
        from repro.check.invariants import InvariantMonitor
        from repro.cpu.machine import Machine
        from repro.faults.injector import FaultInjector
        from repro.lcu.lcu import LockControlUnit
        from repro.lcu.lrt import LockReservationTable
        from repro.mem.memory import MemorySystem
        from repro.net.network import Network
        from repro.net.reliable import ReliableLayer
        from repro.sim.engine import Server, Signal, Simulator
        from repro.stm.core import ObjectSTM

        if self._saved:
            raise RuntimeError("tracer already installed")
        rec_t, rec_id = self.log.times.append, self.log.ids.append
        base = self.log.base
        at = self._wrap_call(Simulator.__dict__["at"], "sim.Simulator.at",
                             "sim")
        wrap = self._wrap_by_module

        def traced_at(sim, time, fn):
            return at(sim, time, wrap(fn, "cb"))

        self._patch(Simulator, "at", traced_at)
        add_probe = Simulator.__dict__["add_probe"]
        remove_probe = Simulator.__dict__["remove_probe"]
        probes = self._probes

        def traced_add_probe(sim, fn):
            probes[id(sim), fn] = wrapped = wrap(fn, "probe")
            return add_probe(sim, wrapped)

        def traced_remove_probe(sim, fn):
            return remove_probe(sim, probes.pop((id(sim), fn), fn))

        self._patch(Simulator, "add_probe", traced_add_probe)
        self._patch(Simulator, "remove_probe", traced_remove_probe)
        self._patch_span(Simulator, "run", "sim")
        request = Server.__dict__["request"]
        waits = self.server_wait
        opened = self.log.intern("sim.Server.request", "sim")

        def traced_request(server, service, fn):
            rec_t(clock() - base)
            rec_id(opened)
            try:
                key = id(server)
                waits[key] = waits.get(key, 0) + server.queue_delay()
                return request(server, service, fn)
            finally:
                rec_t(clock() - base)
                rec_id(CLOSE)

        self._patch(Server, "request", traced_request)
        self._patch_span(Signal, "wait", "sim", cont=(0, "fn"))
        self._patch_span(Network, "send", "net", cont=(3, "on_deliver"))
        for attr in ("on_message", "instr_acquire", "instr_release",
                     "instr_enqueue"):
            self._patch_span(LockControlUnit, attr, "lcu")
        self._patch_span(LockReservationTable, "on_message", "lrt")
        self._patch_span(MemorySystem, "access", "mem", cont=(3, "on_done"))
        self._patch_span(MemorySystem, "remote_rmw", "mem",
                         cont=(3, "on_done"))
        self._patch_span(MemorySystem, "memory_touch", "mem",
                         cont=(1, "on_done"))
        self._patch_span(ReliableLayer, "send", "net.reliable",
                         cont=(3, "on_deliver"))
        self._patch_span(ReliableLayer, "on_wire", "net.reliable")
        for attr in ("_on_hw_event", "_on_lock_event", "finish"):
            self._patch_span(InvariantMonitor, attr, "check")
        for attr in ("_fault_filter", "_link_covered"):
            self._patch_span(FaultInjector, attr, "faults")
        self._patch_capture(Machine, self.machines, "cpu")
        self._patch_capture(ReliableLayer, self.reliables, "net.reliable")
        self._patch_capture(ObjectSTM, self.stms, "")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
