"""Discrete-event simulation engine.

The whole reproduction runs on this small deterministic event kernel.
Time is measured in integer *cycles*.  Events scheduled for the same cycle
fire in schedule order (FIFO within a cycle), which makes every simulation
run bit-reproducible for a given seed.

The building blocks are:

``Simulator``
    The event queue and clock.

``CalendarQueue``
    The event store: a calendar/bucketed queue keyed by exact cycle.
    Events for one cycle live in one bucket list; a small integer
    min-heap of *distinct armed cycles* finds the next non-empty bucket,
    so advancing the clock across a run of empty cycles is one heap pop
    instead of per-cycle work.  Drained bucket lists are recycled
    through a preallocated free pool.  A bucket is a FIFO list by
    default; under a perturbed same-cycle order (``tiebreak_seed``, which
    the schedule fuzzer needs) it is a heap of ``(key, seq, fn)``
    entries.  See DESIGN.md "Event queue internals" for the bucket math
    and lifecycle.

``Signal``
    A broadcast condition: processes block on it and are resumed when it
    fires.  Used to model local spinning (a waiter consumes zero simulated
    traffic until the thing it watches changes).

``Server``
    A serially-serviced resource with FIFO queueing — memory controllers,
    switch stages and inter-chip links are Servers, which is where all
    contention in the model comes from.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (e.g. scheduling in the past)."""


class CalendarQueue:
    """Cycle-keyed bucket store with a free pool of drained buckets.

    The bucket format is fixed per queue.  FIFO (the default): a bucket
    is a list of callables in schedule order.  Perturbed
    (``perturbed=True``): a bucket is a heap of ``(key, seq, fn)``
    entries, where ``key`` is the caller's random draw and ``seq`` this
    queue's push count, so same-cycle events pop in ``(key, seq)`` order
    — including events pushed into the cycle being dispatched.

    Invariants (pinned by tests/test_engine_equiv.py property tests):

    * ``buckets[t]`` exists iff cycle ``t`` appears exactly once in the
      ``times`` heap; ``size`` equals the total number of queued events.
    * FIFO buckets fire in append (schedule) order; perturbed buckets in
      ``(key, seq)`` order.
    * A fully drained bucket list is cleared and parked on ``pool``
      (capped at ``pool_cap``) for reuse by the next new cycle, so the
      steady state allocates no per-cycle list objects.

    The :class:`Simulator` FIFO hot loop operates on these fields
    directly (method-call overhead per event is what this class exists
    to avoid); the methods below express the same invariants one step
    at a time for the general loop, tests and cold paths.
    """

    __slots__ = ("buckets", "times", "pool", "size", "pool_cap",
                 "perturbed", "seq")

    def __init__(self, pool_cap: int = 512, perturbed: bool = False) -> None:
        self.buckets: Dict[int, List] = {}
        self.times: List[int] = []          # min-heap of distinct cycles
        self.pool: List[List] = []
        self.size = 0
        self.pool_cap = pool_cap
        self.perturbed = perturbed
        self.seq = 0

    def push(self, time: int, fn: Callable[[], None], key: int = 0) -> None:
        """Queue ``fn`` at cycle ``time``.  ``key`` orders it within the
        cycle in perturbed mode and is ignored in FIFO mode."""
        buckets = self.buckets
        bucket = buckets.get(time)
        if bucket is None:
            pool = self.pool
            bucket = buckets[time] = pool.pop() if pool else []
            heappush(self.times, time)
        if self.perturbed:
            heappush(bucket, (key, self.seq, fn))
            self.seq += 1
        else:
            bucket.append(fn)
        self.size += 1

    def pop(self) -> Tuple[int, Callable[[], None]]:
        """Remove and return the next ``(time, fn)`` in dispatch order; a
        bucket it drains is unlinked and its list recycled."""
        times = self.times
        if not times:
            raise IndexError("pop from an empty CalendarQueue")
        t = times[0]
        buckets = self.buckets
        bucket = buckets[t]
        fn = heappop(bucket)[2] if self.perturbed else bucket.pop(0)
        self.size -= 1
        if not bucket:
            heappop(times)
            del buckets[t]
            pool = self.pool
            if len(pool) < self.pool_cap:
                pool.append(bucket)
        return t, fn

    def __len__(self) -> int:
        return self.size


class Simulator:
    """Deterministic discrete-event simulator with an integer cycle clock.

    Events live in one :class:`CalendarQueue`.  ``tiebreak_seed``
    perturbs the order in which *same-cycle* events fire: instead of pure
    schedule order, each event draws a deterministic random 30-bit key
    from the seed when it is scheduled, and same-cycle events fire in
    key order (schedule order breaks key collisions).  Every seed is one
    reproducible interleaving — the schedule fuzzer (:mod:`repro.check.
    fuzz`) sweeps seeds to explore interleavings the default order never
    produces.

    :meth:`run` has two dispatch loops: a FIFO fast loop that walks
    bucket lists in place, and a general loop that pops one event at a
    time through :meth:`CalendarQueue.pop` — taken for perturbed runs
    and when a host profiler is attached.
    """

    def __init__(self, tiebreak_seed: Optional[int] = None) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._events_processed: int = 0
        self._tiebreak: Optional[random.Random] = (
            random.Random(tiebreak_seed) if tiebreak_seed is not None else None
        )
        self._cal = CalendarQueue(perturbed=self._tiebreak is not None)
        self._probes: List[Callable[[], None]] = []
        self._stop = False
        self._running = False
        # event-queue telemetry: plain integer bumps in at()/run() (a few
        # adds per event next to the bucket ops, well under timing noise;
        # the engine overhead guard in tests/test_obs_host.py keeps it so).
        # None of these feed back into the simulation — simulated time and
        # event order are bit-identical whether anyone reads them or not.
        self.queue_depth_peak: int = 0
        self._queue_depth_sum: int = 0
        self.signal_waits: int = 0
        self.signal_cancels: int = 0
        self.signal_fires: int = 0
        self._host: Optional[Any] = None

    @property
    def stable_order(self) -> bool:
        """True when same-cycle events fire in pure schedule order (no
        tiebreak perturbation) — the mode in which per-pair network FIFO
        holds by construction (see :mod:`repro.net.network`)."""
        return self._tiebreak is None

    # ------------------------------------------------------------------ #
    # scheduling

    def at(self, time: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute ``time`` cycles."""
        if type(time) is not int:
            time = int(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} (now={self.now})"
            )
        cal = self._cal
        tiebreak = self._tiebreak
        if tiebreak is not None:
            cal.push(time, fn, tiebreak.getrandbits(30))
            depth = cal.size
        else:
            # inlined FIFO CalendarQueue.push (this is the hottest
            # allocation site in the repo; a method call per event costs
            # ~15% of the loop)
            bucket = cal.buckets.get(time)
            if bucket is None:
                pool = cal.pool
                if pool:
                    bucket = pool.pop()
                    bucket.append(fn)
                else:
                    bucket = [fn]
                cal.buckets[time] = bucket
                heappush(cal.times, time)
            else:
                bucket.append(fn)
            cal.size = depth = cal.size + 1
        self._seq += 1
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def after(self, delay: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.at(self.now + delay, fn)

    def request_stop(self) -> None:
        """Stop the current (or next) :meth:`run` call before the next
        event is dispatched.  Cheaper than a ``stop_when`` callable — the
        loop pays one attribute check per event instead of a Python call
        — and used by :meth:`repro.cpu.os_sched.OS.run_all`."""
        self._stop = True

    # ------------------------------------------------------------------ #
    # execution

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when simulated time would exceed
        ``until``, when ``max_events`` events have been processed, when
        ``stop_when()`` becomes true (checked between events), or when
        :meth:`request_stop` was called.  Returns the number of events
        processed by this call.  ``run`` must not be re-entered from an
        event handler.
        """
        if self._running:
            raise SimulationError("run() re-entered from an event handler")
        if max_events is not None and max_events <= 0:
            return 0
        if self._host is not None or self._tiebreak is not None:
            return self._run_general(until, max_events, stop_when)

        cal = self._cal
        buckets = cal.buckets
        times = cal.times
        pool = cal.pool
        probes = self._probes
        nmax = -1 if max_events is None else max_events
        processed = 0
        depth_sum = 0
        bucket: Optional[List] = None
        i = 0
        self._running = True
        try:
            while times:
                if self._stop or (stop_when is not None and stop_when()):
                    self._stop = False
                    break
                if processed == nmax:
                    break
                t = times[0]
                if until is not None and t > until:
                    self.now = until
                    break
                bucket = buckets[t]
                self.now = t
                i = 0
                broke = False
                while True:
                    fn = bucket[i]
                    i += 1
                    cal.size = size = cal.size - 1
                    depth_sum += size
                    fn()
                    processed += 1
                    if probes:
                        for probe in probes:
                            probe()
                    if i == len(bucket):
                        break       # drained (len re-read: same-cycle
                        # appends made during fn() grow the bucket)
                    if self._stop or (stop_when is not None and stop_when()):
                        self._stop = False
                        del bucket[:i]
                        broke = True
                        break
                    if processed == nmax:
                        del bucket[:i]
                        broke = True
                        break
                if broke:
                    break
                # batched advance: retire the bucket and jump straight to
                # the next armed cycle — empty cycles cost nothing.
                heappop(times)
                del buckets[t]
                if len(pool) < cal.pool_cap:
                    bucket.clear()
                    pool.append(bucket)
                bucket = None
        except BaseException:
            # keep the store consistent if a handler raised mid-bucket:
            # events [0, i) were dispatched, the rest stay queued.  If the
            # raising handler was the bucket's last event, retire the
            # bucket outright — an empty bucket left armed would crash
            # the next run() call.
            if bucket is not None and i:
                if i == len(bucket):
                    heappop(times)
                    del buckets[self.now]
                    if len(pool) < cal.pool_cap:
                        bucket.clear()
                        pool.append(bucket)
                else:
                    del bucket[:i]
            raise
        finally:
            self._running = False
            self._queue_depth_sum += depth_sum
            self._events_processed += processed
        return processed

    def _run_general(
        self,
        until: Optional[int],
        max_events: Optional[int],
        stop_when: Optional[Callable[[], bool]],
    ) -> int:
        """The :meth:`run` loop for perturbed runs and host profiling.

        Same stop semantics, clock updates and probe ordering as the fast
        loop, but each event leaves the store through
        :meth:`CalendarQueue.pop` *before* it is dispatched, so the store
        is consistent even if the handler raises.  With a host profiler
        attached, every nanosecond between loop entry and loop exit is
        charged to exactly one bucket: the event handler's subsystem,
        ``obs`` for invariant probes, or ``engine`` for the loop itself
        (queue ops, bound checks), so the attribution sums to the total
        by construction.  Without one, no host clock is read.
        """
        cal = self._cal
        times = cal.times
        pop = cal.pop
        probes = self._probes
        host = self._host
        clock = host.clock if host is not None else None
        nmax = -1 if max_events is None else max_events
        processed = 0
        depth_sum = 0
        self._running = True
        t_mark = clock() if host is not None else 0
        try:
            while times:
                if self._stop or (stop_when is not None and stop_when()):
                    self._stop = False
                    break
                if processed == nmax:
                    break
                if until is not None and times[0] > until:
                    self.now = until
                    break
                self.now, fn = pop()
                depth_sum += cal.size
                if host is None:
                    fn()
                    processed += 1
                    if probes:
                        for probe in probes:
                            probe()
                    continue
                t0 = clock()
                fn()
                t1 = clock()
                processed += 1
                if probes:
                    for probe in probes:
                        probe()
                    t2 = clock()
                    host.charge("obs", t2 - t1)
                else:
                    t2 = t1
                host.charge("engine", t0 - t_mark)
                host.charge_event(fn, t1 - t0)
                t_mark = t2
        finally:
            self._running = False
            if host is not None:
                host.charge("engine", clock() - t_mark)
            self._queue_depth_sum += depth_sum
            self._events_processed += processed
        return processed

    @property
    def pending_events(self) -> int:
        return self._cal.size

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------------ #
    # engine telemetry (event-queue internals)

    @property
    def heap_pushes(self) -> int:
        """Events ever pushed (``at`` count; the name predates the
        calendar queue and is kept for trajectory comparability)."""
        return self._seq

    @property
    def heap_pops(self) -> int:
        """Events popped and dispatched across all :meth:`run` calls."""
        return self._events_processed

    @property
    def queue_depth_mean(self) -> float:
        """Mean queue depth observed at dispatch (post-pop)."""
        if self._events_processed == 0:
            return 0.0
        return self._queue_depth_sum / self._events_processed

    def engine_stats(self) -> Dict[str, float]:
        """Event-queue internals as a flat dict (the ``engine`` block of
        a bench-trajectory cell; also harvested into ``engine.*``
        counters by :func:`repro.obs.instrument.harvest_machine_metrics`).
        """
        return {
            "events_processed": self._events_processed,
            "heap_pushes": self._seq,
            "heap_pops": self._events_processed,
            "queue_depth_peak": self.queue_depth_peak,
            "queue_depth_mean": self.queue_depth_mean,
            "pending_events": self.pending_events,
            "signal_waits": self.signal_waits,
            "signal_cancels": self.signal_cancels,
            "signal_fires": self.signal_fires,
        }

    # ------------------------------------------------------------------ #
    # host-time attribution

    def attach_host_profiler(self, host: Any) -> None:
        """Route :meth:`run` through the general dispatch loop, charging
        host nanoseconds to ``host`` (a
        :class:`repro.obs.host.HostProfiler`).  With no profiler attached
        no host clock is read and the hot path pays nothing."""
        if self._host is not None and self._host is not host:
            raise SimulationError("a host profiler is already attached")
        self._host = host

    def detach_host_profiler(self) -> None:
        """Stop charging host time to the profiler.  Idempotent."""
        self._host = None

    # ------------------------------------------------------------------ #
    # probes

    def add_probe(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to run after every processed event.  Probes are
        the pull-based hook invariant monitors attach to
        (:mod:`repro.check.invariants`); with none registered the event
        loop pays a single falsy check per event."""
        self._probes.append(fn)

    def remove_probe(self, fn: Callable[[], None]) -> bool:
        """Deregister a probe; returns whether it was registered."""
        try:
            self._probes.remove(fn)
        except ValueError:
            return False
        return True


class Signal:
    """A broadcast wake-up: callbacks registered with :meth:`wait` all run
    (in registration order) when :meth:`fire` is called.

    Waiters are one-shot; a waiter that wants to keep watching re-registers.
    ``cancel`` removes a waiter that is no longer interested (e.g. a thread
    that got preempted while spinning).
    """

    __slots__ = ("_sim", "_waiters", "_next_id")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._waiters: Dict[int, Callable[[Any], None]] = {}
        self._next_id = 0

    def wait(self, fn: Callable[[Any], None]) -> int:
        """Register ``fn`` to be called with the fire payload. Returns a
        token usable with :meth:`cancel`."""
        token = self._next_id
        self._next_id += 1
        self._waiters[token] = fn
        self._sim.signal_waits += 1
        return token

    def cancel(self, token: int) -> bool:
        """Deregister a waiter; returns whether it was still registered."""
        if self._waiters.pop(token, None) is None:
            return False
        self._sim.signal_cancels += 1
        return True

    def fire(self, payload: Any = None) -> int:
        """Wake all current waiters *now* (same cycle). Returns the number
        of waiters woken.  Waiters registered during the firing are not
        woken by this call."""
        waiters = self._waiters
        self._waiters = {}
        self._sim.signal_fires += 1
        for fn in waiters.values():
            fn(payload)
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)


class Server:
    """A resource that services requests one at a time, FIFO.

    ``request(service, fn)`` schedules ``fn`` to run once the server has
    finished all previously accepted work plus ``service`` cycles for this
    request.  Utilisation statistics are tracked for reporting (e.g. link
    saturation in the Model B interconnect).
    """

    __slots__ = ("_sim", "name", "_free_at", "busy_cycles", "requests")

    def __init__(self, sim: Simulator, name: str = "server") -> None:
        self._sim = sim
        self.name = name
        self._free_at: int = 0
        self.busy_cycles: int = 0
        self.requests: int = 0

    def request(self, service: int, fn: Callable[[], None]) -> int:
        """Enqueue work taking ``service`` (integer) cycles; ``fn`` runs
        at completion.  Returns the completion time."""
        if service < 0:
            raise SimulationError(f"negative service time {service}")
        sim = self._sim
        now = sim.now
        free = self._free_at
        done = (free if free > now else now) + service
        self._free_at = done
        self.busy_cycles += service
        self.requests += 1
        sim.at(done, fn)
        return done

    def queue_delay(self) -> int:
        """Cycles a request arriving now would wait before service begins."""
        return max(0, self._free_at - self._sim.now)

    def utilisation(self) -> float:
        """Fraction of elapsed simulated time this server was busy."""
        if self._sim.now == 0:
            return 0.0
        return min(1.0, self.busy_cycles / self._sim.now)
