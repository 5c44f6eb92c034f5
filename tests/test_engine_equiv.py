"""Differential equivalence: the calendar queue vs the heapq oracle.

The engine-speed overhaul replaced the single-heapq event store with a
calendar/bucketed queue (`repro.sim.engine.CalendarQueue`), and later
moved the perturbed same-cycle order (``tiebreak_seed``) into calendar
buckets too.  The entire reproduction's determinism contract rides on
one property: *the calendar store dispatches exactly the same events at
exactly the same cycles in exactly the same order as the old heapq
store* — in FIFO and in perturbed mode.  These tests prove it two ways:

* differentially — run seeded full-stack workloads (locks x models x
  fault plans, with and without a tiebreak seed) twice, once on the
  calendar store and once on :class:`HeapSimulator` (the old heapq store
  and its loop, kept here as the oracle), capturing every dispatch by
  wrapping the callbacks passed to ``Simulator.at``, and demand
  bit-identical event sequences, final clocks and results;
* by property — hammer the `CalendarQueue` itself with seeded random
  push/pop interleavings against sort oracles on ``(time, seq)`` (FIFO)
  and ``(time, key, seq)`` (perturbed).

Everything here carries the ``engine`` marker.
"""

from __future__ import annotations

import heapq
import random

import pytest

import repro.cpu.machine as machine_mod
from repro.cpu.machine import Machine
from repro.cpu.os_sched import OS
from repro.faults.injector import FaultInjector
from repro.faults.nemesis import run_cell
from repro.faults.plan import generate_plan
from repro.locks.base import get_algorithm
from repro.params import model_a, model_b, small_test_model
from repro.sim.engine import CalendarQueue, Signal, SimulationError, Simulator

from .conftest import RWTracker, cs_program

pytestmark = pytest.mark.engine


# --------------------------------------------------------------------- #
# the oracle: the pre-calendar heapq store and its dispatch loop


class HeapSimulator(Simulator):
    """:class:`Simulator` on the original single-heapq event store.

    Each push allocates one ``(time, key, seq, fn)`` tuple; ``key`` is
    the sequence number itself (stable FIFO) or, with a tiebreak seed, a
    random 30-bit draw taken at push time (schedule order still breaks
    key collisions).  No host profiling: the oracle needs none."""

    def __init__(self, tiebreak_seed=None):
        super().__init__(tiebreak_seed)
        self._heap = []

    def at(self, time, fn):
        if type(time) is not int:
            time = int(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} (now={self.now})"
            )
        tiebreak = self._tiebreak
        key = self._seq if tiebreak is None else tiebreak.getrandbits(30)
        heapq.heappush(self._heap, (time, key, self._seq, fn))
        self._seq += 1
        self.queue_depth_peak = max(self.queue_depth_peak, len(self._heap))

    @property
    def pending_events(self):
        return len(self._heap)

    def run(self, until=None, max_events=None, stop_when=None):
        if self._running:
            raise SimulationError("run() re-entered from an event handler")
        heap = self._heap
        processed = 0
        self._running = True
        try:
            while heap:
                if self._stop or (stop_when is not None and stop_when()):
                    self._stop = False
                    break
                if max_events is not None and processed >= max_events:
                    break
                if until is not None and heap[0][0] > until:
                    self.now = until
                    break
                self.now, _key, _seq, fn = heapq.heappop(heap)
                self._queue_depth_sum += len(heap)
                fn()
                processed += 1
                for probe in self._probes:
                    probe()
        finally:
            self._running = False
            self._events_processed += processed
        return processed


# --------------------------------------------------------------------- #
# event-order capture


def _label(fn) -> str:
    """Stable identity of an event callable across two separate machine
    builds: the qualified name of the underlying function (closures,
    bound methods) or of the callable's class (slotted frame objects)."""
    func = getattr(fn, "__func__", fn)
    qual = getattr(func, "__qualname__", None)
    if qual is None:
        qual = type(fn).__qualname__
    return qual


def _use_store(monkeypatch, store, trace):
    """Make every :class:`Machine` built from here on run on ``store``
    (:class:`Simulator` or :class:`HeapSimulator`), append each
    dispatched ``(cycle, handler)`` to ``trace``, and return the list
    the simulators built land in."""
    sims = []

    class Capturing(store):
        def __init__(self, tiebreak_seed=None):
            super().__init__(tiebreak_seed)
            sims.append(self)

        def at(self, time, fn):
            def event():
                trace.append((self.now, _label(fn)))
                fn()
            store.at(self, time, event)

    monkeypatch.setattr(machine_mod, "Simulator", Capturing)
    return sims


def _run_workload(monkeypatch, store, config_factory, lock_name, seed,
                  fault_classes=None, threads=5, iters=12,
                  tiebreak_seed=None):
    """Run one seeded workload on the given event store and return the
    captured ``(cycle, handler)`` dispatch sequence plus end-state."""
    trace = []
    _use_store(monkeypatch, store, trace)
    machine = Machine(config_factory(), tiebreak_seed=tiebreak_seed)
    os_ = OS(machine)
    algo = get_algorithm(lock_name)(machine)
    handle = algo.make_lock()
    tracker = RWTracker()

    def write_of(thread, i):
        # pure function of (tid, iteration, seed): identical mode choices
        # on both stores without sharing RNG state across runs
        return (thread.tid * 2654435761 + i * 40503 + seed) % 100 < 60

    if fault_classes:
        plan = generate_plan(seed=seed, classes=fault_classes,
                             horizon=30_000)
        FaultInjector(machine, os_, plan).arm()

    for _ in range(threads):
        os_.spawn(cs_program(algo, handle, tracker, iters,
                             write_of=write_of))
    elapsed = os_.run_all(max_cycles=5_000_000)
    machine.drain()
    return {
        "trace": trace,
        "elapsed": elapsed,
        "now": machine.sim.now,
        "events": machine.sim.events_processed,
        "cs": tracker.total,
        "violations": tracker.violations,
    }


WORKLOADS = [
    # (config, lock, seed, fault classes)
    (small_test_model, "lcu", 11, None),
    (small_test_model, "mcs", 23, None),
    (small_test_model, "mrsw", 37, None),
    (model_a, "lcu", 5, None),
    (model_b, "lcu", 7, None),
    (model_b, "ticket", 13, None),
    (small_test_model, "lcu", 41, ["preempt"]),
    (small_test_model, "lcu", 43, ["capacity", "evict"]),
]


@pytest.mark.parametrize(
    "config_factory,lock,seed,faults", WORKLOADS,
    ids=[f"{c.__name__}-{l}-s{s}-{'+'.join(f) if f else 'clean'}"
         for c, l, s, f in WORKLOADS],
)
def test_calendar_matches_reference(monkeypatch, config_factory, lock, seed,
                                    faults):
    """Same workload, both stores: bit-identical dispatch sequence,
    final cycle count and critical-section tally."""
    cal = _run_workload(monkeypatch, Simulator, config_factory, lock, seed,
                        faults)
    ref = _run_workload(monkeypatch, HeapSimulator, config_factory, lock,
                        seed, faults)
    assert cal["events"] == ref["events"]
    assert cal["elapsed"] == ref["elapsed"]
    assert cal["now"] == ref["now"]
    assert cal["cs"] == ref["cs"]
    # the load-bearing assertion: event-by-event order parity
    assert cal["trace"] == ref["trace"]


#: perturbed-order workloads: nemesis cells (tiebreak seed, fault plan,
#: invariant monitor — the schedule fuzzer's full stack)
PERTURBED_CELLS = [
    # (algo, model, fault, matrix seed)
    ("lcu", "A", "drop", 0),
    ("lcu", "B", "drop", 1),
    ("lcu", "B", "partition_links", 0),
    ("lcu", "A", "zombie_core", 1),
    ("lcu", "A", "crash_core", 0),
    ("mcs", "B", "crash_core", 1),
]


@pytest.mark.parametrize(
    "algo,model,fault,seed", PERTURBED_CELLS,
    ids=[f"{a}-{m}-{f}-s{s}" for a, m, f, s in PERTURBED_CELLS],
)
def test_perturbed_calendar_matches_reference(monkeypatch, algo, model,
                                              fault, seed):
    """Tiebreak runs, both stores: bit-identical dispatch sequence, final
    clock and nemesis verdict.  Same-cycle order here is ``(key, seq)``
    with keys drawn at push time — including for events a handler
    pushes into the cycle being dispatched."""
    runs = []
    for store in (Simulator, HeapSimulator):
        trace = []
        sims = _use_store(monkeypatch, store, trace)
        cell = run_cell(algo, model, fault, seed, threads=4, iters=12)
        assert sims and not sims[-1].stable_order
        runs.append((trace, [(s.now, s.events_processed) for s in sims],
                     cell.to_dict()))
    (cal_trace, cal_end, cal_cell), (ref_trace, ref_end, ref_cell) = runs
    assert cal_end == ref_end
    assert cal_cell == ref_cell
    assert cal_trace == ref_trace


def test_microbench_metrics_match_reference(monkeypatch):
    """RunReport-level simulated metrics agree between the stores."""
    from repro.harness.microbench import run_microbench

    kw = dict(threads=6, write_pct=40, iters_per_thread=20, seed=9)
    a = run_microbench(small_test_model(), "lcu", **kw)
    monkeypatch.setattr(machine_mod, "Simulator", HeapSimulator)
    b = run_microbench(small_test_model(), "lcu", **kw)
    assert a.elapsed == b.elapsed
    assert a.total_cs == b.total_cs
    assert a.per_thread_cs == b.per_thread_cs
    assert a.acquire_latency_mean == b.acquire_latency_mean
    assert a.fairness == b.fairness


def test_tiebreak_still_perturbs_order(monkeypatch):
    """The schedule fuzzer's perturbation survives the rewrite: a
    tiebreak seed produces a different (but internally deterministic)
    interleaving on the calendar store."""
    base = _run_workload(monkeypatch, Simulator, small_test_model, "lcu", 3,
                         threads=6)
    tb = [
        _run_workload(monkeypatch, Simulator, small_test_model, "lcu", 3,
                      threads=6, tiebreak_seed=99)["trace"]
        for _ in range(2)
    ]
    assert tb[0] == tb[1], "tiebreak runs must replay exactly"
    assert tb[0] != base["trace"], "tiebreak must actually perturb order"


# --------------------------------------------------------------------- #
# calendar-queue property tests (seeded in-repo generators)


def _oracle_order(pushes):
    """Expected dispatch order: by time, then push sequence (FIFO)."""
    return [fn for _t, _seq, fn in
            sorted(((t, i, fn) for i, (t, fn) in enumerate(pushes)),
                   key=lambda x: (x[0], x[1]))]


@pytest.mark.parametrize("seed", range(8))
def test_push_pop_monotone_and_fifo(seed):
    """Random interleavings of pushes and pops: pops come out in
    nondecreasing time order, same-cycle pops in push (FIFO) order, and
    ``size`` tracks exactly."""
    rng = random.Random(seed * 7919 + 1)
    q = CalendarQueue()
    pushed = []           # (time, tag) in push order
    popped = []
    clock = 0
    next_tag = 0
    for _ in range(600):
        if q.size and rng.random() < 0.4:
            t, fn = q.pop()
            assert t >= clock, "pop must never go backwards in time"
            clock = t
            popped.append((t, fn))
        else:
            t = clock + rng.randrange(0, 12)
            tag = next_tag
            next_tag += 1
            q.push(t, ("ev", t, tag))
            pushed.append((t, ("ev", t, tag)))
        assert len(q) == len(pushed) - len(popped)
    while q.size:
        t, fn = q.pop()
        assert t >= clock
        clock = t
        popped.append((t, fn))
    assert [fn for _t, fn in popped] == _oracle_order(pushed)


@pytest.mark.parametrize("seed", range(8))
def test_perturbed_pops_follow_time_key_seq(seed):
    """Perturbed mode: every pop is the smallest ``(time, key, seq)`` still
    queued — including entries pushed into the cycle being dispatched,
    which must sort in by key rather than join the bucket's tail.  Key
    collisions fall back to push order; drained buckets recycle."""
    rng = random.Random(seed * 6007 + 5)
    q = CalendarQueue(perturbed=True)
    pending = []          # oracle: (time, key, seq, tag)
    clock = 0
    seq = 0
    into_live_bucket = 0

    def push(t):
        nonlocal seq
        # narrow keys now and then, so the seq tiebreak is exercised
        key = rng.getrandbits(30) if rng.random() < 0.7 else rng.randrange(3)
        tag = ("ev", t, seq)
        q.push(t, tag, key)
        pending.append((t, key, seq, tag))
        seq += 1

    for _ in range(800):
        if pending and rng.random() < 0.45:
            t, fn = q.pop()
            expect = min(pending)
            pending.remove(expect)
            assert (t, fn) == (expect[0], expect[3])
            clock = t
            # a handler scheduling into its own cycle
            for _ in range(rng.choice((0, 0, 1, 3))):
                if clock in q.buckets:
                    into_live_bucket += 1
                push(clock)
        else:
            push(clock + rng.randrange(0, 6))
        assert len(q) == len(pending)
    while pending:
        t, fn = q.pop()
        expect = min(pending)
        pending.remove(expect)
        assert (t, fn) == (expect[0], expect[3])
    assert into_live_bucket > 0
    assert not q.buckets and not q.times and q.size == 0
    assert q.pool and all(b == [] for b in q.pool)


@pytest.mark.parametrize("seed", range(4))
def test_calendar_agrees_with_reference_store(seed):
    """Drain both stores over an identical random schedule, in FIFO and
    perturbed mode; a fifth of the events schedule a follow-up into
    their own cycle from inside the handler."""
    for tiebreak_seed in (None, seed + 17):
        outs = []
        for store in (Simulator, HeapSimulator):
            rng = random.Random(seed * 104729 + 3)
            sim = store(tiebreak_seed)
            out = []

            def event(i, sim=sim, out=out):
                out.append((sim.now, i))
                if i % 5 == 0 and i < 10_000:
                    sim.at(sim.now, lambda: event(i + 10_000))

            for i in range(500):
                sim.at(rng.randrange(0, 64), lambda i=i: event(i))
            sim.run()
            outs.append(out)
        assert len(outs[0]) == 600
        assert outs[0] == outs[1]


def test_bucket_pool_rollover_and_cap():
    """Drained bucket lists recycle through the pool; the pool never
    exceeds its cap; recycled buckets come back empty."""
    q = CalendarQueue(pool_cap=4)
    for round_ in range(10):
        for t in range(8):
            q.push(round_ * 100 + t, ("e", round_, t))
        while q.size:
            q.pop()
        assert len(q.pool) <= 4
        assert all(b == [] for b in q.pool)
        assert not q.buckets and not q.times


def test_batched_advance_skips_empty_cycles():
    """The clock jumps straight across arbitrarily long empty gaps."""
    sim = Simulator()
    hits = []
    sim.at(5, lambda: hits.append(sim.now))
    sim.at(1_000_000_007, lambda: hits.append(sim.now))
    n = sim.run()
    assert n == 2
    assert hits == [5, 1_000_000_007]
    assert sim.now == 1_000_000_007


def test_signal_cancel_and_rearm():
    """Signal wait / cancel / re-arm keep working over the calendar
    store: a cancelled waiter never fires, a re-armed one fires once."""
    sim = Simulator()
    fired = []
    sig = Signal(sim)
    token = sig.wait(lambda _p: fired.append("a"))
    sig.cancel(token)
    sig.wait(lambda _p: fired.append("b"))
    sim.at(10, sig.fire)
    sim.run()
    assert fired == ["b"]
    # re-arm after a fire: next fire resumes the new waiter only
    sig.wait(lambda _p: fired.append("c"))
    sim.at(20, sig.fire)
    sim.run()
    assert fired == ["b", "c"]


def test_same_cycle_appends_dispatch_this_cycle():
    """An event scheduled *for the current cycle* from inside a handler
    joins the tail of the live bucket and runs before time advances —
    on both stores."""
    for store in (Simulator, HeapSimulator):
        sim = store()
        order = []

        def first():
            order.append("first")
            sim.at(sim.now, lambda: order.append("chained"))

        sim.at(7, first)
        sim.at(7, lambda: order.append("second"))
        sim.at(8, lambda: order.append("later"))
        sim.run()
        assert order == ["first", "second", "chained", "later"]


def test_raise_mid_bucket_keeps_store_consistent():
    """A handler raising mid-bucket must leave the queue resumable:
    already-dispatched events gone, the rest still queued — including
    the corner case where the raiser was the bucket's last event.  The
    fast loop repairs the bucket; the general loop (host-profiled or
    perturbed) pops before it dispatches."""
    from repro.obs.host import HostProfiler

    cases = [(loop, position) for loop in ("fast", "profiled", "perturbed")
             for position in ("middle", "last")]
    for loop, position in cases:
        sim = Simulator(tiebreak_seed=5 if loop == "perturbed" else None)
        if loop == "profiled":
            sim.attach_host_profiler(HostProfiler())
        ran = []
        sim.at(5, lambda: ran.append("a"))
        if position == "middle":
            sim.at(5, self_destruct := _raiser())
            sim.at(5, lambda: ran.append("b"))
        else:
            sim.at(5, self_destruct := _raiser())
        sim.at(9, lambda: ran.append("tail"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        # resumable: remaining events drain cleanly
        sim.run()
        assert sim.pending_events == 0
        expect = ["a", "b", "tail"] if position == "middle" else ["a", "tail"]
        if loop == "perturbed":     # same-cycle order is the tiebreak's
            assert sorted(ran) == sorted(expect)
        else:
            assert ran == expect


def _raiser():
    def boom():
        raise RuntimeError("boom")
    return boom
