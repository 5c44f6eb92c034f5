"""The checker's settle step stops once the machine is quiescent.

``FaultInjector.drain`` and ``check_quiescent`` end their drain at the
first quiescent chunk boundary (``Machine.settle``).  These tests prove
the early stop changes no verdict: each cell runs once with it and once
with a full-length settle that, from the quiescent point on, keeps
running to the old deadline and demands that no lock, frame, fault or
oracle state moves.  The pinned known-violating cells below would XPASS
if a stop ever masked a violation.
"""

import pytest

from repro import OS, small_test_model
from repro.check.invariants import InvariantMonitor
from repro.cpu import machine as machine_mod
from repro.cpu.machine import Machine
from repro.faults import nemesis
from repro.faults.injector import FaultInjector
from repro.faults.nemesis import run_cell
from repro.faults.plan import ALL_CLASSES, generate_plan

pytestmark = pytest.mark.faults

#: every fault class once across Models A and B, as (algo, model, fault,
#: plan horizon).  The classes that arm the reliable layer and
#: heartbeats run on Model B, where a full-length drain is cheapest;
#: ``lcu_fb`` and ``mcs`` take one class each.  The matrix horizon
#: (12,000 cycles) closes every window before the workload ends, so one
#: extra cell stretches it: its dup window is still open when the
#: workload finishes, and a heartbeat round draws from the fault RNG.
CELLS = [
    ("lcu", "B", "drop", 12_000),
    ("lcu", "B", "dup", 12_000),
    ("lcu", "B", "delay", 12_000),
    ("lcu", "B", "partition_links", 12_000),
    ("lcu", "B", "zombie_core", 12_000),
    ("lcu", "A", "flt_storm", 12_000),
    ("lcu", "B", "capacity", 12_000),
    ("lcu", "A", "preempt", 12_000),
    ("lcu", "A", "crash_core", 12_000),
    ("lcu", "B", "restart_core", 12_000),
    ("lcu", "A", "slow_core", 12_000),
    ("lcu_fb", "A", "evict", 12_000),
    ("mcs", "B", "stall", 12_000),
    ("lcu", "B", "dup", 30_000),
]


def state_digest(machine, monitor) -> str:
    """Lock, frame, fault and oracle state that must not move once the
    machine is quiescent.  Left out by design: the LRTs' heartbeat
    stamps and the reliable layer's datagram count, which the beacons
    still running after the stop keep changing."""
    lcus = [
        (lcu.dead, sorted(lcu._entries), lcu._flt, lcu._held_gen,
         sorted(lcu._overflow_grants), sorted(lcu._evicted),
         lcu._reset_gen, lcu._era_seen, lcu.stats)
        for lcu in machine.lcus
    ]
    lrts = [
        (sorted(a for s in lrt._sets.values() for a in s),
         sorted(lrt._overflow), lrt.stats, lrt._era, lrt._gen_floor,
         lrt._gen_high, lrt._unsynced, sorted(lrt._dead_cores),
         lrt.recovery_latencies, lrt._remote_retry)
        for lrt in machine.lrts
    ]
    rel = machine.net.reliable
    frames = None if rel is None else (
        {k: v for k, v in rel.stats().items() if k != "datagrams_sent"},
        rel._send_seq, rel._recv_next, rel._era,
    )
    inj = machine.injector
    faults = None if inj is None else (
        inj.stats, inj.last_fault_at, inj._rng.getstate(),
    )
    oracles = [
        (handle, o.violations, o._seq, o.waiting, o.holders,
         o.timeout_credits, sorted(o._tids_seen), o.ledger.counts,
         o.ledger.pairs, o.ledger.total, o.ledger.max_overtake)
        for handle, o in monitor.oracles.items()
    ]
    return repr((lcus, lrts, frames, faults, oracles))


def run_observed(mp, algo, model, fault, seed, early, horizon=12_000):
    """Run one nemesis cell under ``mp`` (a pytest ``MonkeyPatch``) and
    return ``(cell, seen)``; ``seen`` holds the ``CheckOutcome`` and,
    under ``"exit"``, the cycle and state digest of the first quiescent
    stop.  ``early=False`` swaps in a full-length settle that records
    the same point, then runs on to the old deadline and records under
    ``"moved"`` any later settle end where the digest differs."""
    seen = {}
    attach = InvariantMonitor.attach
    run_case = nemesis.run_case
    settle = Machine.settle

    def spy_attach(self):
        seen["monitor"] = self
        return attach(self)

    def spy_run_case(case):
        seen["outcome"] = run_case(case)
        return seen["outcome"]

    def mark(machine):
        if "exit" not in seen:
            seen["exit"] = (
                machine.sim.now, state_digest(machine, seen["monitor"])
            )

    def early_settle(self, max_cycles=200_000):
        stopped = settle(self, max_cycles)
        if stopped:
            mark(self)
        return stopped

    def full_settle(self, max_cycles=200_000):
        sim = self.sim
        deadline = sim.now + max_cycles
        until = sim.now
        while True:
            sim.run(until=until)
            if self.quiescent():
                mark(self)
            if until >= deadline:
                break
            until = min(until + machine_mod._SETTLE_CHUNK, deadline)
        if "exit" in seen and \
                state_digest(self, seen["monitor"]) != seen["exit"][1]:
            seen.setdefault("moved", sim.now)
        return False

    mp.setattr(InvariantMonitor, "attach", spy_attach)
    mp.setattr(nemesis, "run_case", spy_run_case)
    mp.setattr(Machine, "settle", early_settle if early else full_settle)
    cell = run_cell(algo, model, fault, seed, horizon=horizon)
    return cell, seen


def assert_equivalent(mp, algo, model, fault, seed, horizon=12_000):
    """The early stop and the full-length drain agree on everything.
    Returns the quiescent point both reached, or None for a cell that
    fails before its drain."""
    with mp.context() as m:
        fast, fseen = run_observed(m, algo, model, fault, seed, True, horizon)
    with mp.context() as m:
        full, sseen = run_observed(m, algo, model, fault, seed, False,
                                   horizon)
    where = f"{fault}/{algo}/{model} seed {seed} horizon {horizon}"
    assert "moved" not in sseen, \
        f"{where}: state moved between the quiescent point and the old " \
        f"deadline ({sseen.get('exit', (None,))[0]} -> {sseen['moved']})"
    assert fast.to_dict() == full.to_dict(), where
    a, b = fseen["outcome"], sseen["outcome"]
    assert (a.violation is None) == (b.violation is None), where
    if a.violation is not None:
        assert (a.violation.invariant, a.violation.message) == \
            (b.violation.invariant, b.violation.message), where
    assert a.fault_stats == b.fault_stats, where
    assert [fo.to_dict() for fo in a.fault_outcomes] == \
        [fo.to_dict() for fo in b.fault_outcomes], where
    # both runs reach the same quiescent point with the same state
    assert fseen.get("exit") == sseen.get("exit"), where
    return fseen.get("exit")


@pytest.mark.parametrize("algo,model,fault,horizon", CELLS,
                         ids=[f"{a}/{m}/{f}/{h}" for a, m, f, h in CELLS])
def test_early_stop_matches_full_drain(monkeypatch, algo, model, fault,
                                       horizon):
    assert assert_equivalent(monkeypatch, algo, model, fault, 0, horizon), \
        "the cell never became quiescent"


def test_cells_cover_every_fault_class():
    assert {fault for _a, _m, fault, _h in CELLS} == set(ALL_CLASSES)
    assert {model for _a, model, _f, _h in CELLS} == {"A", "B"}


class TestQuiescentPredicate:
    """Each clause of ``Machine.quiescent`` on its own."""

    def test_message_counts_until_delivered(self):
        m = Machine(small_test_model())
        assert m.quiescent()
        m.net.send(("core", 0), ("core", 1), ("fill",))
        assert m.net.in_flight == 1 and not m.quiescent()
        m.sim.run()
        assert m.net.in_flight == 0 and m.quiescent()

    def test_fault_copies_count_until_each_lands(self):
        m = Machine(small_test_model())
        m.net.fault_filter = lambda src, dst, p: [(0, p), (40, p)]
        m.net.send(("core", 0), ("core", 1), ("fill",))
        assert m.net.in_flight == 2
        m.sim.run(until=m.sim.now + 20)
        assert m.net.in_flight == 1 and not m.quiescent()
        m.sim.run()
        assert m.net.in_flight == 0

    def test_lock_state_blocks(self):
        """A held lock and a waiter behind it: every unit holding state
        says so, with no message left in flight."""
        m = Machine(small_test_model())
        addr = m.alloc.alloc_line()
        holder, waiter = m.lcus[0], m.lcus[1]
        holder.instr_acquire(1, addr, True)
        m.sim.run(stop_when=lambda: holder.poll_ready(1, addr))
        assert holder.instr_acquire(1, addr, True)
        waiter.instr_acquire(2, addr, True)
        m.sim.run()
        lrt = m.lrts[m.mem.home_of(addr)]
        assert m.net.in_flight == 0
        assert not holder.idle() and not waiter.idle()
        assert not lrt.idle() and not m.quiescent()

    def test_injector_blocks_until_windows_close(self):
        m = Machine(small_test_model())
        plan = generate_plan(seed=1, classes=["drop", "preempt"],
                             horizon=8_000)
        inj = FaultInjector(m, OS(m), plan)
        inj.arm()
        assert m.injector is inj and not inj.idle()
        close = max(e.end for e in plan.events if e.kind == "drop")
        last = max(e.at for e in plan.events if e.kind == "preempt")
        m.sim.run(until=max(close, last) - 1)
        assert not inj.idle()
        m.sim.run(until=max(close, last))
        assert inj.idle()


# Inputs the current protocol still fails (perfbench/README.md, "Known
# defects"), each with the violation it reports today as its xfail
# reason.  A run that comes back recovered XPASSes and fails the suite:
# either a protocol fix landed, or a settle step masks a violation.
KNOWN_VIOLATING = [
    ("A", "drop", 14, "rw_exclusion: writer entered with r=1 w=0"),
    ("A", "partition_links", 8,
     "protocol: ProtocolError: remote release mode mismatch on "
     "<ACQ W addr=0x1000 tid=1 H next=Who(tid=6, lcu=5, write=False)>"),
    ("A", "delay", 1089709947,
     "protocol: ProtocolError: remote release mode mismatch on "
     "<ACQ R addr=0x1040 tid=1 H next=Who(tid=3, lcu=2, write=False)>"),
    ("A", "delay", 1395301993,
     "fairness: tid 1 overtaken 25x (bound 24) — last by tid 6 at "
     "t=17166"),
    ("B", "zombie_core", 70463035,
     "queue_shape: multiple head-token holders on 0x1000: "
     "[(2, 3), (4, 5)]"),
]


@pytest.mark.parametrize(
    "model,fault,seed",
    [
        pytest.param(
            model, fault, seed,
            marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                    reason=detail),
            id=f"{model}-{fault}-{seed}",
        )
        for model, fault, seed, detail in KNOWN_VIOLATING
    ],
)
def test_known_violating_cell(model, fault, seed):
    cell = run_cell("lcu", model, fault, seed)
    assert cell.outcome == "recovered", cell.detail
