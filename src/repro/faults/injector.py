"""Execute a :class:`~repro.faults.plan.FaultPlan` against one machine.

The injector is the only piece that touches live simulation state:

* message faults install a :class:`~repro.net.reliable.ReliableLayer`
  over the targeted links and a wire-level fault filter that drops,
  duplicates or delays **frames only** — raw memory-coherence and SSB
  traffic is never faulted (the protocol hardening story is about the
  distributed lock queue, not about building a reliable NoC);
* hardware-pressure and scheduling faults are scheduled as ordinary
  simulator events calling the public fault surfaces grown in
  ``repro.lcu`` / ``repro.cpu.os_sched``.

Determinism: the only randomness is ``random.Random(plan.seed)``
consumed in simulator event order, which the engine makes deterministic
— replaying the same (plan, workload seed, tiebreak seed) triple gives
bit-identical cycle counts and message traces.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.faults.plan import MESSAGE_CLASSES, FaultEvent, FaultPlan
from repro.net.reliable import ReliableLayer

Endpoint = Tuple[str, int]

#: bound on point-eviction victims per event (keeps plans comparable
#: across machine sizes; logged in stats, so never a silent cap)
_EVICTS_PER_EVENT = 4

#: crash victim-policy polling: a crash event whose victim gate refuses
#: the current instant re-checks every ``_CRASH_POLL_INTERVAL`` cycles
#: (a fixed sim-time stride, so replays are bit-identical), up to
#: ``_CRASH_POLL_MAX`` attempts.  If no eligible instant is ever found
#: the crash is *not* injected (``crashes_skipped`` in stats — never a
#: silent cap): forcing an ineligible crash (e.g. on a software-lock
#: holder) would fail the run for a reason the fault model calls
#: unrecoverable by design, not a protocol bug.
_CRASH_POLL_INTERVAL = 263
_CRASH_POLL_MAX = 400

#: zombie victim polling: like the crash poll, but the gate is built in
#: (prefer a core whose LCU currently homes live lock state — a
#: *holder* zombie is the scenario fencing exists for).  If no core
#: ever qualifies (software locks keep no LCU state), the stall lands
#: on the planned core anyway: for them a zombie is just a long stall.
_ZOMBIE_POLL_MAX = 100


@dataclasses.dataclass(frozen=True)
class FaultOutcome:
    """Post-run verdict for one fault class of a plan.

    ``outcome`` is one of:

    * ``"recovered"`` — workload finished, invariants held, protocol
      state quiesced; full service restored.
    * ``"degraded"``  — correct but impaired: the fallback lock engaged,
      or the LRT absorbed an unresolvable remote release.
    * ``"violated"``  — an invariant/oracle violation, a deadlock, or
      protocol traffic that never quiesced.  Never acceptable.
    """

    kind: str
    injected: int
    outcome: str
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class FaultInjector:
    """Arms one plan against one (machine, os) pair.

    Lifecycle: construct → :meth:`arm` (before the workload starts) →
    run the workload → :meth:`drain` → :meth:`classify`.
    """

    def __init__(
        self, machine, os_, plan: FaultPlan, *, fencing: bool = True
    ) -> None:
        self.machine = machine
        self.os = os_
        self.plan = plan
        #: lease-recovery fencing tokens; ``False`` is the sabotage mode
        #: (``repro faults --no-fencing``) that provably reopens the
        #: zombie-writer hole the tokens close
        self.fencing = fencing
        self._rng = random.Random(plan.seed * 0x9E3779B1 + 13)
        self._armed = False
        self.reliable: Optional[ReliableLayer] = None
        self.stats: Dict[str, int] = {}
        self._msg_events: List[FaultEvent] = [
            e for e in plan.events if e.kind in MESSAGE_CLASSES
        ]
        self._partition_events: List[FaultEvent] = [
            e for e in plan.events if e.kind == "partition_links"
        ]
        #: core -> blackhole end cycle for an in-progress zombie window
        self._zombie_until: Dict[int, int] = {}
        #: the wire filter may draw from ``_rng`` until this cycle: the
        #: last message-fault or partition window closes here
        self._windows_end = max(
            (e.end for e in self._msg_events + self._partition_events),
            default=0,
        )
        #: callbacks scheduled by :meth:`_at` that have not run yet
        self._scheduled = 0
        # a zombie can land on any core (victim polling decides), so
        # its plan must cover every protocol link with the reliable
        # layer up front — coverage is fixed at arm time
        self._covers_all = any(
            e.kind == "zombie_core" for e in plan.events
        )
        #: cycle of the most recent injected fault (any kind) — the
        #: liveness oracle measures its grant bound from here, so
        #: post-fault recovery time is charged against recovery, not
        #: against the whole faulted run
        self.last_fault_at = 0
        #: crash victim gate: ``fn(core) -> bool``, asked before every
        #: crash injection; None = crash unconditionally.  The check
        #: harness installs a policy-specific closure ("busy" for
        #: LCU-backed locks, "idle" for software ones) — see
        #: :mod:`repro.check.fuzz`.
        self.victim_gate: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # arming

    def arm(self) -> None:
        """Harden the machine, install the wire fault filter + reliable
        layer (if the plan faults messages), schedule every event."""
        assert not self._armed, "injector armed twice"
        self._armed = True
        self.machine.harden(fencing=self.fencing)
        self.machine.injector = self
        sim = self.machine.sim
        if self.plan.needs_reliable():
            self.reliable = ReliableLayer(sim, self._link_covered)
            self.reliable.attach(self.machine.net)
            self.machine.net.fault_filter = self._fault_filter
            # heartbeats ride the reliable layer and feed the LRT
            # suspicion detector; without frames there is nothing to
            # miss, so they exist only alongside it
            self.machine.start_heartbeats()
        for event in self.plan.events:
            if event.kind in MESSAGE_CLASSES or \
                    event.kind == "partition_links":
                continue  # window-matched inside the filter
            self._at(max(event.at, sim.now + 1),
                     lambda e=event: self._fire(e))

    def _link_covered(self, src: Endpoint, dst: Endpoint) -> bool:
        if self._covers_all:
            return True
        return any(
            self._link_match(e.links, src, dst)
            for e in self._msg_events + self._partition_events
        )

    def _link_match(self, links: str, src: Endpoint, dst: Endpoint) -> bool:
        if links == "all":
            return True
        if links == "lcu_lrt":
            kinds = {src[0], dst[0]}
            return kinds == {"core", "lrt"} or kinds == {"core"}
        # "inter_chip": Model B hub links
        return self.machine._chip_of(src) != self.machine._chip_of(dst)

    def _partition_match(
        self, e: FaultEvent, src: Endpoint, dst: Endpoint
    ) -> bool:
        if not self._link_match(e.links, src, dst):
            return False
        if e.direction == "both":
            return True
        return self._is_fwd(src, dst) == (e.direction == "fwd")

    def _is_fwd(self, src: Endpoint, dst: Endpoint) -> bool:
        """Canonical link orientation, so ``direction`` names one side
        of an asymmetric cut: core→LRT is "fwd" (so "rev" blackholes
        the grant/ack path while requests keep flowing), lower→higher
        chip is "fwd" on hub links, endpoint tuple order breaks ties."""
        if src[0] == "core" and dst[0] == "lrt":
            return True
        if src[0] == "lrt" and dst[0] == "core":
            return False
        chip_s = self.machine._chip_of(src)
        chip_d = self.machine._chip_of(dst)
        if chip_s != chip_d:
            return chip_s < chip_d
        return src < dst

    # ------------------------------------------------------------------ #
    # wire fault filter (frames only)

    def _fault_filter(
        self, src: Endpoint, dst: Endpoint, payload: Any
    ) -> Iterable[Tuple[int, Any]]:
        if self.reliable is None or not self.reliable.intercepts(payload):
            return [(0, payload)]
        now = self.machine.sim.now
        # blackholes first: a partitioned or zombied link loses every
        # frame outright (the reliable layer's retransmissions are what
        # carry the traffic across the heal)
        for e in self._partition_events:
            if e.at <= now < e.end and self._partition_match(e, src, dst):
                if self._roll(e.prob, "partition_links"):
                    return []
        if self._zombie_until:
            for core, end in self._zombie_until.items():
                if now < end and (
                    src == ("core", core) or dst == ("core", core)
                ):
                    self._count("zombie_blackhole")
                    return []
        copies: List[Tuple[int, Any]] = [(0, payload)]
        for e in self._msg_events:
            if not (e.at <= now < e.end):
                continue
            if not self._link_match(e.links, src, dst):
                continue
            if e.kind == "drop":
                copies = [
                    c for c in copies if not self._roll(e.prob, "drop")
                ]
            elif e.kind == "dup":
                copies = copies + [
                    (delay + self._rng.randrange(1, 64), p)
                    for delay, p in copies
                    if self._roll(e.prob, "dup")
                ]
            elif e.kind == "delay":
                copies = [
                    (delay + self._rng.randrange(1, e.max_delay + 1), p)
                    if self._roll(e.prob, "delay") else (delay, p)
                    for delay, p in copies
                ]
        return copies

    def _roll(self, prob: float, kind: str) -> bool:
        hit = self._rng.random() < prob
        if hit:
            self._count(kind)
        return hit

    # ------------------------------------------------------------------ #
    # point / window events

    def _at(self, time: int, fn) -> None:
        """Schedule one injector callback, counted in :meth:`idle` until
        it runs.  Every plan event, poll, heal, restart and capacity lift
        goes through here."""
        self._scheduled += 1

        def run() -> None:
            self._scheduled -= 1
            fn()

        self.machine.sim.at(time, run)

    def _after(self, delay: int, fn) -> None:
        self._at(self.machine.sim.now + delay, fn)

    def _fire(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "evict":
            victims = sorted(
                (key, i)
                for i, lcu in enumerate(self.machine.lcus)
                for key in lcu.evictable_entries()
            )
            self._rng.shuffle(victims)
            for (addr, tid), core in victims[:_EVICTS_PER_EVENT]:
                if self.machine.lcus[core].force_evict(addr, tid):
                    self._count("evict")
        elif kind == "flt_storm":
            for lcu in self.machine.lcus:
                while lcu.force_flt_evict():
                    self._count("flt_storm")
        elif kind == "capacity":
            for lcu in self.machine.lcus:
                lcu.set_forced_capacity(event.limit)
            self._count("capacity")
            self._at(
                max(event.end, self.machine.sim.now + 1),
                self._lift_capacity,
            )
        elif kind == "preempt":
            self.os.force_preempt_all(migrate=event.migrate)
            self._count("preempt")
        elif kind == "stall":
            self.os.stall_core(
                event.core % self.machine.config.cores, event.duration
            )
            self._count("stall")
        elif kind == "zombie_core":
            self._try_zombie(event, attempts=0)
        elif kind == "slow_core":
            core = event.core % self.machine.config.cores
            self.os.set_core_slowdown(core, event.factor)
            self._count("slow_core")
            if event.duration:
                self._at(
                    max(event.end, self.machine.sim.now + 1),
                    lambda: self.os.set_core_slowdown(core, 1.0),
                )
        elif kind in ("crash_core", "restart_core"):
            self._try_crash(event, attempts=0)
        else:  # pragma: no cover - plan validation rejects unknown kinds
            raise ValueError(f"unschedulable fault kind {kind!r}")

    # ------------------------------------------------------------------ #
    # zombie cores

    def _try_zombie(self, event: FaultEvent, attempts: int) -> None:
        cores = self.machine.config.cores
        preferred = event.core % cores
        victim = None
        for offset in range(cores):
            cand = (preferred + offset) % cores
            if cand in self.os.crashed_cores:
                continue
            if self.machine.lcus[cand].homed_tids():
                victim = cand
                break
        if victim is None:
            if attempts < _ZOMBIE_POLL_MAX:
                self._after(
                    _CRASH_POLL_INTERVAL,
                    lambda: self._try_zombie(event, attempts + 1),
                )
                return
            if preferred in self.os.crashed_cores:
                self.stats["zombies_skipped"] = (
                    self.stats.get("zombies_skipped", 0) + 1
                )
                return
            victim = preferred  # software locks: a plain long stall
        self._begin_zombie(victim, event.duration)

    def _begin_zombie(self, core: int, duration: int) -> None:
        """Freeze the whole core, gray-style: threads stop dispatching
        (``stall_core``) *and* its protocol links blackhole, so probes
        go unanswered and the lease watchdog reclaims a live holder.
        Both effects heal at the same instant — the zombie resumes."""
        end = self.machine.sim.now + max(1, duration)
        self.os.stall_core(core, max(1, duration))
        self._zombie_until[core] = end
        self._count("zombie_core")
        self._at(end, lambda: self._end_zombie(core, end))

    def _end_zombie(self, core: int, end: int) -> None:
        if self._zombie_until.get(core) == end:
            del self._zombie_until[core]
            # the resume is itself an injection instant: the liveness
            # clock restarts here, charging post-resume waits to
            # recovery rather than to the whole stall
            self._count("zombie_heal")

    # ------------------------------------------------------------------ #
    # crash-stop faults

    def _try_crash(self, event: FaultEvent, attempts: int) -> None:
        core = event.core % self.machine.config.cores
        if core in self.os.crashed_cores:
            return  # a second plan event targeting an already-dead core
        if self.victim_gate is not None and not self.victim_gate(core):
            if attempts >= _CRASH_POLL_MAX:
                self.stats["crashes_skipped"] = (
                    self.stats.get("crashes_skipped", 0) + 1
                )
                return
            self._after(
                _CRASH_POLL_INTERVAL,
                lambda: self._try_crash(event, attempts + 1),
            )
            return
        self._execute_crash(event, core)

    def _execute_crash(self, event: FaultEvent, core: int) -> None:
        """The crash choreography, in dependency order: the LCU dies
        first (reporting which tids' lock state died with it), then the
        OS kills the core's running thread plus those tids, then the
        surviving LCUs release whatever the dead threads still held
        elsewhere, and finally the frame layer opens a new era for every
        pair the dead core participated in."""
        homed = self.machine.crash_core(core)
        killed = self.os.crash_core(core, extra_tids=homed)
        self.machine.purge_dead_tids(killed)
        if self.reliable is not None:
            self.reliable.bump_era(("core", core))
        self._count(event.kind)
        if event.kind == "restart_core":
            self._after(
                max(1, event.duration), lambda: self._execute_restart(core)
            )

    def _execute_restart(self, core: int) -> None:
        self.machine.restart_core(core)
        self.os.restart_core(core)
        self._count("restart")

    def _lift_capacity(self) -> None:
        for lcu in self.machine.lcus:
            lcu.set_forced_capacity(None)

    def _count(self, kind: str) -> None:
        self.stats[kind] = self.stats.get(kind, 0) + 1
        self.last_fault_at = self.machine.sim.now

    # ------------------------------------------------------------------ #
    # post-run

    def idle(self) -> bool:
        """Nothing the injector does can still happen: no callback of
        its own is queued, no zombie is frozen, and every message-fault
        and partition window has closed, so the wire filter neither
        draws from its RNG nor counts again.  One input of
        :meth:`repro.cpu.machine.Machine.quiescent`."""
        return (
            not self._scheduled
            and not self._zombie_until
            and self.machine.sim.now >= self._windows_end
        )

    def drain(self, step: int = 50_000, max_steps: int = 20) -> bool:
        """Let retransmissions and reclaim traffic settle after the
        workload; returns True when no frame is left pending.  Each
        ``step`` ends early once the machine is quiescent (see
        :meth:`repro.cpu.machine.Machine.settle`)."""
        for _ in range(max_steps):
            if self.machine.settle(step):
                return True
            if self.reliable is None or self.reliable.pending_frames() == 0:
                return True
        return self.reliable is None or self.reliable.pending_frames() == 0

    def degradation_detail(self, algorithm=None) -> str:
        """Why (if at all) the run counts as degraded rather than fully
        recovered."""
        reasons = []
        if algorithm is not None:
            degrades = getattr(algorithm, "stats", {}).get("degrades", 0)
            if degrades:
                detail = f"fallback lock engaged x{degrades}"
                if any(e.kind == "evict" for e in self.plan.events):
                    # Root-caused (see DESIGN.md): a point eviction frees
                    # the victims' entries, but the evicted waiters all
                    # re-request at once and each burned fast-path
                    # attempt counts toward the BRAVO-style degrade
                    # threshold — with the threshold at 3, one eviction
                    # burst is enough.  Inherent to adversarially timed
                    # eviction + a finite threshold, not a protocol bug:
                    # correctness holds, throughput degrades by design.
                    detail += " (inherent under forced eviction)"
                reasons.append(detail)
        unresolved = sum(
            lrt.stats.get("unresolved_remote_releases", 0)
            for lrt in self.machine.lrts
        )
        if unresolved:
            reasons.append(f"unresolved remote releases x{unresolved}")
        return "; ".join(reasons)

    def classify(
        self,
        violation: Optional[str] = None,
        algorithm=None,
    ) -> List[FaultOutcome]:
        """One :class:`FaultOutcome` per fault class in the plan.

        ``violation`` is the workload-level failure (invariant violation,
        deadlock, hang), or None if it completed and audits passed."""
        pending = (
            0 if self.reliable is None else self.reliable.pending_frames()
        )
        if violation is None and pending:
            violation = f"{pending} frames still pending after drain"
        degraded = self.degradation_detail(algorithm)
        outcomes = []
        for kind in self.plan.classes:
            injected = self.stats.get(kind, 0)
            if violation is not None:
                verdict, detail = "violated", violation
            elif degraded:
                verdict, detail = "degraded", degraded
            else:
                verdict, detail = "recovered", ""
            outcomes.append(
                FaultOutcome(kind, injected, verdict, detail)
            )
        return outcomes
