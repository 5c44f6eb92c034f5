"""Behavioral directory-based coherence model.

This is the substrate the *software* locks run on.  It is deliberately
behavioral rather than cycle-accurate: what matters for reproducing the
paper is the *pattern* of coherence traffic each lock generates —

* a TAS lock performs an atomic RMW per attempt, so the lock line bounces
  between cores and every attempt queues at the home directory;
* a TATAS lock spins on a locally cached copy (zero traffic) until the
  holder's release invalidates it;
* an MCS lock spins on a thread-private line and transfers the lock with
  one invalidation + one miss — cheap but still two network crossings,
  which is exactly the gap the LCU's direct LCU-to-LCU grant closes.

State tracked per line: an optional exclusive owner and a sharer set
(a MESI-like M/S split; E and O are not distinguished — they do not change
message counts at this abstraction level).  Data values live in a backing
store updated at the serialization point of each access, so software lock
algorithms built on top are functionally correct, not just timed.

Capacity misses are not modelled (lock lines and queue nodes are hot); the
first touch of a line charges the memory latency, later directory hits
charge the L2 latency.  Coherence requests travel on the same simulated
network as lock-unit messages, so both protocols compete for the same
links — required for a fair Figure 9b comparison.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.net.network import Endpoint, Network
from repro.params import MachineConfig
from repro.sim.engine import Server, Signal, Simulator

READ = "R"
WRITE = "W"
RMW = "RMW"


class Allocator:
    """Bump allocator handing out line-aligned blocks of simulated memory.

    Giving every lock / queue node its own cache line avoids false sharing,
    matching how the paper's software baselines are implemented.
    """

    WORD = 8

    def __init__(self, line_size: int = 64, base: int = 0x1000) -> None:
        self._line_size = line_size
        self._next = base

    def alloc_line(self) -> int:
        """Allocate one cache line; returns its base (word-aligned) address."""
        addr = self._next
        self._next += self._line_size
        return addr

    def alloc_words(self, n: int) -> int:
        """Allocate ``n`` contiguous words, line-aligned, padded to lines."""
        addr = self._next
        nbytes = n * self.WORD
        lines = (nbytes + self._line_size - 1) // self._line_size
        self._next += lines * self._line_size
        return addr


class _LineState:
    __slots__ = ("owner", "sharers", "touched")

    def __init__(self) -> None:
        self.owner: Optional[int] = None       # core id holding M
        self.sharers: Set[int] = set()          # core ids holding S
        self.touched = False                     # first access charges memory


class MemorySystem:
    """Directory coherence + data store, addressed by integer byte address."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        network: Network,
        core_endpoint: Callable[[int], Endpoint],
        dir_endpoint: Callable[[int], Endpoint],
    ) -> None:
        self._sim = sim
        self._config = config
        self._net = network
        self._core_ep = core_endpoint
        self._dir_ep = dir_endpoint

        self._store: Dict[int, int] = {}
        self._lines: Dict[int, _LineState] = {}
        # per-core map line -> "M"/"S"
        self._l1: Dict[int, Dict[int, str]] = {}
        # (core, line) -> Signal fired when that copy is invalidated
        self._line_signals: Dict[Tuple[int, int], Signal] = {}
        # directory occupancy per memory controller
        self._dir_servers = [
            Server(sim, f"dir{j}") for j in range(config.num_lrts)
        ]
        for j in range(config.num_lrts):
            network.register(dir_endpoint(j), self._on_message)

        self.l1_hits = 0
        self.l1_misses = 0
        self.invalidations = 0
        self.owner_forwards = 0

    @property
    def dir_servers(self):
        """Directory-slice servers, for the telemetry layer."""
        return list(self._dir_servers)

    def idle(self) -> bool:
        """No directory slice has work queued.  The LRT's overflow
        spills and refills (:meth:`memory_touch`) are the only directory
        work no thread waits on; every other access ends in a fill some
        live thread is blocked on."""
        return all(d.queue_delay() == 0 for d in self._dir_servers)

    # ------------------------------------------------------------------ #
    # address helpers

    def line_of(self, addr: int) -> int:
        return addr // self._config.line_size

    def home_of_line(self, line: int) -> int:
        return line % self._config.num_lrts

    def home_of(self, addr: int) -> int:
        return self.home_of_line(self.line_of(addr))

    # ------------------------------------------------------------------ #
    # raw data access (no timing) — used by assertions/tests only

    def peek(self, addr: int) -> int:
        return self._store.get(addr, 0)

    def poke(self, addr: int, value: int) -> None:
        self._store[addr] = value

    def has_line(self, core: int, addr: int) -> bool:
        """Whether ``core`` currently caches ``addr``'s line (M or S)."""
        return self.line_of(addr) in self._l1.get(core, {})

    # ------------------------------------------------------------------ #
    # spinning support

    def line_signal(self, core: int, addr: int) -> Signal:
        """Signal fired when ``core``'s cached copy of ``addr``'s line is
        invalidated.  Local spinning waits on this with zero traffic."""
        key = (core, self.line_of(addr))
        sig = self._line_signals.get(key)
        if sig is None:
            sig = Signal(self._sim)
            self._line_signals[key] = sig
        return sig

    def _fire_line(self, core: int, line: int) -> None:
        sig = self._line_signals.get((core, line))
        if sig is not None:
            sig.fire()

    # ------------------------------------------------------------------ #
    # the access path

    def access(
        self,
        core: int,
        addr: int,
        kind: str,
        on_done: Callable[[int], None],
        value: Optional[int] = None,
        rmw: Optional[Callable[[int], int]] = None,
    ) -> None:
        """Perform a timed memory access from ``core``.

        * ``READ``  — ``on_done(current value)``
        * ``WRITE`` — stores ``value``; ``on_done(value)``
        * ``RMW``   — atomically applies ``rmw(old) -> new``;
          ``on_done(old value)``

        The data mutation happens at completion time, which is the access's
        serialization point (events are atomic), so RMWs are linearizable.
        """
        line = self.line_of(addr)
        l1 = self._l1.setdefault(core, {})
        state = l1.get(line)

        hit = (kind == READ and state in ("M", "S")) or (
            kind in (WRITE, RMW) and state == "M"
        )
        if hit:
            # The access linearizes *now*, while the core demonstrably holds
            # the line in a sufficient state; only the latency is deferred.
            # Committing later would let a concurrent remote RMW interleave
            # after an invalidation and break atomicity.
            self.l1_hits += 1
            result = self._commit(addr, kind, value, rmw)
            self._sim.after(self._config.l1_latency, lambda: on_done(result))
            return

        self.l1_misses += 1
        home = self.home_of_line(line)
        self._net.send(
            self._core_ep(core),
            self._dir_ep(home),
            ("miss", core, line, addr, kind, on_done, value, rmw),
        )

    def _on_message(self, _src: Endpoint, payload: Tuple) -> None:
        if payload[0] == "mao":
            # remote atomic: serialize at the controller like any access
            _tag, home, process = payload
            self._dir_servers[home].request(self._config.l2_latency, process)
            return
        tag, core, line, addr, kind, on_done, value, rmw = payload
        assert tag == "miss"
        home = self.home_of_line(line)
        ls = self._lines.setdefault(line, _LineState())
        service = (
            self._config.l2_latency if ls.touched else self._config.local_mem_latency
        )
        ls.touched = True

        def serviced() -> None:
            # The directory state update AND the data commit happen here,
            # atomically at the directory's serialization point.  Charging
            # third-party hops (owner forward / invalidation acks) before
            # committing would let a racing reader cache the line with
            # pre-write data — a lost-wakeup deadlock for spinlocks.
            extra = self._directory_action(core, line, kind)
            result = self._commit(addr, kind, value, rmw)

            def ship() -> None:
                self._net.send(
                    self._dir_ep(home),
                    self._core_ep(core),
                    ("fill",),
                    on_deliver=lambda: on_done(result),
                )

            if extra:
                self._sim.after(extra, ship)
            else:
                ship()

        self._dir_servers[home].request(service, serviced)

    def _directory_action(self, core: int, line: int, kind: str) -> int:
        """Update directory state for a miss; returns the extra latency of
        third-party hops (owner forwards, farthest invalidation)."""
        ls = self._lines[line]
        extra = 0
        home_ep = self._dir_ep(self.home_of_line(line))

        if kind == READ:
            if ls.owner is not None and ls.owner != core:
                # forward to owner + cache-to-cache transfer: one extra hop
                self.owner_forwards += 1
                extra = self._net.latency_estimate(
                    home_ep, self._core_ep(ls.owner)
                )
                self._l1.setdefault(ls.owner, {})[line] = "S"
                ls.sharers.add(ls.owner)
                ls.owner = None
            ls.sharers.add(core)
            self._l1.setdefault(core, {})[line] = "S"
        else:  # WRITE / RMW — need exclusivity
            victims = set(ls.sharers)
            if ls.owner is not None:
                victims.add(ls.owner)
            victims.discard(core)
            if victims:
                self.invalidations += len(victims)
                farthest = 0
                for v in victims:
                    self._l1.setdefault(v, {}).pop(line, None)
                    self._fire_line(v, line)
                    farthest = max(
                        farthest,
                        self._net.latency_estimate(home_ep, self._core_ep(v)),
                    )
                extra = farthest
            ls.sharers.clear()
            ls.owner = core
            self._l1.setdefault(core, {})[line] = "M"

        return extra

    def _commit(
        self,
        addr: int,
        kind: str,
        value: Optional[int],
        rmw: Optional[Callable[[int], int]],
    ) -> int:
        """Apply the access's data effect; returns the value delivered to
        the core (current value for READ, old value for RMW)."""
        if kind == READ:
            return self._store.get(addr, 0)
        if kind == WRITE:
            assert value is not None
            self._store[addr] = value
            return value
        assert rmw is not None
        old = self._store.get(addr, 0)
        self._store[addr] = rmw(old)
        return old

    # ------------------------------------------------------------------ #
    # remote atomics (Memory Atomic Operations — fetch-and-theta executed
    # at the controller, not the core; paper related-work family)

    def remote_rmw(
        self,
        core: int,
        addr: int,
        fn: Callable[[int], int],
        on_done: Callable[[int], None],
    ) -> None:
        """Apply ``fn`` to the word at its home controller; no caching.
        Any cached copies are invalidated so coherent loads stay correct.
        """
        line = self.line_of(addr)
        home = self.home_of_line(line)

        def process() -> None:
            ls = self._lines.setdefault(line, _LineState())
            ls.touched = True
            victims = set(ls.sharers)
            if ls.owner is not None:
                victims.add(ls.owner)
            for v in victims:
                self._l1.setdefault(v, {}).pop(line, None)
                self._fire_line(v, line)
            ls.sharers.clear()
            ls.owner = None
            old = self._store.get(addr, 0)
            self._store[addr] = fn(old)
            self._net.send(
                self._dir_ep(home),
                self._core_ep(core),
                ("fill",),
                on_deliver=lambda: on_done(old),
            )

        self._net.send(
            self._core_ep(core), self._dir_ep(home), ("mao", home, process)
        )

    # ------------------------------------------------------------------ #
    # background memory traffic (LRT overflow table, app phases)

    def memory_touch(self, mc: int, on_done: Callable[[], None]) -> None:
        """Charge one main-memory access at controller ``mc`` (used by the
        LRT's overflow hash table)."""
        self._dir_servers[mc].request(self._config.local_mem_latency, on_done)
