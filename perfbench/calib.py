"""Host-speed calibration: a fixed piece of pure-Python reference work.

Shared hosts change speed by tens of percent over seconds (a busy
sibling hyperthread, cache contention), which swamps any change to the
simulator.  The benchmark times this reference work before and after
every job and reports host times scaled to a reference host on which
the work takes ``REFERENCE_NS``: ``wall * REFERENCE_NS / calibration``.
The work imitates the simulator's host profile (pointer chasing over a
working set of a few MB, dictionary lookups, a binary heap, closure
calls) so that contention slows both alike, and it uses nothing from
the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import random
import time

#: calibration time on the reference host (2-vCPU Intel Xeon VM at
#: 2.0 GHz, CPython 3.11), measured in a quiet phase
REFERENCE_NS = 60_000_000


class _Node:
    __slots__ = ("count", "next")

    def __init__(self) -> None:
        self.count = 0
        self.next: "_Node" = self


class Calibration:
    """The reference work; build once, then ``measure`` as often as
    needed (each call does the same work)."""

    def __init__(self, size: int = 40_000, seed: int = 5) -> None:
        rng = random.Random(seed)
        nodes = [_Node() for _ in range(size)]
        for node in nodes:
            node.next = nodes[rng.randrange(size)]
        self._table = dict(enumerate(nodes))
        self._order = list(range(size))
        rng.shuffle(self._order)

    def _work(self) -> int:
        table = self._table
        heap: list = []
        push, pop = heapq.heappush, heapq.heappop
        total = 0

        def visit(node: _Node) -> int:
            node.count += 1
            return node.next.count

        for i in self._order:
            total += visit(table[i])
            push(heap, (i & 1023, i))
            if len(heap) > 256:
                pop(heap)
        return total

    def measure(self) -> int:
        """Host nanoseconds the reference work takes right now."""
        t0 = time.perf_counter_ns()
        self._work()
        return time.perf_counter_ns() - t0
