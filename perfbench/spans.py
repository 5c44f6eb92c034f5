"""Span log, layer self-time arithmetic and the tail-percentile rule.

A span is one timed call at a layer boundary: its name, host start and
end (``time.perf_counter_ns``), the index of the span that was open when
it started (its parent, ``-1`` for a job root) and the job it belongs
to.  Spans are appended in start order into flat arrays, so a job's
spans are one contiguous index range and every parent precedes its
children.

A layer's self time is its spans' durations minus the part of each
interval that the span's direct children cover.  Summed over every span
of a job, self times equal the job root's duration exactly (integer
nanoseconds) whenever each child lies inside its parent, which the
call-stack discipline of the recorder guarantees; ``tiles`` checks it.
"""

from __future__ import annotations

import gzip
import time
from array import array
from typing import Dict, List, Sequence, Tuple

clock = time.perf_counter_ns

#: module prefix -> layer, most specific first
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.lcu.lrt", "lrt"),
    ("repro.net.reliable", "net.reliable"),
    ("repro.sim", "sim"),
    ("repro.cpu", "cpu"),
    ("repro.net", "net"),
    ("repro.mem", "mem"),
    ("repro.lcu", "lcu"),
    ("repro.harness", "harness"),
    ("repro.check", "check"),
    ("repro.faults", "faults"),
)

def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module belongs to.  ``other`` is software
    locks, the STM, observability, the SSB, the standard library and
    the rest."""
    for prefix, layer in _LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


#: the name id recorded when a span closes
CLOSE = -1


class SpanLog:
    """Span store for one benchmark run.

    While a job runs, wrappers append each span boundary to two parallel
    arrays: the time (``time.perf_counter_ns()`` minus ``base``) to
    ``times`` and the span name id to ``ids`` when a span opens, or
    ``CLOSE`` when it closes.  That is the whole per-call recording
    cost.  ``end_job`` then rebuilds the job's spans from the boundaries
    (the innermost open span is the parent) into columns:
    ``start``/``end`` (ns from ``base``), ``parent`` (span index, -1 for
    the root), ``name_id`` and ``job``.  ``names[name_id[i]]`` and
    ``layers[name_id[i]]`` give span ``i``'s name and layer.
    """

    def __init__(self) -> None:
        self.base = clock()
        self.times = array("q")
        self.ids = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name_id = array("l")
        self.job = array("l")
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}

    def intern(self, name: str, layer: str) -> int:
        """The id of span name ``name`` (charged to ``layer``)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def end_job(self, job: int) -> Tuple[int, int]:
        """Move the recorded boundaries of one job into span columns and
        clear them; returns the job's span index range ``(lo, hi)``.
        The boundaries must form one root span with balanced nesting."""
        start, end, parent = self.start, self.end, self.parent
        name_id, jobs = self.name_id, self.job
        lo = len(start)
        stack: List[int] = []
        for t, nid in zip(self.times, self.ids):
            if nid == CLOSE:
                end[stack.pop()] = t
                continue
            if not stack and len(start) > lo:
                raise ValueError("job events hold more than one root span")
            stack.append(len(start))
            start.append(t)
            end.append(-1)
            parent.append(stack[-2] if len(stack) > 1 else -1)
            name_id.append(nid)
            jobs.append(job)
        if stack:
            raise ValueError(f"{len(stack)} spans never closed")
        del self.times[:]
        del self.ids[:]
        return lo, len(start)

    def truncate(self, n: int) -> None:
        """Forget every span from index ``n`` on."""
        for column in (self.start, self.end, self.parent, self.name_id,
                       self.job):
            del column[n:]

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV (``job,span,parent,name,
        layer,start_ns,end_ns``); called once, after the run."""
        names, layers = self.names, self.layers
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("job,span,parent,name,layer,start_ns,end_ns\n")
            for i in range(len(self.start)):
                n = self.name_id[i]
                out.write(
                    f"{self.job[i]},{i},{self.parent[i]},{names[n]},"
                    f"{layers[n]},{self.start[i]},{self.end[i]}\n"
                )


def self_times(
    start: Sequence[int], end: Sequence[int], parent: Sequence[int],
    lo: int = 0, hi: int = -1,
) -> List[int]:
    """Self time of spans ``lo..hi-1`` (start-ordered, parents first):
    each span's duration minus the union of its direct children's
    intervals clipped to the span.  Returns one value per span in the
    range.  Children of one parent arrive in start order, so the union
    is one running "covered up to" mark per parent."""
    if hi < 0:
        hi = len(start)
    n = hi - lo
    covered = [0] * n
    mark = [0] * n          # per parent: covered up to this instant
    for i in range(lo, hi):
        p = parent[i]
        if p < lo:
            continue        # a root (or a parent outside the range)
        k = p - lo
        s = max(start[i], start[p], mark[k])
        e = min(end[i], end[p])
        if e > s:
            covered[k] += e - s
            mark[k] = e
    return [end[lo + k] - start[lo + k] - covered[k] for k in range(n)]


def tiles(
    start: Sequence[int], end: Sequence[int], parent: Sequence[int],
    root: int, hi: int,
) -> bool:
    """True when the self times of spans ``root..hi-1`` sum exactly to
    the duration of ``root``, every span in the range descends from it,
    and every child lies inside its parent."""
    for i in range(root + 1, hi):
        p = parent[i]
        if p < root or p >= i or start[i] < start[p] or end[i] > end[p]:
            return False
    return sum(self_times(start, end, parent, root, hi)) == (
        end[root] - start[root]
    )


def tail_percentile(samples: Sequence[float], beyond: int = 10) -> Tuple[
    float, float
]:
    """The highest percentile of ``samples`` that still has at least
    ``beyond`` samples above it: the ``beyond + 1``-th largest sample,
    which is the ``100 * (n - beyond) / n`` percentile.  Returns
    ``(percentile, value)``; needs more than ``beyond`` samples."""
    n = len(samples)
    if n <= beyond:
        raise ValueError(
            f"need more than {beyond} samples for the tail, got {n}"
        )
    ordered = sorted(samples)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]
