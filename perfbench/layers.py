"""The traced run (``--trace 1``): per-layer self time and work counts.

Jobs run in pairs, untraced and traced, alternating which goes first.
Each traced job is one root span; self times of all its spans are
summed per layer.  Counts come from the components' public counters
after the job (the tracer records each ``Machine``, ``ReliableLayer``
and ``ObjectSTM`` built), from the job's outputs and from span counts.
Integrity checks, any of which fails the run:

* the wrapped callbacks that ran equal ``events_processed`` summed over
  the job's simulators;
* layer self times tile the job's root span exactly;
* the traced job's simulated outputs equal the untraced job's.

The spans of the first traced jobs (whole jobs, up to ``SPANS_KEPT``)
stay in memory and are written to ``out/`` when the run ends.  After the
pairs, the run's first job runs once under cProfile and once with the
repository's ``HostProfiler`` (not for ``lcu_lossy``: ``run_cell`` takes
no profiler), and their layer shares are printed beside the span shares
of its traced run.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Dict, List, Tuple

import crosscheck
from spans import SpanLog, self_times, tiles
from tracing import Tracer

#: spans kept for the output file: whole jobs, the first always, then
#: more while fewer than this many are kept (memory and write time)
SPANS_KEPT = 500_000

#: layers whose self time is reported; together they tile each job
SELF_TIME_LAYERS = ("harness", "sim", "cpu", "net", "net.reliable", "mem",
                    "lcu", "lrt", "check", "faults", "other")


def _job_counts(tracer: Tracer, log: SpanLog, root: int, hi: int,
                acc: Dict[str, float]) -> str:
    """Add one traced job's layer self times and counts into ``acc``;
    return an integrity failure, or ``""``."""
    start, end, parent = log.start, log.end, log.parent
    if not tiles(start, end, parent, root, hi):
        return "layer self times do not tile the job root span"

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0) + value

    callbacks = 0
    for i, self_ns in enumerate(self_times(start, end, parent, root, hi)):
        nid = log.name_id[root + i]
        layer, name = log.layers[nid], log.names[nid]
        add(f"{layer}.self_ns", self_ns)
        add(f"n:{name}", 1)
        if name.startswith("cb:"):
            callbacks += 1
            add(f"cb:{layer}", 1)
        elif name == "cpu.Machine.__init__":
            add("build_ns", end[root + i] - start[root + i])
    machines = tracer.machines
    events = sum(m.sim.events_processed for m in machines)
    if callbacks != events:
        return f"{callbacks} wrapped callbacks != {events} events processed"
    add("events", events)
    add("signal_waits", sum(m.sim.signal_waits for m in machines))
    acc["queue_depth_peak"] = max(
        [acc.get("queue_depth_peak", 0)]
        + [m.sim.queue_depth_peak for m in machines])
    waits = tracer.server_wait
    for m in machines:
        net, mem = m.net, m.mem
        add("msgs", net.messages_sent)
        add("inter_chip", net.inter_chip_messages)
        fabric = [s for _, _, s in net.fabric_servers()]
        add("server_requests", sum(s.requests for s in fabric))
        add("net_wait", sum(waits.get(id(s), 0) for s in fabric))
        add("mem_accesses", mem.l1_hits + mem.l1_misses)
        add("l1_misses", mem.l1_misses)
        add("invalidations", mem.invalidations)
        add("dir_wait", sum(waits.get(id(s), 0) for s in mem.dir_servers))
        for lcu in m.lcus:
            add("lcu_acquires", lcu.stats["acquires"])
            add("lcu_retries", lcu.stats["retries_received"])
        for lrt in m.lrts:
            add("lrt_requests", lrt.stats["requests"])
            add("lrt_retries", lrt.stats["retries"])
    for rel in tracer.reliables:
        add("frames", rel.frames_sent)
        add("retransmits", rel.retransmits)
    for stm in tracer.stms:
        add("commits", stm.stats.commits)
        add("aborts", stm.stats.aborts)
        add("stm_reads", stm.stats.reads)
    return ""


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_layer(acc: Dict[str, float], jobs: int, ops: int,
               untraced_ns: int, traced_ns: int) -> Dict[str, Dict[str, Any]]:
    def m(value: float, unit: str) -> Dict[str, Any]:
        return {"value": value, "unit": unit}

    n = acc.get
    out = {f"{layer}.self_ms": m(n(f"{layer}.self_ns", 0) / jobs / 1e6,
                                 "ms/job")
           for layer in SELF_TIME_LAYERS}
    out.update({
        "sim.ns_per_event": m(_ratio(untraced_ns, n("events", 0)), "ns"),
        "sim.events_per_op": m(_ratio(n("events", 0), ops), "count"),
        "sim.signal_waits_per_op": m(_ratio(n("signal_waits", 0), ops),
                                     "count"),
        "sim.queue_depth_peak": m(n("queue_depth_peak", 0), "count"),
        "cpu.callbacks_per_op": m(_ratio(n("cb:cpu", 0), ops), "count"),
        "cpu.build_ms": m(n("build_ns", 0) / jobs / 1e6, "ms/job"),
        "net.msgs_per_op": m(_ratio(n("msgs", 0), ops), "count"),
        "net.server_requests_per_op": m(
            _ratio(n("server_requests", 0), ops), "count"),
        "net.wait_cycles_per_msg": m(_ratio(n("net_wait", 0), n("msgs", 0)),
                                     "cycles"),
        "net.inter_chip_frac": m(_ratio(n("inter_chip", 0), n("msgs", 0)),
                                 "fraction"),
        "mem.accesses_per_op": m(_ratio(n("mem_accesses", 0), ops), "count"),
        "mem.l1_miss_frac": m(_ratio(n("l1_misses", 0), n("mem_accesses", 0)),
                              "fraction"),
        "mem.invalidations_per_op": m(_ratio(n("invalidations", 0), ops),
                                      "count"),
        "mem.dir_wait_cycles_per_access": m(
            _ratio(n("dir_wait", 0), n("mem_accesses", 0)), "cycles"),
        "lcu.msgs_in_per_op": m(
            _ratio(n("n:lcu.LockControlUnit.on_message", 0), ops), "count"),
        "lrt.msgs_in_per_op": m(
            _ratio(n("n:lrt.LockReservationTable.on_message", 0), ops),
            "count"),
        "lcu.retry_frac": m(_ratio(n("lcu_retries", 0), n("lcu_acquires", 0)),
                            "fraction"),
        "lrt.retry_frac": m(_ratio(n("lrt_retries", 0), n("lrt_requests", 0)),
                            "fraction"),
        "net.reliable.retransmit_frac": m(
            _ratio(n("retransmits", 0), n("frames", 0)), "fraction"),
        "stm.abort_frac": m(
            _ratio(n("aborts", 0), n("commits", 0) + n("aborts", 0)),
            "fraction"),
        "stm.reads_per_txn": m(_ratio(n("stm_reads", 0), n("commits", 0)),
                               "count"),
        "faults.injected_per_job": m(n("injected", 0) / jobs, "count"),
        "trace_overhead_frac": m(_ratio(traced_ns, untraced_ns) - 1.0,
                                 "fraction"),
    })
    return out


def _crosscheck(wl, workload: str, job, log: SpanLog, root: int,
                hi: int) -> None:
    span_ns: Dict[str, float] = {}
    for i, self_ns in enumerate(self_times(log.start, log.end, log.parent,
                                           root, hi)):
        layer = log.layers[log.name_id[root + i]]
        span_ns[layer] = span_ns.get(layer, 0) + self_ns
    columns = {
        "spans": crosscheck.shares(span_ns),
        "cProfile": crosscheck.shares(
            crosscheck.cprofile_layers(lambda: wl.run_job(job))),
    }
    print(f"attribution cross-check, {workload} job {job.index} "
          f"(self-time shares):")
    print(crosscheck.table(columns))
    if job.workload == "lcu_lossy":
        print("HostProfiler: not available (run_cell takes no profiler)")
        return
    from repro.obs.host import HostProfiler
    host = HostProfiler()
    wl.run_job(job, host_profiler=host)
    total = host.total_ns or 1
    parts = ", ".join(f"{k} {100.0 * v / total:.1f}%"
                      for k, v in sorted(host.subsystems.items()))
    print(f"HostProfiler subsystem shares: {parts}")


def _run_pair(wl, tracer: Tracer, log: SpanLog, job, pair: int,
              digest) -> Tuple[Dict[bool, Any], Dict[bool, int], List[str],
                               Tuple[int, int]]:
    """Run ``job`` untraced and traced; returns outputs and host ns by
    ``traced``, failure messages and the traced job's span range."""
    outs: Dict[bool, Any] = {}
    host_ns: Dict[bool, int] = {}
    failures: List[str] = []
    spans = (0, 0)
    for traced in ((False, True) if pair % 2 == 0 else (True, False)):
        gc.collect()
        try:
            if traced:
                tracer.begin_job()
                tracer.install()
                try:
                    out = tracer.run_job(wl.run_job, job)
                finally:
                    tracer.uninstall()
                    spans = log.end_job(pair)
                host_ns[True] = log.end[spans[0]] - log.start[spans[0]]
            else:
                t0 = time.perf_counter_ns()
                out = wl.run_job(job)
                host_ns[False] = time.perf_counter_ns() - t0
        except Exception as exc:        # a raising job is a failed job
            failures.append(f"job {pair} (traced={traced}): raised {exc!r}")
            continue
        reason = wl.check(job, out, None if digest is None
                          else digest[job.index])
        if reason:
            failures.append(f"job {pair} (traced={traced}): {reason}")
        outs[traced] = out
    return outs, host_ns, failures, spans


def run_traced(wl, workload: str, seed: int, seconds: float,
               out_dir: str) -> Dict[str, Any]:
    cycle = wl.jobs(workload, seed)
    digest = wl.load_digest(workload, seed)
    log = SpanLog()
    tracer = Tracer(log)
    acc: Dict[str, float] = {}
    failed = pairs = counted = ops = untraced_ns = traced_ns = 0
    integrity: List[str] = []
    first = None
    deadline = time.perf_counter() + seconds
    while pairs == 0 or time.perf_counter() < deadline:
        job = cycle[pairs % len(cycle)]
        outs, host_ns, failures, spans = _run_pair(
            wl, tracer, log, job, pairs, digest)
        for line in failures:
            print(line)
        failed += len(failures)
        if len(outs) == 2:
            if outs[True] != outs[False]:
                integrity.append(f"job {pairs}: traced outputs "
                                 f"{outs[True]} != untraced {outs[False]}")
            reason = _job_counts(tracer, log, *spans, acc)
            if reason:
                integrity.append(f"job {pairs}: {reason}")
            counted += 1
            ops += outs[False].ops
            acc["injected"] = acc.get("injected", 0) + outs[False].injected
            untraced_ns += host_ns[False]
            traced_ns += host_ns[True]
            if first is None:
                first = (job, *spans)
        if spans[0] > SPANS_KEPT:
            log.truncate(spans[0])
        pairs += 1
    for line in integrity:
        print(f"integrity: {line}")
    if first is not None:
        _crosscheck(wl, workload, first[0], log, first[1], first[2])
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}.csv.gz")
    log.write(path)
    print(f"{len(log)} spans of the first traced jobs written to {path}")
    return {
        "correct": failed == 0 and not integrity and counted > 0,
        "attempted": 2 * pairs,
        "failed": failed,
        "metrics": _per_layer(acc, max(1, counted), max(1, ops),
                              untraced_ns, traced_ns),
    }
