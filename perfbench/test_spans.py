"""Tests of the benchmark's span arithmetic, tail rule and tracer.

Run from the repository root: ``python3 -m pytest perfbench/test_spans.py``.
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from spans import (  # noqa: E402
    CLOSE, SpanLog, layer_of_module, self_times, tail_percentile, tiles,
)


def _tree():
    # root [0,100] > a [10,40] > a1 [15,25];  root > b [50,70]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 70]
    parent = [-1, 0, 1, 0]
    return start, end, parent


def test_self_time_subtracts_direct_children_only():
    start, end, parent = _tree()
    assert self_times(start, end, parent) == [50, 20, 10, 20]
    assert tiles(start, end, parent, 0, 4)


def test_overlapping_children_are_subtracted_once():
    start, end, parent = [0, 10, 30], [100, 50, 60], [-1, 0, 0]
    assert self_times(start, end, parent)[0] == 100 - 50


def test_child_outside_parent_is_clipped_and_breaks_tiling():
    start, end, parent = [0, 90], [100, 120], [-1, 0]
    assert self_times(start, end, parent) == [90, 30]
    assert not tiles(start, end, parent, 0, 2)


def test_self_times_of_a_sub_range():
    # two jobs back to back; the second job's range is indexed from 2
    start, end, parent = [0, 5, 200, 210], [100, 50, 300, 250], [-1, 0, -1, 2]
    assert self_times(start, end, parent, 2, 4) == [60, 40]
    assert tiles(start, end, parent, 2, 4)
    assert not tiles(start, end, parent, 0, 4)   # two roots


def test_span_log_rebuilds_nesting_from_events():
    log = SpanLog()
    root, child = log.intern("harness.job", "harness"), log.intern("x", "net")
    for t, nid in ((0, root), (10, child), (20, CLOSE), (30, child),
                   (35, CLOSE), (40, CLOSE)):
        log.times.append(t)
        log.ids.append(nid)
    assert log.end_job(7) == (0, 3)
    assert list(log.start) == [0, 10, 30]
    assert list(log.end) == [40, 20, 35]
    assert list(log.parent) == [-1, 0, 0]
    assert list(log.job) == [7, 7, 7]
    assert len(log.times) == len(log.ids) == 0
    log.truncate(1)
    assert len(log) == 1


def test_span_log_rejects_unbalanced_events():
    log = SpanLog()
    nid = log.intern("harness.job", "harness")
    log.times.append(0)
    log.ids.append(nid)
    with pytest.raises(ValueError):
        log.end_job(0)


def test_tail_is_the_eleventh_largest_sample():
    pct, value = tail_percentile(list(range(100, 0, -1)))
    assert (pct, value) == (90.0, 90)
    pct, value = tail_percentile([float(x) for x in range(1, 21)])
    assert (pct, value) == (50.0, 10.0)
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


def test_layer_map():
    assert layer_of_module("repro.net.reliable") == "net.reliable"
    assert layer_of_module("repro.check.invariants") == "check"
    assert layer_of_module("repro.faults.injector") == "faults"
    assert layer_of_module("repro.net.network") == "net"
    assert layer_of_module("repro.lcu.lrt") == "lrt"
    assert layer_of_module("repro.lcu.lcu") == "lcu"
    assert layer_of_module("repro.locks.mcs") == "other"
    assert layer_of_module("heapq") == "other"


def test_traced_job_passes_integrity_checks_and_uninstalls():
    from layers import _job_counts
    from repro.harness.microbench import run_microbench
    from repro.params import model_a
    from repro.sim.engine import Simulator
    from tracing import Tracer

    plain = run_microbench(model_a(), "lcu", 4, 100, iters_per_thread=5)
    original_at = Simulator.__dict__["at"]
    log = SpanLog()
    tracer = Tracer(log)
    tracer.begin_job()
    tracer.install()
    try:
        traced = tracer.run_job(
            run_microbench, model_a(), "lcu", 4, 100, 5)
    finally:
        tracer.uninstall()
    lo, hi = log.end_job(0)
    assert Simulator.__dict__["at"] is original_at
    assert (traced.elapsed, traced.total_cs) == (plain.elapsed, 20)
    acc = {}
    assert _job_counts(tracer, log, lo, hi, acc) == ""
    assert acc["events"] == tracer.machines[0].sim.events_processed > 0
    assert sum(v for k, v in acc.items() if k.endswith(".self_ns")) == (
        log.end[lo] - log.start[lo])


def test_traced_nemesis_cell_charges_reliable_check_and_faults():
    from layers import _job_counts
    from repro.faults.nemesis import run_cell
    from tracing import Tracer

    plain = run_cell("lcu", "B", "dup", 3)
    log = SpanLog()
    tracer = Tracer(log)
    tracer.begin_job()
    tracer.install()
    try:
        traced = tracer.run_job(run_cell, "lcu", "B", "dup", 3)
    finally:
        tracer.uninstall()
    lo, hi = log.end_job(0)
    assert (traced.elapsed, traced.total_cs, traced.outcome) == (
        plain.elapsed, plain.total_cs, plain.outcome)
    acc = {}
    assert _job_counts(tracer, log, lo, hi, acc) == ""
    assert len(tracer.reliables) == 1 and "frames" in acc
    for layer in ("net.reliable", "check", "faults"):
        assert acc[f"{layer}.self_ns"] > 0


def test_lossy_cycle_meets_every_class_and_model_slot():
    import workloads

    cycle = workloads.cycle("lcu_lossy", 5)
    pairs = [(j.fault, j.model) for j in cycle]
    for fault in workloads.LOSSY_CLASSES:
        assert sorted(m for f, m in pairs if f == fault) == (
            ["A"] * 2 + ["B"] * 10)
    for k in range(0, len(cycle), 6):
        assert [j.model for j in cycle[k:k + 6]].count("A") == 1
    assert cycle == workloads.cycle("lcu_lossy", 5)
    assert (cycle[0].seed, cycle[0].model, cycle[0].fault) == (5, "A", "drop")


def test_pooled_runs_rotate_the_default_cycle():
    import workloads

    for w in workloads.POOLED:
        pool = workloads.cycle(w, workloads.DEFAULT_SEED)
        half = len(pool) // 2
        # a left-out job's twin (same class and model slot) takes its place
        kept = [pool[(j.index + half) % len(pool)]
                if (w, j.index) in workloads.KNOWN_FAILING else j
                for j in pool]
        for j, twin in zip(pool, kept):
            assert (j.fault, j.model) == (twin.fault, twin.model)
            assert (w, twin.index) not in workloads.KNOWN_FAILING
        starts = set()
        for seed in range(2, 40):
            run = workloads.jobs(w, seed)
            assert run == workloads.jobs(w, seed)
            start = next(i for i in range(len(kept))
                         if kept[i:] + kept[:i] == run)
            starts.add(start)
            if w == "lcu_lossy":
                assert run[0].model == "A" and run[0].fault != "slow_core"
        assert len(starts) > 1
    assert workloads.jobs("lcu_handoff", 5) == workloads.cycle(
        "lcu_handoff", 5)


def test_lossy_periods_meet_every_class_and_model_slot_once():
    from collections import Counter

    import workloads

    period = workloads.PERIOD["lcu_lossy"]
    want = Counter((f, m) for f in workloads.LOSSY_CLASSES
                   for m in workloads.LOSSY_MODELS)
    for seed in range(1, 40):
        run = workloads.jobs("lcu_lossy", seed)
        for a in range(0, len(run), period):
            assert Counter((j.fault, j.model)
                           for j in run[a:a + period]) == want
        assert [k for k in range(1, len(run) + 1)
                if workloads.may_end(run, k)] == [period, len(run)]
    stm = workloads.jobs("stm_mixed", 7)
    assert all(workloads.may_end(stm, k) for k in range(len(stm)))


class _Steady:
    """A calibration that always reads the reference time."""

    def measure(self):
        from calib import REFERENCE_NS
        return REFERENCE_NS


class _Raising:
    """A workload module whose every job raises."""

    def jobs(self, workload, seed):
        return ["job"]

    def may_end(self, run, k):
        return True

    def load_digest(self, workload, seed):
        return None

    def run_job(self, job):
        raise RuntimeError("broken")


def test_run_with_every_job_failing_still_reports():
    import run

    result = run.run_untraced(_Raising(), "x", 1, 0.01, 0.5, _Steady())
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb"}
