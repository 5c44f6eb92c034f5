"""Simulator throughput benchmark: one closed-loop client, one thread.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lcu_handoff --seed 1 \
        --seconds 16 --trace 0

The client submits jobs back to back until they add up to ``--seconds``
seconds of reference-host time (see ``calib.py``); a job is one call
into a public harness entry point (see ``workloads.py``).
``--trace 0`` reports the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced runs of the same jobs and
reports the per-layer metrics (see ``README.md``).  Every job's outputs
are checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--pin-digest`` re-runs the default seed's jobs and rewrites
``digest.json``; do it only when a change is meant to alter simulated
results.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time
from statistics import median
from typing import Any, Dict, List, Tuple

from calib import REFERENCE_NS, Calibration
from spans import tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("lcu_handoff", "mcs_coherence", "stm_mixed", "lcu_lossy")
SETUP_ROUNDS = 5
#: the tail is the highest percentile with this many jobs beyond it
TAIL_BEYOND = 10
#: a run's wall-clock limit, as a multiple of ``--seconds``
WALL_CAP = 1.8


def _parse(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin-digest", action="store_true")
    args = p.parse_args(argv)
    if not args.pin_digest and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _setup(workload: str, cal: Calibration) -> Tuple[Any, float]:
    """Import the program and build the workload's first machine,
    ``SETUP_ROUNDS`` times from a clean module table; returns the last
    import of ``workloads`` and the median set-up time in reference-host
    seconds.  Standard-library imports are only paid by the first round."""
    times = []
    mod = None
    before = cal.measure()
    for _ in range(SETUP_ROUNDS):
        for name in [n for n in sys.modules
                     if n == "repro" or n.startswith("repro.")
                     or n == "workloads"]:
            del sys.modules[name]
        gc.collect()
        t0 = time.perf_counter_ns()
        mod = importlib.import_module("workloads")
        mod.build_machine(workload)
        wall = time.perf_counter_ns() - t0
        after = cal.measure()
        times.append(wall * REFERENCE_NS / ((before + after) / 2) / 1e9)
        before = after
    return mod, median(times)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def run_untraced(wl, workload: str, seed: int, seconds: float,
                 setup_s: float, cal: Calibration) -> Dict[str, Any]:
    """The closed loop: jobs back to back, each timed on the wall clock
    and scaled by the calibration measured on either side of it."""
    cycle = wl.jobs(workload, seed)
    digest = wl.load_digest(workload, seed)
    wall_ms: List[float] = []
    ref_ms: List[float] = []            # jobs that passed their checks
    spent_ms = 0.0                      # every job, failed ones too
    mark_ms = 0.0                       # ``spent_ms`` at the last period end
    ops = failed = k = 0
    distinct: Dict[int, Any] = {}      # job index -> outputs
    before = cal.measure()
    # the run ends at the end of a period of its jobs (``workloads.may_end``;
    # one job for most workloads), at the one nearest to where its jobs add
    # up to ``seconds`` of reference-host time, so a host that slows down
    # does not change which jobs it runs; the wall clock caps it at
    # WALL_CAP times that on a very slow host.  It runs on past either
    # limit while too few jobs have been timed for the tail, for at most
    # as many jobs again as the tail needs.
    wall_deadline = time.perf_counter() + WALL_CAP * seconds
    while True:
        if k and wl.may_end(cycle, k):
            done = (spent_ms + (spent_ms - mark_ms) / 2 >= 1e3 * seconds
                    or time.perf_counter() >= wall_deadline)
            mark_ms = spent_ms
            if done and not (len(ref_ms) <= TAIL_BEYOND
                             and k < 2 * (TAIL_BEYOND + 1)):
                break
        job = cycle[k % len(cycle)]
        k += 1
        gc.collect()
        t0 = time.perf_counter_ns()
        try:
            out = wl.run_job(job)
        except Exception as exc:        # a raising job is a failed job
            out, reason = None, f"raised {exc!r}"
        ns = time.perf_counter_ns() - t0
        after = cal.measure()
        ref = ns * REFERENCE_NS / ((before + after) / 2) / 1e6
        before = after
        spent_ms += ref
        if out is not None:
            reason = wl.check(job, out, None if digest is None
                              else digest[job.index])
        if reason:
            # a failed job's outputs and time are not results: it counts
            # only in ``failed``
            print(f"job {k - 1}: {reason}")
            failed += 1
            continue
        wall_ms.append(ns / 1e6)
        ref_ms.append(ref)
        ops += out.ops
        distinct[job.index] = out
    print(f"{workload} seed {seed}: {k} jobs, {failed} failed, "
          f"failed_frac {failed / k:.4f}")
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if len(ref_ms) <= TAIL_BEYOND:
        # too few jobs passed to time: no host-time metrics, and no
        # result to trust
        print(f"only {len(ref_ms)} jobs passed; host-time metrics "
              f"need more than {TAIL_BEYOND}")
        return {"correct": False, "attempted": k, "failed": failed,
                "metrics": metrics}
    pct, tail = tail_percentile(ref_ms, TAIL_BEYOND)
    print(f"job_ms_tail is p{pct:.1f} of {len(ref_ms)} samples; wall-clock "
          f"job ms p50 {median(wall_ms):.1f}, p{pct:.1f} "
          f"{tail_percentile(wall_ms, TAIL_BEYOND)[1]:.1f}")
    metrics.update({
        "ops_per_s": _metric(ops / (sum(ref_ms) / 1e3), "1/s"),
        "job_ms_p50": _metric(median(ref_ms), "ms"),
        "job_ms_tail": _metric(tail, "ms"),
        # the median over the distinct jobs run, so repeats of part of
        # the cycle do not weight the seed's inputs unevenly and a few
        # long recoveries (``lcu_lossy``'s zombie_core cells) do not
        # decide it
        "sim_cycles_per_op": _metric(median(
            [o.cycles / o.ops for o in distinct.values()]), "cycles"),
    })
    return {"correct": failed == 0, "attempted": k, "failed": failed,
            "metrics": metrics}


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.pin_digest:
        import workloads
        workloads.pin_digest()
        print(f"wrote {workloads.DIGEST_PATH}")
        return 0
    cal = Calibration()
    wl, setup_s = _setup(args.workload, cal)
    if args.trace:
        import layers
        result = layers.run_traced(wl, args.workload, args.seed,
                                   args.seconds, OUT_DIR)
    else:
        result = run_untraced(wl, args.workload, args.seed, args.seconds,
                              setup_s, cal)
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
