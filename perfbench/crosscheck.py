"""Cross-check of the span attribution against cProfile and the
repository's ``HostProfiler``.

cProfile self time is grouped by the ``repro`` module that owns each
function (same module-to-layer map as the spans).  Functions outside
``repro`` (built-ins such as ``heapq.heappush``, the standard library)
are charged to the layer of their caller, split by cProfile's per-caller
times, so a ``heappush`` made by ``Simulator.at`` counts as ``sim``.
cProfile adds a fixed cost to every Python call, so layers made of many
small calls read larger under it than under the spans.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Callable, Dict

from spans import layer_of_module


def _module_of_file(path: str) -> str:
    """``.../src/repro/net/network.py`` -> ``repro.net.network``."""
    parts = os.path.normpath(path).split(os.sep)
    if "repro" not in parts or not path.endswith(".py"):
        return ""
    k = len(parts) - 1 - parts[::-1].index("repro")
    mod = parts[k:]
    mod[-1] = mod[-1][:-3]
    if mod[-1] == "__init__":
        mod.pop()
    return ".".join(mod)


def _layer_of_func(func) -> str:
    module = _module_of_file(func[0])
    return layer_of_module(module) if module else ""


def cprofile_layers(call: Callable[[], object]) -> Dict[str, float]:
    """Run ``call`` under cProfile; return self seconds per layer."""
    prof = cProfile.Profile()
    prof.runcall(call)
    stats = pstats.Stats(prof).stats
    out: Dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = _layer_of_func(func)
        if layer:
            out[layer] = out.get(layer, 0.0) + tt
            continue
        charged = 0.0
        for caller, (_c, _n, caller_tt, _ct2) in callers.items():
            owner = _layer_of_func(caller) or "other"
            out[owner] = out.get(owner, 0.0) + caller_tt
            charged += caller_tt
        if tt > charged:
            out["other"] = out.get("other", 0.0) + (tt - charged)
    return out


def shares(ns_by_layer: Dict[str, float]) -> Dict[str, float]:
    total = sum(ns_by_layer.values()) or 1.0
    return {k: v / total for k, v in ns_by_layer.items()}


def table(columns: Dict[str, Dict[str, float]]) -> str:
    """Side-by-side percentage shares, one row per layer."""
    layers = sorted({k for col in columns.values() for k in col})
    head = f"{'layer':14s}" + "".join(f"{c:>14s}" for c in columns)
    rows = [head]
    for layer in layers:
        rows.append(f"{layer:14s}" + "".join(
            f"{100.0 * col.get(layer, 0.0):13.1f}%" for col in columns.values()
        ))
    return "\n".join(rows)
