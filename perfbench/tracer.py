"""Outside-in spans around the public functions of ``rwre``'s layers.

The tracer replaces each traced function, at every module attribute through
which ``rwre`` looks it up, with a wrapper that records one span per call:
an id, the parent span's id, the layer name, start and end times, and the
nominal work computed from the call's arguments.  Spans stay in memory until
the run ends.  :func:`layer_metrics` turns a list of spans into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


def bridge_cells(a: dict[str, Any]) -> int:
    """Cells of a ``2n``-step propagation over the ``2n + 1`` sites ``[-n, n]``."""
    n = a["n"]
    return 2 * n * (2 * n + 1)


def confined_cells(a: dict[str, Any]) -> int:
    """Cells of a ``steps``-step propagation over the ``2M - 1`` sites inside ``(-M, M)``."""
    return a["steps"] * (2 * a["M"] - 1)


def _bridge_key(a: dict[str, Any]) -> tuple:
    """Identifies a ``bridge_log_prob`` call by environment content, ``n`` and truncation."""
    env = a["env"]
    digest = hashlib.blake2b(env.omegas.tobytes(), digest_size=16).hexdigest()
    return (env.offset, digest, a["n"], a["truncation"])


# layer -> (module where it is defined, nominal work from bound arguments or None)
LAYERS: dict[str, tuple[str, Callable[[dict[str, Any]], int] | None]] = {
    "kernel.bridge_log_prob": ("rwre.kernel", bridge_cells),
    "kernel.confined_log_prob": ("rwre.kernel", confined_cells),
    "kernel.bridge_max_quantile": ("rwre.kernel", None),
    "kernel.max_disp_bridge_cdf": ("rwre.kernel", None),
    "sampling.backward_table": ("rwre.sampling", bridge_cells),
    "sampling.max_disp_samples": ("rwre.sampling", lambda a: a["n_samples"] * 2 * a["n"]),
    "sampling.sample_bridge": ("rwre.sampling", lambda a: 2 * a["n"]),
    "environment.sample_environment": ("rwre.environment", lambda a: a["hi"] - a["lo"] + 1),
    "experiments.run": ("rwre.experiments", None),
}

# Module attributes through which rwre looks each layer up.  ``rwre.cli``
# calls ``experiments.run`` under the name it imported; the kernel's quantile
# and CDF code call the kernel's own module globals.
PATCH_SITES: dict[str, tuple[str, ...]] = {
    "kernel.bridge_log_prob": ("rwre.experiments", "rwre.kernel"),
    "kernel.confined_log_prob": ("rwre.experiments", "rwre.kernel"),
    "kernel.bridge_max_quantile": ("rwre.experiments",),
    "kernel.max_disp_bridge_cdf": ("rwre.experiments",),
    "sampling.backward_table": ("rwre.experiments", "rwre.sampling"),
    "sampling.max_disp_samples": ("rwre.experiments",),
    "sampling.sample_bridge": ("rwre.experiments",),
    "environment.sample_environment": ("rwre.experiments",),
    "experiments.run": ("rwre.cli",),
}

# Unit of each nominal work rate; the work is computed from arguments, not
# counted by the program, and the unit says so.
RATE_STATS: dict[str, tuple[str, str]] = {
    "kernel.bridge_log_prob": ("mcells_per_s", "Mcell/s-computed"),
    "kernel.confined_log_prob": ("mcells_per_s", "Mcell/s-computed"),
    "sampling.backward_table": ("mcells_per_s", "Mcell/s-computed"),
    "sampling.max_disp_samples": ("msteps_per_s", "Mstep/s-computed"),
    "sampling.sample_bridge": ("msteps_per_s", "Mstep/s-computed"),
    "environment.sample_environment": ("msites_per_s", "Msite/s-computed"),
}


class Tracer:
    """Collects spans in memory; one call stack per thread gives each span its parent."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        work_of = LAYERS[layer][1]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            stack = self._local.__dict__.setdefault("stack", [])
            span = {
                "id": next(self._ids),
                "parent": stack[-1] if stack else None,
                "name": layer,
            }
            if work_of is not None:
                span["work"] = work_of(bound.arguments)
            if layer == "kernel.bridge_log_prob":
                span["key"] = repr(_bridge_key(bound.arguments))
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return traced


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Patch every traced name for the duration of the block, then restore it."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for layer, (home, _) in LAYERS.items():
            attr = layer.rsplit(".", 1)[1]
            original = getattr(importlib.import_module(home), attr)
            wrapper = tracer.wrap(layer, original)
            for site in PATCH_SITES[layer]:
                module = importlib.import_module(site)
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{site}.{attr} is not {home}.{attr}")
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        for module, attr, original in saved:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, from one traced run's spans.

    A layer's self time is its spans' durations minus the durations of their
    direct child spans.  Every layer is reported, with zeros when it was not
    called, so every run prints the same metric names.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    children_named: dict[tuple[int, str], int] = {}
    for s in spans:
        parent = s["parent"]
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + s["end"] - s["start"]
            key = (parent, s["name"])
            children_named[key] = children_named.get(key, 0) + 1
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["name"] == layer]
        calls = len(mine)
        self_s = sum((s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in mine), 0.0)
        if layer != "experiments.run":
            out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        if layer in RATE_STATS:
            stat, unit = RATE_STATS[layer]
            work = sum(s["work"] for s in mine)
            out[f"{layer}.{stat}"] = (work / self_s / 1e6 if self_s > 0 else 0.0, unit)
        if layer == "kernel.bridge_log_prob":
            distinct = len({s["key"] for s in mine})
            out[f"{layer}.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
        if layer == "kernel.bridge_max_quantile":
            probes = sum(children_named.get((s["id"], "kernel.confined_log_prob"), 0) for s in mine)
            out[f"{layer}.probes_per_call"] = (probes / calls if calls else 0.0, "count")
    return out
