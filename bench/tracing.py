"""Benchmark-side tracing: wrappers around the package's callables.

:class:`Tracer` patches module and class attributes of the ``repro``
package for the duration of one traced run and restores the originals
afterwards; the package's source is never touched. Two kinds of wrapper:

* **spans** for coarse calls (a whole run, a sweep, a cache write): each
  call is kept as ``{id, name, layer, case, parent, start, end}``;
* **aggregates** for per-slot calls (arrivals, queue operations, kernel
  entries, statistics and metric updates): only a call count and times
  are kept, so memory does not grow with run length.

Every wrapper keeps ``self time`` = its duration minus the time of the
wrapped calls made inside it. A call counts as an *entry* into its layer
when the innermost wrapped call around it belongs to another layer, so a
kernel that calls another kernel counts once.

Layers are named after the package's modules.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

#: Module-level functions traced as spans: (defining module, name, layer).
SPAN_FUNCTIONS = (
    ("repro.analysis.sweep", "run_sweep", "sweep"),
    ("repro.sim.simulator", "run_simulation", "simulator"),
    ("repro.sim.simulator", "build_switch", "simulator"),
    ("repro.traffic.base", "make_traffic", "traffic"),
    ("repro.columnar.run", "run_replicates", "columnar"),
    ("repro.sweep.merge", "merge_results", "sweep"),
    ("repro.sim.metrics", "latency_percentiles", "stats"),
)

#: Methods traced as spans: (defining module, class, method, layer).
SPAN_METHODS = (
    ("repro.columnar.engine", "ColumnarEngine", "run", "columnar"),
    ("repro.sweep.cache", "ResultCache", "put", "sweep"),
)

#: Per-slot methods traced as aggregates: (module prefix, method names,
#: layer). ``None`` means every public method the class defines. Every
#: class defined in a matching module is scanned.
AGGREGATE_METHODS = (
    ("repro.traffic.", ("arrivals",), "traffic"),
    ("repro.sim.queues", None, "queues"),
    ("repro.core.", ("schedule", "schedule_masks", "schedule_words", "schedule_weighted"), "sched"),
    ("repro.baselines.", ("schedule", "schedule_masks", "schedule_words", "schedule_weighted"), "sched"),
    ("repro.fastpath.", ("schedule", "schedule_masks", "schedule_words", "schedule_weighted"), "sched"),
    ("repro.sim.crossbar", ("run_slots", "step", "_step_fast"), "crossbar"),
    ("repro.sim.metrics", ("add", "merge", "record"), "stats"),
    ("repro.obs.metrics", ("inc", "set", "observe"), "obs"),
    ("repro.obs.estimators", ("observe", "add"), "obs"),
    ("repro.columnar.kernels", ("schedule_batch",), "columnar"),
)

#: Kernel entries that read the VOQ bitmasks directly (the fast loop).
FAST_ENTRIES = ("schedule_masks", "schedule_words")

NO_GRANT = -1


@dataclass
class Aggregate:
    """Accumulated calls of one wrapped callable."""

    layer: str
    calls: int = 0
    entries: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Calls that returned ``False`` (a full queue, a refused push).
    false_results: int = 0
    #: Kernel entries only: grants issued and ports offered.
    grants: int = 0
    ports: int = 0


def _repro_modules():
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name == "repro" or name.startswith("repro."):
            yield module


def _own_classes(module):
    for value in list(vars(module).values()):
        if isinstance(value, type) and value.__module__ == module.__name__:
            yield value


def _count_grants(schedule) -> tuple[int, int]:
    if isinstance(schedule, np.ndarray):
        if schedule.ndim != 1:
            return 0, 0
        return int(np.count_nonzero(schedule != NO_GRANT)), len(schedule)
    if isinstance(schedule, (list, tuple)):
        return len(schedule) - list(schedule).count(NO_GRANT), len(schedule)
    return 0, 0


class Tracer:
    """Installs the wrappers; use as a context manager.

    ``case`` labels the spans recorded from now on (the benchmark sets
    it to the running case's name).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.aggregates: dict[str, Aggregate] = {}
        self.case: str | None = None
        #: (owner, attribute, original) in patch order.
        self.patches: list[tuple[object, str, object]] = []
        # One frame per active wrapped call: [child seconds, layer, span id].
        self._stack: list[list] = []
        self._origin = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, span: bool):
        stack = self._stack
        spans = self.spans
        agg = self.aggregates.setdefault(name, Aggregate(layer))
        clock = time.perf_counter
        origin = self._origin
        kernel = layer == "sched"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            entry = parent is None or parent[1] != layer
            span_id = parent[2] if parent is not None else None
            record = None
            if span:
                record = {
                    "id": len(spans),
                    "name": name,
                    "layer": layer,
                    "case": tracer.case,
                    "parent": span_id,
                    "start": 0.0,
                    "end": 0.0,
                    "error": None,
                }
                spans.append(record)
                span_id = record["id"]
            frame = [0.0, layer, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if record is not None:
                    record["error"] = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                agg.calls += 1
                agg.total_s += elapsed
                agg.self_s += elapsed - frame[0]
                if entry:
                    agg.entries += 1
                if parent is not None:
                    parent[0] += elapsed
                if record is not None:
                    record["start"] = start - origin
                    record["end"] = end - origin
            if result is False:
                agg.false_results += 1
            if kernel and entry:
                grants, ports = _count_grants(result)
                agg.grants += grants
                agg.ports += ports
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        modules = {module.__name__: module for module in _repro_modules()}
        for module_name, fn_name, layer in SPAN_FUNCTIONS:
            module = modules.get(module_name)
            original = getattr(module, fn_name, None) if module else None
            if original is None:
                continue
            wrapper = self._wrap(original, fn_name, layer, span=True)
            # Patch every module that imported the function by name.
            for holder in modules.values():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, wrapper)
        for module_name, cls_name, method, layer in SPAN_METHODS:
            cls = getattr(modules.get(module_name), cls_name, None)
            if cls is not None and callable(vars(cls).get(method)):
                name = f"{cls_name}.{method}"
                self._patch(cls, method, self._wrap(vars(cls)[method], name, layer, span=True))
        for prefix, methods, layer in AGGREGATE_METHODS:
            for module_name, module in modules.items():
                if not (module_name == prefix or module_name.startswith(prefix)):
                    continue
                for cls in _own_classes(module):
                    for attr, value in list(vars(cls).items()):
                        wanted = (
                            not attr.startswith("_") if methods is None else attr in methods
                        )
                        if wanted and inspect.isfunction(value):
                            name = f"{cls.__qualname__}.{attr}"
                            self._patch(cls, attr, self._wrap(value, name, layer, span=False))

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict[str, Aggregate]:
        """A copy of the aggregates (diff two for one case's share)."""
        return {name: Aggregate(**asdict(agg)) for name, agg in self.aggregates.items()}

    def write(self, path: Path, meta: dict) -> None:
        payload = {
            **meta,
            "spans": self.spans,
            "aggregates": {name: asdict(agg) for name, agg in self.aggregates.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1))


def diff(after: dict[str, Aggregate], before: dict[str, Aggregate]) -> dict[str, Aggregate]:
    """Per-name difference of two aggregate snapshots."""
    counters = [f.name for f in fields(Aggregate) if f.name != "layer"]
    out = {}
    for name, agg in after.items():
        base = before.get(name, Aggregate(agg.layer))
        out[name] = Aggregate(agg.layer, *(getattr(agg, c) - getattr(base, c) for c in counters))
    return out


def _layer(aggs: dict[str, Aggregate], layer: str) -> tuple[int, float]:
    chosen = [agg for agg in aggs.values() if agg.layer == layer]
    return sum(agg.entries for agg in chosen), sum(agg.self_s for agg in chosen)


def _named(aggs: dict[str, Aggregate], suffix: str, field_name: str = "total_s"):
    return sum(
        getattr(agg, field_name) for name, agg in aggs.items() if name.endswith(suffix)
    )


def path_report(aggs: dict[str, Aggregate], spans: list[dict]) -> dict[str, float]:
    """Which execution path ran: share of kernel calls on the bitmask
    fast loop, and replicate blocks the columnar engine did not run."""
    kernel = [(name, agg) for name, agg in aggs.items() if agg.layer == "sched"]
    entries = sum(agg.entries for _, agg in kernel)
    fast = sum(agg.entries for name, agg in kernel if name.endswith(FAST_ENTRIES))
    blocks = [s for s in spans if s["name"] == "run_replicates"]
    engine_parents = set()
    for span in spans:
        if span["name"] == "ColumnarEngine.run" and span["error"] is None:
            engine_parents.add(span["parent"])
    fallbacks = sum(1 for block in blocks if block["id"] not in engine_parents)
    return {
        "crossbar.fast_share": fast / entries if entries else 0.0,
        "columnar.blocks": len(blocks),
        "columnar.fallbacks": fallbacks,
    }


def _sweep_overhead(spans: list[dict]) -> float:
    """Sweep wall time not spent computing points: each ``run_sweep``
    span minus its outermost ``run_simulation``/``run_replicates``
    descendants."""
    compute = ("run_simulation", "run_replicates")
    by_id = {span["id"]: span for span in spans}
    busy: dict[int, float] = {}
    for span in spans:
        if span["name"] not in compute:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] not in compute + ("run_sweep",):
            parent = by_id.get(parent["parent"])
        if parent is not None and parent["name"] == "run_sweep":
            busy[parent["id"]] = busy.get(parent["id"], 0.0) + span["end"] - span["start"]
    return sum(
        span["end"] - span["start"] - busy.get(span["id"], 0.0)
        for span in spans
        if span["name"] == "run_sweep"
    )


def layer_metrics(aggs: dict[str, Aggregate], spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run (zero where a layer did
    not run)."""
    out: dict[str, float] = {}
    for layer in ("traffic", "queues", "sched", "stats", "obs"):
        calls, self_s = _layer(aggs, layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
    out["queues.hol_blocked"] = _named(aggs, "VOQSet.has_space", "false_results")
    out["queues.pq_drops"] = _named(aggs, "PacketQueue.push", "false_results")
    sched_calls = out["sched.calls"]
    out["sched.us_per_call"] = out["sched.self_s"] / sched_calls * 1e6 if sched_calls else 0.0
    grants = sum(agg.grants for agg in aggs.values())
    ports = sum(agg.ports for agg in aggs.values())
    out["sched.match_ratio"] = grants / ports if ports else 0.0
    out["crossbar.self_s"] = _layer(aggs, "crossbar")[1]
    paths = path_report(aggs, spans)
    out["crossbar.fast_share"] = paths["crossbar.fast_share"]
    out["stats.percentile_s"] = _named(aggs, "latency_percentiles")
    out["simulator.runs"] = _named(aggs, "run_simulation", "calls")
    out["simulator.setup_s"] = _named(aggs, "build_switch") + _named(aggs, "make_traffic")
    out["columnar.blocks"] = paths["columnar.blocks"]
    out["columnar.fallbacks"] = paths["columnar.fallbacks"]
    out["columnar.engine_s"] = _named(aggs, "ColumnarEngine.run", "self_s")
    out["columnar.kernel_s"] = _named(aggs, ".schedule_batch")
    out["sweep.points"] = _named(aggs, "ResultCache.put", "calls")
    out["sweep.cache_put_s"] = _named(aggs, "ResultCache.put")
    out["sweep.merge_s"] = _named(aggs, "merge_results")
    out["sweep.overhead_s"] = _sweep_overhead(spans)
    return out
