"""Generic component-state capture and restore.

The simulation's mutable state lives in plain attribute dicts:
scheduler pointers, VOQ deques, PCG64 generators, delay-histogram
counts, health-estimator arrays. :func:`snapshot_state`
walks ``vars(obj)`` (extended to ``__slots__``-backed classes) and
encodes every value into tagged, deterministic
JSON; :func:`restore_state` decodes it back *onto a freshly constructed
twin* of the object — mutating nested objects in place, so references
held elsewhere (the switch's scheduler, an adapter's estimator) stay
valid.

Encoding rules (the ``__repro__`` tag says how to decode):

==============  =====================================================
value           encoding
==============  =====================================================
scalar          as-is (numpy scalars coerced to Python)
``ndarray``     ``{"__repro__": "ndarray", dtype, shape, data}``
``Generator``   ``{"__repro__": "rng", state}`` (``bit_generator.state``)
``deque``       ``{"__repro__": "deque", items}``
``tuple``       ``{"__repro__": "tuple", items}``
``set``         ``{"__repro__": "set", items}`` (sorted, deterministic)
``dict``        ``{"__repro__": "dict", items}`` (sorted key/value pairs)
``Enum``        ``{"__repro__": "enum", value}``
object          ``{"__repro__": "object", cls, state}`` (recursive)
skipped         ``{"__repro__": "skip"}``
==============  =====================================================

*Skipped* values are wiring, not state: tracers, metrics registries and
their instruments, fault injectors (pure functions of plan + seed,
rebuilt on resume), frozen config dataclasses, and callables. A skip
tag decodes to whatever the fresh twin already holds, so resume-side
wiring (a new tracer, a rebuilt injector) survives restoration.

Attribute names in :data:`SKIP_ATTRS` are never captured: they either
point at wiring (``tracer``/``metrics``/``injector``, the
``decision_tally`` a metered switch attaches to its LCF scheduler) or
at per-slot transients regenerated before anyone reads them
(``last_trace``).

A class lists in ``_restore_keeps`` the attributes its twin derives
from its own wiring (the crossbar's fast-loop and observing flags, a
kernel's ``record_trace``, the live estimators and metric handles a
registry brings) or that older files still carry but the class no
longer has. Files keep capturing them; a restore keeps the twin's
value, so a resume's instrumentation is the resumer's, not the
writer's. Only an object's captured state is restored, into the object
the twin holds (a live estimator the writing run had).

Determinism: attribute names, dict items, and set members are sorted,
so the same state always encodes to the same JSON — the property the
golden-format pin and checkpoint diffing rely on.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from collections import deque

import numpy as np

from repro.checkpoint.format import CheckpointError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = [
    "SKIP_ATTRS",
    "snapshot_state",
    "restore_state",
    "snapshot_metrics",
    "restore_metrics",
]

TAG = "__repro__"

#: Attribute names excluded from capture everywhere: instrumentation
#: wiring, rebuilt-on-resume components, and per-slot transients.
SKIP_ATTRS = frozenset(
    {
        "tracer", "metrics", "injector", "config", "policy", "last_trace",
        "decision_tally",
    }
)

_SKIP = {TAG: "skip"}


def _is_wiring(value: object) -> bool:
    """True for values that are wiring, not serialisable run state."""
    if isinstance(value, (Tracer, MetricsRegistry, Counter, Gauge, Histogram)):
        return True
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Frozen dataclasses are configuration (SimConfig, AdaptConfig,
        # FaultPlan...): immutable, rebuilt from the run spec.
        if type(value).__dataclass_params__.frozen:
            return True
    # Fault injectors are pure functions of (plan, n, seed); import
    # lazily to keep this module's dependency footprint small.
    from repro.faults.injector import FaultInjector

    return isinstance(value, FaultInjector)


def encode_value(value: object):
    """Encode one value into tagged, JSON-serialisable form."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return {
            TAG: "ndarray",
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "data": value.tolist(),
        }
    if isinstance(value, np.random.Generator):
        return {TAG: "rng", "state": value.bit_generator.state}
    if isinstance(value, deque):
        return {TAG: "deque", "items": [encode_value(item) for item in value]}
    if isinstance(value, tuple):
        return {TAG: "tuple", "items": [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        items = [encode_value(item) for item in value]
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {TAG: "set", "items": items}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        items = [[encode_value(k), encode_value(v)] for k, v in value.items()]
        items.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {TAG: "dict", "items": items}
    if isinstance(value, enum.Enum):
        return {TAG: "enum", "value": encode_value(value.value)}
    if _is_wiring(value) or callable(value):
        return dict(_SKIP)
    if hasattr(value, "__dict__") or _slot_names(type(value)):
        return {
            TAG: "object",
            "cls": type(value).__name__,
            "state": snapshot_state(value),
        }
    raise CheckpointError(
        f"cannot serialise a {type(value).__name__} into a checkpoint"
    )


def _slot_names(cls: type) -> tuple[str, ...]:
    """All ``__slots__`` names across the MRO (empty for dict-backed)."""
    names: list[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(slots)
    return tuple(names)


def _attr_items(obj: object) -> list[tuple[str, object]]:
    """``vars(obj)`` extended to ``__slots__``-backed objects."""
    items = dict(vars(obj)) if hasattr(obj, "__dict__") else {}
    for name in _slot_names(type(obj)):
        if name not in items and hasattr(obj, name):
            items[name] = getattr(obj, name)
    return sorted(items.items())


def decode_value(encoded, template=None):
    """Decode one encoded value, using ``template`` (the fresh twin's
    current attribute value) where the encoding is not self-contained:
    skip tags keep the template, object tags mutate it in place, rng
    tags restore the template generator's stream position, and enum
    tags rebuild through the template's enum class."""
    if isinstance(encoded, dict) and TAG in encoded:
        kind = encoded[TAG]
        if kind == "skip":
            return template
        if kind == "ndarray":
            array = np.asarray(encoded["data"], dtype=np.dtype(encoded["dtype"]))
            return array.reshape(encoded["shape"])
        if kind == "rng":
            generator = (
                template
                if isinstance(template, np.random.Generator)
                else np.random.default_rng()
            )
            generator.bit_generator.state = encoded["state"]
            return generator
        if kind == "deque":
            maxlen = template.maxlen if isinstance(template, deque) else None
            return deque(
                (decode_value(item) for item in encoded["items"]), maxlen=maxlen
            )
        if kind == "tuple":
            return tuple(decode_value(item) for item in encoded["items"])
        if kind == "set":
            return {decode_value(item) for item in encoded["items"]}
        if kind == "dict":
            out = {}
            for pair in encoded["items"]:
                key = decode_value(pair[0])
                inner = template.get(key) if isinstance(template, dict) else None
                out[key] = decode_value(pair[1], inner)
            return out
        if kind == "enum":
            value = decode_value(encoded["value"])
            if isinstance(template, enum.Enum):
                return type(template)(value)
            return value
        if kind == "object":
            if template is None:
                raise CheckpointError(
                    f"checkpoint holds a {encoded.get('cls')} but the "
                    "rebuilt run has nothing to restore it into"
                )
            restore_state(template, encoded["state"])
            return template
        raise CheckpointError(f"unknown checkpoint encoding tag {kind!r}")
    if isinstance(encoded, list):
        if isinstance(template, list) and len(template) == len(encoded):
            return [
                decode_value(item, inner)
                for item, inner in zip(encoded, template)
            ]
        return [decode_value(item) for item in encoded]
    return encoded


def snapshot_state(obj: object) -> dict:
    """Encode every captured attribute of ``obj`` (sorted by name)."""
    return {
        name: encode_value(value)
        for name, value in _attr_items(obj)
        if name not in SKIP_ATTRS
    }


def restore_state(obj: object, snapshot: dict) -> None:
    """Restore a :func:`snapshot_state` capture onto a fresh twin.

    ``obj`` must be structurally identical to the captured object —
    built by the same deterministic construction path. Nested objects
    are mutated in place so existing references stay valid. The
    attributes ``type(obj)._restore_keeps`` names keep the twin's value
    unless the file holds an object's state and the twin an object to
    restore it into (see the module docstring).
    """
    keeps = getattr(type(obj), "_restore_keeps", ())
    for name, encoded in snapshot.items():
        if name in SKIP_ATTRS:
            continue
        template = getattr(obj, name, None)
        if name in keeps and (template is None or not _is_object(encoded)):
            continue
        setattr(obj, name, decode_value(encoded, template))


def _is_object(encoded) -> bool:
    return isinstance(encoded, dict) and encoded.get(TAG) == "object"


def snapshot_metrics(registry: MetricsRegistry) -> dict:
    """Encode every instrument of a registry by name."""
    out: dict = {}
    for name, instrument in registry.instruments():
        if isinstance(instrument, Counter):
            out[name] = {"kind": "counter", "value": instrument.value}
        elif isinstance(instrument, Gauge):
            out[name] = {"kind": "gauge", "value": instrument.value}
        elif isinstance(instrument, Histogram):
            out[name] = {
                "kind": "histogram",
                "edges": list(instrument.edges),
                "counts": list(instrument.counts),
                "overflow": instrument.overflow,
                "count": instrument.count,
                "total": instrument.total,
                "min": instrument.min,
                "max": instrument.max,
            }
    return out


def restore_metrics(registry: MetricsRegistry, snapshot: dict) -> None:
    """Restore instrument values into a registry, creating any missing.

    Existing instruments are mutated in place — components hold direct
    references to them (the switch's ``_m_*`` handles, the estimator's
    counters), so replacing the objects would silently disconnect the
    hot path from the export path.
    """
    for name, entry in snapshot.items():
        kind = entry["kind"]
        if kind == "counter":
            registry.counter(name).value = int(entry["value"])
        elif kind == "gauge":
            registry.gauge(name).value = entry["value"]
        elif kind == "histogram":
            histogram = registry.histogram(name, entry["edges"])
            histogram.counts = [int(count) for count in entry["counts"]]
            histogram.overflow = int(entry["overflow"])
            histogram.count = int(entry["count"])
            histogram.total = float(entry["total"])
            histogram.min = entry["min"]
            histogram.max = entry["max"]
        else:
            raise CheckpointError(f"unknown instrument kind {kind!r}")
