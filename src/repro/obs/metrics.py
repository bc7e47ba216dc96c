"""Lightweight in-process metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a named bag of instruments the simulator
and schedulers record into — matching size per slot, the choice-count
distribution, tie-break depth — without touching any ``SimResult``
field. Instruments are create-on-first-use, so recording code does not
need to know what was registered:

    >>> registry = MetricsRegistry()
    >>> registry.counter("grants").inc()
    >>> registry.histogram("matching_size", buckets=range(1, 5)).observe(3)
    >>> registry.counter("grants").value
    1

Everything is plain Python — no background threads, no export protocol.
``snapshot()`` flattens the registry to a JSON-serialisable dict for
reports and tests; the scrapeable OpenMetrics/JSON rendering lives in
:mod:`repro.obs.serve`.

Derived values that are too expensive to maintain per slot — the live
rate matrix, delay percentiles, the active-suspect count — are exported
through *collectors*: callbacks registered with :meth:`~MetricsRegistry.
add_collector` that refresh gauges on demand. :meth:`~MetricsRegistry.
collect` runs them, and every export path (``snapshot()``, the
OpenMetrics/JSON renderers, the scrape endpoint) calls it first, so a
scrape always sees current values while the hot loop pays nothing.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Iterator
from typing import Callable


class Counter:
    """Monotonically increasing integer count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """Last-write-wins scalar (e.g. current queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = math.nan

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with streaming count/sum/min/max.

    ``buckets`` are upper-inclusive bucket edges; a sample lands in the
    first bucket whose edge is >= the value, or in the overflow bucket
    beyond the last edge. Edges are fixed at construction — observation
    is O(log buckets) and merge-free, which is what keeps per-slot
    recording cheap.
    """

    __slots__ = ("edges", "counts", "overflow", "count", "total", "min", "max")

    def __init__(self, buckets: Iterable[float]):
        self.edges = tuple(sorted(buckets))
        if not self.edges:
            raise ValueError("histogram needs at least one bucket edge")
        self.counts = [0] * len(self.edges)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.observe_many(value, 1)

    def observe_many(self, value: float, times: int) -> None:
        """Record ``times`` observations of one ``value`` at once — the
        same state as ``times`` calls of :meth:`observe` (exactly, for
        integer values), at the cost of one."""
        if times <= 0:
            return
        self.count += times
        self.total += value * times
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect.bisect_left(self.edges, value)
        if index == len(self.edges):
            self.overflow += times
        else:
            self.counts[index] += times

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "buckets": {str(edge): n for edge, n in zip(self.edges, self.counts)},
            "overflow": self.overflow,
        }

    def render(self, width: int = 40) -> str:
        """One-line-per-bucket ASCII rendering (for CLI summaries)."""
        peak = max(max(self.counts, default=0), self.overflow, 1)
        lines = []
        for edge, n in zip(self.edges, self.counts):
            bar = "#" * round(n / peak * width)
            lines.append(f"  <= {edge:g}: {n:>8} {bar}")
        if self.overflow:
            bar = "#" * round(self.overflow / peak * width)
            lines.append(f"   > {self.edges[-1]:g}: {self.overflow:>8} {bar}")
        return "\n".join(lines)


class MetricsRegistry:
    """Create-on-first-use registry of named instruments.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name as a different kind (or a histogram with
    different buckets) is a programming error and raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: dict[str, Callable[[], None]] = {}

    def _get(self, name: str, kind: type, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str, buckets: Iterable[float]) -> Histogram:
        edges = tuple(sorted(buckets))
        histogram = self._get(name, Histogram, lambda: Histogram(edges))
        if histogram.edges != edges:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{histogram.edges}, asked for {edges}"
            )
        return histogram

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The instrument registered under ``name``, if any."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def kind(self, name: str) -> str | None:
        """``"counter"`` / ``"gauge"`` / ``"histogram"`` for a registered
        name, ``None`` for an unknown one."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return None
        return type(instrument).__name__.lower()

    def instruments(self) -> Iterator[tuple[str, Counter | Gauge | Histogram]]:
        """Iterate ``(name, instrument)`` pairs in sorted-name order."""
        for name in self.names():
            yield name, self._instruments[name]

    def add_collector(self, key: str, fn: Callable[[], None]) -> None:
        """Register an on-demand refresher for derived gauges.

        ``key`` deduplicates: registering the same key again replaces
        the callback (so a re-``attach`` cannot stack stale closures).
        Collectors run in registration order via :meth:`collect`.
        """
        self._collectors[key] = fn

    def collect(self) -> None:
        """Run every registered collector (refresh derived gauges)."""
        for fn in self._collectors.values():
            fn()

    def snapshot(self) -> dict:
        """JSON-serialisable dump of every instrument's current state.

        Runs :meth:`collect` first, so derived gauges are current.
        """
        self.collect()
        out: dict = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.snapshot()
            else:
                out[name] = instrument.value
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)
