"""Online crosspoint/port health inference from scheduling outcomes.

The estimator closes the observation half of the fault-reaction loop.
It never sees the :class:`~repro.faults.plan.FaultPlan`; everything it
knows is inferred from what a scheduler can actually observe in a real
switch:

* **grants that never forward** — the fabric gate silently drops a
  grant over a dead crosspoint, so a proposed grant that is missing
  from the applied schedule is one failure strike;
* **requests that never receive grants** — optionally (the starvation
  signal), a crosspoint that keeps requesting without ever being
  granted for ``starvation_window`` slots counts as a strike too;
* **fault/recovery ground truth when available** — the injector's
  usability mask is *never* used for decisions, only to score them
  (detection latency, readmission latency, false positives) through
  :mod:`repro.obs` metrics.

Evidence is accumulated per crosspoint and, when
``port_detection_window`` is non-zero, per port side: ``n`` consecutive
failures anywhere on one row (input) or column (output) suspect the
whole port long before every individual crosspoint could be learned.

Everything is deterministic and replay-safe: the estimator's state is a
pure function of the observation sequence, probes fire on a fixed
cadence anchored at the slot an entry became suspect, and no wall-clock
or RNG is consulted — an adaptive simulation stays a pure function of
``(config, scheduler, load, plan, adapt, seed)`` exactly like a faulted
one, which is what keeps the sweep cache and golden traces valid.

Lifecycle per slot (driven by :class:`~repro.adapt.adapter.AdaptiveLCF`):

1. :meth:`usable` — the adaptive request mask: everything not suspect,
   plus the probe grants due this slot (each emitting a ``probe``
   event);
2. the scheduler runs over the filtered requests;
3. :meth:`observe` — proposed-versus-applied outcomes update the
   evidence, emitting ``suspect`` / ``readmit`` events on transitions.
"""

from __future__ import annotations

import numpy as np

from repro.adapt.config import AdaptConfig
from repro.adapt.policy import BackupPortPolicy
from repro.obs import events as ev
from repro.obs.metrics import MetricsRegistry
from repro.types import NO_GRANT

__all__ = ["HealthEstimator"]

#: Bucket edges of the detection/readmission latency histograms, slots.
_LATENCY_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class HealthEstimator:
    """Per-crosspoint and per-port health state machine.

    ``n`` is the switch port count. ``tracer``/``metrics`` (both
    optional) receive ``suspect``/``probe``/``readmit`` events and the
    ``detection_latency``/``readmit_latency``/``adapt_false_positives``
    instruments; with neither attached the estimator is silent but
    decides identically.
    """

    #: Metric handles a registry brings (``None`` without one); a
    #: checkpoint restore keeps the rebuilt estimator's.
    _restore_keeps = ("_m_suspects", "_m_probes", "_m_readmits")

    def __init__(
        self,
        n: int,
        config: AdaptConfig | None = None,
        policy: BackupPortPolicy | None = None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
    ):
        if n < 1:
            raise ValueError(f"switch must have at least 1 port, got n={n}")
        self.n = n
        self.config = config if config is not None else AdaptConfig()
        self.policy = policy if policy is not None else BackupPortPolicy()
        self.tracer = tracer
        self.metrics = metrics
        self._bind_metrics()
        self.reset()

    def _bind_metrics(self) -> None:
        metrics = self.metrics
        if metrics is None:
            self._m_suspects = self._m_probes = self._m_readmits = None
            return
        self._m_suspects = metrics.counter("suspects")
        self._m_probes = metrics.counter("probes")
        self._m_readmits = metrics.counter("readmits")
        self._m_false = metrics.counter("adapt_false_positives")
        self._m_detect = metrics.histogram("detection_latency", _LATENCY_BUCKETS)
        self._m_readmit_lat = metrics.histogram("readmit_latency", _LATENCY_BUCKETS)

        # Live suspect count as a collector-refreshed gauge: only export
        # paths (snapshots, scrapes) pay for the mask reduction, and the
        # keyed registration means a re-attach replaces rather than
        # stacks the closure.
        def _collect() -> None:
            metrics.gauge("active_suspects").set(int(self.blocked.sum()))

        metrics.add_collector(f"adapt-suspects-{id(self)}", _collect)

    def attach(self, tracer, metrics: MetricsRegistry | None) -> None:
        """Late-bind instrumentation (the switch resolves its tracer
        after the estimator may already exist)."""
        self.tracer = tracer
        if metrics is not None:
            self.metrics = metrics
        self._bind_metrics()

    def reset(self) -> None:
        """Restore the power-on state: everything healthy."""
        n = self.n
        self._fail = np.zeros((n, n), dtype=np.int64)
        self._ok = np.zeros((n, n), dtype=np.int64)
        self._suspect = np.zeros((n, n), dtype=bool)
        self._since = np.full((n, n), -1, dtype=np.int64)
        self._health = np.ones((n, n), dtype=np.float64)
        #: Per-port evidence, one row per side ("input" row 0, "output" row 1).
        self._port_fail = np.zeros((2, n), dtype=np.int64)
        self._port_ok = np.zeros((2, n), dtype=np.int64)
        self._port_suspect = np.zeros((2, n), dtype=bool)
        self._port_since = np.full((2, n), -1, dtype=np.int64)
        self._port_health = np.ones((2, n), dtype=np.float64)
        #: Starvation clocks: slot an entry started continuously
        #: requesting without any grant; -1 = not pending.
        self._pending_since = np.full((n, n), -1, dtype=np.int64)
        #: Crosspoints admitted as probes this slot (valid until the
        #: next :meth:`usable` call).
        self._probe_set: set[tuple[int, int]] = set()
        #: Ground truth (metrics only): slot an entry went down / came
        #: back up according to the injector mask.
        self._truth_down_since = np.full((n, n), -1, dtype=np.int64)
        self._truth_up_since = np.zeros((n, n), dtype=np.int64)
        self._have_truth = False
        #: Transition totals (kept as plain ints so the CLI can report
        #: without a MetricsRegistry attached).
        self.suspect_events = 0
        self.probe_events = 0
        self.readmit_events = 0
        self.false_positives = 0

    # -- decision surface ----------------------------------------------------

    @property
    def blocked(self) -> np.ndarray:
        """``(n, n)`` bool mask of crosspoints currently steered around
        (crosspoint suspects plus suspect-port rows/columns)."""
        return (
            self._suspect
            | self._port_suspect[0][:, np.newaxis]
            | self._port_suspect[1][np.newaxis, :]
        )

    def health_score(self) -> np.ndarray:
        """Per-crosspoint health in ``[0, 1]`` for ranking backups:
        the EWMA score in ``ewma`` mode, ``1 / (1 + fail_streak)`` in
        ``count`` mode."""
        if self.config.mode == "ewma":
            return self._health
        return 1.0 / (1.0 + self._fail)

    def _due(self, slot: int, since: int) -> bool:
        """Probe cadence: every ``probe_interval`` slots after ``since``."""
        return slot > since and (slot - since) % self.config.probe_interval == 0

    def usable(self, slot: int, matrix: np.ndarray) -> np.ndarray:
        """The adaptive request mask for one slot.

        Returns ``matrix`` with suspect crosspoints removed and due
        probes re-admitted; also advances the starvation clocks. The
        input matrix is not mutated. When nothing is suspect and the
        starvation signal is off, ``matrix`` itself is returned — the
        zero-fault path adds no work and no copies, which is what makes
        a null-plan adaptive run bit-identical to a plain one.
        """
        self._probe_set = set()
        blocked = self.blocked
        starving = self.config.starvation_window > 0
        if not blocked.any() and not starving:
            return matrix
        if starving:
            self._advance_starvation(slot, matrix, blocked)
            blocked = self.blocked  # starvation may have raised suspects
            if not blocked.any():
                return matrix
        usable = matrix & ~blocked

        # Crosspoint probes: each suspect entry re-offers itself on its
        # own cadence, so recovered links are re-learned without waiting
        # for an operator.
        for i, j in zip(*np.nonzero(self._suspect & matrix)):
            if self._due(slot, int(self._since[i, j])):
                self._admit_probe(slot, int(i), int(j), "link", usable)
        # Port probes: one representative crosspoint per due port, picked
        # by the backup policy so the healthiest candidate goes first.
        for side in (0, 1):
            for port in np.flatnonzero(self._port_suspect[side]):
                if not self._due(slot, int(self._port_since[side, port])):
                    continue
                lane = matrix[port, :] if side == 0 else matrix[:, port]
                already = usable[port, :] if side == 0 else usable[:, port]
                candidates = lane & ~already
                if not candidates.any():
                    continue
                pick = self.policy.choose(
                    slot, int(port), candidates, self._lane_health(side, port)
                )
                pair = (int(port), pick) if side == 0 else (pick, int(port))
                self._admit_probe(
                    slot, pair[0], pair[1], "input" if side == 0 else "output", usable
                )

        # A fully-blocked input is not a deadlock: its suspects keep
        # getting probed on cadence, so evidence (and, after a real
        # recovery, service) returns within one probe interval. Grants
        # outside the probe cadence would just repeat the oblivious
        # waste the estimator exists to stop.
        return usable

    def _lane_health(self, side: int, port: int) -> np.ndarray:
        health = self.health_score()
        return health[port, :] if side == 0 else health[:, port]

    def _admit_probe(
        self, slot: int, i: int, j: int, scope: str, usable: np.ndarray
    ) -> None:
        if (i, j) in self._probe_set:
            return
        usable[i, j] = True
        self._probe_set.add((i, j))
        self.probe_events += 1
        if self._m_probes is not None:
            self._m_probes.inc()
        if self.tracer is not None:
            self.tracer.emit(ev.probe(slot, i, j, scope))

    def was_probe(self, i: int, j: int) -> bool:
        """Whether ``(i, j)`` was admitted as a probe this slot."""
        return (i, j) in self._probe_set

    def _advance_starvation(
        self, slot: int, matrix: np.ndarray, blocked: np.ndarray
    ) -> None:
        window = self.config.starvation_window
        pending = matrix & ~blocked
        self._pending_since[~pending] = -1
        fresh = pending & (self._pending_since < 0)
        self._pending_since[fresh] = slot
        ripe = pending & (self._pending_since >= 0) & (
            slot - self._pending_since >= window
        )
        for i, j in zip(*np.nonzero(ripe)):
            self._pending_since[i, j] = slot  # re-arm for the next window
            self._strike(slot, int(i), int(j))

    # -- evidence ------------------------------------------------------------

    def note_truth(self, slot: int, mask: np.ndarray) -> None:
        """Record the injector's ground-truth usability mask — *metrics
        only*; decisions never read it."""
        self._have_truth = True
        going_down = (mask == False) & (self._truth_down_since < 0)  # noqa: E712
        self._truth_down_since[going_down] = slot
        coming_up = mask & (self._truth_down_since >= 0)
        self._truth_up_since[coming_up] = slot
        self._truth_down_since[mask] = -1

    def observe(self, slot: int, proposed: np.ndarray, applied: np.ndarray) -> None:
        """Digest one slot's outcomes: every proposed grant either
        survived the fabric gate (success) or vanished (failure)."""
        for i in range(self.n):
            j = int(proposed[i])
            if j == NO_GRANT:
                continue
            self._pending_since[i, j] = -1
            if int(applied[i]) == j:
                self._success(slot, i, j)
            else:
                self._strike(slot, i, j)

    def _update_health(self, cell: tuple, failed: bool) -> None:
        alpha = self.config.ewma_alpha
        target = self._health if len(cell) == 2 else self._port_health
        target[cell] = (1.0 - alpha) * target[cell] + (0.0 if failed else alpha)

    def _strike(self, slot: int, i: int, j: int) -> None:
        cfg = self.config
        self._fail[i, j] += 1
        self._ok[i, j] = 0
        self._update_health((i, j), failed=True)
        if not self._suspect[i, j]:
            tripped = (
                self._fail[i, j] >= cfg.detection_window
                if cfg.mode == "count"
                else self._health[i, j] < cfg.suspect_threshold
            )
            if tripped:
                self._mark_suspect(slot, i, j)
        if cfg.port_detection_window:
            for side, port in ((0, i), (1, j)):
                self._port_fail[side, port] += 1
                self._port_ok[side, port] = 0
                self._update_health((side, port), failed=True)
                if self._port_suspect[side, port]:
                    continue
                tripped = (
                    self._port_fail[side, port] >= cfg.port_detection_window
                    if cfg.mode == "count"
                    else self._port_health[side, port] < cfg.suspect_threshold
                )
                if tripped:
                    self._mark_port_suspect(slot, side, port)

    def _success(self, slot: int, i: int, j: int) -> None:
        cfg = self.config
        self._fail[i, j] = 0
        self._update_health((i, j), failed=False)
        if self._suspect[i, j]:
            self._ok[i, j] += 1
            cleared = (
                self._ok[i, j] >= cfg.probation_window
                if cfg.mode == "count"
                else self._health[i, j] >= cfg.readmit_threshold
            )
            if cleared:
                self._readmit(slot, i, j, "link")
        if cfg.port_detection_window:
            for side, port in ((0, i), (1, j)):
                self._port_fail[side, port] = 0
                self._update_health((side, port), failed=False)
                if not self._port_suspect[side, port]:
                    continue
                self._port_ok[side, port] += 1
                cleared = (
                    self._port_ok[side, port] >= cfg.probation_window
                    if cfg.mode == "count"
                    else self._port_health[side, port] >= cfg.readmit_threshold
                )
                if cleared:
                    self._readmit_port(slot, side, port)

    # -- transitions ---------------------------------------------------------

    def _mark_suspect(self, slot: int, i: int, j: int) -> None:
        self._suspect[i, j] = True
        self._since[i, j] = slot
        self._ok[i, j] = 0
        self.suspect_events += 1
        if self._m_suspects is not None:
            self._m_suspects.inc()
        self._score_detection(slot, self._truth_down_since[i, j] >= 0,
                              int(self._truth_down_since[i, j]))
        if self.tracer is not None:
            self.tracer.emit(ev.suspect(slot, i, j, "link", int(self._fail[i, j])))

    def _mark_port_suspect(self, slot: int, side: int, port: int) -> None:
        self._port_suspect[side, port] = True
        self._port_since[side, port] = slot
        self._port_ok[side, port] = 0
        self.suspect_events += 1
        if self._m_suspects is not None:
            self._m_suspects.inc()
        lane_down = (
            self._truth_down_since[port, :] if side == 0
            else self._truth_down_since[:, port]
        )
        down = lane_down[lane_down >= 0]
        self._score_detection(slot, down.size > 0, int(down.min()) if down.size else 0)
        if self.tracer is not None:
            scope = "input" if side == 0 else "output"
            pair = (port, -1) if side == 0 else (-1, port)
            fails = int(self._port_fail[side, port])
            self.tracer.emit(ev.suspect(slot, pair[0], pair[1], scope, fails))

    def _score_detection(self, slot: int, truly_down: bool, down_since: int) -> None:
        if not self._have_truth or self._m_suspects is None:
            return
        if truly_down:
            self._m_detect.observe(slot - down_since)
        else:
            self.false_positives += 1
            self._m_false.inc()

    def _readmit(self, slot: int, i: int, j: int, scope: str,
                 emit_latency: bool = True) -> None:
        after = int(slot - self._since[i, j])
        self._suspect[i, j] = False
        self._since[i, j] = -1
        self._ok[i, j] = 0
        self._fail[i, j] = 0
        self.readmit_events += 1
        if self._m_readmits is not None:
            self._m_readmits.inc()
            if (
                emit_latency
                and self._have_truth
                and self._truth_down_since[i, j] < 0
            ):
                self._m_readmit_lat.observe(slot - int(self._truth_up_since[i, j]))
        if self.tracer is not None:
            self.tracer.emit(ev.readmit(slot, i, j, scope, after))

    def _readmit_port(self, slot: int, side: int, port: int) -> None:
        since = int(self._port_since[side, port])
        after = slot - since
        self._port_suspect[side, port] = False
        self._port_since[side, port] = -1
        self._port_ok[side, port] = 0
        self._port_fail[side, port] = 0
        self.readmit_events += 1
        if self._m_readmits is not None:
            self._m_readmits.inc()
        scope = "input" if side == 0 else "output"
        if self.tracer is not None:
            pair = (port, -1) if side == 0 else (-1, port)
            self.tracer.emit(ev.readmit(slot, pair[0], pair[1], scope, after))
        # The port was the fault, not its links: optimistically clear the
        # crosspoint suspects raised during the outage so the lane does
        # not re-learn them one probe interval at a time. A genuine link
        # outage re-detects within one detection window.
        lane = self._suspect[port, :] if side == 0 else self._suspect[:, port]
        lane_since = self._since[port, :] if side == 0 else self._since[:, port]
        for other in np.flatnonzero(lane & (lane_since >= since)):
            pair = (port, int(other)) if side == 0 else (int(other), port)
            self._readmit(slot, pair[0], pair[1], "link", emit_latency=False)

    def summary(self) -> str:
        """One-line state summary for CLI reports."""
        return (
            f"health: {int(self._suspect.sum())} suspect crosspoint(s), "
            f"{int(self._port_suspect.sum())} suspect port side(s); "
            f"{self.suspect_events} suspect / {self.probe_events} probe / "
            f"{self.readmit_events} readmit event(s), "
            f"{self.false_positives} false positive(s)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HealthEstimator(n={self.n}, {self.config.describe()})"
