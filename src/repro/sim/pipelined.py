"""Pipelined-scheduler switch model (paper Section 1, Section 4.1).

"Timing requirements can be relaxed with the help of pipelining
techniques. By pipelining the scheduler and overlapping scheduling and
packet forwarding, packet throughput is optimized. Note that these
techniques do not reduce latency and that the scheduling latency adds
to the overall switch forwarding latency."

This model makes that claim measurable: the scheduler sees the VOQ
state of slot ``t`` but its matching is applied in slot
``t + pipeline_depth``. The Clint bulk channel is exactly this switch
with depth 1 (configuration/grant in slot ``c``, transfer in ``c+1``).

The interesting subtlety is *stale grants*: a matching computed on
slot-``t`` state is applied to slot-``t+d`` queues. Packets granted at
``t`` are reserved (removed from the schedulable pool) so they are not
granted twice while in flight through the pipeline — mirroring how real
pipelined arbiters mask in-flight VOQs from the request vector.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.base import Scheduler
from repro.obs.estimators import DelayHistogram
from repro.sim.config import SimConfig
from repro.sim.queues import PacketQueue, VOQSet
from repro.traffic.base import NO_ARRIVAL
from repro.types import NO_GRANT


class PipelinedSwitch:
    """VOQ crossbar whose schedule lags the request snapshot by
    ``pipeline_depth`` slots (depth 0 = the plain crossbar timing)."""

    def __init__(self, config: SimConfig, scheduler: Scheduler, pipeline_depth: int = 1):
        if scheduler.n != config.n_ports:
            raise ValueError(
                f"scheduler is for n={scheduler.n}, config has {config.n_ports} ports"
            )
        if pipeline_depth < 0:
            raise ValueError(f"pipeline depth must be >= 0, got {pipeline_depth}")
        self.config = config
        self.scheduler = scheduler
        self.pipeline_depth = pipeline_depth
        n = config.n_ports
        self.pqs = [PacketQueue(config.pq_capacity) for _ in range(n)]
        self.voqs = VOQSet(n, config.voq_capacity)
        #: Packets already granted by an in-flight schedule, per VOQ —
        #: excluded from subsequent request snapshots.
        self._reserved = np.zeros((n, n), dtype=np.int64)
        #: Schedules in flight; the left end applies this slot.
        self._in_flight: deque[np.ndarray] = deque(
            [np.full(n, NO_GRANT, dtype=np.int64) for _ in range(pipeline_depth)]
        )

        self.latency = DelayHistogram()
        self.offered = 0
        self.forwarded = 0
        self.measuring = False

    @property
    def n(self) -> int:
        return self.config.n_ports

    def total_queued(self) -> int:
        return sum(len(pq) for pq in self.pqs) + self.voqs.total_queued()

    @property
    def dropped(self) -> int:
        return sum(pq.dropped for pq in self.pqs)

    def step(self, slot: int, arrivals: np.ndarray) -> np.ndarray:
        n = self.n
        # 1. Generation into PQs.
        for i in range(n):
            dst = arrivals[i]
            if dst != NO_ARRIVAL:
                if self.measuring:
                    self.offered += 1
                self.pqs[i].push(int(dst), slot)

        # 2. Injection (one per input link per slot).
        for i, pq in enumerate(self.pqs):
            head = pq.head()
            if head is not None and self.voqs.has_space(i, head[0]):
                dst, t_generated = pq.pop()
                self.voqs.push(i, dst, t_generated)

        # 3. Launch a new schedule into the pipeline, computed on the
        #    *schedulable* occupancy (queued minus already reserved).
        schedulable = (self.voqs.occupancy - self._reserved) > 0
        new_schedule = self.scheduler.schedule(schedulable)
        for i in range(n):
            j = new_schedule[i]
            if j != NO_GRANT:
                self._reserved[i, j] += 1
        self._in_flight.append(new_schedule)

        # 4. Apply the schedule that has cleared the pipeline.
        applied = self._in_flight.popleft()
        for i in range(n):
            j = applied[i]
            if j == NO_GRANT:
                continue
            t_generated = self.voqs.pop(i, int(j))
            self._reserved[i, j] -= 1
            if self.measuring:
                self.forwarded += 1
                self.latency.add(slot - t_generated + 1)
        return applied
