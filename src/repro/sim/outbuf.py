"""Output-buffered reference switch — the paper's ``outbuf`` curve.

The performance upper bound of Figure 12: "packets are only delayed due
to contention for output link bandwidth, and not due to contention for
both internal bandwidth as well as output link bandwidth." The fabric
writes up to ``n`` packets into one output buffer per slot (memory write
bandwidth ``n*b``, which is exactly why this architecture does not scale
— Section 2); each output then transmits one packet per slot. Buffers
hold 256 entries (Section 6.3); overflow drops are counted.
"""

from __future__ import annotations

import numpy as np

from repro.obs.estimators import DelayHistogram
from repro.sim.config import SimConfig
from repro.sim.queues import OutputQueue
from repro.traffic.base import NO_ARRIVAL


class OutputBufferedSwitch:
    """Ideal output-queued switch with finite output buffers."""

    def __init__(self, config: SimConfig):
        self.config = config
        n = config.n_ports
        self.queues = [OutputQueue(config.outbuf_capacity) for _ in range(n)]

        self.latency = DelayHistogram()
        self.offered = 0
        self.forwarded = 0
        self.measuring = False

    @property
    def n(self) -> int:
        return self.config.n_ports

    def total_queued(self) -> int:
        return sum(len(q) for q in self.queues)

    @property
    def dropped(self) -> int:
        return sum(q.dropped for q in self.queues)

    def step(self, slot: int, arrivals: np.ndarray) -> np.ndarray:
        # 1. Fabric delivery: every arrival lands in its output buffer
        #    immediately (no input-side contention).
        for i in range(self.n):
            dst = arrivals[i]
            if dst != NO_ARRIVAL:
                if self.measuring:
                    self.offered += 1
                self.queues[int(dst)].push(slot)

        # 2. Transmission: each output link serves one packet per slot.
        served = np.full(self.n, -1, dtype=np.int64)
        for j, queue in enumerate(self.queues):
            t_generated = queue.pop()
            if t_generated is None:
                continue
            served[j] = t_generated
            if self.measuring:
                self.forwarded += 1
                self.latency.add(slot - t_generated + 1)
        return served
