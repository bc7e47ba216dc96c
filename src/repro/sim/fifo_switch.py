"""Single-FIFO input-queued switch — the paper's ``fifo`` configuration.

"This scheduler uses a single FIFO queue per input port (replacing
multiple VOQs)." The input buffer keeps the VOQ capacity (256) but loses
the per-output sorting, so a blocked head-of-line packet stalls
everything behind it — the Karol/Hluchyj/Morgan pathology the VOQ
architecture exists to avoid. The upstream PQ (1000 entries) is
unchanged from Figure 11.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.baselines.fifo import FIFOScheduler
from repro.obs.estimators import DelayHistogram
from repro.sim.config import SimConfig
from repro.sim.queues import PacketQueue
from repro.traffic.base import NO_ARRIVAL
from repro.types import NO_GRANT


class FIFOSwitch:
    """Input-queued switch with one FIFO per input and RR arbitration."""

    def __init__(self, config: SimConfig):
        self.config = config
        n = config.n_ports
        self.scheduler = FIFOScheduler(n)
        self.pqs = [PacketQueue(config.pq_capacity) for _ in range(n)]
        self.fifos: list[deque[tuple[int, int]]] = [deque() for _ in range(n)]
        self.fifo_capacity = config.voq_capacity

        self.latency = DelayHistogram()
        self.offered = 0
        self.forwarded = 0
        self.measuring = False

    @property
    def n(self) -> int:
        return self.config.n_ports

    def total_queued(self) -> int:
        return sum(len(pq) for pq in self.pqs) + sum(len(f) for f in self.fifos)

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

        # 2. Injection: one packet per slot from PQ into the input FIFO.
        for i, pq in enumerate(self.pqs):
            if pq.head() is not None and len(self.fifos[i]) < self.fifo_capacity:
                self.fifos[i].append(pq.pop())

        # 3. Head-of-line arbitration.
        hol = np.full(n, NO_GRANT, dtype=np.int64)
        for i, fifo in enumerate(self.fifos):
            if fifo:
                hol[i] = fifo[0][0]
        schedule = self.scheduler.schedule_hol(hol)

        # 4. Forwarding.
        for i in range(n):
            if schedule[i] == NO_GRANT:
                continue
            _, t_generated = self.fifos[i].popleft()
            if self.measuring:
                self.forwarded += 1
                self.latency.add(slot - t_generated + 1)
        return schedule
