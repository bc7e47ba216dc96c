"""Combined input/output queued (CIOQ) switch with fabric speedup.

A standard extension of the paper's architecture space: run the fabric
(and scheduler) ``s`` times per external slot, buffering at the outputs.
Speedup 1 is the paper's input-queued switch with an extra output FIFO;
as ``s`` grows the behaviour converges to pure output queueing, because
input-side contention is resolved ``s`` times faster than the links
drain. The classic result that speedup 2 suffices to emulate output
queueing motivates the default comparison in
``benchmarks/bench_speedup.py``.

This quantifies the gap Figure 12 shows between ``lcf_central`` and
``outbuf``: it is exactly the gap a modest fabric speedup closes.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Scheduler
from repro.obs.estimators import DelayHistogram
from repro.sim.config import SimConfig
from repro.sim.queues import OutputQueue, PacketQueue, VOQSet
from repro.traffic.base import NO_ARRIVAL
from repro.types import NO_GRANT


class CIOQSwitch:
    """Input-queued switch with fabric speedup and output buffers."""

    def __init__(self, config: SimConfig, scheduler: Scheduler, speedup: int = 2):
        if scheduler.n != config.n_ports:
            raise ValueError(
                f"scheduler is for n={scheduler.n}, config has {config.n_ports} ports"
            )
        if speedup < 1:
            raise ValueError(f"speedup must be >= 1, got {speedup}")
        self.config = config
        self.scheduler = scheduler
        self.speedup = speedup
        n = config.n_ports
        self.pqs = [PacketQueue(config.pq_capacity) for _ in range(n)]
        self.voqs = VOQSet(n, config.voq_capacity)
        self.out_queues = [OutputQueue(config.outbuf_capacity) for _ in range(n)]

        self.latency = DelayHistogram()
        self.offered = 0
        self.forwarded = 0
        self.measuring = False

    @property
    def n(self) -> int:
        return self.config.n_ports

    def total_queued(self) -> int:
        return (
            sum(len(pq) for pq in self.pqs)
            + self.voqs.total_queued()
            + sum(len(q) for q in self.out_queues)
        )

    @property
    def dropped(self) -> int:
        return sum(pq.dropped for pq in self.pqs) + sum(
            q.dropped for q in self.out_queues
        )

    def step(self, slot: int, arrivals: np.ndarray) -> None:
        n = self.n
        # 1. Generation into PQs (external link rate: one per slot).
        for i in range(n):
            dst = arrivals[i]
            if dst != NO_ARRIVAL:
                if self.measuring:
                    self.offered += 1
                self.pqs[i].push(int(dst), slot)

        # 2. Injection (external link rate).
        for i, pq in enumerate(self.pqs):
            head = pq.head()
            if head is not None and self.voqs.has_space(i, head[0]):
                dst, t_generated = pq.pop()
                self.voqs.push(i, dst, t_generated)

        # 3. Fabric phases: s scheduling + transfer rounds per slot,
        #    inputs and outputs each moving at s packets/slot internally.
        for _ in range(self.speedup):
            requests = self.voqs.request_matrix()
            if not requests.any():
                break
            schedule = self.scheduler.schedule(requests)
            for i in range(n):
                j = schedule[i]
                if j != NO_GRANT:
                    t_generated = self.voqs.pop(i, int(j))
                    self.out_queues[int(j)].push(t_generated)

        # 4. Output links transmit one packet per external slot.
        for queue in self.out_queues:
            t_generated = queue.pop()
            if t_generated is None:
                continue
            if self.measuring:
                self.forwarded += 1
                self.latency.add(slot - t_generated + 1)
