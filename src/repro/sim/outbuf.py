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
        """Advance one time slot; returns, per output, the generation
        slot of the packet it transmitted (-1 where it sent nothing)."""
        return np.array(self.run_slots(slot, (arrivals,)), dtype=np.int64)

    def run_slots(self, first_slot: int, arrivals_block) -> list[int]:
        """Advance one consecutive block of slots; returns the last
        slot's per-output list as :meth:`step` does.

        Per slot: fabric delivery — every arrival lands in its output
        buffer at once (no input-side contention; a full buffer drops
        it) — then transmission of one packet per output link. The loop
        works on the output queues' deques directly.

        ``measuring`` must not change mid-block —
        :func:`repro.sim.simulator._drive` splits its blocks at the
        warmup boundary.
        """
        n = self.n
        measuring = self.measuring
        queues = self.queues
        out_queues = [queue._queue for queue in queues]
        capacity = self.config.outbuf_capacity
        latency_add = self.latency.add
        arrived = forwarded = 0
        served: list[int] = []

        slot = first_slot
        for arrivals in arrivals_block:
            # 1. Fabric delivery into the output buffers.
            for dst in arrivals.tolist():
                if dst != NO_ARRIVAL:
                    arrived += 1
                    queue = out_queues[dst]
                    if len(queue) < capacity:
                        queue.append(slot)
                    else:
                        queues[dst].dropped += 1

            # 2. Transmission: each output link serves one packet.
            served = [-1] * n
            for j, queue in enumerate(out_queues):
                if queue:
                    t_generated = served[j] = queue.popleft()
                    forwarded += 1
                    if measuring:
                        latency_add(slot - t_generated + 1)
            slot += 1

        if measuring:
            self.offered += arrived
            self.forwarded += forwarded
        return served
