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
        """Advance one time slot; returns the schedule that was applied."""
        return np.array(self.run_slots(slot, (arrivals,)), dtype=np.int64)

    def run_slots(self, first_slot: int, arrivals_block) -> list[int]:
        """Advance one consecutive block of slots; returns the last
        slot's grant list.

        Per slot: generation into the PQs, injection of one packet per
        input from its PQ head into its FIFO, round-robin arbitration
        among the FIFO heads (:meth:`FIFOScheduler.arbitrate`), and
        departure of the granted heads. Generation and injection run as
        one pass per input: input ``i``'s two stages touch only PQ ``i``
        and FIFO ``i``, so fusing them changes no result. An arrival at
        an empty PQ whose FIFO has room goes straight into the FIFO,
        which is what push-then-inject would do. The loop works on the
        queues' deques directly, and the block's delays reach the
        latency histogram in one call.

        ``measuring`` must not change mid-block —
        :func:`repro.sim.simulator._drive` splits its blocks at the
        warmup boundary.
        """
        measuring = self.measuring
        pqs = self.pqs
        pq_queues = [pq._queue for pq in pqs]
        pq_capacity = self.config.pq_capacity
        fifos = self.fifos
        fifo_capacity = self.fifo_capacity
        arbitrate = self.scheduler.arbitrate
        arrived = 0
        delays: list[int] = []  # every departure's, in order
        grants: list[int] = []

        slot = first_slot
        for arrivals in arrivals_block:
            # 1 + 2. Generation into PQ i, then one packet from its head
            #    into FIFO i (a full FIFO blocks the head).
            for i, dst in enumerate(arrivals.tolist()):
                pq = pq_queues[i]
                fifo = fifos[i]
                if dst != NO_ARRIVAL:
                    arrived += 1
                    if not pq:
                        # The arrival is the PQ's head: it moves into
                        # the FIFO at once, or waits behind a full one.
                        if len(fifo) < fifo_capacity:
                            fifo.append((dst, slot))
                        else:
                            pq.append((dst, slot))
                        continue
                    if len(pq) >= pq_capacity:
                        pqs[i].dropped += 1
                    else:
                        pq.append((dst, slot))
                elif not pq:
                    continue
                if len(fifo) < fifo_capacity:
                    fifo.append(pq.popleft())

            # 3. Head-of-line arbitration.
            grants = arbitrate([fifo[0][0] if fifo else NO_GRANT for fifo in fifos])

            # 4. Forwarding.
            for i, j in enumerate(grants):
                if j == NO_GRANT:
                    continue
                _, t_generated = fifos[i].popleft()
                delays.append(slot - t_generated + 1)
            slot += 1

        if measuring:
            self.offered += arrived
            self.forwarded += len(delays)
            self.latency.add_many(delays)
        return grants
