"""Slot-synchronous multicast switch simulator.

Drives :class:`~repro.core.multicast.MulticastScheduler` with per-input
multicast queues: arrivals carry random fanout sets, the fabric copies
one cell per input to any number of outputs per slot, and a cell's
latency is measured at *completion* — when its last copy departs (the
user-visible metric for multicast).
"""

from __future__ import annotations

import numpy as np

from repro.core.multicast import MulticastCell, MulticastQueue, MulticastScheduler
from repro.obs.estimators import DelayHistogram
from repro.types import NO_GRANT


class MulticastTraffic:
    """Bernoulli multicast cell arrivals with uniform random fanout.

    Each slot, each input generates a cell with probability ``load``;
    the fanout is a uniform random subset of the outputs with size drawn
    uniformly from ``[1, max_fanout]``.
    """

    def __init__(self, n: int, load: float, max_fanout: int | None = None, seed: int = 0):
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {load}")
        self.n = n
        self.load = load
        self.max_fanout = max_fanout if max_fanout is not None else max(1, n // 4)
        if not 1 <= self.max_fanout <= n:
            raise ValueError(f"max_fanout must be in [1, {n}]")
        self.rng = np.random.default_rng(seed)

    def arrivals(self, slot: int) -> list[MulticastCell | None]:
        cells: list[MulticastCell | None] = []
        for i in range(self.n):
            if self.rng.random() < self.load:
                size = int(self.rng.integers(1, self.max_fanout + 1))
                fanout = set(
                    int(x) for x in self.rng.choice(self.n, size=size, replace=False)
                )
                cells.append(MulticastCell(i, fanout, slot))
            else:
                cells.append(None)
        return cells


class MulticastSwitch:
    """Input-queued multicast crossbar with fanout splitting."""

    def __init__(
        self,
        n: int,
        policy: str = "lcf",
        queue_capacity: int = 256,
        seed: int = 0,
    ):
        self.n = n
        self.scheduler = MulticastScheduler(n, policy=policy, seed=seed)
        self.queues = [MulticastQueue(queue_capacity) for _ in range(n)]

        self.completion_latency = DelayHistogram()
        self.copies_delivered = 0
        self.cells_completed = 0
        self.cells_offered = 0
        self.measuring = False

    def total_queued(self) -> int:
        return sum(len(q) for q in self.queues)

    @property
    def dropped(self) -> int:
        return sum(q.dropped for q in self.queues)

    def step(self, slot: int, arrivals: list[MulticastCell | None]) -> np.ndarray:
        # 1. Arrivals.
        for i, cell in enumerate(arrivals):
            if cell is not None:
                if self.measuring:
                    self.cells_offered += 1
                self.queues[i].push(cell)

        # 2. Scheduling over the head cells.
        heads = [q.head() for q in self.queues]
        assignment = self.scheduler.schedule(heads)

        # 3. Copy delivery (fanout splitting) and completion.
        for j in range(self.n):
            i = assignment[j]
            if i == NO_GRANT:
                continue
            cell = heads[i]
            cell.delivered.add(j)
            if self.measuring:
                self.copies_delivered += 1
        for queue in self.queues:
            done = queue.pop_if_complete()
            if done is not None and self.measuring:
                self.cells_completed += 1
                self.completion_latency.add(slot - done.t_generated + 1)
        return assignment


def run_multicast(
    n: int = 16,
    load: float = 0.3,
    policy: str = "lcf",
    max_fanout: int | None = None,
    warmup_slots: int = 500,
    measure_slots: int = 3000,
    seed: int = 1,
) -> MulticastSwitch:
    """Convenience driver mirroring :func:`repro.sim.simulator.run_simulation`."""
    switch = MulticastSwitch(n, policy=policy, seed=seed)
    traffic = MulticastTraffic(n, load, max_fanout=max_fanout, seed=seed)
    for slot in range(warmup_slots + measure_slots):
        if slot == warmup_slots:
            switch.measuring = True
        switch.step(slot, traffic.arrivals(slot))
    return switch
