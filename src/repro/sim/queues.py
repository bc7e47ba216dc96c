"""Queue structures of the Figure 11 model.

For speed the queues store bare generation timestamps (ints) — latency
is all the statistics need — with destinations implied by queue identity
(VOQs) or stored alongside (PQ, FIFO). The deques are the only queue
state: the per-VOQ occupancy counts are read off their lengths when
something asks for them. The one thing kept incrementally is the
request bitmask pair (``VOQSet.row_masks`` / ``col_masks``), updated on
0 <-> 1 transitions; the request matrix is unpacked from it.

The crossbar's slot body works on ``PacketQueue._queue`` and
``VOQSet._queues`` (a list of rows of deques) and on the masks
directly, so it must keep the same invariants as the methods here:
capacity checks before every append and a mask transition whenever a
VOQ goes 0 -> 1 or 1 -> 0 packets. The ``fifo`` and ``outbuf`` block
loops likewise work on ``PacketQueue._queue`` and
``OutputQueue._queue``, checking capacity and counting drops on the
queue objects as ``push`` does.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

import numpy as np

from repro.fastpath.bitops import unpack_rows


class PacketQueue:
    """Per-input FIFO of ``(dst, t_generated)`` pairs with finite capacity.

    Models the initiator-side packet queue (PQ, 1000 entries in the
    paper). Arrivals beyond capacity are dropped and counted.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: deque[tuple[int, int]] = deque()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.capacity

    def push(self, dst: int, t_generated: int) -> bool:
        """Enqueue a packet; returns False (and counts a drop) if full."""
        if self.full:
            self.dropped += 1
            return False
        self._queue.append((dst, t_generated))
        return True

    def head(self) -> tuple[int, int] | None:
        """Peek at the head packet without removing it."""
        return self._queue[0] if self._queue else None

    def pop(self) -> tuple[int, int]:
        """Remove and return the head packet."""
        return self._queue.popleft()

    def clear(self) -> None:
        """Empty the queue and zero the drop counter — back to the
        as-constructed state (for run-to-run switch reuse)."""
        self._queue.clear()
        self.dropped = 0


class VOQSet:
    """The ``n x n`` virtual output queues of one switch.

    ``voq[i][j]`` holds generation timestamps of input ``i``'s packets
    for output ``j``. Each VOQ has finite capacity (256 in the paper).
    """

    def __init__(self, n: int, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.n = n
        self.capacity = capacity
        self._queues: list[list[deque[int]]] = [
            [deque() for _ in range(n)] for _ in range(n)
        ]
        #: Per-input request bitmasks (bit j set iff VOQ (i, j) is
        #: non-empty) and the per-output transpose — maintained on every
        #: 0 <-> 1 occupancy transition so the fastpath kernels can read
        #: the request state without building a matrix. One Python int
        #: per port at every width: past 64 ports it is simply wider.
        self.row_masks: list[int] = [0] * n
        self.col_masks: list[int] = [0] * n

    @property
    def occupancy(self) -> np.ndarray:
        """Per-VOQ packet counts, an ``n x n`` array built from the
        deque lengths on each call."""
        n = self.n
        lengths = map(len, chain.from_iterable(self._queues))
        return np.fromiter(lengths, dtype=np.int64, count=n * n).reshape(n, n)

    def total_queued(self) -> int:
        return sum(map(len, chain.from_iterable(self._queues)))

    def has_space(self, i: int, j: int) -> bool:
        return len(self._queues[i][j]) < self.capacity

    def push(self, i: int, j: int, t_generated: int) -> None:
        """Enqueue into VOQ (i, j); caller must have checked space."""
        queue = self._queues[i][j]
        if len(queue) >= self.capacity:
            raise OverflowError(f"VOQ[{i}][{j}] is full (capacity {self.capacity})")
        queue.append(t_generated)
        if len(queue) == 1:
            self.row_masks[i] |= 1 << j
            self.col_masks[j] |= 1 << i

    def pop(self, i: int, j: int) -> int:
        """Dequeue the head packet of VOQ (i, j); returns its timestamp."""
        queue = self._queues[i][j]
        t_generated = queue.popleft()
        if not queue:
            self.row_masks[i] &= ~(1 << j)
            self.col_masks[j] &= ~(1 << i)
        return t_generated

    def clear(self) -> None:
        """Empty every VOQ and reset the request masks — back to the
        as-constructed state (for run-to-run switch reuse)."""
        for row in self._queues:
            for queue in row:
                queue.clear()
        # Mutate the mask containers in place: the crossbar's slot body
        # holds direct references to them.
        self.row_masks[:] = [0] * self.n
        self.col_masks[:] = [0] * self.n

    def request_matrix(self) -> np.ndarray:
        """Boolean matrix of non-empty VOQs — what the scheduler sees.

        Unpacked from ``row_masks``, never a pass over the deques."""
        return unpack_rows(self.row_masks, self.n)

    def head_timestamps(self) -> np.ndarray:
        """Generation timestamps of the head packets (-1 where empty) —
        what an oldest-cell-first scheduler needs."""
        heads = np.full((self.n, self.n), -1, dtype=np.int64)
        for i in range(self.n):
            row = self._queues[i]
            for j in range(self.n):
                if row[j]:
                    heads[i, j] = row[j][0]
        return heads


class OutputQueue:
    """Per-output FIFO of generation timestamps with finite capacity —
    the building block of the output-buffered reference switch."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: deque[int] = deque()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, t_generated: int) -> bool:
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        self._queue.append(t_generated)
        return True

    def pop(self) -> int | None:
        """Serve one packet (None if empty)."""
        return self._queue.popleft() if self._queue else None
