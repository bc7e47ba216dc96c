"""Lossy control channels for the distributed schedulers.

The Section 5 protocol assumes every request/grant/accept message
arrives. These wrappers play the same protocol over a channel that
drops (and, for the agent system, delays) individual messages, with the
degradation semantics a robust switch must have:

* a lost **request** simply never reaches its target — the target
  grants among the requests it *did* receive;
* a lost **grant** is treated by the initiator as no-grant;
* a lost **accept** aborts the match — neither side commits, pointers
  do not advance, and the initiator retries in the next iteration (on
  the bus interconnect an accept is observed by everyone or by no one,
  so the two sides can never disagree about a match);
* the ``nrq``/``ngt`` counts carried by surviving messages are
  **advisory**: a sender counts the requests it *sent*, which may
  exceed what was delivered. Stale counts skew priorities, never
  correctness.

Under these rules every emitted schedule is still a valid matching over
the offered requests — property-tested across 0–100% loss — and the
scheduler never raises; total loss just yields an empty schedule.

Both wrappers draw each message's fate from the same pure
:class:`~repro.faults.injector.FaultInjector` hash keyed by
``(slot, iteration, kind, src, dst)``, so
:class:`LossyLCFDistributed` (matrix) and
:class:`LossyLCFDistributedAgents` (message objects) remain
*bit-identical* under pure drops, exactly like their perfect-channel
counterparts. Delays exist only in the agent system (a delayed message
is delivered one iteration late; delayed-past-the-last-iteration means
lost), so equivalence is only claimed for ``delay == 0``.

Scheduling cycles are numbered by an internal counter that increments
once per ``schedule()`` call and resets with ``reset()`` — aligned with
the simulation slot when the switch steps from slot 0, which is what
:func:`repro.sim.simulator.run_simulation` does.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import IterativeScheduler, Scheduler, rotating_argmin
from repro.core.lcf_dist import IterationTrace, LCFDistributed, LCFDistributedRR
from repro.fastpath.bitops import derive_cols, unpack_rows
from repro.fastpath.kernel import BitmaskKernelMixin
from repro.fastpath.lcf_dist import FastLCFDistributed, FastLCFDistributedRR
from repro.core.lcf_dist_agents import (
    AcceptMsg,
    GrantMsg,
    LCFDistributedAgents,
    MessageLog,
    RequestMsg,
)
from repro.faults.injector import ACCEPT, GRANT, REQUEST, FaultInjector
from repro.types import NO_GRANT, RequestMatrix, Schedule, empty_schedule

__all__ = [
    "LossyLCFDistributed",
    "LossyLCFDistributedRR",
    "LossyLCFDistributedAgents",
    "FastLossyLCFDistributed",
    "FastLossyLCFDistributedRR",
    "RequestLossFilter",
    "FastRequestLossFilter",
    "make_lossy_scheduler",
    "LOSSY_PROTOCOL_NAMES",
]


class _LossyIterationsMixin:
    """Shared cycle counter + lossy request/grant/accept iteration for
    the matrix-form distributed LCF schedulers."""

    injector: FaultInjector

    def _init_channel(self, injector: FaultInjector) -> None:
        self.injector = injector
        self._cycle = -1
        self._iteration = 0

    def reset(self) -> None:
        super().reset()
        self._cycle = -1
        self._iteration = 0

    def _schedule(self, requests: RequestMatrix) -> Schedule:
        self._cycle += 1
        self._iteration = 0
        return super()._schedule(requests)

    def _iterate(
        self, requests: RequestMatrix, schedule: Schedule, out_matched: np.ndarray
    ) -> bool:
        n = self.n
        slot, iteration = self._cycle, self._iteration
        self._iteration += 1
        injector = self.injector
        in_unmatched = schedule == NO_GRANT

        live = requests & in_unmatched[:, np.newaxis] & ~out_matched[np.newaxis, :]
        if not live.any():
            return False  # genuinely converged: nothing left to request
        # Senders count what they *send* (the advisory nrq); targets
        # count what they *receive* (delivery decides ngt and grants).
        nrq = live.sum(axis=1)
        delivered = live.copy()
        if injector.plan.request_loss > 0.0:
            for i, j in zip(*np.nonzero(live)):
                if not injector.message_survives(
                    slot, iteration, REQUEST, int(i), int(j)
                ):
                    delivered[i, j] = False
        ngt = delivered.sum(axis=0)

        grants = np.zeros((n, n), dtype=bool)
        for j in np.flatnonzero(ngt):
            winner = rotating_argmin(nrq, delivered[:, j], int(self._grant_ptr[j]))
            if injector.message_survives(slot, iteration, GRANT, int(j), winner):
                grants[winner, j] = True

        trace = (
            IterationTrace(delivered.copy(), nrq.copy(), grants.copy(), ngt.copy())
            if self.record_trace
            else None
        )
        for i in range(n):
            offered = grants[i]
            if not offered.any():
                continue
            j = rotating_argmin(ngt, offered, int(self._accept_ptr[i]))
            if not injector.message_survives(slot, iteration, ACCEPT, i, int(j)):
                continue  # lost accept: the match never forms, retry next round
            schedule[i] = j
            out_matched[j] = True
            self._grant_ptr[j] = (i + 1) % n
            self._accept_ptr[i] = (j + 1) % n
            if trace is not None:
                trace.accepts.append((i, int(j)))
        if trace is not None:
            self.last_trace.append(trace)
        # Requests were attempted, so a later iteration may still match
        # even if every message died this round — no early convergence.
        return True


class LossyLCFDistributed(_LossyIterationsMixin, LCFDistributed):
    """``lcf_dist`` over a lossy control channel."""

    name = "lcf_dist"

    def __init__(
        self,
        n: int,
        injector: FaultInjector,
        iterations: int = LCFDistributed.DEFAULT_ITERATIONS,
    ):
        super().__init__(n, iterations)
        self._init_channel(injector)


class LossyLCFDistributedRR(_LossyIterationsMixin, LCFDistributedRR):
    """``lcf_dist_rr`` over a lossy control channel.

    The round-robin position walk is locally derived state (every agent
    advances the same ``(i, j)`` counter), so the overlay pre-match
    itself needs no message and is unaffected by channel loss.
    """

    name = "lcf_dist_rr"

    def __init__(
        self,
        n: int,
        injector: FaultInjector,
        iterations: int = LCFDistributedRR.DEFAULT_ITERATIONS,
    ):
        super().__init__(n, iterations)
        self._init_channel(injector)


class _FastLossyChannelMixin:
    """Bitset twin of :class:`_LossyIterationsMixin`: the same lossy
    request/grant/accept iteration, on the mask hot path of
    :class:`~repro.fastpath.lcf_dist.FastLCFDistributed`.

    The cycle counter lives in ``schedule_masks`` because the bitset
    kernels bypass ``_schedule`` entirely; either entry point advances
    it exactly once per scheduling cycle. Bit-identity with the matrix
    wrappers (schedules, traces, pointer evolution, cycle numbering) is
    property-tested in ``tests/fastpath/``.
    """

    injector: FaultInjector

    def _init_channel(self, injector: FaultInjector) -> None:
        self.injector = injector
        self._cycle = -1
        self._iteration = 0

    def reset(self) -> None:
        super().reset()
        self._cycle = -1
        self._iteration = 0

    def schedule_masks(
        self, rows: list[int], cols: list[int] | None = None
    ) -> list[int]:
        self._cycle += 1
        self._iteration = 0
        return super().schedule_masks(rows, cols)

    # Multi-word entry: join the word tuples and run the single-word
    # lossy iteration on big Python ints (correct at any width; the
    # lossy channel is modelled per message, so there is no word-tuned
    # variant — n > 64 lossy runs are rare and still beat numpy).
    schedule_words = BitmaskKernelMixin.schedule_words

    def _iterate_masks(
        self,
        rows: list[int],
        cols: list[int],
        schedule: list[int],
        in_free: int,
        out_free: int,
        full: int,
    ) -> tuple[bool, int, int]:
        n = self.n
        slot, iteration = self._cycle, self._iteration
        self._iteration += 1
        injector = self.injector

        # Request step: live rows and the sender-side (advisory) nrq,
        # bucketed by value for the grant scan (see the perfect-channel
        # kernel). A candidate's nrq counts what it *sent*, so buckets
        # are built from the pre-thinning live rows.
        nrq = [0] * n
        buckets: dict[int, int] = {}
        live = [0] * n
        total = 0
        remaining = in_free
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            i = low.bit_length() - 1
            mask = rows[i] & out_free
            live[i] = mask
            count = mask.bit_count()
            nrq[i] = count
            total += count
            if count:
                buckets[count] = buckets.get(count, 0) | low
        if not total:
            return False, in_free, out_free  # genuinely converged
        values = sorted(buckets)

        # Channel: thin the delivered requests (delivery decides ngt
        # and grant candidates; nrq stays sender-side).
        delivered = live
        if injector.plan.request_loss > 0.0:
            survives = injector.message_survives
            delivered = live[:]
            remaining = in_free
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                i = low.bit_length() - 1
                mask = delivered[i]
                scan = mask
                while scan:
                    bit = scan & -scan
                    scan ^= bit
                    if not survives(
                        slot, iteration, REQUEST, i, bit.bit_length() - 1
                    ):
                        mask ^= bit
                delivered[i] = mask
        delivered_cols = derive_cols(delivered, n)

        # Grant step over delivered requests; each grant is itself a
        # message that may die in flight (the pointer only advances on
        # a committed match, so a lost grant leaves state untouched).
        grant_ptr = self._grant_ptr
        record = self.record_trace
        trace_grants = [] if record else None
        offers = [0] * n
        ngt = [0] * n
        granted_inputs = 0
        remaining = out_free
        while remaining:
            out_bit = remaining & -remaining
            remaining ^= out_bit
            j = out_bit.bit_length() - 1
            cand = delivered_cols[j]
            if not cand:
                continue
            ngt[j] = cand.bit_count()
            for value in values:
                tied = cand & buckets[value]
                if tied:
                    start = grant_ptr[j]
                    rotated = (tied >> start) | ((tied << (n - start)) & full)
                    winner = start + (rotated & -rotated).bit_length() - 1
                    if winner >= n:
                        winner -= n
                    break
            if injector.message_survives(slot, iteration, GRANT, j, winner):
                offers[winner] |= out_bit
                granted_inputs |= 1 << winner
                if trace_grants is not None:
                    trace_grants.append((winner, j))

        trace = None
        if record:
            grants = np.zeros((n, n), dtype=bool)
            for gi, gj in trace_grants:
                grants[gi, gj] = True
            trace = IterationTrace(
                unpack_rows(delivered, n),
                np.array(nrq, dtype=np.int64),
                grants,
                np.array(ngt, dtype=np.int64),
            )

        # Accept step: a lost accept aborts the match — neither side
        # commits and the pointers stay put.
        accept_ptr = self._accept_ptr
        remaining = granted_inputs
        while remaining:
            in_bit = remaining & -remaining
            remaining ^= in_bit
            i = in_bit.bit_length() - 1
            mask = offers[i]
            start = accept_ptr[i]
            rotated = (mask >> start) | ((mask << (n - start)) & full)
            best = n + 1
            j = -1
            while rotated:
                low = rotated & -rotated
                out = start + low.bit_length() - 1
                if out >= n:
                    out -= n
                count = ngt[out]
                if count < best:
                    best = count
                    j = out
                    if count == 1:
                        break  # a granting target's ngt floor
                rotated ^= low
            if not injector.message_survives(slot, iteration, ACCEPT, i, j):
                continue  # lost accept: retry next round
            schedule[i] = j
            in_free &= ~in_bit
            out_free &= ~(1 << j)
            grant_ptr[j] = i + 1 if i + 1 < n else 0
            accept_ptr[i] = j + 1 if j + 1 < n else 0
            if trace is not None:
                trace.accepts.append((i, j))
        if trace is not None:
            self.last_trace.append(trace)
        # Requests were attempted, so a later iteration may still match
        # even if every message died this round — no early convergence.
        return True, in_free, out_free


class FastLossyLCFDistributed(_FastLossyChannelMixin, FastLCFDistributed):
    """Bitset twin of :class:`LossyLCFDistributed`."""

    name = "lcf_dist"

    def __init__(
        self,
        n: int,
        injector: FaultInjector,
        iterations: int = LCFDistributed.DEFAULT_ITERATIONS,
    ):
        super().__init__(n, iterations)
        self._init_channel(injector)


class FastLossyLCFDistributedRR(_FastLossyChannelMixin, FastLCFDistributedRR):
    """Bitset twin of :class:`LossyLCFDistributedRR` (the overlay
    pre-match is local state, so it needs no channel treatment)."""

    name = "lcf_dist_rr"

    def __init__(
        self,
        n: int,
        injector: FaultInjector,
        iterations: int = LCFDistributedRR.DEFAULT_ITERATIONS,
    ):
        super().__init__(n, iterations)
        self._init_channel(injector)


class LossyLCFDistributedAgents(LCFDistributedAgents):
    """The message-passing agent system over a lossy, delaying channel.

    Message objects are materialised exactly as in the perfect-channel
    implementation (and still accounted in :attr:`last_message_log` —
    the sender pays the wire bits whether or not delivery succeeds);
    the channel then drops or delays each one individually. Delayed
    requests/grants are delivered at the start of the next iteration;
    their carried counts are stale by then — advisory, per the module
    contract. Dropped and expired (delayed past the last iteration)
    messages are counted in :attr:`dropped_messages`.
    """

    name = "lcf_dist_agents"

    def __init__(
        self,
        n: int,
        injector: FaultInjector,
        iterations: int = LCFDistributedAgents.DEFAULT_ITERATIONS,
    ):
        super().__init__(n, iterations)
        self.injector = injector
        self._cycle = -1
        self.dropped_messages = 0
        self.delayed_messages = 0

    def reset(self) -> None:
        super().reset()
        self._cycle = -1
        self.dropped_messages = 0
        self.delayed_messages = 0

    def _schedule(self, requests: RequestMatrix) -> Schedule:
        self._cycle += 1
        slot = self._cycle
        n = self.n
        injector = self.injector
        log = MessageLog()
        for i, agent in enumerate(self.inputs):
            agent.start_cycle(requests[i])
        for agent in self.outputs:
            agent.start_cycle()
        taken_outputs = np.zeros(n, dtype=bool)
        held_requests: list[RequestMsg] = []
        held_grants: list[GrantMsg] = []

        for iteration in range(self.iterations):
            last_round = iteration == self.iterations - 1

            # Request step; late deliveries from the previous round
            # arrive first, stale counts and all.
            inboxes: list[list[RequestMsg]] = [[] for _ in range(n)]
            for message in held_requests:
                inboxes[message.dst].append(message)
            held_requests = []
            attempted = 0
            for agent in self.inputs:
                for message in agent.make_requests(taken_outputs):
                    attempted += 1
                    log.requests += 1
                    log.total_bits += message.bits(n)
                    if not injector.message_survives(
                        slot, iteration, REQUEST, message.src, message.dst
                    ):
                        self.dropped_messages += 1
                        continue
                    if injector.message_delayed(
                        slot, iteration, REQUEST, message.src, message.dst
                    ):
                        self.delayed_messages += 1
                        if last_round:
                            self.dropped_messages += 1  # nothing left to hear it
                        else:
                            held_requests.append(message)
                        continue
                    inboxes[message.dst].append(message)
            if not attempted and not any(inboxes) and not held_grants:
                break

            # Grant step, same channel treatment.
            grant_boxes: list[list[GrantMsg]] = [[] for _ in range(n)]
            for message in held_grants:
                grant_boxes[message.dst].append(message)
            held_grants = []
            for agent in self.outputs:
                grant = agent.choose_grant(inboxes[agent.index])
                if grant is None:
                    continue
                log.grants += 1
                log.total_bits += grant.bits(n)
                if not injector.message_survives(
                    slot, iteration, GRANT, grant.src, grant.dst
                ):
                    self.dropped_messages += 1
                    continue
                if injector.message_delayed(
                    slot, iteration, GRANT, grant.src, grant.dst
                ):
                    self.delayed_messages += 1
                    if last_round:
                        self.dropped_messages += 1
                    else:
                        held_grants.append(grant)
                    continue
                grant_boxes[grant.dst].append(grant)

            # Accept step: an accept is observed by everyone on the bus
            # or by no one — a lost accept means no match anywhere.
            accepts: list[AcceptMsg] = []
            for agent in self.inputs:
                # A late grant may offer an output that was taken in the
                # meantime; the bus makes that visible, so the agent
                # ignores it rather than double-booking the output.
                offers = [
                    g for g in grant_boxes[agent.index] if not taken_outputs[g.src]
                ]
                accept = agent.choose_accept(offers)
                if accept is None:
                    continue
                log.accepts += 1
                log.total_bits += accept.bits(n)
                if not injector.message_survives(
                    slot, iteration, ACCEPT, accept.src, accept.dst
                ):
                    self.dropped_messages += 1
                    continue
                accepts.append(accept)
            for accept in accepts:
                if taken_outputs[accept.dst]:
                    # A delayed grant can coexist with the same output's
                    # fresh grant; if both get accepted this iteration,
                    # the bus order decides and the loser stays
                    # unmatched (it retries next iteration).
                    continue
                taken_outputs[accept.dst] = True
                for agent in self.inputs:
                    agent.observe_accept(accept)
                for agent in self.outputs:
                    agent.observe_accept(accept)

        self.last_message_log = log
        schedule = empty_schedule(n)
        for i, agent in enumerate(self.inputs):
            schedule[i] = agent.matched
        return schedule


class RequestLossFilter(Scheduler):
    """Generic degraded mode for schedulers without an explicit
    message protocol (PIM, iSLIP, wavefront, the central LCF family...).

    Models a lossy request channel: each request-matrix entry is
    independently dropped with ``plan.request_loss`` before the wrapped
    scheduler runs (keyed by the same pure hash as the distributed
    wrappers, iteration 0). Grant/accept loss rates do not apply — a
    centralized scheduler's grants travel with the crossbar setup, and
    per-iteration messages are internal to the matrix computation.
    """

    def __init__(self, scheduler: Scheduler, injector: FaultInjector):
        super().__init__(scheduler.n)
        self.scheduler = scheduler
        self.injector = injector
        self.name = scheduler.name
        self._cycle = -1

    def reset(self) -> None:
        self.scheduler.reset()
        self._cycle = -1

    def __getattr__(self, attribute):
        # Transparent for instrumentation: record_trace, last_trace,
        # rr_position, weight_kind... resolve on the wrapped scheduler.
        if attribute == "scheduler":
            raise AttributeError(attribute)
        return getattr(self.scheduler, attribute)

    def __setattr__(self, attribute, value):
        if attribute == "record_trace" and "scheduler" in self.__dict__:
            setattr(self.scheduler, attribute, value)
            return
        super().__setattr__(attribute, value)

    def _thin(self, matrix: np.ndarray) -> np.ndarray:
        rate = self.injector.plan.request_loss
        if rate <= 0.0:
            return matrix
        slot = self._cycle
        for i, j in zip(*np.nonzero(matrix)):
            if not self.injector.message_survives(slot, 0, REQUEST, int(i), int(j)):
                matrix[i, j] = 0
        return matrix

    def _schedule(self, requests: RequestMatrix) -> Schedule:
        return self.scheduler._schedule(self._thin(requests))

    def schedule(self, requests: RequestMatrix) -> Schedule:
        self._cycle += 1
        return super().schedule(requests)

    def schedule_weighted(self, weights: np.ndarray) -> Schedule:
        self._cycle += 1
        return self.scheduler.schedule_weighted(self._thin(weights.copy()))


class FastRequestLossFilter(RequestLossFilter):
    """:class:`RequestLossFilter` around a bitmask kernel.

    Defines ``schedule_masks`` *on the class* (the crossbar's fastpath
    capability probe is deliberately type-level, so the plain filter's
    attribute forwarding can never bypass the loss model) and thins the
    request bitmasks with the same pure per-crosspoint hash the matrix
    path uses — fast and reference degraded modes stay bit-identical.
    """

    def schedule_masks(
        self, rows: list[int], cols: list[int] | None = None
    ) -> list[int]:
        self._cycle += 1
        rate = self.injector.plan.request_loss
        if rate > 0.0:
            slot = self._cycle
            survives = self.injector.message_survives
            thinned = []
            for i, mask in enumerate(rows):
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    if not survives(slot, 0, REQUEST, i, low.bit_length() - 1):
                        mask ^= low
                thinned.append(mask)
            rows = thinned
            cols = None  # stale after thinning; the kernel re-derives
        return self.scheduler.schedule_masks(rows, cols)


#: Scheduler names whose full request/grant/accept protocol is modelled
#: at per-message granularity by a dedicated lossy implementation.
LOSSY_PROTOCOL_NAMES = frozenset({"lcf_dist", "lcf_dist_rr"})


def make_lossy_scheduler(
    name: str,
    n: int,
    injector: FaultInjector,
    iterations: int = IterativeScheduler.DEFAULT_ITERATIONS,
    seed: int = 0,
) -> Scheduler:
    """Registry-compatible factory for degraded-mode schedulers.

    ``lcf_dist`` / ``lcf_dist_rr`` get the faithful per-message lossy
    protocol; every other crossbar scheduler is wrapped in
    :class:`RequestLossFilter` so the whole registry can be swept along
    a loss axis without crashing or silently ignoring the plan.

    Names with a :mod:`repro.fastpath` kernel get its bitset twin (the
    fast lossy protocol, or the kernel inside
    :class:`FastRequestLossFilter`) — bit-identical results, bitmask hot
    path; every other name gets the reference wrapper.
    """
    from repro.fastpath.registry import make_fast_scheduler, uses_fast_kernel

    fast = uses_fast_kernel(name)
    if name == "lcf_dist":
        cls = FastLossyLCFDistributed if fast else LossyLCFDistributed
        return cls(n, injector, iterations)
    if name == "lcf_dist_rr":
        cls = FastLossyLCFDistributedRR if fast else LossyLCFDistributedRR
        return cls(n, injector, iterations)
    if fast:
        return FastRequestLossFilter(
            make_fast_scheduler(name, n, iterations=iterations, seed=seed),
            injector,
        )
    from repro.baselines.registry import make_scheduler

    return RequestLossFilter(
        make_scheduler(name, n, iterations=iterations, seed=seed), injector
    )
