"""Flow-level routing across the Clos middle stage.

The only routing freedom in a three-stage Clos is *which middle switch
carries each packet*: the ingress switch of a packet is fixed by its
source port and the egress switch by its destination port. Three
policies ship, all deterministic so the simulation stays a pure
function of its spec:

``hash``
    Stateless ECMP: the middle switch is a splitmix64 hash of
    ``(seed, src, dst)`` modulo ``m``. Every packet of one flow takes
    the same path (no reordering within a flow) and flows spread
    uniformly — the datacenter default.

``least_loaded``
    Adaptive spreading: pick the middle link whose VOQ column at the
    ingress switch is shallowest, scanning from a per-flow hash offset
    so ties do not polarise onto middle switch 0. The decision reads
    only the packet's own ingress switch, which is what keeps it legal
    under sharding (the owning shard always has the state it needs).

``offline``
    The Slepian–Duguid stance: a precomputed
    :class:`~repro.fabric.clos.ClosRouting` (edge-coloured middle
    assignment for a known permutation) answers first via its O(1)
    ``middle_of`` table; pairs outside the routed schedule fall back to
    a Latin-square spreading ``(ingress + egress) % m`` — the classic
    static round-robin layout.
"""

from __future__ import annotations

from repro.fabric.clos import ClosRouting
from repro.faults.injector import hash_u64

__all__ = ["FlowRouter", "HashRouter", "LeastLoadedRouter", "OfflineRouter",
           "make_router"]

#: Hash-domain salt separating routing draws from fault/seeding draws.
_SALT_ROUTE = 0xB0


class FlowRouter:
    """Base router: maps ``(src, dst)`` to a middle-switch index."""

    name = "router"

    def __init__(self, m: int, k: int, seed: int):
        self.m = m
        self.k = k
        self.seed = seed

    def middle_for(self, src: int, dst: int, ingress_switch) -> int:
        """Middle switch for one packet. ``ingress_switch`` is the
        packet's own :class:`~repro.sim.crossbar.InputQueuedSwitch`
        (adaptive policies may read its queue state)."""
        raise NotImplementedError


class HashRouter(FlowRouter):
    """Stateless per-flow ECMP hashing."""

    name = "hash"

    def middle_for(self, src: int, dst: int, ingress_switch) -> int:
        return hash_u64(self.seed, _SALT_ROUTE, src, dst) % self.m


class LeastLoadedRouter(FlowRouter):
    """Shallowest ingress VOQ column, hash-offset tie-breaking."""

    name = "least_loaded"

    def middle_for(self, src: int, dst: int, ingress_switch) -> int:
        m = self.m
        # Total backlog queued toward each middle link at this ingress,
        # read off the VOQ deques of its first m columns.
        rows = ingress_switch.voqs._queues
        depth = [sum(len(row[j]) for row in rows) for j in range(m)]
        offset = hash_u64(self.seed, _SALT_ROUTE, src, dst) % m
        best = offset
        best_depth = depth[offset]
        for step in range(1, m):
            j = offset + step
            if j >= m:
                j -= m
            if depth[j] < best_depth:
                best, best_depth = j, depth[j]
        return int(best)


class OfflineRouter(FlowRouter):
    """Slepian–Duguid table first, Latin-square spreading as fallback."""

    name = "offline"

    def __init__(self, m: int, k: int, seed: int,
                 routing: ClosRouting | None = None):
        super().__init__(m, k, seed)
        self.routing = routing

    def middle_for(self, src: int, dst: int, ingress_switch) -> int:
        if self.routing is not None:
            middle = self.routing.middle_of(src, dst)
            if middle is not None:
                return middle
        return (src // self.k + dst // self.k) % self.m


def make_router(policy: str, m: int, k: int, seed: int,
                offline_routing: ClosRouting | None = None) -> FlowRouter:
    """Instantiate the router for a :class:`~repro.fabric.spec.FabricSpec`
    routing policy name."""
    if policy == "hash":
        return HashRouter(m, k, seed)
    if policy == "least_loaded":
        return LeastLoadedRouter(m, k, seed)
    if policy == "offline":
        return OfflineRouter(m, k, seed, routing=offline_routing)
    raise ValueError(f"unknown routing policy {policy!r}")
