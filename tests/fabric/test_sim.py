"""Fabric engine semantics: degenerate bit-identity, conservation,
backpressure, routing, faults, and observability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fabric.clos import ClosNetwork
from repro.fabric.sim import FabricShard, run_fabric
from repro.fabric.spec import FabricSpec
from repro.obs.events import validate_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RingTracer
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation

SMALL = SimConfig(n_ports=16, warmup_slots=50, measure_slots=250)


def clos_spec(**changes) -> FabricSpec:
    defaults = dict(m=4, k=4, r=4, config=SMALL, load=0.85)
    defaults.update(changes)
    return FabricSpec(**defaults)


class TestDegenerateBitIdentity:
    """A 1-stage fabric IS run_simulation — same floats, same counters."""

    @pytest.mark.parametrize("scheduler", ["lcf_central_rr", "islip", "lqf"])
    @pytest.mark.parametrize("load", [0.5, 1.0])
    def test_matches_run_simulation(self, scheduler, load):
        spec = FabricSpec.single(16, scheduler, config=SMALL, load=load)
        fabric = run_fabric(spec, collect_percentiles=True)
        single = run_simulation(
            SMALL, scheduler, load, collect_percentiles=True
        )
        assert fabric.mean_latency == single.mean_latency
        assert fabric.std_latency == single.std_latency
        assert fabric.max_latency == single.max_latency
        assert fabric.offered == single.offered
        assert fabric.forwarded == single.forwarded
        assert fabric.dropped == single.dropped
        assert fabric.throughput == single.throughput
        assert fabric.percentiles == single.percentiles

    def test_matches_under_overload_with_drops(self):
        config = SimConfig(
            n_ports=8, voq_capacity=1, pq_capacity=2,
            warmup_slots=20, measure_slots=200,
        )
        spec = FabricSpec.single(8, "islip", config=config, load=1.0)
        fabric = run_fabric(spec)
        single = run_simulation(config, "islip", 1.0)
        assert fabric.dropped == single.dropped > 0
        assert fabric.mean_latency == single.mean_latency


class TestConservation:
    def test_packets_are_conserved(self):
        result = run_fabric(clos_spec())
        in_flight = result.generated - result.delivered - result.dropped
        assert in_flight >= 0
        # Forward counts can only shrink stage to stage (no stage
        # creates packets) and deliveries equal the last stage's count.
        s0, s1, s2 = result.stage_forwards
        assert s0 >= s1 >= s2 == result.delivered

    def test_interior_stages_never_drop(self):
        """Credits bound boundary-queue depth, so all loss is at the
        source NICs: interior packet queues never overflow."""
        spec = clos_spec(load=1.0, boundary_capacity=2, link_delay=2)
        shard = FabricShard(spec)
        for slot in range(spec.config.total_slots):
            shard._slot(slot)
        for (stage, _), switch in shard.switches.items():
            if stage > 0:
                assert switch.dropped == 0
        harvest = shard.harvest()
        assert harvest["backpressure_slots"] > 0

    def test_boundary_queue_depth_bounded_by_credits(self):
        spec = clos_spec(load=1.0, boundary_capacity=3, link_delay=1)
        shard = FabricShard(spec)
        for slot in range(200):
            shard._slot(slot)
            for (stage, _), switch in shard.switches.items():
                if stage > 0:
                    for pq in switch.pqs:
                        assert len(pq) <= spec.boundary_capacity


class TestBackpressure:
    def test_tight_boundary_throttles_throughput(self):
        roomy = run_fabric(clos_spec(boundary_capacity=64))
        tight = run_fabric(clos_spec(boundary_capacity=1, link_delay=3))
        assert tight.backpressure_slots > 0
        assert roomy.backpressure_slots == 0
        assert tight.forwarded < roomy.forwarded

    def test_blocked_grants_stay_zero_for_honest_schedulers(self):
        # The credit gate masks requests *before* scheduling, so the
        # defensive post-schedule counter never fires.
        result = run_fabric(clos_spec(boundary_capacity=1, load=1.0))
        assert result.blocked_grants == 0


class TestRouting:
    @pytest.mark.parametrize("routing", ["hash", "least_loaded", "offline"])
    def test_policies_deliver(self, routing):
        result = run_fabric(clos_spec(routing=routing))
        assert result.forwarded > 0
        assert result.throughput > 0.5

    def test_offline_uses_precomputed_routing(self):
        network = ClosNetwork(m=4, k=4, r=4)
        table = network.route(np.arange(16, dtype=np.int64))
        result = run_fabric(
            clos_spec(routing="offline", traffic="permutation"),
            offline_routing=table,
        )
        assert result.forwarded > 0

    def test_routing_changes_the_sample_path(self):
        hashed = run_fabric(clos_spec(routing="hash"))
        balanced = run_fabric(clos_spec(routing="least_loaded"))
        assert hashed.stage_forwards != balanced.stage_forwards

    def test_least_loaded_picks_the_shallowest_middle_column(self):
        # The pick is the middle link whose VOQ column at the ingress
        # switch holds the fewest packets; ties go to the first such
        # column in cyclic order from the flow's hash offset.
        from repro.fabric.routing import _SALT_ROUTE, LeastLoadedRouter
        from repro.faults.injector import hash_u64
        from repro.sim.crossbar import InputQueuedSwitch
        from repro.sim.simulator import make_crossbar_scheduler

        m, n, seed = 3, 8, 5
        switch = InputQueuedSwitch(
            SimConfig(n_ports=n), make_crossbar_scheduler("islip", n)
        )
        # Column depths 3, 1, 1 over the m middle links (two tie for
        # shallowest), while the first m rows hold nothing at all.
        for i, j in ((5, 0), (6, 0), (7, 0), (4, 1), (4, 2), (3, 5)):
            switch.voqs.push(i, j, 0)
        depth = [3, 1, 1]
        router = LeastLoadedRouter(m, k=n // m, seed=seed)
        picks = set()
        for src in range(n):
            for dst in range(n):
                offset = hash_u64(seed, _SALT_ROUTE, src, dst) % m
                cyclic = [(offset + step) % m for step in range(m)]
                expected = min(cyclic, key=lambda j: depth[j])
                assert router.middle_for(src, dst, switch) == expected
                picks.add(expected)
        assert picks == {1, 2}


class TestFaultsAndAdaptation:
    def test_per_switch_fault_plan_fires(self):
        spec = clos_spec(
            stage_faults=((1, 0, (("port_down", ((0, 60, 120, "output"),)),)),),
        )
        result = run_fabric(spec)
        assert result.fault_events == 1
        assert result.recovery_events >= 1
        assert result.degraded_slots == 60

    def test_adapter_composes_per_switch(self):
        spec = clos_spec(
            stage_faults=((1, 0, (("port_down", ((0, 60, 300, "output"),)),)),),
            stage_adapt=((1, 0, (("policy", "adaptive"),)),),
        )
        result = run_fabric(spec)
        # Fault-blind stage switch: the fabric gate eats grants the
        # adapter proposed over the dead output.
        assert result.masked_grants > 0


class TestObservability:
    def test_trace_events_carry_switch_labels_and_validate(self):
        tracer = RingTracer(1 << 18)
        run_fabric(clos_spec(), tracer=tracer)
        events = tracer.events
        assert events
        labels = {event["switch"] for event in events}
        assert "s0.0" in labels and "s1.0" in labels and "s2.3" in labels
        for event in events[:2000]:
            assert validate_event(event) == []

    def test_trace_is_slot_ordered(self):
        tracer = RingTracer(1 << 18)
        run_fabric(clos_spec(), tracer=tracer)
        slots = [event["slot"] for event in tracer.events]
        assert slots == sorted(slots)

    def test_metrics_gauges_exported(self):
        registry = MetricsRegistry()
        run_fabric(clos_spec(), metrics=registry)
        snapshot = registry.snapshot()
        for name in (
            "stage0_queued", "stage1_queued", "stage2_queued",
            "stage0_credits", "fabric_generated", "fabric_delivered",
        ):
            assert name in snapshot
        assert snapshot["fabric_generated"] >= snapshot["fabric_delivered"]

    def test_sharded_metrics_rejected(self):
        with pytest.raises(ValueError, match="single-shard"):
            run_fabric(clos_spec(), shards=2, metrics=MetricsRegistry())

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            run_fabric(clos_spec(), backend="carrier-pigeon")

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            run_fabric(clos_spec(), shards=0)


class TestResultSurface:
    def test_row_is_flat_and_csv_ready(self):
        result = run_fabric(clos_spec(), collect_percentiles=True)
        row = result.row()
        assert row["topology"].startswith("C(4,4,4)")
        assert 0 <= row["loss_rate"] <= 1
        assert "p99" in row

    def test_flow_matrices_account_for_every_delivery(self):
        result = run_fabric(clos_spec(), collect_flows=True)
        assert int(result.flow_counts.sum()) == result.forwarded
        means = result.flow_mean_delay()
        served = result.flow_counts > 0
        assert np.all(means[served] >= 1)

    def test_fast_engine_is_bit_identical(self):
        from repro.fastpath.registry import _reference_kernels

        with _reference_kernels():
            reference = run_fabric(clos_spec())
        fast = run_fabric(clos_spec())
        assert reference.mean_latency == fast.mean_latency
        assert reference.stage_forwards == fast.stage_forwards
