"""On-disk result cache: keys, round-trips, corruption handling."""

import json
import math

import numpy as np
import pytest

from repro.sim.config import SimConfig
from repro.sim.simulator import SimResult, run_simulation
from repro.sweep import ResultCache, SweepSpec, merge_results, point_key
from repro.sweep.cache import payload_to_result, result_to_payload


def spec_and_point(**kw):
    defaults = dict(
        schedulers=("lcf_central",),
        loads=(0.5,),
        config=SimConfig(n_ports=4, warmup_slots=20, measure_slots=200,
                         voq_capacity=16, pq_capacity=32, seed=5),
    )
    defaults.update(kw)
    spec = SweepSpec(**defaults)
    return spec, spec.points()[0]


def simulate(spec, point):
    return run_simulation(
        spec.point_config(point), point.scheduler, point.load,
        traffic=point.traffic, traffic_kwargs=dict(point.traffic_kwargs),
    )


class TestPointKey:
    def test_stable_across_calls(self):
        spec, point = spec_and_point()
        assert point_key(spec.config, point) == point_key(spec.config, point)

    def test_sensitive_to_every_input(self):
        spec, point = spec_and_point()
        base = point_key(spec.config, point)
        variants = [
            spec_and_point(loads=(0.6,)),
            spec_and_point(schedulers=("islip",)),
            spec_and_point(traffic="hotspot", traffic_kwargs=(("fraction", 0.3),)),
            spec_and_point(config=spec.config.with_(n_ports=8)),
            spec_and_point(config=spec.config.with_(seed=6)),
        ]
        keys = {point_key(s.config, p) for s, p in variants}
        assert base not in keys and len(keys) == len(variants)

    def test_replicates_get_distinct_keys(self):
        spec, _ = spec_and_point(replicates=3)
        keys = {point_key(spec.config, p) for p in spec.points()}
        assert len(keys) == 3

    def test_empty_fault_kwargs_preserve_pre_fault_keys(self):
        """Fault-free points must hash exactly as they did before fault
        injection existed, so old cache entries stay valid and a
        zero-fault resilience baseline is served from a plain sweep's
        cache."""
        spec, point = spec_and_point()
        faulted_spec, faulted_point = spec_and_point(fault_kwargs=())
        assert point.fault_kwargs == ()
        assert point_key(spec.config, point) == point_key(
            faulted_spec.config, faulted_point
        )

    def test_fault_kwargs_fold_into_key(self):
        from repro.faults import FaultPlan

        spec, point = spec_and_point()
        base = point_key(spec.config, point)
        keys = {
            point_key(s.config, p)
            for s, p in (
                spec_and_point(fault_kwargs=FaultPlan.message_loss(0.1).to_spec()),
                spec_and_point(fault_kwargs=FaultPlan.message_loss(0.2).to_spec()),
            )
        }
        assert base not in keys and len(keys) == 2


class TestRoundTrip:
    def test_simresult_payload_roundtrip(self):
        spec, point = spec_and_point()
        result = simulate(spec, point)
        back = payload_to_result(json.loads(json.dumps(result_to_payload(result))))
        assert back == result

    def test_nan_percentiles_and_service_roundtrip(self):
        spec, point = spec_and_point()
        result = run_simulation(
            spec.config, "lcf_central", 0.5,
            collect_service=True, collect_percentiles=True,
        )
        back = payload_to_result(json.loads(json.dumps(
            result_to_payload(result), allow_nan=True)))
        assert back.percentiles == result.percentiles
        assert np.array_equal(back.service_counts, result.service_counts)

    def test_nan_statistics_roundtrip(self):
        # A warmup-only run: every latency statistic is NaN.
        spec, point = spec_and_point(
            config=SimConfig(n_ports=4, warmup_slots=10, measure_slots=0),
        )
        result = simulate(spec, point)
        back = payload_to_result(json.loads(json.dumps(
            result_to_payload(result), allow_nan=True)))
        assert math.isnan(back.throughput) and math.isnan(back.mean_latency)


    def test_cached_shards_merge_like_fresh_ones(self):
        # Entries keep the delay counts, so pooled percentiles survive.
        spec, _ = spec_and_point(replicates=2)
        fresh = [
            run_simulation(spec.point_config(p), p.scheduler, p.load,
                           collect_percentiles=True)
            for p in spec.points()
        ]
        cached = [
            payload_to_result(json.loads(json.dumps(
                result_to_payload(r), allow_nan=True)))
            for r in fresh
        ]
        assert [r.delays.counts for r in cached] == [r.delays.counts for r in fresh]
        assert merge_results(cached).row() == merge_results(fresh).row()
        assert merge_results(cached).percentiles


class TestCacheStore:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec, point = spec_and_point()
        key = point_key(spec.config, point)
        assert cache.get(key) is None and cache.misses == 1
        result = simulate(spec, point)
        cache.put(key, result)
        assert key in cache and len(cache) == 1
        assert cache.get(key) == result and cache.hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec, point = spec_and_point()
        key = point_key(spec.config, point)
        cache.put(key, simulate(spec, point))
        cache.path_for(key).write_text('{"truncated": ')
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec, point = spec_and_point()
        cache.put(point_key(spec.config, point), simulate(spec, point))
        assert cache.clear() == 1 and len(cache) == 0

    def test_missing_root_is_created(self, tmp_path):
        root = tmp_path / "nested" / "cache"
        ResultCache(root)
        assert root.is_dir()
