"""Parallel runner: shard-merge correctness, caching, and resume."""

import math
import statistics

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sweep.runner as runner_mod
from repro.obs import RingTracer
from repro.obs.estimators import DelayHistogram
from repro.sim.config import SimConfig
from repro.sim.simulator import SimResult, latency_fields, run_simulation
from repro.sweep import ParallelRunner, ResultCache, SweepSpec, merge_results


def quick_spec(**kw):
    defaults = dict(
        schedulers=("lcf_central", "outbuf"),
        loads=(0.3, 0.8),
        config=SimConfig(n_ports=4, warmup_slots=50, measure_slots=500,
                         voq_capacity=32, pq_capacity=64, seed=3),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def result_from_samples(samples, config):
    """A synthetic SimResult summarising an explicit delay stream."""
    delays = DelayHistogram()
    for value in samples:
        delays.add(value)
    return SimResult(
        scheduler="synthetic", load=0.5, config=config,
        **latency_fields(delays, True),
        offered=delays.count, forwarded=delays.count, dropped=0,
        throughput=0.0, delays=delays,
    )


class TestSerialFidelity:
    def test_workers_one_is_bit_identical_to_direct_runs(self):
        spec = quick_spec()
        run = ParallelRunner(workers=1).run(spec)
        for name, load in spec.grid_keys():
            direct = run_simulation(spec.config, name, load)
            engine = run.get(name, load)
            assert engine.mean_latency == direct.mean_latency
            assert engine.std_latency == direct.std_latency
            assert engine.forwarded == direct.forwarded
            assert engine.throughput == direct.throughput

    def test_single_replicate_passes_through_unmerged(self):
        spec = quick_spec(loads=(0.5,))
        run = ParallelRunner(workers=1).run(spec)
        assert run.get("lcf_central", 0.5) is run.outcomes[0].result


class TestParallelEqualsSerial:
    def test_worker_count_does_not_change_statistics(self):
        spec = quick_spec(loads=(0.5, 0.8), replicates=2)
        serial = ParallelRunner(workers=1).run(spec)
        parallel = ParallelRunner(workers=2).run(spec)
        for key, merged in serial.merged.items():
            other = parallel.merged[key]
            assert other.mean_latency == merged.mean_latency
            assert other.std_latency == merged.std_latency
            assert other.min_latency == merged.min_latency
            assert other.max_latency == merged.max_latency
            assert other.forwarded == merged.forwarded
            assert other.offered == merged.offered

    def test_replicate_shards_preserved_in_order(self):
        spec = quick_spec(schedulers=("lcf_central",), loads=(0.5,), replicates=3)
        run = ParallelRunner(workers=2).run(spec)
        shards = run.replicates("lcf_central", 0.5)
        assert [s.config.seed for s in shards] == [3, 4, 5]


class TestShardMergeProperty:
    @given(
        st.lists(
            st.lists(st.integers(1, 10**4), min_size=0, max_size=40),
            min_size=2, max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_nway_sharded_stats_equal_single_stream(self, shards):
        """Every latency field of merged shards equals the one-stream
        value exactly: delays are integers, and merging adds counts."""
        config = SimConfig(n_ports=4, warmup_slots=10, measure_slots=100)
        merged = merge_results([result_from_samples(s, config) for s in shards])
        whole = [value for shard in shards for value in shard]
        assert merged.forwarded == len(whole)
        if not whole:
            assert math.isnan(merged.mean_latency)
            assert math.isnan(merged.min_latency)
            assert math.isnan(merged.max_latency)
            return
        assert merged.min_latency == min(whole)
        assert merged.max_latency == max(whole)
        assert merged.mean_latency == statistics.fmean(whole)
        if len(whole) > 1:
            assert merged.std_latency == math.sqrt(statistics.variance(whole))
        assert merged.percentiles == {
            p: float(v)
            for p, v in zip((50.0, 90.0, 99.0), np.percentile(whole, (50, 90, 99)))
        }

    def test_sharded_sweep_merges_exactly_like_manual_fold(self):
        """Engine merge == folding the per-seed results by hand."""
        spec = quick_spec(schedulers=("islip",), loads=(0.8,), replicates=3)
        run = ParallelRunner(workers=2).run(spec)
        manual = [
            run_simulation(spec.config.with_(seed=spec.config.seed + r), "islip", 0.8)
            for r in range(3)
        ]
        expected = merge_results(manual)
        merged = run.get("islip", 0.8)
        assert merged.mean_latency == expected.mean_latency
        assert merged.std_latency == expected.std_latency
        assert merged.min_latency == expected.min_latency
        assert merged.max_latency == expected.max_latency
        assert merged.forwarded == expected.forwarded
        # Every forwarded packet is one sample of the shard's histogram.
        assert manual[0].delays.count == manual[0].forwarded


    def test_merged_runs_read_pooled_delays(self):
        """A merged result's percentiles and mean are those of every
        shard's forwarded packets pooled, as the traces record them."""
        config = SimConfig(n_ports=8, warmup_slots=100, measure_slots=400)
        results, pooled = [], []
        for seed in (1, 2):
            tracer = RingTracer(1 << 20)
            results.append(run_simulation(
                config.with_(seed=seed), "lcf_central_rr", 0.9,
                collect_percentiles=True, tracer=tracer,
            ))
            pooled.extend(
                event["latency"]
                for event in tracer.of_type("forward")
                if event["slot"] >= config.warmup_slots
            )
        merged = merge_results(results)
        assert merged.forwarded == len(pooled)
        assert merged.percentiles == {
            p: float(v)
            for p, v in zip((50.0, 90.0, 99.0), np.percentile(pooled, (50, 90, 99)))
        }
        assert merged.mean_latency == statistics.fmean(pooled)

    def test_merged_admission_shards_sum_shed(self):
        """Every counter of a merged result is the sum over its shards,
        including the arrivals admission control shed."""
        from repro import run_replicates

        config = SimConfig(n_ports=8, warmup_slots=50, measure_slots=400, seed=3)
        shards = run_replicates(
            config, "lcf_central_rr", 1.0, 2, admission=(20, 40)
        )
        assert all(shard.shed > 0 for shard in shards)
        merged = merge_results(shards)
        for counter in ("offered", "forwarded", "dropped", "shed"):
            assert getattr(merged, counter) == sum(
                getattr(shard, counter) for shard in shards
            ), counter


class TestCacheAndResume:
    def test_rerun_is_pure_cache_hits(self, tmp_path, monkeypatch):
        spec = quick_spec()
        first = ParallelRunner(workers=1, cache=tmp_path).run(spec)
        assert first.report.computed == spec.n_points()

        def explode(*args, **kwargs):
            raise AssertionError("cache miss recomputed a cached point")

        monkeypatch.setattr(runner_mod, "run_simulation", explode)
        second = ParallelRunner(workers=1, cache=tmp_path).run(spec)
        assert second.report.computed == 0
        assert second.report.cache_hits == spec.n_points()
        for key, merged in first.merged.items():
            assert second.merged[key].mean_latency == merged.mean_latency

    def test_interrupted_sweep_resumes_missing_points_only(self, tmp_path, monkeypatch):
        # Simulate an interrupt: only the first load's points completed.
        prefix = quick_spec(loads=(0.3,))
        ParallelRunner(workers=1, cache=tmp_path).run(prefix)

        calls = []
        original = runner_mod.run_simulation

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_simulation", counting)
        full = quick_spec(loads=(0.3, 0.8))
        resumed = ParallelRunner(workers=1, cache=tmp_path).run(full)
        assert len(calls) == 2  # only the load-0.8 points
        assert resumed.report.cache_hits == 2
        fresh = ParallelRunner(workers=1).run(full)
        for key, merged in fresh.merged.items():
            assert resumed.merged[key].mean_latency == merged.mean_latency

    def test_cache_object_and_path_both_accepted(self, tmp_path):
        spec = quick_spec(schedulers=("outbuf",), loads=(0.5,))
        cache = ResultCache(tmp_path)
        ParallelRunner(workers=1, cache=cache).run(spec)
        rerun = ParallelRunner(workers=1, cache=str(tmp_path)).run(spec)
        assert rerun.report.cache_hits == 1


class TestReporting:
    def test_report_accounts_for_every_point(self):
        spec = quick_spec(replicates=2)
        run = ParallelRunner(workers=1).run(spec)
        report = run.report
        assert report.total_points == spec.n_points()
        assert report.computed + report.cache_hits == report.total_points
        assert report.points_per_sec > 0
        assert set(report.scheduler_seconds) == set(spec.schedulers)
        assert "pts/s" in report.summary()

    def test_progress_callable_receives_lines(self):
        lines = []
        spec = quick_spec(schedulers=("lcf_central",), loads=(0.5,))
        ParallelRunner(workers=1, progress=lines.append).run(spec)
        assert any("lcf_central" in line for line in lines)
        assert any("ETA" in line for line in lines)
