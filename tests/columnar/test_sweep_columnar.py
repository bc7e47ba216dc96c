"""Sweep replicate blocks: block execution is invisible to the results.

``ParallelRunner`` regroups consecutive pending replicates of a cell
into one ``run_replicates`` block when that block reaches the columnar
crossover. Everything downstream — merged statistics, per-replicate
shards, cache entries — must be exactly what the per-point path
produces, because the cache key deliberately ignores the execution
strategy. The cells here have three replicates, below the default
crossover; the ``crossover`` fixture lowers it for the blocked runs.
"""

import pytest

import repro.sweep.runner as runner_mod
from repro.columnar.kernels import ColumnarLCFCentral
from repro.sim.config import SimConfig
from repro.sweep import ParallelRunner, ResultCache, SweepSpec, point_key
from tests.columnar.conftest import assert_results_bit_identical


@pytest.fixture
def blocks(monkeypatch):
    """Records the seeds of every replicate block the runner dispatches
    (in-process workers only)."""
    seen = []
    original = runner_mod.run_replicates

    def recording(*args, **kwargs):
        seen.append(kwargs["seeds"])
        return original(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_replicates", recording)
    return seen


def quick_spec(**kw):
    defaults = dict(
        schedulers=("lcf_central_rr", "islip"),
        loads=(0.4, 0.9),
        replicates=3,
        config=SimConfig(
            n_ports=8, warmup_slots=40, measure_slots=200, seed=3
        ),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestBlockEquality:
    def test_columnar_run_matches_per_point_run(self, crossover, blocks):
        spec = quick_spec()
        per_point = ParallelRunner(workers=1).run(spec)
        assert blocks == []
        crossover(3)
        blocked = ParallelRunner(workers=1).run(spec)
        assert blocks == [[3, 4, 5]] * len(spec.grid_keys())
        for name, load in spec.grid_keys():
            want = per_point.replicates(name, load)
            got = blocked.replicates(name, load)
            assert len(got) == len(want)
            for w, g in zip(want, got):
                assert_results_bit_identical(w, g, (name, load))
            merged_want = per_point.merged[(name, load)]
            merged_got = blocked.merged[(name, load)]
            assert merged_got.mean_latency == merged_want.mean_latency
            assert merged_got.std_latency == merged_want.std_latency
            assert merged_got.forwarded == merged_want.forwarded

    def test_uncovered_schedulers_ride_the_serial_fallback(self, crossover, blocks):
        # A grid mixing covered and uncovered schedulers still works:
        # only the covered cell goes out as a block.
        spec = quick_spec(schedulers=("lcf_central", "pim"), loads=(0.7,))
        per_point = ParallelRunner(workers=1).run(spec)
        crossover(1)
        blocked = ParallelRunner(workers=1).run(spec)
        assert blocks == [[3, 4, 5]]
        for name, load in spec.grid_keys():
            for w, g in zip(
                per_point.replicates(name, load), blocked.replicates(name, load)
            ):
                assert_results_bit_identical(w, g, (name, load))

    def test_multiprocess_columnar_matches_serial_columnar(self, crossover):
        crossover(1)
        spec = quick_spec(loads=(0.9,))
        one = ParallelRunner(workers=1).run(spec)
        two = ParallelRunner(workers=2).run(spec)
        for name, load in spec.grid_keys():
            for w, g in zip(
                one.replicates(name, load), two.replicates(name, load)
            ):
                assert_results_bit_identical(w, g, (name, load))


class TestCacheSharing:
    def test_cache_keys_ignore_execution_strategy(self, tmp_path, crossover):
        # A columnar sweep fully warms the cache for a per-point sweep
        # (and vice versa): second run computes nothing.
        spec = quick_spec(schedulers=("lcf_central_rr",), loads=(0.9,))
        cache = ResultCache(tmp_path / "cache")
        crossover(1)
        blocked = ParallelRunner(workers=1, cache=cache).run(spec)
        assert all(not o.cached for o in blocked.outcomes)
        crossover(10**9)
        per_point = ParallelRunner(workers=1, cache=cache).run(spec)
        assert all(o.cached for o in per_point.outcomes)
        for w, g in zip(
            blocked.replicates("lcf_central_rr", 0.9),
            per_point.replicates("lcf_central_rr", 0.9),
        ):
            assert_results_bit_identical(w, g, "cache round-trip")

    def test_partial_miss_runs_only_missing_replicates(
        self, tmp_path, crossover, blocks
    ):
        spec = quick_spec(schedulers=("islip",), loads=(0.9,), replicates=4)
        cache = ResultCache(tmp_path / "cache")
        # Warm replicate seeds 0 and 2 through a narrower spec run.
        points = spec.points()
        from repro.sim.simulator import run_simulation

        for p in (points[0], points[2]):
            cache.put(
                point_key(spec.config, p),
                run_simulation(spec.point_config(p), p.scheduler, p.load),
            )
        crossover(2)
        blocked = ParallelRunner(workers=1, cache=cache).run(spec)
        cached_flags = [o.cached for o in blocked.outcomes]
        assert cached_flags == [True, False, True, False]
        assert blocks == [[4, 6]]
        per_point = ParallelRunner(workers=1).run(spec)
        for w, g in zip(
            per_point.replicates("islip", 0.9), blocked.replicates("islip", 0.9)
        ):
            assert_results_bit_identical(w, g, "partial miss")


class TestDispatch:
    def test_checkpointing_sweep_dispatches_per_point(
        self, tmp_path, crossover, blocks
    ):
        # Checkpoints are per-point mid-run state, so a checkpointing
        # sweep never forms blocks — even of cells that would batch.
        crossover(1)
        spec = quick_spec(schedulers=("lcf_central_rr",), loads=(0.9,))
        checkpointed = ParallelRunner(
            cache=ResultCache(tmp_path / "cache"), checkpoint_every=100
        ).run(spec)
        assert blocks == []
        blocked = ParallelRunner(workers=1).run(spec)
        assert blocks == [[3, 4, 5]]
        for w, g in zip(
            blocked.replicates("lcf_central_rr", 0.9),
            checkpointed.replicates("lcf_central_rr", 0.9),
        ):
            assert_results_bit_identical(w, g, "checkpointed per point")

    def test_width_beyond_the_kernel_keys_dispatches_per_point(
        self, monkeypatch, crossover, blocks
    ):
        # The runner asks runs_columnar with the spec's width: past the
        # kernel's keys (a lowered bound here) cells never form blocks.
        crossover(1)
        spec = quick_spec(schedulers=("lcf_central_rr",), loads=(0.9,))
        blocked = ParallelRunner(workers=1).run(spec)
        assert blocks == [[3, 4, 5]]
        blocks.clear()
        monkeypatch.setattr(
            ColumnarLCFCentral, "max_ports", spec.config.n_ports - 1
        )
        per_point = ParallelRunner(workers=1).run(spec)
        assert blocks == []
        for w, g in zip(
            blocked.replicates("lcf_central_rr", 0.9),
            per_point.replicates("lcf_central_rr", 0.9),
        ):
            assert_results_bit_identical(w, g, "beyond the key space")
