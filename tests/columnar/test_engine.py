"""The columnar engine vs the serial simulator, whole runs, bit for bit.

Every field of every replicate's SimResult — counters, Welford moments,
percentiles, service matrix — must equal the serial
:func:`~repro.sim.run_simulation` run under the same seed, and the
per-replicate RNG streams must end at the same position. The fast tier
covers the paper width and small word-boundary widths; the full
cross-product (schedulers x loads x traffic x wide switches) runs under
``-m slow``.
"""

import numpy as np
import pytest

import repro.columnar.engine as engine_mod
from repro.columnar.engine import ColumnarEngine, ColumnarMemoryError
from repro.columnar.kernels import columnar_kernel_bytes, columnar_schedulers
from repro.columnar.run import run_replicates
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation
from repro.traffic.base import make_traffic
from tests.columnar.conftest import assert_results_bit_identical

COVERED = columnar_schedulers()

SHORT = SimConfig(n_ports=8, warmup_slots=60, measure_slots=240)


def serial_results(config, name, load, seeds, **kwargs):
    return [
        run_simulation(config.with_(seed=seed), name, load, **kwargs)
        for seed in seeds
    ]


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", COVERED)
    @pytest.mark.parametrize("load", [0.3, 0.95])
    def test_full_simresult_equality(self, name, load):
        seeds = [1, 2, 3, 4]
        engine = ColumnarEngine(
            SHORT, name, load, seeds,
            collect_service=True, collect_percentiles=True,
        )
        results = engine.run()
        expected = serial_results(
            SHORT, name, load, seeds,
            collect_service=True, collect_percentiles=True,
        )
        for want, got in zip(expected, results):
            assert_results_bit_identical(want, got, (name, load))

    @pytest.mark.parametrize("traffic", ["bursty", "hotspot", "diagonal"])
    def test_registry_traffic_patterns(self, traffic):
        seeds = [5, 6, 7]
        engine = ColumnarEngine(SHORT, "lcf_central_rr", 0.8, seeds, traffic=traffic)
        results = engine.run()
        expected = serial_results(SHORT, "lcf_central_rr", 0.8, seeds, traffic=traffic)
        for want, got in zip(expected, results):
            assert_results_bit_identical(want, got, traffic)

    def test_rng_streams_end_at_serial_positions(self):
        seeds = [1, 2, 3]
        engine = ColumnarEngine(SHORT, "islip", 0.7, seeds)
        engine.run()
        for seed, engine_pattern in zip(seeds, engine.patterns):
            pattern = make_traffic("bernoulli", SHORT.n_ports, 0.7, seed=seed)
            run_simulation(SHORT.with_(seed=seed), "islip", 0.7, traffic=pattern)
            assert (
                engine_pattern.rng.bit_generator.state
                == pattern.rng.bit_generator.state
            )

    @pytest.mark.parametrize("name", COVERED)
    def test_queue_pressure_drops_and_blocking_match(self, name):
        # Tiny queues at overload: PQ drops, VOQ head blocking, and the
        # engine's circular-buffer growth all engage.
        config = SimConfig(
            n_ports=4, warmup_slots=40, measure_slots=200,
            pq_capacity=3, voq_capacity=2,
        )
        seeds = [11, 12, 13]
        results = ColumnarEngine(config, name, 1.0, seeds).run()
        expected = serial_results(config, name, 1.0, seeds)
        for want, got in zip(expected, results):
            assert want.dropped > 0  # the scenario actually exercises drops
            assert_results_bit_identical(want, got, "pressure")

    @pytest.mark.parametrize("name", COVERED)
    def test_moderate_pressure_runs_both_sides_of_the_empty_pq_rule(self, name):
        # Small VOQs near saturation: some slots start with every PQ
        # empty (stages 1-2 leave the PQ buffers alone) and some with a
        # packet waiting in a PQ; both must match the serial runs.
        config = SimConfig(
            n_ports=8, warmup_slots=50, measure_slots=300,
            pq_capacity=8, voq_capacity=8,
        )
        seeds = [21, 22, 23]
        engine = ColumnarEngine(config, name, 0.95, seeds)
        busy = []
        schedule_batch = engine.kernel.schedule_batch

        def record(requests_t):
            busy.append(bool(engine._pq_len.any()))
            return schedule_batch(requests_t)

        engine.kernel.schedule_batch = record
        results = engine.run()
        assert 0 < sum(busy) < len(busy)
        expected = serial_results(config, name, 0.95, seeds)
        for want, got in zip(expected, results):
            assert_results_bit_identical(want, got, "moderate pressure")

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_word_boundary_widths(self, n):
        config = SimConfig(n_ports=n, warmup_slots=20, measure_slots=80)
        seeds = [1, 2]
        results = ColumnarEngine(config, "lcf_central_rr", 0.8, seeds).run()
        expected = serial_results(config, "lcf_central_rr", 0.8, seeds)
        for want, got in zip(expected, results):
            assert_results_bit_identical(want, got, n)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", COVERED)
    @pytest.mark.parametrize("load", [0.1, 0.6, 0.9, 1.0])
    @pytest.mark.parametrize("n", [16, 63, 64, 65, 128])
    def test_cross_product(self, name, load, n):
        config = SimConfig(n_ports=n, warmup_slots=50, measure_slots=200)
        seeds = [1, 2, 3]
        engine = ColumnarEngine(
            config, name, load, seeds,
            collect_service=True, collect_percentiles=True,
        )
        results = engine.run()
        expected = serial_results(
            config, name, load, seeds,
            collect_service=True, collect_percentiles=True,
        )
        for want, got in zip(expected, results):
            assert_results_bit_identical(want, got, (name, load, n))


class TestRequestInspection:
    def test_request_bitsets_match_serial_voq_masks(self):
        from repro.sim.crossbar import InputQueuedSwitch
        from repro.baselines.registry import make_scheduler

        config = SimConfig(n_ports=8, warmup_slots=0, measure_slots=40)
        seeds = [9]
        engine = ColumnarEngine(config, "lcf_central", 0.9, seeds)
        switch = InputQueuedSwitch(config, make_scheduler("lcf_central", 8))
        pattern = make_traffic("bernoulli", 8, 0.9, seed=9)
        for slot in range(30):
            engine._slot(slot)
            switch.step(slot, pattern.arrivals())
        packed = engine.request_bitsets()
        assert packed.shape == (1, 8, 1)
        assert [int(w) for w in packed[0, :, 0]] == switch.voqs.row_masks
        assert np.array_equal(engine.voq_occupancy()[0], switch.voqs.occupancy)


class TestMemoryCeiling:
    def test_tiny_budget_raises(self):
        config = SimConfig(n_ports=8, warmup_slots=0, measure_slots=200)
        with pytest.raises(ColumnarMemoryError):
            ColumnarEngine(
                config, "lcf_central", 1.0, [1, 2], max_bytes=1_000
            ).run()

    def test_budget_counts_more_than_the_queues(self, crossover):
        # A ceiling above the queue buffers but below everything the
        # engine holds (VOQ heads and lengths, the request tensor, the
        # kernel's step buffers) must fall back, bit-identical.
        config = SimConfig(n_ports=8, warmup_slots=20, measure_slots=100)
        seeds = [config.seed, config.seed + 1]
        engine = ColumnarEngine(config, "lcf_central", 1.0, seeds)
        engine.run()
        queues = engine._pq_dst.nbytes + engine._pq_ts.nbytes + engine._voq_ts.nbytes
        total = engine._buffer_bytes()
        assert total > queues + engine.kernel.buffer_bytes(8, 2)
        budget = (queues + total) // 2
        with pytest.raises(ColumnarMemoryError):
            ColumnarEngine(config, "lcf_central", 1.0, seeds, max_bytes=budget).run()
        crossover(2)
        results = run_replicates(config, "lcf_central", 1.0, 2, max_bytes=budget)
        expected = serial_results(config, "lcf_central", 1.0, seeds)
        for want, got in zip(expected, results):
            assert_results_bit_identical(want, got, "fallback")

    def test_budget_is_checked_before_the_kernel_is_built(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("kernel built past the memory ceiling")

        monkeypatch.setattr(engine_mod, "make_columnar_kernel", boom)
        config = SimConfig(n_ports=16, warmup_slots=0, measure_slots=10)
        kernel_bytes = columnar_kernel_bytes("lcf_central_rr", 16, 8)
        with pytest.raises(ColumnarMemoryError):
            ColumnarEngine(
                config, "lcf_central_rr", 0.5, list(range(8)),
                max_bytes=kernel_bytes,
            )

    def test_run_replicates_falls_back_and_stays_identical(self, crossover):
        crossover(2)
        config = SimConfig(n_ports=8, warmup_slots=20, measure_slots=100)
        results = run_replicates(config, "lcf_central", 1.0, 2, max_bytes=1_000)
        expected = serial_results(config, "lcf_central", 1.0, [config.seed, config.seed + 1])
        for want, got in zip(expected, results):
            assert_results_bit_identical(want, got, "fallback")
