"""`run_replicates`: strategy selection, fallback, and seed handling.

The contract under test: the execution strategy is invisible. Whatever
path a block takes — columnar, switch-reuse serial, or plain serial —
every replicate equals its own ``run_simulation`` call, and blocked
configurations *fall back* rather than fail.
"""

import numpy as np
import pytest

import repro.columnar.run as run_mod
from repro.columnar.kernels import ColumnarLCFCentral
from repro.columnar.run import columnar_supported, run_replicates
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation
from repro.traffic.base import make_traffic

SHORT = SimConfig(n_ports=8, warmup_slots=40, measure_slots=160)


def serial_results(config, name, load, seeds, **kwargs):
    return [
        run_simulation(config.with_(seed=seed), name, load, **kwargs)
        for seed in seeds
    ]


class TestSupported:
    def test_covered_plain_block_is_supported(self):
        ok, reason = columnar_supported("lcf_central_rr")
        assert ok and reason == ""

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({}, "no columnar kernel"),
            ({"traffic": make_traffic("bernoulli", 4, 0.5, seed=1)}, "registry name"),
            ({"faults": {"request_loss": 0.5}}, "fault injection"),
            ({"adapter": object()}, "adaptive scheduling"),
            ({"admission": object()}, "admission control"),
            ({"tracer_factory": lambda i: None}, "tracing"),
        ],
    )
    def test_blocking_reasons(self, kwargs, fragment):
        name = "pim" if not kwargs else "lcf_central"
        ok, reason = columnar_supported(name, **kwargs)
        assert not ok
        assert fragment in reason

    def test_null_fault_plan_does_not_block(self):
        ok, _ = columnar_supported("islip", faults={})
        assert ok


class TestCrossover:
    @pytest.mark.parametrize("name", ["lcf_central", "lcf_central_rr", "islip"])
    def test_blocks_batch_at_or_above_the_crossover(self, name):
        crossover = run_mod.COLUMNAR_MIN_REPLICATES
        # Figure 12's R=2 cells stay serial; R=32 blocks batch.
        assert 2 < crossover <= 32
        assert not run_mod.runs_columnar(name, crossover - 1)
        assert run_mod.runs_columnar(name, crossover)
        assert run_mod.runs_columnar(name, 32)

    def test_uncovered_configurations_never_batch(self):
        assert not run_mod.runs_columnar("pim", 64)
        assert not run_mod.runs_columnar("islip", 64, faults={"request_loss": 0.5})

    def test_widths_beyond_the_kernel_keys_never_batch(self):
        widest = ColumnarLCFCentral.max_ports
        for name in ("lcf_central", "lcf_central_rr"):
            assert run_mod.runs_columnar(name, 32, n_ports=widest)
            assert not run_mod.runs_columnar(name, 32, n_ports=widest + 1)
            ok, reason = columnar_supported(name, n_ports=widest + 1)
            assert not ok and "beyond" in reason
        assert run_mod.runs_columnar("islip", 32, n_ports=widest + 1)


class TestStrategyInvisibility:
    def test_columnar_equals_plain_serial_entry_point(self, crossover, monkeypatch):
        # One block of three seeds, below and then at the crossover: the
        # engine runs only at it, and the results are the serial ones
        # either way.
        seeds = [3, 4, 5]
        want = serial_results(SHORT, "islip", 0.85, seeds)
        engines = []

        class Recorder(run_mod.ColumnarEngine):
            def __init__(self, *args, **kwargs):
                engines.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(run_mod, "ColumnarEngine", Recorder)
        for threshold, batched in ((4, False), (3, True)):
            crossover(threshold)
            engines.clear()
            got = run_replicates(SHORT, "islip", 0.85, seeds=seeds)
            assert bool(engines) is batched
            from tests.columnar.conftest import assert_results_bit_identical

            for w, g in zip(want, got):
                assert_results_bit_identical(w, g, ("columnar vs serial", batched))

    def test_uncovered_scheduler_falls_back(self, monkeypatch, crossover):
        crossover(1)
        # pim has no kernel; the engine must never be constructed.
        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("ColumnarEngine used for an uncovered scheduler")

        monkeypatch.setattr(run_mod, "ColumnarEngine", boom)
        seeds = [1, 2]
        got = run_replicates(SHORT, "pim", 0.7, seeds=seeds)
        want = serial_results(SHORT, "pim", 0.7, seeds)
        from tests.columnar.conftest import assert_results_bit_identical

        for w, g in zip(want, got):
            assert_results_bit_identical(w, g, "pim fallback")

    def test_width_beyond_the_kernel_keys_runs_serially(self, monkeypatch, crossover):
        # A lowered bound stands in for a width past the int32 keys: the
        # block never reaches the engine and equals the serial runs.
        crossover(2)
        monkeypatch.setattr(ColumnarLCFCentral, "max_ports", SHORT.n_ports - 1)

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("ColumnarEngine used beyond the kernel's keys")

        monkeypatch.setattr(run_mod, "ColumnarEngine", boom)
        seeds = [1, 2, 3]
        got = run_replicates(SHORT, "lcf_central_rr", 0.9, seeds=seeds)
        want = serial_results(SHORT, "lcf_central_rr", 0.9, seeds)
        from tests.columnar.conftest import assert_results_bit_identical

        for w, g in zip(want, got):
            assert_results_bit_identical(w, g, "beyond the key space")

    def test_instrumented_block_falls_back(self, monkeypatch, crossover):
        crossover(1)
        calls = []

        class Recorder:
            def __init__(self, *args, **kwargs):  # pragma: no cover
                calls.append(args)
                raise AssertionError("engine constructed despite tracer")

        monkeypatch.setattr(run_mod, "ColumnarEngine", Recorder)
        from repro.obs.tracer import RingTracer

        traces = {}

        def factory(index):
            traces[index] = RingTracer()
            return traces[index]

        run_replicates(
            SHORT.with_(measure_slots=40),
            "lcf_central",
            0.5,
            2,
            tracer_factory=factory,
        )
        assert not calls
        assert set(traces) == {0, 1}


class TestSwitchReuse:
    # Satellite of the columnar work: the serial path builds one switch
    # per cell and re-arms it between replicates. Statistics must be
    # unchanged versus fresh switches.
    @pytest.mark.parametrize("name", ["lcf_central_rr", "pim", "wfront"])
    def test_reuse_matches_fresh_switches(self, name):
        seeds = [7, 8, 9]
        got = run_replicates(
            SHORT,
            name,
            0.9,
            seeds=seeds,
            collect_service=True,
            collect_percentiles=True,
        )
        want = serial_results(
            SHORT, name, 0.9, seeds, collect_service=True, collect_percentiles=True
        )
        from tests.columnar.conftest import assert_results_bit_identical

        for w, g in zip(want, got):
            assert_results_bit_identical(w, g, ("reuse", name))

    def test_reuse_with_registry_traffic_kwargs(self):
        seeds = [1, 2]
        got = run_replicates(
            SHORT,
            "islip",
            0.8,
            seeds=seeds,
            traffic="hotspot",
            traffic_kwargs={"fraction": 0.6},
        )
        want = serial_results(
            SHORT,
            "islip",
            0.8,
            seeds,
            traffic="hotspot",
            traffic_kwargs={"fraction": 0.6},
        )
        from tests.columnar.conftest import assert_results_bit_identical

        for w, g in zip(want, got):
            assert_results_bit_identical(w, g, "hotspot reuse")


class TestSeeds:
    def test_default_seeds_are_config_seed_plus_r(self):
        config = SHORT.with_(seed=100, measure_slots=40)
        got = run_replicates(config, "lcf_central", 0.5, 3)
        want = serial_results(config, "lcf_central", 0.5, [100, 101, 102])
        for w, g in zip(want, got):
            assert g.config.seed == w.config.seed

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="replicates or explicit seeds"):
            run_replicates(SHORT, "lcf_central", 0.5)
        with pytest.raises(ValueError, match="at least one replicate"):
            run_replicates(SHORT, "lcf_central", 0.5, 0)
        with pytest.raises(ValueError, match="non-empty"):
            run_replicates(SHORT, "lcf_central", 0.5, seeds=[])
        with pytest.raises(ValueError, match="disagrees"):
            run_replicates(SHORT, "lcf_central", 0.5, 3, seeds=[1, 2])

    def test_explicit_seed_subset_matches_full_block_members(self):
        # The sweep reruns only the cache misses of a cell; a subset
        # block must reproduce the corresponding members of the full one.
        full = run_replicates(SHORT, "lcf_central_rr", 0.9, seeds=[10, 11, 12, 13])
        subset = run_replicates(SHORT, "lcf_central_rr", 0.9, seeds=[11, 13])
        from tests.columnar.conftest import assert_results_bit_identical

        assert_results_bit_identical(full[1], subset[0], "subset 11")
        assert_results_bit_identical(full[3], subset[1], "subset 13")
