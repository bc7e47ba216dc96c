"""Property: resume from a checkpoint ≡ never stopping.

The contract under test is *bit-identity*: a run checkpointed at any
slot ``k`` and resumed produces exactly the statistics, the trace
events, and the RNG stream positions of the uninterrupted run — for
every registry scheduler, on the reference and fastpath layers, under
any fault plan.

The fast tier samples the space with small Hypothesis budgets; the
``slow`` tier sweeps the full scheduler × fastpath cross-product.
"""

from __future__ import annotations

import contextlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint import load_checkpoint, resume_simulation
from repro.fastpath.registry import (
    _reference_kernels,
    fast_schedulers,
    has_fast_kernel,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RingTracer
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation

#: Crossbar registry names (``fifo`` uses the dedicated switch model,
#: exercised separately below).
CROSSBAR_SCHEDULERS = (
    "greedy", "islip", "lcf_central", "lcf_central_rr", "lcf_dist",
    "lcf_dist_rr", "lqf", "ocf", "pim", "random", "wfront",
)

FAULT_PLANS = st.sampled_from([
    None,
    (("request_loss", 0.1), ("grant_loss", 0.05)),
    (("port_down", ((1, 20, 60, "output"),)),),
    (("link_down", ((0, 1, 10, 50),)), ("port_down", ((2, 30, 70, "input"),))),
])


def _config(seed: int, warmup: int = 10, measure: int = 90) -> SimConfig:
    return SimConfig(
        n_ports=4, warmup_slots=warmup, measure_slots=measure, seed=seed
    )


def _assert_resume_identical(
    config: SimConfig,
    scheduler: str,
    stop_at: int,
    tmp_path,
    *,
    load: float = 0.8,
    fast: bool = False,
    faults=None,
    adapter=None,
    admission=None,
) -> None:
    kwargs = dict(faults=faults, adapter=adapter, admission=admission)
    with contextlib.nullcontext() if fast else _reference_kernels():
        straight_tracer = RingTracer(1 << 20)
        straight = run_simulation(
            config, scheduler, load, tracer=straight_tracer, **kwargs
        )
        ckpt = tmp_path / "run.ckpt"
        part1 = RingTracer(1 << 20)
        run_simulation(
            config, scheduler, load, tracer=part1,
            checkpoint_path=ckpt, stop_at_slot=stop_at, **kwargs,
        )
        part2 = RingTracer(1 << 20)
        resumed = resume_simulation(ckpt, tracer=part2)
    assert resumed.row() == straight.row()
    assert list(part1.events) + list(part2.events) == list(straight_tracer.events)


class TestRoundtripFastTier:
    """Cheap per-scheduler coverage for tier-1 CI."""

    @pytest.mark.parametrize("scheduler", CROSSBAR_SCHEDULERS)
    def test_mid_measurement_checkpoint(self, scheduler, tmp_path):
        _assert_resume_identical(_config(seed=3), scheduler, 55, tmp_path)

    @pytest.mark.parametrize("scheduler", fast_schedulers())
    def test_fastpath_twin(self, scheduler, tmp_path):
        _assert_resume_identical(
            _config(seed=4), scheduler, 55, tmp_path, fast=True
        )

    @pytest.mark.parametrize("name", ["fifo", "outbuf"])
    def test_dedicated_switch_models(self, name, tmp_path):
        config = _config(seed=5)
        straight = run_simulation(config, name, 0.7)
        ckpt = tmp_path / "run.ckpt"
        run_simulation(config, name, 0.7, checkpoint_path=ckpt, stop_at_slot=40)
        assert resume_simulation(ckpt).row() == straight.row()

    @settings(max_examples=10, deadline=None)
    @given(
        scheduler=st.sampled_from(("lcf_central_rr", "lcf_dist_rr", "pim")),
        stop_at=st.integers(min_value=1, max_value=99),
        faults=FAULT_PLANS,
        fast=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_any_slot_any_plan(
        self, scheduler, stop_at, faults, fast, seed, tmp_path_factory
    ):
        tmp = tmp_path_factory.mktemp("ckpt")
        _assert_resume_identical(
            _config(seed=seed), scheduler, stop_at, tmp,
            fast=fast, faults=faults,
        )

    def test_warmup_boundary_checkpoint(self, tmp_path):
        # Pausing exactly at the warmup/measurement boundary must
        # restore the measuring flag correctly on resume.
        config = _config(seed=6, warmup=30, measure=70)
        _assert_resume_identical(config, "lcf_central_rr", 30, tmp_path)

    def test_adaptive_estimator_state_survives(self, tmp_path):
        _assert_resume_identical(
            _config(seed=7, warmup=0, measure=120), "lcf_dist_rr", 65, tmp_path,
            faults=(("port_down", ((1, 20, 80, "output"),)),),
            adapter={"policy": "adaptive"},
        )

    def test_admission_counters_survive(self, tmp_path):
        config = SimConfig(
            n_ports=4, warmup_slots=0, measure_slots=150,
            voq_capacity=8, pq_capacity=16, seed=8,
        )
        _assert_resume_identical(
            config, "lcf_central_rr", 70, tmp_path,
            load=1.0, admission=(10, 30),
        )

    def test_rng_stream_position_restored(self, tmp_path):
        # Two checkpoints of the same run at the same later slot — one
        # straight-through, one through an intermediate resume — must
        # hold byte-identical payloads, PCG64 stream state included.
        config = _config(seed=9)
        ck_a = tmp_path / "a.ckpt"
        run_simulation(
            config, "pim", 0.8, checkpoint_path=ck_a, stop_at_slot=80
        )
        ck_b = tmp_path / "b.ckpt"
        run_simulation(
            config, "pim", 0.8, checkpoint_path=ck_b, stop_at_slot=40
        )
        resume_simulation(ck_b, checkpoint_path=ck_b, stop_at_slot=80)
        pa, pb = load_checkpoint(ck_a), load_checkpoint(ck_b)
        pa["run"]["checkpoint_every"] = pb["run"]["checkpoint_every"] = None
        assert json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)

    def test_metrics_registry_restored(self, tmp_path):
        config = _config(seed=10)
        m_straight = MetricsRegistry()
        run_simulation(config, "lcf_central_rr", 0.8, metrics=m_straight)
        ckpt = tmp_path / "run.ckpt"
        run_simulation(
            config, "lcf_central_rr", 0.8, metrics=MetricsRegistry(),
            checkpoint_path=ckpt, stop_at_slot=50,
        )
        m_resumed = MetricsRegistry()
        resume_simulation(ckpt, metrics=m_resumed)
        from repro.obs.serve import render_openmetrics

        assert render_openmetrics(m_resumed) == render_openmetrics(m_straight)

    @pytest.mark.parametrize(
        "scheduler, faults",
        [
            pytest.param("lcf_central_rr", None, id="lcf_central_rr"),
            pytest.param("lcf_dist_rr", None, id="lcf_dist_rr"),
            # The switch loses the kernel's requests, keyed by the slot:
            # a resume carries no loss state.
            pytest.param(
                "lcf_central_rr", (("request_loss", 0.3),),
                id="lcf_central_rr-request_loss",
            ),
        ],
    )
    def test_fast_loop_metrics_resume_mid_block(self, scheduler, faults, tmp_path):
        # A metrics-only fast run tallies per driver block (64 slots);
        # pausing at slot 100 splits a block, and the resumed run must
        # still end with the uninterrupted run's snapshot and result.
        config = SimConfig(n_ports=8, warmup_slots=30, measure_slots=170, seed=12)
        m_straight = MetricsRegistry()
        straight = run_simulation(
            config, scheduler, 0.9, metrics=m_straight,
            collect_percentiles=True, faults=faults,
        )
        ckpt = tmp_path / "run.ckpt"
        paused = MetricsRegistry()
        run_simulation(
            config, scheduler, 0.9, metrics=paused, faults=faults,
            collect_percentiles=True, checkpoint_path=ckpt, stop_at_slot=100,
        )
        assert paused.counter("slots").value == 100
        m_resumed = MetricsRegistry()
        resumed = resume_simulation(ckpt, metrics=m_resumed)
        assert resumed.row() == straight.row()
        assert m_resumed.snapshot() == m_straight.snapshot()

    def test_periodic_checkpoints_resume_from_latest(self, tmp_path):
        # checkpoint_every without stop_at: kill-anytime crash
        # recovery. The file left behind is the latest boundary; a
        # resume completes with the uninterrupted statistics.
        config = _config(seed=11)
        straight = run_simulation(config, "islip", 0.8)
        ckpt = tmp_path / "run.ckpt"
        run_simulation(
            config, "islip", 0.8, checkpoint_path=ckpt, checkpoint_every=16
        )
        # The completed run leaves its last periodic checkpoint (slot 96).
        payload = load_checkpoint(ckpt)
        assert payload["slot"] == 96
        assert resume_simulation(ckpt).row() == straight.row()


@pytest.mark.slow
class TestRoundtripFullCrossProduct:
    """Every crossbar scheduler × fastpath × plan × random slots."""

    @pytest.mark.parametrize("scheduler", CROSSBAR_SCHEDULERS)
    @pytest.mark.parametrize("fast", [False, True])
    def test_scheduler_cross_product(self, scheduler, fast, tmp_path):
        if fast and not has_fast_kernel(scheduler):
            pytest.skip(f"{scheduler} has no fast kernel")
        for stop_at in (1, 10, 37, 99):
            _assert_resume_identical(
                _config(seed=21), scheduler, stop_at, tmp_path, fast=fast
            )

    @settings(max_examples=60, deadline=None)
    @given(
        scheduler=st.sampled_from(CROSSBAR_SCHEDULERS),
        stop_at=st.integers(min_value=1, max_value=119),
        faults=FAULT_PLANS,
        fast=st.booleans(),
        adaptive=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_exhaustive_property(
        self, scheduler, stop_at, faults, fast, adaptive, seed, tmp_path_factory
    ):
        if fast and not has_fast_kernel(scheduler):
            fast = False
        tmp = tmp_path_factory.mktemp("ckpt")
        _assert_resume_identical(
            SimConfig(n_ports=4, warmup_slots=20, measure_slots=100, seed=seed),
            scheduler, stop_at, tmp,
            fast=fast, faults=faults,
            adapter={"policy": "adaptive"} if adaptive else None,
        )
