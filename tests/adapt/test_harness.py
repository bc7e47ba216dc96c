"""run_adaptive_sweep: both stances through the cached sweep engine."""

import math

import pytest

from repro.adapt import AdaptConfig
from repro.faults.harness import OBLIVIOUS_SPEC, run_adaptive_sweep
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation

CONFIG = SimConfig(n_ports=4, warmup_slots=10, measure_slots=60, seed=5)
GRID = (1.0, 0.8)
SCHEDULERS = ("lcf_dist_rr",)


@pytest.fixture(scope="module")
def report():
    return run_adaptive_sweep(
        SCHEDULERS, availabilities=GRID, load=0.7, config=CONFIG, period=40
    )


def test_every_cell_ran_under_both_stances(report):
    for name in SCHEDULERS:
        for value in GRID:
            assert (name, value) in report.oblivious
            assert (name, value) in report.adaptive
    assert report.baseline_value == 1.0
    assert dict(report.adapt_spec)["policy"] == "adaptive"
    assert OBLIVIOUS_SPEC == (("policy", "oblivious"),)


def test_healthy_point_is_identical_across_stances_and_to_plain(report):
    plain = run_simulation(CONFIG, "lcf_dist_rr", 0.7)
    assert report.oblivious[("lcf_dist_rr", 1.0)].row() == plain.row()
    assert report.adaptive[("lcf_dist_rr", 1.0)].row() == plain.row()


def test_recovered_fraction_shape(report):
    # Healthy point: the oblivious stance lost nothing -> NaN.
    assert math.isnan(report.recovered("lcf_dist_rr", 1.0))
    # Degraded point: a finite fraction (sign depends on the workload).
    degraded = report.recovered("lcf_dist_rr", 0.8)
    assert math.isfinite(degraded) or math.isnan(degraded)


def test_rows_and_csv_cover_every_stance(report):
    rows = report.rows()
    assert len(rows) == len(SCHEDULERS) * len(GRID) * 2
    stances = {row["stance"] for row in rows}
    assert stances == {"oblivious", "adaptive"}
    for row in rows:
        assert "availability" in row and "recovered" in row
    csv = report.to_csv()
    assert csv.count("\n") >= len(rows)
    assert "adaptive" in report.summary()


def test_results_are_cache_backed(tmp_path):
    cache = tmp_path / "cache"
    first = run_adaptive_sweep(
        SCHEDULERS, availabilities=GRID, load=0.7, config=CONFIG,
        period=40, cache=cache,
    )
    assert sum(r.cache_hits for r in first.sweep_reports) == 0
    again = run_adaptive_sweep(
        SCHEDULERS, availabilities=GRID, load=0.7, config=CONFIG,
        period=40, cache=cache,
    )
    hits = sum(r.cache_hits for r in again.sweep_reports)
    total = sum(r.total_points for r in again.sweep_reports)
    assert hits == total > 0
    for key, result in first.adaptive.items():
        assert again.adaptive[key].row() == result.row()


def test_bad_grid_writes_no_cache_entry(tmp_path):
    cache = tmp_path / "cache"
    with pytest.raises(ValueError, match="availability"):
        run_adaptive_sweep(
            SCHEDULERS, availabilities=(1.0, 1.5), load=0.7, config=CONFIG,
            period=40, cache=cache,
        )
    assert not cache.exists() or not any(cache.iterdir())


def test_adapt_spec_accepts_config_and_pairs(tmp_path):
    config = AdaptConfig(probe_interval=2)
    by_config = run_adaptive_sweep(
        SCHEDULERS, availabilities=(0.8,), load=0.7, config=CONFIG,
        period=40, adapt=config,
    )
    by_spec = run_adaptive_sweep(
        SCHEDULERS, availabilities=(0.8,), load=0.7, config=CONFIG,
        period=40, adapt=config.to_spec(),
    )
    assert by_config.adapt_spec == by_spec.adapt_spec
    assert (
        by_config.adaptive[("lcf_dist_rr", 0.8)].row()
        == by_spec.adaptive[("lcf_dist_rr", 0.8)].row()
    )
