"""Online estimators: EWMA rate lazy decay and the exact delay histogram."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.estimators import DelayHistogram, RateEstimator


# ---------------------------------------------------------------------------
# RateEstimator
# ---------------------------------------------------------------------------


def naive_ewma(events: list[tuple[int, int, int]], n: int, alpha: float,
               horizon: int) -> np.ndarray:
    """Reference: apply the EWMA recurrence slot by slot, no laziness."""
    value = np.zeros((n, n))
    hits = np.zeros((n, n), dtype=bool)
    by_slot: dict[int, list[tuple[int, int]]] = {}
    for i, j, slot in events:
        by_slot.setdefault(slot, []).append((i, j))
    for slot in range(horizon + 1):
        hits[:] = False
        for i, j in by_slot.get(slot, []):
            hits[i, j] = True
        value = (1.0 - alpha) * value + alpha * hits
    return value


class TestRateEstimator:
    def test_converges_to_true_rate(self):
        est = RateEstimator(2, alpha=0.05)
        # Pair (0, 1) served every slot: rate must approach 1.0.
        for slot in range(400):
            est.observe(0, 1, slot)
        assert est.rate(0, 1, 399) == pytest.approx(1.0, abs=1e-6)
        # Untouched pairs stay at exactly zero.
        assert est.rate(1, 0, 399) == 0.0

    def test_half_rate_alternating(self):
        est = RateEstimator(1, alpha=0.02)
        for slot in range(0, 1000, 2):
            est.observe(0, 0, slot)
        assert est.rate(0, 0, 999) == pytest.approx(0.5, rel=0.1)

    def test_decay_during_outage_then_recovery(self):
        """The ROADMAP's 'watch a faulted switch heal' signal."""
        est = RateEstimator(1, alpha=0.05)
        for slot in range(200):
            est.observe(0, 0, slot)
        healthy = est.rate(0, 0, 199)
        faulted = est.rate(0, 0, 300)  # 100 silent slots
        assert faulted < 0.01 * healthy
        for slot in range(300, 500):
            est.observe(0, 0, slot)
        assert est.rate(0, 0, 499) == pytest.approx(healthy, rel=0.01)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 3), st.integers(0, 60)
            ),
            max_size=40,
        )
    )
    def test_lazy_decay_matches_naive_reference(self, raw_events):
        """Lazy one-power decay == slot-by-slot recurrence, any pattern.

        At most one event per (pair, slot) — the crossbar forwards at
        most one packet per pair per slot — and events are applied in
        slot order, as the switch does.
        """
        events = sorted(set(raw_events), key=lambda e: e[2])
        seen = set()
        events = [
            e for e in events
            if (e[0], e[1], e[2]) not in seen and not seen.add((e[0], e[1], e[2]))
        ]
        alpha, horizon = 0.1, 60
        est = RateEstimator(4, alpha=alpha)
        for i, j, slot in events:
            est.observe(i, j, slot)
        expected = naive_ewma(events, 4, alpha, horizon)
        np.testing.assert_allclose(est.matrix(horizon), expected, atol=1e-12)

    def test_aggregates_and_top_pairs(self):
        est = RateEstimator(3, alpha=0.1)
        for slot in range(100):
            est.observe(0, 2, slot)
            if slot % 2 == 0:
                est.observe(1, 1, slot)
        at = 99
        matrix = est.matrix(at)
        np.testing.assert_allclose(est.input_rates(at), matrix.sum(axis=1))
        np.testing.assert_allclose(est.output_rates(at), matrix.sum(axis=0))
        assert est.total_rate(at) == pytest.approx(matrix.sum())
        top = est.top_pairs(at, k=2)
        assert [(i, j) for i, j, _ in top] == [(0, 2), (1, 1)]
        assert est.events == 150

    def test_gaps_beyond_the_decay_table_match_numpy(self):
        est = RateEstimator(1, alpha=0.02)
        est.observe(0, 0, 0)
        est.observe(0, 0, 5000)
        decay = float(0.98 ** np.int64(5000))
        assert est.rate(0, 0, 5000) == 0.02 * decay + 0.02
        assert est.rate(0, 0, 9000) == (0.02 * decay + 0.02) * float(
            0.98 ** np.int64(4000)
        )

    def test_reset_and_validation(self):
        est = RateEstimator(2)
        est.observe(0, 0, 5)
        est.reset()
        assert est.rate(0, 0, 10) == 0.0 and est.events == 0
        with pytest.raises(ValueError):
            RateEstimator(0)
        with pytest.raises(ValueError):
            RateEstimator(2, alpha=0.0)
        with pytest.raises(ValueError):
            RateEstimator(2, alpha=1.5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(
            st.tuples(st.integers(0, 1500), st.lists(st.integers(-1, 5), max_size=6)),
            max_size=40,
        ),
    )
    def test_observe_matchings_equals_observe_calls(self, n, raw):
        """A block handed over at once leaves every value bit-identical
        to one ``observe`` per matched pair, taken in slot then input
        order (gaps past the decay table included)."""
        slots, matchings = [], []
        for slot, matching in sorted(raw, key=lambda item: item[0]):
            slots.append(slot)
            matchings.append([out % n if out >= 0 else -1 for out in matching[:n]])
        one, block = RateEstimator(n), RateEstimator(n)
        for slot, matching in zip(slots, matchings):
            for i, out in enumerate(matching):
                if out >= 0:
                    one.observe(i, out, slot)
        block.observe_matchings(slots, matchings)
        assert block._value == one._value
        assert block._slot == one._slot
        assert block.events == one.events


# ---------------------------------------------------------------------------
# DelayHistogram
# ---------------------------------------------------------------------------

delay_lists = st.lists(st.integers(0, 300), min_size=1, max_size=400)


class TestDelayHistogram:
    def test_empty_is_nan(self):
        histogram = DelayHistogram()
        assert histogram.count == 0
        assert all(math.isnan(v) for v in histogram.percentiles().values())

    @settings(max_examples=200, deadline=None)
    @given(
        delay_lists,
        st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=6),
    )
    def test_percentiles_equal_numpy_percentile(self, delays, percentiles):
        """Exact, not approximate: the same floats np.percentile returns
        over the samples themselves."""
        histogram = DelayHistogram()
        for delay in delays:
            histogram.add(delay)
        expected = np.percentile(np.asarray(delays), percentiles)
        got = histogram.percentiles(tuple(percentiles))
        assert [got[p] for p in percentiles] == [float(v) for v in expected]

    def test_counts_grow_on_demand(self):
        histogram = DelayHistogram()
        for delay in (3, 1, 3, 7):
            histogram.add(delay)
        assert histogram.counts == [0, 1, 0, 2, 0, 0, 0, 1]
        assert histogram.count == 4
        with pytest.raises(ValueError):
            histogram.add(-1)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 300), max_size=200), delay_lists)
    def test_merge_equals_one_stream(self, first, second):
        a, b, both = DelayHistogram(), DelayHistogram(), DelayHistogram()
        for delay in first:
            a.add(delay)
            both.add(delay)
        for delay in second:
            b.add(delay)
            both.add(delay)
        a.merge(b)
        assert a.counts == both.counts
        assert a.percentiles() == both.percentiles()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 300), max_size=50), delay_lists)
    def test_add_many_equals_one_add_per_sample(self, first, second):
        one, block = DelayHistogram(), DelayHistogram()
        for delay in first + second:
            one.add(delay)
        block.add_many(first)
        block.add_many(second)
        assert block.counts == one.counts

    def test_add_many_rejects_a_negative_sample_whole(self):
        histogram = DelayHistogram([0, 2])
        with pytest.raises(ValueError):
            histogram.add_many([1, 5, -1])
        histogram.add_many([])
        assert histogram.counts == [0, 2]

    def test_summary(self):
        histogram = DelayHistogram()
        for delay in range(1, 101):
            histogram.add(delay)
        summary = histogram.summary()
        assert "p50=50.50" in summary and "p99=" in summary


def _histogram_and_numpy_quantile(xs, q: float) -> tuple[float, float]:
    """The ``q``-quantile of integer samples ``xs`` read off a
    :class:`DelayHistogram`, and the same quantile from ``np.percentile``."""
    p = round(100 * q, 6)
    histogram = DelayHistogram()
    for x in xs:
        histogram.add(int(x))
    assert histogram.count == len(xs)
    return histogram.percentiles((p,))[p], float(np.percentile(xs, p))


class TestP2Quantile:
    """The accuracy checks the P² estimator was held to, now run against
    the :class:`DelayHistogram` that replaced it as the source of the
    live ``delay_p*`` gauges. The histogram is exact, so each tolerance
    the P² checks allowed becomes equality with ``np.percentile``."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 10**4), min_size=1, max_size=5),
        st.sampled_from([0.25, 0.5, 0.9]),
    )
    def test_warmup_matches_exact_quantile(self, xs, q):
        """A handful of samples gives the exact interpolated quantile
        (numpy 'linear' convention)."""
        got, exact = _histogram_and_numpy_quantile(xs, q)
        assert got == exact

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 10**4), min_size=6, max_size=200),
        st.sampled_from([0.5, 0.9, 0.99]),
    )
    def test_estimate_always_within_observed_range(self, xs, q):
        """Whatever the stream, a quantile cannot escape [min, max] of
        the observations."""
        got, _ = _histogram_and_numpy_quantile(xs, q)
        assert min(xs) <= got <= max(xs)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_accuracy_on_continuous_uniform(self, q, seed):
        """A continuous uniform delay law, quantised to whole slots."""
        rng = np.random.default_rng(seed)
        xs = np.floor(rng.uniform(0.0, 1000.0, 3000)).astype(np.int64)
        got, exact = _histogram_and_numpy_quantile(xs, q)
        assert got == exact

    def test_accuracy_on_lognormal(self):
        """A heavy-tailed delay law, quantised to whole slots."""
        rng = np.random.default_rng(7)
        xs = np.rint(10.0 * rng.lognormal(0.0, 0.5, 5000)).astype(np.int64)
        for q in (0.5, 0.9):
            got, exact = _histogram_and_numpy_quantile(xs, q)
            assert got == exact


# ---------------------------------------------------------------------------
# The switch's live delay gauges are the exact measured percentiles.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize(
    "scheduler", ["lcf_central", "lcf_central_rr", "lcf_dist", "islip"]
)
def test_live_delay_percentiles_equal_measured_percentiles(scheduler, fast):
    """With ``warmup_slots=0`` the live histogram and the measured
    sample list cover the same forwards, so the ``delay_p*`` gauges must
    equal ``SimResult.percentiles`` exactly — on the instrumented loop
    (reference kernels) and on the fast loop alike."""
    import contextlib

    from repro.fastpath.registry import _reference_kernels
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.config import SimConfig
    from repro.sim.simulator import run_simulation

    config = SimConfig(n_ports=8, warmup_slots=0, measure_slots=600, seed=11)
    metrics = MetricsRegistry()
    with contextlib.nullcontext() if fast else _reference_kernels():
        result = run_simulation(
            config, scheduler, 0.9, collect_percentiles=True, metrics=metrics
        )
    snapshot = metrics.snapshot()
    assert {
        p: snapshot[f"delay_p{p:g}"] for p in result.percentiles
    } == result.percentiles


# ---------------------------------------------------------------------------
# Checkpoint round-trip
# ---------------------------------------------------------------------------


class TestP2CheckpointRoundTrip:
    """The round trips the P² estimator's markers were checked for, held
    by the :class:`DelayHistogram` that replaced it in the checkpointed
    switch state: a histogram restored from its serialised counts
    continues the stream exactly where the original left off."""

    @given(
        prefix=st.lists(st.integers(0, 300), max_size=60),
        suffix=delay_lists,
    )
    @settings(max_examples=40, deadline=None)
    def test_restore_from_markers_is_bit_identical(self, prefix, suffix):
        from repro.checkpoint import restore_state, snapshot_state

        original = DelayHistogram()
        for delay in prefix:
            original.add(delay)
        snapshot = snapshot_state(original)

        restored = DelayHistogram()
        restore_state(restored, snapshot)
        assert restored.counts == original.counts
        # Identical continuation: every post-restore percentile matches
        # the uninterrupted histogram bit for bit (NaN-safe compare).
        for delay in suffix:
            original.add(delay)
            restored.add(delay)
            a, b = original.percentiles(), restored.percentiles()
            assert a.keys() == b.keys()
            for p in a:
                assert a[p] == b[p] or (math.isnan(a[p]) and math.isnan(b[p]))
        assert restored.counts == original.counts

    def test_snapshot_is_json_safe(self):
        from repro.checkpoint import restore_state, snapshot_state

        histogram = DelayHistogram()
        for delay in range(50):
            histogram.add(delay)
        snapshot = json.loads(json.dumps(snapshot_state(histogram)))
        twin = DelayHistogram()
        restore_state(twin, snapshot)
        assert twin.counts == histogram.counts

    def test_streaming_bank_round_trips(self):
        """The default p50/p90/p99 bank the switch exports survives a
        round trip."""
        from repro.checkpoint import restore_state, snapshot_state

        histogram = DelayHistogram()
        for delay in range(1, 200):
            histogram.add(delay % 37)
        twin = DelayHistogram()
        restore_state(twin, snapshot_state(histogram))
        assert set(twin.percentiles()) == {50.0, 90.0, 99.0}
        assert twin.percentiles() == histogram.percentiles()
        assert twin.summary() == histogram.summary()
