"""Block arrival drawing.

``arrivals()`` draws one slot and must consume the PCG64 stream exactly
like the historical per-slot implementation — golden traces, sweep
cache keys and every seeded experiment depend on it.
``arrivals_block(k)`` must return exactly what ``k`` calls to
``arrivals()`` return and leave the generator in exactly the same
state, whether it decodes the block from raw words or falls back to
per-slot draws.
"""

import numpy as np
import pytest

from repro.traffic.base import NO_ARRIVAL
from repro.traffic.bernoulli import BernoulliUniform
from repro.traffic.bursty import BurstyOnOff

#: Block sizes drawn in sequence: a single slot, an odd size, then a
#: full driver block.
BLOCK_SEQUENCE = (1, 7, 64)


def legacy_arrivals(n, load, seed, self_traffic, slots):
    """The pre-batching per-slot draw, reproduced verbatim."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(slots):
        active = rng.random(n) < load
        dst = rng.integers(0, n, size=n)
        if not self_traffic:
            offsets = rng.integers(1, n, size=n)
            dst = (np.arange(n) + offsets) % n
        out.append(np.where(active, dst, NO_ARRIVAL).astype(np.int64))
    return out


def assert_blocks_match_slots(make, blocks=BLOCK_SEQUENCE):
    """Blocks from one pattern equal per-slot draws from its twin, and
    both generators agree after every block."""
    blocked, stepped = make(), make()
    for k in blocks:
        block = blocked.arrivals_block(k)
        assert block.shape == (k, blocked.n)
        assert block.dtype == np.int64
        for row in block:
            assert np.array_equal(row, stepped.arrivals())
        assert blocked.rng.bit_generator.state == stepped.rng.bit_generator.state


class TestStreamCompatibility:
    @pytest.mark.parametrize("self_traffic", [True, False])
    def test_batch_one_matches_the_legacy_stream(self, self_traffic):
        pattern = BernoulliUniform(8, 0.7, seed=17, self_traffic=self_traffic)
        for expected in legacy_arrivals(8, 0.7, 17, self_traffic, slots=200):
            assert np.array_equal(pattern.arrivals(), expected)

    def test_blocks_match_the_legacy_stream(self):
        pattern = BernoulliUniform(8, 0.7, seed=17)
        drawn = np.concatenate([pattern.arrivals_block(k) for k in (64, 1, 13, 122)])
        expected = legacy_arrivals(8, 0.7, 17, True, slots=200)
        assert np.array_equal(drawn, np.array(expected))


class TestBlockEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 64, 65, 80, 128])
    @pytest.mark.parametrize("load", [0.0, 0.3, 0.9, 1.0])
    def test_block_equals_per_slot_draws(self, n, load):
        for seed in range(3):
            assert_blocks_match_slots(lambda: BernoulliUniform(n, load, seed=seed))

    @pytest.mark.parametrize("n", [2, 3, 16, 17])
    def test_block_without_self_traffic_equals_per_slot_draws(self, n):
        for seed in range(3):
            assert_blocks_match_slots(
                lambda: BernoulliUniform(n, 0.8, seed=seed, self_traffic=False)
            )

    def test_block_after_a_buffered_half_equals_per_slot_draws(self):
        # A buffered 32-bit half at the start of a block makes the
        # pattern draw that block per slot.
        def make():
            pattern = BernoulliUniform(16, 0.7, seed=5)
            pattern.rng.integers(0, 3)
            return pattern

        assert make().rng.bit_generator.state["has_uint32"] == 1
        assert_blocks_match_slots(make)

    def test_default_block_is_per_slot_draws(self):
        assert_blocks_match_slots(lambda: BurstyOnOff(6, 0.6, seed=3))

    def test_empty_block(self):
        pattern = BernoulliUniform(4, 0.5, seed=1)
        before = pattern.rng.bit_generator.state
        assert pattern.arrivals_block(0).shape == (0, 4)
        assert pattern.rng.bit_generator.state == before


class TestBatchedDraws:
    def test_chunk_is_served_in_slot_order(self):
        # Row k of a block is slot k: one (n,) coin-flip draw and one
        # (n,) destination draw per slot, in slot order.
        pattern = BernoulliUniform(6, 0.6, seed=4)
        rng = np.random.default_rng(4)
        block = pattern.arrivals_block(5)
        for k in range(5):
            active = rng.random(6) < 0.6
            dst = rng.integers(0, 6, size=6)
            assert np.array_equal(block[k], np.where(active, dst, NO_ARRIVAL))

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_arrivals_are_well_formed(self, k):
        pattern = BernoulliUniform(5, 0.8, seed=2)
        for _ in range(50 // k + 1):
            block = pattern.arrivals_block(k)
            assert block.shape == (k, 5)
            assert block.dtype == np.int64
            live = block[block != NO_ARRIVAL]
            assert ((live >= 0) & (live < 5)).all()

    def test_no_self_traffic_holds_across_chunks(self):
        pattern = BernoulliUniform(4, 1.0, seed=3, self_traffic=False)
        for _ in range(5):
            block = pattern.arrivals_block(8)
            assert (block != np.arange(4)).all()

    def test_batched_load_is_statistically_right(self):
        pattern = BernoulliUniform(16, 0.5, seed=0)
        live = sum(
            int((pattern.arrivals_block(64) != NO_ARRIVAL).sum()) for _ in range(32)
        )
        assert live / (32 * 64 * 16) == pytest.approx(0.5, abs=0.02)

    def test_reset_replays_blocks(self):
        pattern = BernoulliUniform(6, 0.7, seed=11)
        first = [pattern.arrivals_block(k) for k in (4, 4, 2)]
        pattern.reset()
        replay = [pattern.arrivals_block(k) for k in (4, 4, 2)]
        assert all(np.array_equal(a, b) for a, b in zip(first, replay))

    def test_batch_is_not_an_option(self):
        with pytest.raises(TypeError):
            BernoulliUniform(4, 0.5, batch=4)
