"""The raw-word decoders against numpy's own draws.

:mod:`repro.rawdraw` rebuilds ``Generator.random`` doubles and bounded
``Generator.integers`` draws from raw PCG64 words. These tests pin the
decoders, their fallbacks and their one-time self-check: every decoded
draw, and the whole generator state after it, must equal what the
per-call draws give.
"""

import numpy as np
import pytest

from repro import rawdraw
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation
from repro.traffic.bernoulli import BernoulliUniform
from repro.columnar.run import run_replicates

_M128 = (1 << 128) - 1
_PCG_MULT_INV = pow(rawdraw._PCG_MULT, -1, 1 << 128)


def state_before_word(template, index, word):
    """A PCG64 state (same stream as ``template``) whose raw draw
    ``index`` (0-based) is ``word``: the state after that draw is built
    with rotation 0, so the XSL-RR output is ``hi ^ lo``, and then
    stepped back ``index + 1`` draws."""
    inc = template["state"]["inc"]
    hi = 0x0123456789ABCDE  # < 2**58: the top six bits (the rotation) are 0
    state = (hi << 64) | (hi ^ word)
    for _ in range(index + 1):
        state = ((state - inc) * _PCG_MULT_INV) & _M128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


class TestSelfCheck:
    def test_passes_on_the_installed_numpy(self):
        # A numpy release that breaks a decoder turns it off; this makes
        # that a failure here instead of a silent loss of speed.
        assert rawdraw.decoder_ok()
        assert rawdraw.decodable(np.random.default_rng(0).bit_generator)

    def test_other_bit_generators_are_not_decoded(self):
        rng = np.random.Generator(np.random.MT19937(0))
        assert not rawdraw.decodable(rng.bit_generator)
        pattern = BernoulliUniform(8, 0.5, seed=1)
        pattern.rng = np.random.Generator(np.random.MT19937(1))
        twin = np.random.Generator(np.random.MT19937(1))
        block = pattern.arrivals_block(3)
        for row in block:
            active = twin.random(8) < 0.5
            dst = twin.integers(0, 8, size=8)
            assert np.array_equal(row, np.where(active, dst, -1))


class TestLemireRejection:
    @pytest.mark.parametrize("c", [2, 4, 16, 64, 128])
    def test_powers_of_two_never_reject(self, c):
        assert rawdraw.lemire_threshold(c) == 0
        halves = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint32)
        assert not rawdraw.lemire_rejects(halves, c)

    #: A half whose leftover at n = 6 is exactly 4: below n, yet kept.
    EDGE = (2**33 + 4) // 6

    def test_detector_on_crafted_halves(self):
        # n = 6: leftovers below (2**32 - 6) % 6 = 4 redraw.
        assert rawdraw.lemire_threshold(6) == 4
        assert rawdraw.lemire_rejects(np.array([5, 0, 7], dtype=np.uint32), 6)
        assert rawdraw.lemire_rejects(np.array([[5, 7], [9, 0]], dtype=np.uint32), 6)
        assert (self.EDGE * 6) % 2**32 == 4
        assert not rawdraw.lemire_rejects(np.array([5, self.EDGE, 7], dtype=np.uint32), 6)

    def test_numpy_redraws_the_crafted_word(self):
        rng = np.random.default_rng(0)
        crafted = state_before_word(rng.bit_generator.state, 0, 0xABCD0000_00000000)
        rng.bit_generator.state = crafted
        assert int(rng.bit_generator.random_raw()) == 0xABCD0000_00000000
        rng.bit_generator.state = crafted
        # The low half 0 leaves 0 < 4 and is redrawn; the high half
        # 0xABCD0000 is the draw numpy keeps.
        assert int(rng.integers(0, 6)) == (0xABCD0000 * 6) >> 32
        assert rng.bit_generator.state["has_uint32"] == 0

    def test_numpy_keeps_the_edge_word(self):
        rng = np.random.default_rng(0)
        word = (0xABCD0000 << 32) | self.EDGE
        rng.bit_generator.state = state_before_word(rng.bit_generator.state, 0, word)
        assert int(rng.integers(0, 6)) == (self.EDGE * 6) >> 32
        assert rng.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("slot", [0, 3])
    def test_block_with_a_rejection_falls_back_and_matches(self, slot):
        # n = 6: each slot is 6 double words then 3 destination words;
        # make the first destination word of ``slot`` redraw.
        n, k = 6, 5
        blocked = BernoulliUniform(n, 0.7, seed=9)
        index = slot * (n + n // 2) + n
        crafted = state_before_word(blocked.rng.bit_generator.state, index, 0x12345678_00000000)
        blocked.rng.bit_generator.state = crafted
        probe = np.random.default_rng(0)
        probe.bit_generator.state = crafted
        assert rawdraw.bernoulli_block(probe.bit_generator, n, 0.7, k) is None
        assert probe.bit_generator.state == crafted
        stepped = BernoulliUniform(n, 0.7, seed=9)
        stepped.rng.bit_generator.state = crafted
        block = blocked.arrivals_block(k)
        for row in block:
            assert np.array_equal(row, stepped.arrivals())
        assert blocked.rng.bit_generator.state == stepped.rng.bit_generator.state


class TestBoundedDraws:
    @pytest.mark.parametrize("seed", range(6))
    def test_runs_of_draws_match_integers_calls(self, seed):
        plan = np.random.default_rng(seed + 100)
        decoded = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        for _ in range(40):
            ranges = [int(c) for c in plan.integers(1, 20, size=int(plan.integers(0, 12)))]
            if plan.random() < 0.3:
                ranges.append(2**31 + 1)  # redraws about half the time
            draw, settle = rawdraw.bounded_draws(decoded, int(plan.integers(1, 6)))
            got = [draw(c) for c in ranges]
            settle()
            assert got == [int(reference.integers(0, c)) for c in ranges]
            assert decoded.bit_generator.state == reference.bit_generator.state

    def test_a_range_of_one_touches_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        draw, settle = rawdraw.bounded_draws(rng, 4)
        assert [draw(1), draw(1)] == [0, 0]
        settle()
        assert rng.bit_generator.state == before

    def test_fallback_makes_the_integers_calls(self, monkeypatch):
        monkeypatch.setattr(rawdraw, "decoder_ok", lambda: False)
        rng = np.random.default_rng(4)
        reference = np.random.default_rng(4)
        draw, settle = rawdraw.bounded_draws(rng, 4)
        assert [draw(c) for c in (3, 5, 2)] == [int(reference.integers(0, c)) for c in (3, 5, 2)]
        settle()
        assert rng.bit_generator.state == reference.bit_generator.state


class TestWholeRunsWithoutTheDecoder:
    CONFIG = SimConfig(n_ports=16, warmup_slots=40, measure_slots=200, seed=3)

    @pytest.mark.parametrize("name", ["pim", "lcf_central_rr", "fifo", "outbuf"])
    def test_rows_are_unchanged(self, name, monkeypatch):
        decoded = run_simulation(self.CONFIG, name, 0.9, collect_percentiles=True)
        monkeypatch.setattr(rawdraw, "decoder_ok", lambda: False)
        per_call = run_simulation(self.CONFIG, name, 0.9, collect_percentiles=True)
        assert decoded.row() == per_call.row()

    def test_columnar_block_is_unchanged(self, monkeypatch):
        config = SimConfig(n_ports=8, warmup_slots=30, measure_slots=100, seed=5)
        decoded = run_replicates(config, "lcf_central_rr", 0.8, replicates=8)
        monkeypatch.setattr(rawdraw, "decoder_ok", lambda: False)
        per_call = run_replicates(config, "lcf_central_rr", 0.8, replicates=8)
        assert [r.row() for r in decoded] == [r.row() for r in per_call]
