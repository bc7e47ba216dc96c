"""VOQ crossbar switch model: conservation, latency, blocking."""

import numpy as np
import pytest

from repro.core.lcf_central import LCFCentralRR
from repro.sim.config import SimConfig
from repro.sim.crossbar import InputQueuedSwitch
from repro.traffic.base import NO_ARRIVAL


def small_config(**kw):
    defaults = dict(n_ports=4, voq_capacity=8, pq_capacity=16,
                    warmup_slots=0, measure_slots=100)
    defaults.update(kw)
    return SimConfig(**defaults)


def make_switch(**kw):
    config = small_config(**kw)
    return InputQueuedSwitch(config, LCFCentralRR(config.n_ports))


def no_arrivals(n):
    return np.full(n, NO_ARRIVAL, dtype=np.int64)


class TestBasicFlow:
    def test_single_packet_forwarded_same_slot(self):
        switch = make_switch()
        switch.measuring = True
        arrivals = no_arrivals(4)
        arrivals[0] = 2
        switch.step(0, arrivals)
        assert switch.forwarded == 1
        assert switch.latency.mean == 1.0  # arrive and depart in slot 0

    def test_scheduler_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            InputQueuedSwitch(small_config(), LCFCentralRR(5))

    def test_offered_counted_only_while_measuring(self):
        switch = make_switch()
        arrivals = no_arrivals(4)
        arrivals[0] = 1
        switch.step(0, arrivals)  # not measuring yet
        assert switch.offered == 0
        switch.measuring = True
        switch.step(1, arrivals)
        assert switch.offered == 1

    def test_packet_conservation(self):
        rng = np.random.default_rng(0)
        switch = make_switch()
        switch.measuring = True
        for slot in range(200):
            active = rng.random(4) < 0.6
            dst = rng.integers(0, 4, size=4)
            switch.step(slot, np.where(active, dst, NO_ARRIVAL))
        assert switch.offered == switch.forwarded + switch.total_queued() + switch.dropped

    def test_contention_queues_packets(self):
        switch = make_switch()
        switch.measuring = True
        arrivals = np.zeros(4, dtype=np.int64)  # all four inputs -> output 0
        switch.step(0, arrivals)
        assert switch.forwarded == 1
        assert switch.total_queued() == 3


class TestBlockingBehaviour:
    def test_pq_head_blocks_when_voq_full(self):
        switch = make_switch(voq_capacity=1)
        switch.measuring = True
        arrivals = no_arrivals(4)
        arrivals[0] = 1
        # Stuff many packets for the same destination from one input;
        # the VOQ holds 1, the rest wait in the PQ.
        for slot in range(5):
            switch.step(slot, arrivals)
        assert len(switch.pqs[0]) <= 4
        assert switch.voqs.occupancy[0, 1] <= 1

    def test_pq_overflow_drops(self):
        switch = make_switch(pq_capacity=2, voq_capacity=1)
        # Input 0 floods output 0 while 3 other inputs also hit output 0,
        # so service is slow and the PQ fills.
        for slot in range(20):
            switch.step(slot, np.zeros(4, dtype=np.int64))
        assert switch.dropped > 0

    def test_one_packet_per_link_per_slot(self):
        # Two arrivals in one step is impossible by the traffic contract,
        # but queued PQ packets must trickle into VOQs at 1/slot.
        switch = make_switch()
        arrivals = no_arrivals(4)
        arrivals[0] = 1
        for slot in range(3):
            switch.step(slot, arrivals)
        # 3 packets arrived; at most one VOQ insertion per slot happened,
        # and the scheduler drained them meanwhile.
        assert switch.voqs.occupancy[0, 1] + len(switch.pqs[0]) <= 3


class TestMeasurementOptions:
    def test_service_matrix_collection(self):
        config = small_config()
        switch = InputQueuedSwitch(config, LCFCentralRR(4), collect_service=True)
        switch.measuring = True
        arrivals = no_arrivals(4)
        arrivals[2] = 3
        switch.step(0, arrivals)
        assert switch.service.counts[2, 3] == 1

    def test_latency_samples_collection(self):
        switch = make_switch()
        switch.measuring = True
        arrivals = no_arrivals(4)
        arrivals[1] = 0
        switch.step(0, arrivals)
        # One packet of delay 1, counted in the latency histogram.
        assert switch.latency.counts == [0, 1]

    def test_latency_counts_queueing_slots(self):
        switch = make_switch()
        switch.measuring = True
        # Two inputs to the same output: the loser departs one slot later.
        arrivals = no_arrivals(4)
        arrivals[0] = 0
        arrivals[1] = 0
        switch.step(0, arrivals)
        switch.step(1, no_arrivals(4))
        assert switch.forwarded == 2
        assert switch.latency.max == 2.0
