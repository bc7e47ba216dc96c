"""Pinned rows of the dedicated ``fifo`` and ``outbuf`` switch models
where their queues fill.

At the paper's capacities nothing is ever dropped, so the bench digests
never reach the drop and head-of-line branches of the models' block
loops. These configs do: load 1.0 against one- to three-entry queues.
The rows in ``tests/data/dedicated_model_rows.json`` were recorded from
the per-slot implementation the block loops replaced (n in {4, 5, 16},
50+500 slots, seed 3, percentiles on).
"""

import json
from pathlib import Path

import pytest

from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation

ROWS = json.loads(
    (Path(__file__).resolve().parent.parent / "data" / "dedicated_model_rows.json")
    .read_text()
)

#: (pq, voq, outbuf) capacities; ``voq_capacity`` sizes the FIFO.
CAPACITIES = ((1, 1, 1), (3, 2, 3))


def cases():
    for name in ("fifo", "outbuf"):
        for n in (4, 5, 16):
            for pq, voq, ob in CAPACITIES:
                key = f"{name}-n{n}-pq{pq}-voq{voq}-ob{ob}"
                config = SimConfig(
                    n_ports=n,
                    warmup_slots=50,
                    measure_slots=500,
                    seed=3,
                    pq_capacity=pq,
                    voq_capacity=voq,
                    outbuf_capacity=ob,
                )
                yield pytest.param(name, config, ROWS[key], id=key)


@pytest.mark.parametrize("name, config, expected", cases())
def test_full_queue_rows_are_pinned(name, config, expected):
    row = run_simulation(config, name, 1.0, collect_percentiles=True).row()
    assert row == expected
    assert row["dropped"] > 0
