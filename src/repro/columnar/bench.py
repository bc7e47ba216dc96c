"""The ``columnar_*`` benchmark families: replicate batching vs serial.

The quantity defended here is *replicate-slots per second* — simulated
slots times replicates, per wall-clock second — for a whole replicate
block. The reference is what the block costs without the columnar
engine: R serial bitset-kernel runs on the switch-reuse path
:func:`~repro.columnar.run.run_replicates` takes below its crossover
(the honest baseline). The columnar side times
:class:`~repro.columnar.engine.ColumnarEngine` directly, whatever the
block size. ``speedup`` is their ratio, the same host-portable signal
the kernel families gate on.

Report families are named ``columnar_<scheduler>_r<R>`` (e.g.
``columnar_lcf_central_rr_r32``) with the standard per-width cell
schema, so they merge into ``BENCH_speed.json`` and flow through
``tools/check_bench_regression.py`` unchanged. The committed claim —
the acceptance bar of the columnar work — is the
``columnar_lcf_central_rr:r32`` family at >= 3x for n=64.

Whole-simulation timing is expensive, so the suite scales its slot
budget down with width (:func:`scaled_slots`, the analogue of
:func:`repro.fastpath.bench.scaled_cycles`). Each cell times
``repeats`` windows per side, alternating the sides and swapping which
goes first every repeat, and keeps each side's fastest window: host
contention only ever adds time, so a burst lands in one window of one
side rather than skewing the ratio.
"""

from __future__ import annotations

import time

from repro.columnar.engine import ColumnarEngine
from repro.columnar.kernels import columnar_schedulers
from repro.columnar.run import _run_serial
from repro.fastpath.bench import REPORT_VERSION, _platform_fields
from repro.sim.config import SimConfig

#: Schedulers the columnar families measure — exactly the covered set.
DEFAULT_COLUMNAR_SCHEDULERS = columnar_schedulers()

#: Replicate counts per family (the sweep's common block sizes).
DEFAULT_REPLICATES = (8, 32)

#: Switch widths per cell. 128 exercises masks wider than one machine
#: word and the widths where serial per-slot Python overhead peaks.
DEFAULT_COLUMNAR_SIZES = (16, 64, 128)

#: Offered load of the benchmark runs — the paper's high-load region,
#: where queues are occupied and the schedulers do real work.
DEFAULT_LOAD = 0.9

#: Slot budget at the anchor width (full at ``n <= SLOT_ANCHOR``).
DEFAULT_WARMUP_SLOTS = 200
DEFAULT_MEASURE_SLOTS = 600
SLOT_ANCHOR = 64


def scaled_slots(slots: int, n: int, anchor: int = SLOT_ANCHOR, floor: int = 100) -> int:
    """Per-cell slot count: full up to ``anchor`` ports, then inverse
    with width so wall time per cell stays roughly flat (a slot costs
    about O(n) on both the columnar and the serial path)."""
    if n <= anchor:
        return slots
    return max(floor, slots * anchor // n)


def measure_columnar_cell(
    name: str,
    n: int,
    replicates: int,
    load: float = DEFAULT_LOAD,
    warmup_slots: int = DEFAULT_WARMUP_SLOTS,
    measure_slots: int = DEFAULT_MEASURE_SLOTS,
    repeats: int = 3,
) -> dict[str, float]:
    """Columnar vs serial replicate-slot rates for one (name, n, R) cell.

    Both paths run the identical replicate block (same config, same
    seeds, bit-identical results); only the execution strategy differs.
    The two sides alternate, the first one swapping every repeat, and
    each keeps its fastest of ``repeats`` windows.
    """
    config = SimConfig(
        n_ports=n,
        warmup_slots=scaled_slots(warmup_slots, n),
        measure_slots=scaled_slots(measure_slots, n),
    )
    rep_slots = config.total_slots * replicates
    seeds = [config.seed + r for r in range(replicates)]

    sides = {
        "serial": lambda: _run_serial(config, name, load, seeds),
        "columnar": lambda: ColumnarEngine(config, name, load, seeds).run(),
    }
    best = dict.fromkeys(sides, float("inf"))
    for repeat in range(repeats):
        order = list(sides) if repeat % 2 == 0 else list(sides)[::-1]
        for side in order:
            start = time.perf_counter()
            sides[side]()
            best[side] = min(best[side], time.perf_counter() - start)
    serial, columnar = rep_slots / best["serial"], rep_slots / best["columnar"]
    return {
        "reference_slots_per_sec": round(serial, 1),
        "fast_slots_per_sec": round(columnar, 1),
        "speedup": round(columnar / serial, 3),
    }


def columnar_family(name: str, replicates: int) -> str:
    """Report family name of one (scheduler, R) pair."""
    return f"columnar_{name}_r{replicates}"


def run_columnar_suite(
    names: tuple[str, ...] | None = None,
    replicates: tuple[int, ...] = DEFAULT_REPLICATES,
    sizes: tuple[int, ...] = DEFAULT_COLUMNAR_SIZES,
    load: float = DEFAULT_LOAD,
    warmup_slots: int = DEFAULT_WARMUP_SLOTS,
    measure_slots: int = DEFAULT_MEASURE_SLOTS,
    repeats: int = 3,
    progress=None,
) -> dict:
    """Measure every (scheduler, R, n) cell; same report schema as
    :func:`repro.fastpath.bench.run_speed_suite`, families named
    ``columnar_<scheduler>_r<R>``."""
    if names is None:
        names = DEFAULT_COLUMNAR_SCHEDULERS
    report: dict = {
        "version": REPORT_VERSION,
        "load": load,
        "warmup_slots": warmup_slots,
        "measure_slots": measure_slots,
        "repeats": repeats,
        **_platform_fields(),
        "schedulers": {},
    }
    for name in names:
        for r in replicates:
            cells = report["schedulers"].setdefault(columnar_family(name, r), {})
            for n in sizes:
                cells[str(n)] = cell = measure_columnar_cell(
                    name,
                    n,
                    r,
                    load=load,
                    warmup_slots=warmup_slots,
                    measure_slots=measure_slots,
                    repeats=repeats,
                )
                if progress is not None:
                    progress(
                        f"{columnar_family(name, r):<28} n={n:<3} "
                        f"serial {cell['reference_slots_per_sec']:>9.0f} "
                        f"rep-slots/s  columnar {cell['fast_slots_per_sec']:>9.0f} "
                        f"rep-slots/s  {cell['speedup']:.2f}x"
                    )
    return report
