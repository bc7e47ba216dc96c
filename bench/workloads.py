"""The benchmark's four workloads, built only from the package's public API.

A workload is a list of *cases*. A case is one call into the package
(``run_sweep``, ``run_simulation`` or ``run_replicates``) with a fixed
amount of simulated work, so its rate is ``slots / seconds``. The timed
loop runs the cases round-robin until the time budget is spent and keeps
every per-call time. A case's rate uses its fastest call: on a shared
host, contention from other tenants only ever adds time, slowing a call
by up to ~1.9x for seconds at a time, and the fastest call is the part
that repeats from run to run.

Traffic is the paper's open-loop Bernoulli arrivals (Section 6.3), seeded
through ``SimConfig.seed``. Every case uses the paper's switch
configuration: VOQ 256, PQ 1000, 4 scheduler iterations.

Calls go through module attributes (``repro.run_simulation``, not a name
imported into this module) so that the traced run sees them.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import repro
from repro.baselines.registry import PAPER_SCHEDULERS

WORKLOADS = ("fig12_reduced", "paper_n16", "wide_n128", "replicate_blocks")

#: The reduced Figure 12 load grid (the same points as the pytest
#: benchmarks' ``BENCH_LOADS``): flat low load, the knee, saturation.
FIG12_LOADS = (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0)

#: Load of the single-point cases: high enough that queues stay busy and
#: the RR override fires, below the saturation of every scheduler run.
POINT_LOAD = 0.9

#: Total slots of one warm-up call per case (``setup_s`` covers them).
WARM_SLOTS = 200

#: Significant digits floats are rounded to before digesting.
DIGEST_DIGITS = 12


def with_knobs(fn: Callable, **wanted) -> dict:
    """The subset of ``wanted`` keyword arguments that ``fn`` still accepts.

    Execution-strategy flags (``fast``, ``columnar``) are passed only while
    the public signature has them, so removing a flag from the package
    needs no edit here.
    """
    params = inspect.signature(fn).parameters
    return {name: value for name, value in wanted.items() if name in params}


def paper_config(n: int, warmup: int, measure: int, seed: int) -> "repro.SimConfig":
    """The Section 6.3 switch with the given port count and run length."""
    return repro.SimConfig(
        n_ports=n,
        voq_capacity=256,
        pq_capacity=1000,
        iterations=4,
        warmup_slots=warmup,
        measure_slots=measure,
        seed=seed,
    )


def _canonical(value):
    """``value`` with floats rounded to ``DIGEST_DIGITS`` significant
    digits and non-finite floats spelled out, for a stable JSON dump."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def digest_rows(rows: list[dict]) -> str:
    """sha256 of a list of ``SimResult.row()`` dicts."""
    text = json.dumps(_canonical(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Case:
    """One timed call into the package."""

    name: str
    #: The case's reported rate is pooled over its group (one scheduler's
    #: cells of the sweep); otherwise the group is the case itself.
    group: str
    #: Simulated slots per call, times the replicates the call runs.
    slots: int
    #: Runs the case once and returns its output.
    call: Callable[[], object]
    #: Flattens the output into ``SimResult.row()`` dicts for digesting.
    rows: Callable[[object], list[dict]]


@dataclass
class Check:
    """A correctness check on a workload's outputs."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class Workload:
    name: str
    cases: list[Case]
    #: Seed-independent checks over the last output of every case.
    checks: Callable[[dict[str, object]], list[Check]]


def _sim_rows(result) -> list[dict]:
    return [result.row()]


def _block_rows(results) -> list[dict]:
    return [result.row() for result in results]


def _sweep_rows(sweep) -> list[dict]:
    return sweep.rows()


def _point_case(name: str, config, scheduler: str, metrics: bool = False) -> Case:
    def call():
        extra = {"metrics": repro.MetricsRegistry()} if metrics else {}
        return repro.run_simulation(
            config,
            scheduler,
            POINT_LOAD,
            collect_percentiles=True,
            **extra,
            **with_knobs(repro.run_simulation, fast=True),
        )

    return Case(name, name, config.total_slots, call, _sim_rows)


def _block_case(name: str, config, replicates: int) -> Case:
    def call():
        return repro.run_replicates(
            config,
            "lcf_central_rr",
            POINT_LOAD,
            replicates,
            collect_percentiles=True,
            **with_knobs(repro.run_replicates, fast=True, columnar=True),
        )

    return Case(name, name, config.total_slots * replicates, call, _block_rows)


def _sweep_case(scheduler: str, load: float, config, replicates: int, scratch: Path) -> Case:
    import repro.analysis.sweep as sweep_api

    spec = sweep_api.SweepSpec(
        schedulers=(scheduler,), loads=(load,), config=config, replicates=replicates
    )

    def call():
        # A fresh cache per call: every point is computed and written,
        # as in a user's first run of the sweep.
        with tempfile.TemporaryDirectory(dir=scratch) as cache:
            return sweep_api.run_sweep(
                spec,
                processes=1,
                cache=cache,
                **with_knobs(sweep_api.run_sweep, fast=True, columnar=True),
            )

    return Case(
        f"{scheduler}@{load}", scheduler, spec.n_points() * config.total_slots, call, _sweep_rows
    )


def _split(total: int, warmup: int, measure: int) -> tuple[int, int]:
    """Scale a (warmup, measure) pair to ``total`` slots, keeping ratio."""
    head = max(1, round(total * warmup / (warmup + measure)))
    return head, max(1, total - head)


def build(
    name: str,
    seed: int,
    scratch: Path,
    *,
    warm: bool = False,
    scale: float = 1.0,
) -> Workload:
    """Construct workload ``name`` at ``seed``.

    ``warm`` builds the untimed warm-up variant: every case at
    ``WARM_SLOTS`` total slots (and one load for the sweep). ``scale``
    shrinks the run lengths for the benchmark's own tests; the stored
    digests hold only at ``scale == 1``.
    """

    def cfg(n: int, warmup: int, measure: int):
        if warm:
            warmup, measure = _split(WARM_SLOTS, warmup, measure)
        elif scale != 1.0:
            warmup = max(1, round(warmup * scale))
            measure = max(1, round(measure * scale))
        return paper_config(n, warmup, measure, seed)

    if name == "fig12_reduced":
        # Imported here: repro.analysis pulls in scipy, a set-up cost only
        # the sweep workload should pay.
        import repro.analysis.sweep as sweep_api

        # One sweep call per grid cell: short calls let the timed loop
        # catch the host between bursts of contention.
        config = cfg(16, 100, 400)
        loads = (POINT_LOAD,) if warm else FIG12_LOADS
        cases = [
            _sweep_case(scheduler, load, config, 2, scratch)
            for scheduler in PAPER_SCHEDULERS
            for load in loads
        ]

        def checks(outputs):
            merged = {}
            for sweep in outputs.values():
                merged.update(sweep.results)
            spec = sweep_api.SweepSpec(
                schedulers=PAPER_SCHEDULERS, loads=loads, config=config, replicates=2
            )
            whole = sweep_api.SweepResult(spec, merged)
            return [
                Check(f"paper shape: {shape.claim}", shape.passed, shape.detail)
                for shape in sweep_api.check_paper_shape(whole)
            ]

        return Workload(name, cases, checks)

    if name == "paper_n16":
        config = cfg(16, 200, 1800)
        cases = [
            _point_case(scheduler, config, scheduler)
            for scheduler in ("lcf_central_rr", "lcf_dist_rr", "islip")
        ]
        cases.append(_point_case("observed", config, "lcf_central_rr", metrics=True))

        def checks(outputs):
            same = outputs["observed"].row() == outputs["lcf_central_rr"].row()
            return [Check("observed row == lcf_central_rr row", same)]

        return Workload(name, cases, checks)

    if name == "wide_n128":
        config = cfg(128, 60, 240)
        cases = [
            _point_case(scheduler, config, scheduler)
            for scheduler in ("lcf_central_rr", "lcf_dist_rr", "islip")
        ]
        return Workload(name, cases, lambda outputs: [])

    if name == "replicate_blocks":
        cases = [
            _block_case("n16_r8", cfg(16, 150, 750), 8),
            _block_case("n64_r32", cfg(64, 75, 300), 32),
        ]

        def checks(outputs):
            found = []
            for case_name, results in outputs.items():
                first = results[0]
                plain = repro.run_simulation(
                    first.config,
                    "lcf_central_rr",
                    POINT_LOAD,
                    collect_percentiles=True,
                    **with_knobs(repro.run_simulation, fast=True),
                )
                found.append(
                    Check(
                        f"{case_name} replicate 0 == plain run_simulation",
                        first.row() == plain.row(),
                    )
                )
            return found

        return Workload(name, cases, checks)

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


@dataclass
class CaseRecord:
    """Everything one case produced in a run."""

    group: str
    slots: int
    seconds: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    last: object = None
    error: str | None = None

    @property
    def best_s(self) -> float:
        """The fastest call."""
        return min(self.seconds)


def _probe_s() -> float:
    """Time a fixed ~1 ms interpreter loop."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


def pin_fastest(cpus: list[int]) -> None:
    """Pin this process to whichever of ``cpus`` runs a short probe
    fastest right now.

    On a shared host, contention from other tenants slows one CPU at a
    time for seconds; moving to the quiet one before each timed call
    keeps most calls out of those bursts. The calls themselves are
    unchanged.
    """
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_probe_s(), _probe_s())
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def run_cases(
    workload: Workload,
    seconds: float,
    *,
    on_case: Callable[[Case], None] | None = None,
    cycles: int | None = None,
) -> dict[str, CaseRecord]:
    """Run the cases round-robin, timing each call.

    Stops before starting a call once ``seconds`` have passed and every
    case has run at least once, or after ``cycles`` full rounds when
    given. A case that raises is recorded and dropped from the rotation;
    the others go on. ``on_case(case)`` is called before each call (the
    traced run labels its spans with it).
    """
    records = {case.name: CaseRecord(case.group, case.slots) for case in workload.cases}
    active = list(workload.cases)
    allowed = os.sched_getaffinity(0)
    start = time.perf_counter()
    rounds = 0
    try:
        while active and (cycles is None or rounds < cycles):
            for case in list(active):
                record = records[case.name]
                done = all(r.seconds or r.error for r in records.values())
                if cycles is None and done and time.perf_counter() - start >= seconds:
                    return records
                if on_case is not None:
                    on_case(case)
                pin_fastest(sorted(allowed))
                t0 = time.perf_counter()
                try:
                    output = case.call()
                except Exception:  # a failing case is a result, not a crash
                    record.error = traceback.format_exc()
                    active.remove(case)
                    continue
                record.seconds.append(time.perf_counter() - t0)
                record.digests.append(digest_rows(case.rows(output)))
                record.last = output
            rounds += 1
    finally:
        os.sched_setaffinity(0, allowed)
    return records


def verify(
    workload: Workload,
    records: dict[str, CaseRecord],
    expected: dict[str, str] | None,
) -> list[Check]:
    """Correctness checks over one run's outputs.

    Per case: it did not raise, every call gave the same digest (the
    simulation is a pure function of its seed) and, when ``expected``
    digests are given, the digest matches the stored one. Then the
    workload's own checks.
    """
    checks = []
    for name, record in records.items():
        if record.error is not None:
            checks.append(Check(f"{name} ran", False, record.error.strip().splitlines()[-1]))
            continue
        checks.append(
            Check(f"{name} deterministic", len(set(record.digests)) == 1)
        )
        if expected is not None:
            want = expected.get(name)
            got = record.digests[0]
            checks.append(
                Check(f"{name} digest", got == want, f"got {got[:16]}, want {str(want)[:16]}")
            )
    if all(record.error is None for record in records.values()):
        try:
            checks.extend(workload.checks({n: r.last for n, r in records.items()}))
        except Exception:
            checks.append(Check("workload checks ran", False, traceback.format_exc()))
    return checks
