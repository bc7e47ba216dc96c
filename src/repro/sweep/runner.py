"""The parallel sweep runner.

:class:`ParallelRunner` executes every :class:`~repro.sweep.spec.SweepPoint`
of a :class:`~repro.sweep.spec.SweepSpec`:

1. each point is looked up in the :class:`~repro.sweep.cache.ResultCache`
   (if one is attached) — hits skip simulation entirely;
2. misses run through :func:`repro.sim.simulator.run_simulation` (a
   cell's replicate block that batches, through
   :func:`repro.columnar.run.run_replicates`), serially in spec order
   when ``workers <= 1`` (bit-identical to the historical sequential
   loop) or fanned out over a ``multiprocessing.Pool`` otherwise;
3. each computed point is written back to the cache *as it completes*,
   so an interrupted sweep resumes from the completed prefix;
4. replicate shards of each (scheduler, load) cell are merged in
   replicate order with :func:`repro.sweep.merge.merge_results`.

Because every point is a pure function of its seed, the merged
statistics are independent of worker count and completion order — a
``workers=4`` run reproduces the ``workers=1`` numbers exactly (shards
are always merged in the same order, so there is not even a
floating-point merge-order difference).

Telemetry: beyond the per-point progress lines, the final
:class:`SweepRunReport` carries structured counters — cache hit rate,
per-scheduler compute seconds, per-worker :class:`WorkerTelemetry`
(points and compute seconds per process), and the shard-merge wall
clock. With ``profile_dir`` set, every computed point additionally runs
under :mod:`cProfile` and dumps its stats file into that directory
(load with ``pstats`` or ``snakeviz``) — the per-point answer to
"where does the wall-clock go inside a sweep".
"""

from __future__ import annotations

import cProfile
import os
import re
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path
from typing import Callable

from repro.columnar.run import run_replicates, runs_columnar
from repro.sim.config import SimConfig
from repro.sim.simulator import SimResult, run_simulation
from repro.sweep.cache import ResultCache, point_key
from repro.sweep.merge import merge_results
from repro.sweep.spec import SweepPoint, SweepSpec


def _profile_path(profile_dir: str, index: int, point: SweepPoint) -> Path:
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", point.label())
    return Path(profile_dir) / f"{index:04d}-{slug}.prof"


def _run_job(
    args: tuple[list[int], SimConfig, list[SweepPoint], str | None, str | None, int | None]
) -> tuple[list[int], list[SimResult], float, int]:
    """Worker entry point (module level so it pickles for Pool).

    A job is one point, or all pending replicates of one cell when
    :func:`repro.columnar.run.runs_columnar` batches that block; every
    strategy is bit-identical per replicate to the point's own
    ``run_simulation`` call, so blocks and points share cache entries
    freely.
    """
    indices, config, cell, profile_dir, ckpt_path, ckpt_every = args
    start = time.perf_counter()
    first = cell[0]
    faults = dict(first.fault_kwargs) or None
    adapter = dict(first.adapt_kwargs) or None

    def simulate() -> list[SimResult]:
        if len(cell) > 1:
            return run_replicates(
                config,
                first.scheduler,
                first.load,
                seeds=[point.seed for point in cell],
                traffic=first.traffic,
                traffic_kwargs=dict(first.traffic_kwargs),
                faults=faults,
                adapter=adapter,
            )
        # A pre-empted in-flight point left a checkpoint next to its
        # cache slot: resume it instead of recomputing the completed
        # slots. Anything unresumable (truncated by the kill, written
        # by an older format version) is recomputed from scratch —
        # bit-identical either way, so the fallback is safe.
        if ckpt_path is not None and os.path.exists(ckpt_path):
            from repro.checkpoint import CheckpointError, resume_simulation

            try:
                return [resume_simulation(ckpt_path)]
            except CheckpointError:
                pass
        return [
            run_simulation(
                config.with_(seed=first.seed),
                first.scheduler,
                first.load,
                traffic=first.traffic,
                traffic_kwargs=dict(first.traffic_kwargs),
                faults=faults,
                adapter=adapter,
                checkpoint_path=ckpt_path,
                checkpoint_every=ckpt_every,
            )
        ]

    if profile_dir is not None:
        profiler = cProfile.Profile()
        results = profiler.runcall(simulate)
        profiler.dump_stats(_profile_path(profile_dir, indices[0], first))
    else:
        results = simulate()
    if ckpt_path is not None:
        # The point finished; its cache entry supersedes the checkpoint.
        Path(ckpt_path).unlink(missing_ok=True)
    return indices, results, time.perf_counter() - start, os.getpid()


@dataclass
class PointOutcome:
    """How one sweep point was resolved."""

    point: SweepPoint
    result: SimResult
    #: True if the result came from the cache instead of a simulation.
    cached: bool
    #: Compute seconds inside the worker (0.0 for cache hits).
    elapsed: float
    #: OS pid of the worker process that computed it (0 for cache hits).
    worker_pid: int = 0


@dataclass
class WorkerTelemetry:
    """Per-worker-process accounting of one sweep execution."""

    pid: int
    points: int = 0
    compute_seconds: float = 0.0

    @property
    def points_per_sec(self) -> float:
        """Computed points per second of this worker's busy time."""
        return self.points / self.compute_seconds if self.compute_seconds > 0 else 0.0


@dataclass
class SweepRunReport:
    """Timing/caching summary of one sweep execution."""

    total_points: int
    computed: int
    cache_hits: int
    workers: int
    #: End-to-end wall-clock of the whole run, seconds.
    wall_clock: float
    #: Per-scheduler compute seconds (summed over that scheduler's points).
    scheduler_seconds: dict[str, float] = field(default_factory=dict)
    #: Per-worker-process accounting, busiest first.
    worker_stats: list[WorkerTelemetry] = field(default_factory=list)
    #: Wall-clock seconds spent merging replicate shards.
    merge_seconds: float = 0.0
    #: Directory per-point cProfile stats were written to (None = off).
    profile_dir: str | None = None

    @property
    def points_per_sec(self) -> float:
        """Computed points per wall-clock second (cache hits excluded)."""
        return self.computed / self.wall_clock if self.wall_clock > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of points served from the cache."""
        return self.cache_hits / self.total_points if self.total_points else 0.0

    def summary(self) -> str:
        lines = [
            f"sweep: {self.total_points} points "
            f"({self.computed} computed, {self.cache_hits} cached, "
            f"{self.cache_hit_rate:.0%} hit rate) "
            f"in {self.wall_clock:.1f}s with {self.workers} worker(s) "
            f"[{self.points_per_sec:.2f} pts/s, merge {self.merge_seconds * 1e3:.0f}ms]"
        ]
        for name, seconds in sorted(
            self.scheduler_seconds.items(), key=lambda item: -item[1]
        ):
            lines.append(f"  {name:<16} {seconds:8.1f}s compute")
        for stats in self.worker_stats:
            lines.append(
                f"  worker {stats.pid:<8} {stats.points:4d} pts "
                f"{stats.compute_seconds:8.1f}s busy "
                f"[{stats.points_per_sec:.2f} pts/s]"
            )
        if self.profile_dir is not None:
            lines.append(f"  per-point cProfile stats in {self.profile_dir}/")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable form (dashboard/CI artifacts)."""
        return {
            "total_points": self.total_points,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "workers": self.workers,
            "wall_clock": self.wall_clock,
            "points_per_sec": self.points_per_sec,
            "merge_seconds": self.merge_seconds,
            "scheduler_seconds": dict(self.scheduler_seconds),
            "worker_stats": [
                {
                    "pid": stats.pid,
                    "points": stats.points,
                    "compute_seconds": stats.compute_seconds,
                }
                for stats in self.worker_stats
            ],
            "profile_dir": self.profile_dir,
        }


@dataclass
class SweepRun:
    """Everything a finished sweep produced."""

    spec: SweepSpec
    #: One outcome per point, in :meth:`SweepSpec.points` order.
    outcomes: list[PointOutcome]
    report: SweepRunReport

    def __post_init__(self) -> None:
        merge_start = time.perf_counter()
        shards: dict[tuple[str, float], list[SimResult]] = {}
        for outcome in self.outcomes:
            shards.setdefault(outcome.point.grid_key, []).append(outcome.result)
        #: Merged result per (scheduler, load) cell, replicate shards
        #: combined in replicate order.
        self.merged: dict[tuple[str, float], SimResult] = {
            key: merge_results(cell) for key, cell in shards.items()
        }
        self.report.merge_seconds = time.perf_counter() - merge_start

    def get(self, scheduler: str, load: float) -> SimResult:
        """The merged result of one grid cell."""
        return self.merged[(scheduler, load)]

    def replicates(self, scheduler: str, load: float) -> list[SimResult]:
        """The individual replicate shards of one grid cell, in order."""
        return [
            outcome.result
            for outcome in self.outcomes
            if outcome.point.grid_key == (scheduler, load)
        ]


class ParallelRunner:
    """Execute a :class:`SweepSpec`, optionally in parallel and cached.

    ``workers``
        process count; ``<= 1`` runs serially in spec order.
    ``cache``
        a :class:`ResultCache`, a directory path to open one at, or
        ``None`` to disable caching.
    ``progress``
        ``True`` to print per-point progress lines, or a callable
        receiving each line (e.g. ``log.info``).
    ``profile_dir``
        directory to dump one cProfile stats file per computed point
        into (created if missing); ``None`` disables profiling.
    ``checkpoint_every``
        checkpoint every in-flight point's state to ``<cache
        root>/<point key>.ckpt`` at this slot cadence (requires a
        cache). A killed sweep then resumes *mid-point*: completed
        points come back as cache hits, and interrupted points continue
        from their last checkpoint instead of recomputing — with
        bit-identical results (the checkpoint file is keyed by the same
        content hash as the cache entry, so any spec change misses
        cleanly). The checkpoint is deleted when its point completes.

    Pending replicates of one (scheduler, load) cell go to a worker as
    one :func:`repro.columnar.run.run_replicates` block when
    :func:`repro.columnar.run.runs_columnar` says the block batches;
    every other point is dispatched on its own, and so is every point of
    a checkpointing sweep (checkpoints are per-point mid-run state).
    Results and cache keys are the same either way.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | str | Path | None = None,
        progress: bool | Callable[[str], None] = False,
        profile_dir: str | Path | None = None,
        checkpoint_every: int | None = None,
    ):
        self.workers = workers
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        if checkpoint_every is not None:
            if cache is None:
                raise ValueError(
                    "checkpoint_every needs a cache to keep checkpoints in"
                )
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
        self.cache = cache
        self.progress = progress
        self.profile_dir = str(profile_dir) if profile_dir is not None else None
        self.checkpoint_every = checkpoint_every

    def _emit(self, line: str) -> None:
        if callable(self.progress):
            self.progress(line)
        elif self.progress:
            print(line)

    def _jobs(
        self,
        spec: SweepSpec,
        points: list[SweepPoint],
        pending: list[int],
        keys: list[str | None],
    ) -> list[tuple]:
        """Group the pending point indices into :func:`_run_job` jobs.

        Spec order is scheduler-major then load then replicate, so the
        pending replicates of a cell are always consecutive.
        """
        cells: list[list[int]] = []
        for index in pending:
            if cells and points[cells[-1][-1]].grid_key == points[index].grid_key:
                cells[-1].append(index)
            else:
                cells.append([index])
        jobs = []
        for cell in cells:
            first = points[cell[0]]
            batched = self.checkpoint_every is None and runs_columnar(
                first.scheduler,
                len(cell),
                n_ports=spec.config.n_ports,
                traffic=first.traffic,
                faults=dict(first.fault_kwargs) or None,
                adapter=dict(first.adapt_kwargs) or None,
            )
            for group in [cell] if batched else [[index] for index in cell]:
                ckpt_path = None
                if self.checkpoint_every is not None:
                    ckpt_path = str(self.cache.root / f"{keys[group[0]]}.ckpt")
                jobs.append((
                    group,
                    spec.config,
                    [points[index] for index in group],
                    self.profile_dir,
                    ckpt_path,
                    self.checkpoint_every,
                ))
        return jobs

    def run(self, spec: SweepSpec) -> SweepRun:
        points = spec.points()
        total = len(points)
        outcomes: list[PointOutcome | None] = [None] * total
        keys: list[str | None] = [None] * total
        pending: list[int] = []
        start = time.perf_counter()
        if self.profile_dir is not None:
            Path(self.profile_dir).mkdir(parents=True, exist_ok=True)

        for index, point in enumerate(points):
            if self.cache is not None:
                keys[index] = point_key(spec.config, point)
                hit = self.cache.get(keys[index])
                if hit is not None:
                    outcomes[index] = PointOutcome(point, hit, cached=True, elapsed=0.0)
                    continue
            pending.append(index)

        hits = total - len(pending)
        if hits:
            self._emit(f"cache: {hits}/{total} points already computed")

        completed = 0
        workers: dict[int, WorkerTelemetry] = {}

        def finish(index: int, result: SimResult, elapsed: float, pid: int) -> None:
            nonlocal completed
            completed += 1
            point = points[index]
            outcomes[index] = PointOutcome(
                point, result, cached=False, elapsed=elapsed, worker_pid=pid
            )
            telemetry = workers.setdefault(pid, WorkerTelemetry(pid))
            telemetry.points += 1
            telemetry.compute_seconds += elapsed
            if self.cache is not None and keys[index] is not None:
                self.cache.put(keys[index], result)
            running = time.perf_counter() - start
            rate = completed / running if running > 0 else 0.0
            remaining = len(pending) - completed
            eta = remaining / rate if rate > 0 else float("inf")
            self._emit(
                f"[{hits + completed}/{total}] {point.label():<32} "
                f"{elapsed:6.2f}s | {rate:5.2f} pts/s, ETA {eta:5.0f}s"
            )

        def finish_job(
            indices: list[int], results: list[SimResult], elapsed: float, pid: int
        ) -> None:
            # Per-point compute time is attributed evenly across a
            # block — its replicates ran interleaved, not in turn.
            share = elapsed / len(indices)
            for index, result in zip(indices, results):
                finish(index, result, share, pid)

        jobs = self._jobs(spec, points, pending, keys)
        if self.workers <= 1:
            for job in jobs:
                finish_job(*_run_job(job))
        elif jobs:
            with Pool(self.workers) as pool:
                for outcome in pool.imap_unordered(_run_job, jobs):
                    finish_job(*outcome)

        wall = time.perf_counter() - start
        scheduler_seconds: dict[str, float] = {}
        for outcome in outcomes:
            seconds = scheduler_seconds.setdefault(outcome.point.scheduler, 0.0)
            scheduler_seconds[outcome.point.scheduler] = seconds + outcome.elapsed
        report = SweepRunReport(
            total_points=total,
            computed=completed,
            cache_hits=hits,
            workers=self.workers,
            wall_clock=wall,
            scheduler_seconds=scheduler_seconds,
            worker_stats=sorted(
                workers.values(), key=lambda w: -w.compute_seconds
            ),
            profile_dir=self.profile_dir,
        )
        run = SweepRun(spec=spec, outcomes=list(outcomes), report=report)
        self._emit(report.summary())
        return run
