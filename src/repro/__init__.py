"""Reproduction of *The Least Choice First Scheduling Method for
High-Speed Network Switches* (Gura & Eberle, IPPS 2002).

Quickstart::

    import numpy as np
    from repro import LCFCentralRR

    scheduler = LCFCentralRR(4)
    requests = np.array(
        [
            [0, 1, 1, 0],  # I0 requests T1, T2
            [1, 0, 1, 1],  # I1 requests T0, T2, T3
            [1, 0, 1, 1],  # I2 requests T0, T2, T3
            [0, 1, 0, 0],  # I3 requests T1
        ],
        dtype=bool,
    )
    schedule = scheduler.schedule(requests)  # the Figure 3 example

Simulation (a Figure 12 data point)::

    from repro import SimConfig, run_simulation

    result = run_simulation(SimConfig(measure_slots=5000), "lcf_central", load=0.8)
    print(result.mean_latency)

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md``
for the paper-versus-measured record.
"""

from repro._lazy import lazy_exports
from repro._version import __version__
from repro.types import NO_GRANT

#: Each public name's module. ``import repro`` imports none of them: a
#: name's module is imported when the name is first looked up.
_EXPORTS = {
    "repro.core": (
        "Scheduler",
        "IterativeScheduler",
        "LCFCentral",
        "LCFCentralRR",
        "LCFCentralVariant",
        "LCFDistributed",
        "LCFDistributedRR",
        "RRCoverage",
        "PrecalcScheduler",
        "PrecalcResult",
        "check_precalc_integrity",
    ),
    "repro.baselines": (
        "PIM",
        "ISLIP",
        "WrappedWaveFront",
        "FIFOScheduler",
        "GreedyMaximal",
        "RandomMaximal",
        "available_schedulers",
        "make_scheduler",
    ),
    "repro.matching": ("hopcroft_karp", "maximum_matching_size"),
    "repro.sim": (
        "SimConfig",
        "SimResult",
        "run_simulation",
        "AdmissionController",
        "make_admission",
        "InputQueuedSwitch",
        "OutputBufferedSwitch",
        "PipelinedSwitch",
    ),
    "repro.sim.cioq": ("CIOQSwitch",),
    "repro.fastpath": (
        "FastLCFCentral",
        "FastLCFCentralRR",
        "FastISLIP",
        "FastPIM",
        "fast_schedulers",
        "has_fast_kernel",
        "make_fast_scheduler",
    ),
    "repro.sweep": ("SweepSpec", "SweepPoint", "ParallelRunner", "ResultCache", "merge_results"),
    "repro.columnar": (
        "ColumnarEngine",
        "run_replicates",
        "columnar_schedulers",
        "columnar_supported",
        "has_columnar_kernel",
        "make_columnar_kernel",
    ),
    "repro.checkpoint": (
        "CheckpointError",
        "save_checkpoint",
        "load_checkpoint",
        "resume_simulation",
    ),
    "repro.faults": ("FaultPlan", "FaultInjector"),
    "repro.adapt": (
        "AdaptConfig",
        "AdaptiveLCF",
        "HealthEstimator",
        "BackupPortPolicy",
        "ObliviousAdapter",
        "make_adapter",
    ),
    "repro.obs": (
        "Tracer",
        "NullTracer",
        "RingTracer",
        "JsonlTracer",
        "MetricsRegistry",
        "MatchingQualityProbe",
    ),
    "repro.baselines.weighted": ("LQF", "OCF"),
    "repro.core.multicast": ("MulticastCell", "MulticastScheduler"),
    "repro.fabric": (
        "CrossbarFabric",
        "ClosNetwork",
        "FabricSpec",
        "FabricResult",
        "FabricShard",
        "run_fabric",
        "make_router",
    ),
    "repro.traffic": ("TrafficPattern", "make_traffic"),
}
_public, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__ = ["__version__", "NO_GRANT", *_public]
