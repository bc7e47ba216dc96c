"""Sweep harness, fairness analysis, and reporting.

* :mod:`repro.analysis.sweep` — the Figure 12 load-sweep driver and the
  paper-shape acceptance checks;
* :mod:`repro.analysis.fairness` — the Section 3 ``b/n^2`` bound and
  starvation detection;
* :mod:`repro.analysis.asciiplot` — terminal line plots (no matplotlib
  dependency);
* :mod:`repro.analysis.tables` — fixed-width table rendering for the
  Table 1/2 reproductions;
* :mod:`repro.analysis.stats` — confidence intervals and summary
  statistics;
* :mod:`repro.analysis.cli` — the ``lcf-sweep`` command-line entry point.
"""

from repro._lazy import lazy_exports

#: Each public name's module, imported when the name is first looked up
#: (``import repro.analysis.sweep`` runs this file and imports nothing else).
_EXPORTS = {
    "repro.analysis.sweep": (
        "SweepSpec",
        "SweepResult",
        "run_sweep",
        "check_paper_shape",
        "shape_report",
    ),
    "repro.analysis.fairness": ("saturated_service_counts", "starvation_report"),
    "repro.analysis.throughput": ("saturation_throughput", "saturation_table"),
    "repro.analysis.replication": ("replicate", "compare_with_ci"),
    "repro.analysis.convergence": ("convergence_curve", "convergence_table"),
    "repro.analysis.voq_dynamics": ("measure_voq_dynamics", "leveling_comparison"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
