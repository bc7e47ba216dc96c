#!/usr/bin/env python3
"""Fingerprint crossbar runs with optional hooks attached, and pin them.

Every optional stage of :class:`repro.sim.crossbar.InputQueuedSwitch`
that the golden traces (``tools/check_trace_diff.py``) and the lossy
digests (``tools/lossy_run_digests.py``) leave unpinned gets a case
here: reference and weight-based schedulers with and without a
port-down plan, admission control that sheds, informed topology faults
on ``islip``/``pim`` and the four LCF kernels, the fault-blind adaptive
stance, request loss (on a hand-built reference scheduler; on top of
topology faults for a kernel, a reference, a weight scheduler and the
Section 5 protocol; with the adapter; with shedding), service-matrix
collection, queues small enough to drop and block at load 1.0, and a
traced 3-stage C(4,4,4) fabric plain, with a middle-switch fault and
with request loss on an ingress and a middle switch. Each crossbar
case runs at n = 8 and n = 80 (masks wider than one 64-bit word) in
three instrumentation modes:

* ``plain`` — no tracer, no registry: the sha256 of ``SimResult.row()``
  (plus the service counts when collected);
* ``metered`` — a :class:`~repro.obs.metrics.MetricsRegistry` alone:
  row and ``render_openmetrics(registry)``;
* ``traced`` — a tracer and a registry: row, the JSONL trace bytes and
  the OpenMetrics text.

Usage::

    PYTHONPATH=src python tools/hook_digests.py --check FILE
    PYTHONPATH=src python tools/hook_digests.py --write FILE

``FILE`` is ``tests/data/crossbar_hook_digests.json``. ``--check``
exits 1 unless every digest equals the stored file
(``tests/sim/test_hook_digests.py`` runs the same comparison per case);
``--write`` regenerates it, which is only right after an intended
behaviour change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

#: n -> (warmup, measure) slots per crossbar case.
WIDTHS = {8: (50, 250), 80: (10, 60)}
SEED = 5
LOAD = 0.9
MODES = ("plain", "metered", "traced")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trace_sha(events) -> str:
    """sha256 of the bytes :class:`~repro.obs.tracer.JsonlTracer` writes."""
    return _sha(
        "".join(json.dumps(event, separators=(",", ":")) + "\n" for event in events)
        .encode()
    )


def _row_sha(row: dict, service=None) -> str:
    text = repr(sorted(row.items()))
    if service is not None:
        text += repr(service.tolist())
    return _sha(text.encode())


def _topology_plan(n: int):
    """An input-side outage, an output-side outage, a duty cycle and a
    dead crosspoint, all inside the first 300 slots."""
    from repro.faults import FaultPlan, LinkOutage, PortDownInterval
    from repro.faults.plan import PortDutyCycle

    return FaultPlan(
        port_down=(
            PortDownInterval(1, 30, 90, "input"),
            PortDownInterval(2, 50, 120, "output"),
        ),
        port_duty=(PortDutyCycle(n - 1, period=40, down=10, offset=5),),
        link_down=(LinkOutage(0, 3, 20, 100),),
    )


def _lossy_topology_plan(n: int):
    """:func:`_topology_plan` over a lossy control channel: requests are
    lost at 0.3 and grants at 0.2."""
    from dataclasses import replace

    return replace(_topology_plan(n), request_loss=0.3, grant_loss=0.2)


def _request_loss_plan(n: int):
    from repro.faults import FaultPlan

    return FaultPlan(request_loss=0.3)


def _port_down_plan(n: int):
    from repro.faults import FaultPlan, PortDownInterval

    return FaultPlan(port_down=(PortDownInterval(n // 2, 20, 80, "both"),))


def _shedding_band(n: int) -> tuple[int, int]:
    """Watermarks a load-1.0 run crosses both ways within its slots."""
    return (3 * n // 2, 3 * n)


def _reference(name: str):
    """The reference scheduler ``name``, built by hand (what the
    simulators build for a name without a bitset kernel)."""

    def build(config):
        from repro.baselines.registry import make_scheduler

        return make_scheduler(
            name, config.n_ports, iterations=config.iterations, seed=config.seed
        )

    return build


def _crossbar_cases() -> dict[str, dict]:
    """Case name -> ``run`` keyword arguments (``scheduler`` is a
    registry name, or a ``config -> Scheduler`` function)."""
    cases: dict[str, dict] = {}
    for name in ("greedy", "random"):
        cases[name] = {"scheduler": name}
    for name in ("lqf", "ocf"):
        cases[name] = {"scheduler": name}
        cases[f"{name}-port-down"] = {"scheduler": name, "faults": _port_down_plan}
    for name in ("lcf_central_rr", "lqf"):
        cases[f"admission-{name}"] = {
            "scheduler": name, "load": 1.0, "admission": _shedding_band,
        }
    for name in (
        "islip", "pim", "lcf_central", "lcf_central_rr", "lcf_dist", "lcf_dist_rr",
    ):
        cases[f"informed-{name}"] = {"scheduler": name, "faults": _topology_plan}
    for policy in ("adaptive", "oblivious"):
        cases[f"blind-{policy}-lcf_central_rr"] = {
            "scheduler": "lcf_central_rr",
            "faults": _topology_plan,
            "adapter": {"policy": policy},
        }
    # Request loss alone, on hand-built reference schedulers (the names
    # are the stored digests' keys).
    for name in ("lcf_central_rr", "islip", "lqf"):
        cases[f"loss-filter-{name}"] = {
            "scheduler": _reference(name), "faults": _request_loss_plan,
        }
    # Request loss on top of topology faults, one case per entry point
    # (masks, matrix, weights) and the Section 5 protocol, which loses
    # its own messages; then with the adapter and with shedding.
    for name in ("lcf_central_rr", "greedy", "lqf", "lcf_dist_rr"):
        cases[f"lossy-informed-{name}"] = {
            "scheduler": name, "faults": _lossy_topology_plan,
        }
    cases["lossy-blind-adaptive-lcf_central_rr"] = {
        "scheduler": "lcf_central_rr",
        "faults": _lossy_topology_plan,
        "adapter": {"policy": "adaptive"},
    }
    cases["lossy-admission-lcf_central_rr"] = {
        "scheduler": "lcf_central_rr", "load": 1.0, "admission": _shedding_band,
        "faults": _request_loss_plan,
    }
    cases["service-lcf_central_rr"] = {
        "scheduler": "lcf_central_rr", "collect_service": True,
    }
    cases["service-greedy"] = {"scheduler": "greedy", "collect_service": True}
    # PQ drops and head-of-line blocking, with and without down inputs.
    for name in ("lcf_central_rr", "greedy"):
        cases[f"full-queues-{name}"] = {
            "scheduler": name, "load": 1.0, "capacities": (3, 2),
        }
    cases["full-queues-informed-islip"] = {
        "scheduler": "islip", "load": 1.0, "capacities": (3, 2),
        "faults": _topology_plan,
    }
    return cases


def _run_crossbar(n: int, mode: str, *, scheduler, load=LOAD, faults=None,
                  adapter=None, admission=None, collect_service=False,
                  capacities=(1000, 256)):
    """One crossbar case, through ``run_simulation``."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.serve import render_openmetrics
    from repro.obs.tracer import RingTracer
    from repro.sim import simulator
    from repro.sim.config import SimConfig
    from repro.sim.crossbar import InputQueuedSwitch
    from repro.traffic.base import make_traffic

    warmup, measure = WIDTHS[n]
    pq, voq = capacities
    config = SimConfig(
        n_ports=n, warmup_slots=warmup, measure_slots=measure, seed=SEED,
        pq_capacity=pq, voq_capacity=voq,
    )
    metrics = MetricsRegistry() if mode != "plain" else None
    tracer = RingTracer(1 << 22) if mode == "traced" else None
    plan = faults(n) if faults is not None else None
    admission = admission(n) if admission is not None else None
    if callable(scheduler):
        # A hand-built scheduler, driven by the same block loop.
        from repro.faults import FaultInjector

        switch = InputQueuedSwitch(
            config,
            scheduler(config),
            tracer=tracer,
            metrics=metrics,
            injector=FaultInjector(plan, n, seed=SEED) if plan is not None else None,
        )
        pattern = make_traffic("bernoulli", n, load, seed=SEED)
        simulator._drive(config, switch, pattern, None)
        result = simulator._package_result(
            config, switch.scheduler.name, load, switch, True
        )
    else:
        result = simulator.run_simulation(
            config,
            scheduler,
            load,
            collect_service=collect_service,
            collect_percentiles=True,
            tracer=tracer,
            metrics=metrics,
            faults=plan,
            adapter=adapter,
            admission=admission,
        )
    digests = {"row": _row_sha(result.row(), result.service_counts)}
    if tracer is not None:
        digests["trace"] = _trace_sha(tracer.events)
    if metrics is not None:
        digests["metrics"] = _sha(render_openmetrics(metrics).encode())
    return digests


def _fabric_cases() -> dict[str, dict]:
    middle_fault = (
        (1, 0, (("port_down", ((0, 40, 120, "output"),)),)),
        (1, 2, (("link_down", ((1, 2, 10, 150),)),)),
    )
    ingress_and_middle_loss = (
        (0, 1, (("request_loss", 0.3),)),
        (1, 2, (("request_loss", 0.3),)),
    )
    return {
        "fabric-c444": {},
        "fabric-c444-middle-fault": {"stage_faults": middle_fault},
        "fabric-c444-lossy": {
            "schedulers": ("lcf_central_rr", "islip", "lcf_dist_rr"),
            "stage_faults": ingress_and_middle_loss,
        },
    }


def _run_fabric(**spec_fields) -> dict[str, str]:
    from repro.fabric import FabricSpec, run_fabric
    from repro.obs.tracer import RingTracer
    from repro.sim.config import SimConfig

    spec = FabricSpec(
        m=4, k=4, r=4,
        config=SimConfig(n_ports=16, warmup_slots=30, measure_slots=170, seed=SEED),
        load=0.8,
        boundary_capacity=4,
        **spec_fields,
    )
    tracer = RingTracer(1 << 22)
    result = run_fabric(spec, tracer=tracer, collect_percentiles=True)
    return {"row": _row_sha(result.row()), "trace": _trace_sha(tracer.events)}


def case_ids() -> list[str]:
    """Every pinned case, as ``<case>/n<width>/<mode>`` or ``<fabric case>``."""
    ids = [
        f"{case}/n{n}/{mode}"
        for case in _crossbar_cases()
        for n in WIDTHS
        for mode in MODES
    ]
    return ids + list(_fabric_cases())


def digest(case_id: str) -> dict[str, str]:
    """The digests of one case id from :func:`case_ids`."""
    fabric = _fabric_cases()
    if case_id in fabric:
        return _run_fabric(**fabric[case_id])
    case, width, mode = case_id.split("/")
    return _run_crossbar(int(width[1:]), mode, **_crossbar_cases()[case])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", metavar="FILE",
                       help="compare against the stored digests; exit 1 on a difference")
    group.add_argument("--write", metavar="FILE",
                       help="regenerate the stored digests")
    args = parser.parse_args(argv)
    digests = {case_id: digest(case_id) for case_id in case_ids()}
    if args.write:
        text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
        Path(args.write).write_text(text)
        print(f"wrote {len(digests)} case digests to {args.write}")
        return 0
    stored = json.loads(Path(args.check).read_text())
    differing = [case for case in digests if digests[case] != stored.get(case)]
    missing = sorted(set(stored) - set(digests))
    for case in differing:
        print(f"differs: {case}", file=sys.stderr)
    for case in missing:
        print(f"no longer run: {case}", file=sys.stderr)
    if differing or missing:
        return 1
    print(f"hook digests: {len(digests)} cases match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
