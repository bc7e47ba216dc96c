"""The command-line layer the eight ``lcf-*`` console scripts share.

Every script's ``main`` is :func:`run_main`: parse (the ``add_*``
option groups below, per-script defaults via ``set_defaults``), build,
run. The script's ``build(args)`` creates every library object the
invocation names — :func:`check_options` judges the shared options by
building what consumes them — and returns the run as a callable. A
rejected value becomes one ``<prog>: <message>`` line on stderr and
exit status 2, before any slot runs or any file opens. The run itself
stays outside that guard, so a bug inside a simulation keeps its
traceback; only a :class:`CheckpointError` is still bad input there,
since the library finds some unusable checkpoints (a file of the wrong
kind, traffic it cannot rebuild) only once a resume starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

from repro.baselines.registry import SPECIAL_SWITCH_NAMES, available_schedulers
from repro.checkpoint import CheckpointError, load_checkpoint, resume_simulation
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkOutage, PortDownInterval
from repro.obs.metrics import MetricsRegistry
from repro.sim.admission import AdmissionController, make_admission
from repro.sim.config import SimConfig
from repro.traffic.base import TrafficPattern, make_traffic

#: What a library constructor raises for a value it rejects.
BAD_INPUT = (ValueError, KeyError, TypeError, CheckpointError)

#: argparse dest -> the :class:`SimConfig` field that flag sets.
CONFIG_FIELDS = {
    "ports": "n_ports",
    "slots": "measure_slots",
    "measure_slots": "measure_slots",
    "warmup": "warmup_slots",
    "warmup_slots": "warmup_slots",
    "iterations": "iterations",
    "seed": "seed",
}


def run_main(
    parser: argparse.ArgumentParser,
    build: Callable[[argparse.Namespace], Callable[[], int]],
    argv: list[str] | None = None,
) -> int:
    """Parse ``argv``, build the run inside the bad-input guard, run it."""
    args = parser.parse_args(argv)
    try:
        run = build(args)
    except BAD_INPUT as exc:
        return _reject(parser.prog, exc)
    try:
        return run()
    except CheckpointError as exc:
        return _reject(parser.prog, exc)


def _reject(prog: str, exc: Exception) -> int:
    print(f"{prog}: {_message(exc)}", file=sys.stderr)
    return 2


def _message(exc: Exception) -> object:
    """A rejection's text (a ``KeyError``'s string, not its repr)."""
    return exc.args[0] if isinstance(exc, KeyError) and exc.args else exc


@contextmanager
def naming(label: str):
    """Reword a value rejected inside the block as ``<label>: <message>``."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{label}: {_message(exc)}") from None


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


# -- option groups -------------------------------------------------------------


def add_run_options(
    parser: argparse.ArgumentParser,
    *,
    crossbar: bool = True,
    scheduler_help: str = "scheduler for single-run mode",
    slots_help: str = "measured slots",
    warmup_help: str | None = None,
) -> None:
    """``--scheduler/--load/--ports/--slots/--warmup/--iterations/--seed/
    --traffic``. ``crossbar=False`` leaves out ``--scheduler`` and
    ``--ports`` (the fabric takes both from its topology flags)."""
    if crossbar:
        parser.add_argument(
            "--scheduler", default="lcf_central_rr",
            help=f"{scheduler_help} ({', '.join(available_schedulers())})",
        )
    parser.add_argument("--load", type=float, default=0.8)
    if crossbar:
        parser.add_argument("--ports", type=int, default=16)
    parser.add_argument("--slots", type=int, default=1000, help=slots_help)
    parser.add_argument("--warmup", type=int, default=200, help=warmup_help)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traffic", default="bernoulli")


def parse_port_down(text: str) -> PortDownInterval:
    """``port:start:end`` or ``port:start:end:side``."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"expected port:start:end[:side], got {text!r}"
        )
    try:
        port, start, end = (int(p) for p in parts[:3])
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer field in {text!r}") from None
    side = parts[3] if len(parts) == 4 else "both"
    try:
        return PortDownInterval(port, start, end, side)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_link_down(text: str) -> LinkOutage:
    """``input:output:start:end``."""
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected input:output:start:end, got {text!r}"
        )
    try:
        return LinkOutage(*(int(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def add_fault_options(
    parser: argparse.ArgumentParser,
    *,
    availability_help: str = "duty-cycled outages averaging this availability",
) -> None:
    """``--port-down/--link-down/--availability`` (see :func:`build_plan`)."""
    parser.add_argument("--port-down", action="append", default=[],
                        type=parse_port_down, metavar="P:START:END[:SIDE]",
                        help="port outage interval (repeatable)")
    parser.add_argument("--link-down", action="append", default=[],
                        type=parse_link_down, metavar="I:J:START:END",
                        help="single-crosspoint outage (repeatable)")
    parser.add_argument("--availability", type=float, default=None,
                        help=availability_help)


def add_checkpoint_options(
    parser: argparse.ArgumentParser,
    *,
    checkpoint_help: str,
    resume_help: str,
    stop_at_help: str | None = None,
) -> None:
    """``--checkpoint/--checkpoint-every/--resume``, and ``--stop-at``
    when ``stop_at_help`` is given."""
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help=checkpoint_help)
    parser.add_argument("--checkpoint-every", metavar="N", type=int, default=None,
                        help="checkpoint cadence in slots (with --checkpoint)")
    if stop_at_help is not None:
        parser.add_argument("--stop-at", metavar="SLOT", type=int, default=None,
                            help=stop_at_help)
    parser.add_argument("--resume", metavar="PATH", default=None,
                        help=resume_help)


def add_admission_option(parser: argparse.ArgumentParser, *, help: str) -> None:
    """``--admission LOW:HIGH`` (see :func:`build_admission`)."""
    parser.add_argument("--admission", metavar="LOW:HIGH", default=None, help=help)


def parse_grid(text: str) -> tuple[float, ...]:
    """A comma-separated float grid (empty parts skipped)."""
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float grid {text!r}") from None


# -- building what the options name ----------------------------------------------


class Options(NamedTuple):
    """The library objects the shared options describe: the run's
    config, the ``--traffic`` pattern, the fault flags' plan, the
    ``--admission`` controller and the ``--resume`` file's payload
    (each None where the script lacks the option or it is unset)."""

    config: SimConfig
    pattern: TrafficPattern | None
    plan: FaultPlan | None
    admission: AdmissionController | None
    resumed: dict | None


def check_options(
    args: argparse.Namespace,
    *,
    traffic_load: float | None = None,
    traffic_kwargs: dict | None = None,
    **fields,
) -> Options:
    """Judge every shared option ``args`` carries, naming its flag.

    Each value is judged by what consumes it: the run flags by
    :class:`SimConfig` one field at a time (``fields`` sets the ones no
    flag does), ``--seed`` by the seed sequence every generator draws
    from, ``--scheduler`` by the registry, ``--traffic`` by
    :func:`make_traffic` at ``--load`` (or ``traffic_load``),
    ``--admission`` by :func:`make_admission`, the fault flags and
    each fault-grid value by the fault plan against ``--ports``, and
    ``--resume`` by loading the checkpoint.
    """
    given = vars(args)
    for dest, field in CONFIG_FIELDS.items():
        if dest in given:
            with naming(_flag(dest)):
                SimConfig(**{field: given[dest]})
            fields[field] = given[dest]
    if "seed" in given:
        with naming("--seed"):
            np.random.SeedSequence(args.seed)
    config = SimConfig(**fields)
    for dest in ("replicates", "workers", "shards"):
        if given.get(dest, 1) < 1:
            raise ValueError(f"{_flag(dest)} must be >= 1, got {given[dest]}")
    for dest in ("loss_grid", "availability_grid", "load_grid"):
        if given.get(dest) == ():
            raise ValueError(f"{_flag(dest)} was given but contains no values")
    for rate in given.get("loss_grid") or ():
        with naming("--loss-grid"):
            FaultPlan.message_loss(rate)
    for availability in given.get("availability_grid") or ():
        with naming("--availability-grid"):
            FaultPlan.availability(config.n_ports, availability)
    loads = [("--load", given["load"])] if "load" in given else []
    loads += [("--load-grid", load) for load in given.get("load_grid") or ()]
    for flag, load in loads:
        if not 0.0 < load <= 1.0:
            raise ValueError(f"{flag}: load {load:g} outside (0, 1]")
    if "scheduler" in given:
        check_schedulers("--scheduler", (args.scheduler,))
    pattern = None
    if "traffic" in given:
        with naming("--traffic"):
            pattern = make_traffic(
                args.traffic,
                config.n_ports,
                given.get("load") if traffic_load is None else traffic_load,
                seed=config.seed,
                **(traffic_kwargs or {}),
            )
    admission = None
    if given.get("admission") is not None:
        admission = build_admission(args.admission)
    plan = build_plan(args, config.n_ports) if "port_down" in given else None
    resumed = check_checkpoint_options(args) if "resume" in given else None
    return Options(config, pattern, plan, admission, resumed)


def check_schedulers(
    flag: str, names, also: tuple[str, ...] = (), refuse: str | None = None
) -> tuple[str, ...]:
    """``names`` if every one is in the scheduler registry (or ``also``).
    A script that cannot drive the dedicated ``fifo``/``outbuf`` switch
    models names why in ``refuse``."""
    known = (*available_schedulers(), *also)
    for name in names:
        if refuse is not None and name in SPECIAL_SWITCH_NAMES:
            raise ValueError(
                f"{flag}: {name!r} uses a dedicated switch model {refuse}"
            )
        if name not in known:
            raise ValueError(
                f"{flag}: unknown scheduler {name!r}; available: {', '.join(known)}"
            )
    return tuple(names)


def build_admission(text: str) -> AdmissionController:
    """The controller ``--admission LOW:HIGH`` names."""
    with naming("--admission"):
        low, sep, high = text.partition(":")
        if not sep:
            raise ValueError(f"expected LOW:HIGH, got {text!r}")
        return make_admission({"low": int(low), "high": int(high)})


def build_plan(args: argparse.Namespace, n_ports: int) -> FaultPlan:
    """The fault plan ``--loss`` (where a script has it), ``--port-down``,
    ``--link-down`` and ``--availability`` describe on ``n_ports`` ports."""
    loss = getattr(args, "loss", 0.0)
    with naming("--loss: invalid fault plan"):
        plan = FaultPlan(
            port_down=tuple(args.port_down),
            link_down=tuple(args.link_down),
            request_loss=loss,
            grant_loss=loss,
            accept_loss=loss,
        )
    if args.availability is not None:
        with naming("--availability: invalid fault plan"):
            duty = FaultPlan.availability(n_ports, args.availability)
        plan = dataclasses.replace(plan, port_duty=duty.port_duty)
    for dest in ("port_down", "link_down"):
        with naming(f"{_flag(dest)}: invalid fault plan"):
            FaultInjector(FaultPlan(**{dest: getattr(plan, dest)}), n_ports)
    return plan


def check_checkpoint_options(args: argparse.Namespace) -> dict | None:
    """The checkpoint cadence rules, written once; returns the
    ``--resume`` file's payload (None without ``--resume``)."""
    stop_at = getattr(args, "stop_at", None)
    for flag, value in (("--checkpoint-every", args.checkpoint_every),
                        ("--stop-at", stop_at)):
        if value is not None and not (args.checkpoint or args.resume):
            raise ValueError(f"{flag} needs --checkpoint or --resume")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        raise ValueError(
            f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )
    if stop_at is not None and stop_at < 0:
        raise ValueError(f"--stop-at must be >= 0, got {stop_at}")
    if args.resume is None:
        return None
    if args.checkpoint:
        raise ValueError(
            "--resume and --checkpoint are mutually exclusive (a resumed "
            "run keeps checkpointing to its own file)"
        )
    return load_checkpoint(args.resume)


def resume(args: argparse.Namespace, tracer=None):
    """The ``--resume`` flow: continue the checkpointed run with a fresh
    :class:`MetricsRegistry` and ``tracer`` (closed when the run ends)
    on the remaining slots. Returns ``(result, metrics)``."""
    metrics = MetricsRegistry()
    try:
        result = resume_simulation(
            args.resume,
            tracer=tracer,
            metrics=metrics,
            checkpoint_every=args.checkpoint_every,
            stop_at_slot=getattr(args, "stop_at", None),
        )
    finally:
        if tracer is not None:
            tracer.close()
    return result, metrics
