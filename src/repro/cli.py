"""Command-line interface: regenerate any paper figure from the shell.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig03                # Figure 3 (PFC unfairness)
    python -m repro run fig03            # same, explicit form
    python -m repro fig16 --scale smoke  # the short runs that pin digests
    python -m repro fig16 --jobs 4       # fan repetitions across 4 cores
    python -m repro sec4                 # §4 buffer-threshold table

Telemetry commands (see DESIGN.md §8) run one named scenario, or any
arm of an id by name, ``<id>/<arm>``, at the arm's first seed::

    python -m repro scenarios                      # named scenarios
    python -m repro trace smoke                    # JSONL trace on stdout
    python -m repro trace smoke --out t.jsonl      # ... or to a file
    python -m repro trace fig04/2 --level cc       # Fig 4, 2 T3 senders
    python -m repro profile fig03/none             # hotspot table
    python -m repro run chaos/storm/dcqcn          # one arm's table

Fault injection (see DESIGN.md §9)::

    python -m repro faults list                    # injector vocabulary
    python -m repro faults example                 # starter plan JSON
    python -m repro run storm --faults plan.json   # scenario under faults
    python -m repro trace storm --faults plan.json # ... with tracing on

Hardened execution (see DESIGN.md §10)::

    python -m repro run chaos/0.5 --invariants report  # collect, don't abort
    python -m repro fig16 --timeout 300            # per-cell budget (s)
    python -m repro fig16                          # again: only the missing cells

CC arena (see DESIGN.md §11)::

    python -m repro run arena                      # controller league table

Result digests (see DESIGN.md §7)::

    python -m repro digest > tests/digests.json    # re-pin every id and scenario

Each command prints the same rows the corresponding benchmark emits.
The experiment table is :data:`repro.runner.REGISTRY`, populated by
:mod:`repro.experiments.catalog`.  The options that are fields of
:class:`repro.runtime.RuntimeConfig` (``--scale``, ``--jobs``,
``--no-cache``, ...) are checked by its parsers, written to the
environment in one place (:func:`_export_env`) and read back, here and
in pool and shard children, only through :func:`repro.runtime.current`.
An option the target does not read is an error, not a no-op.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional, Sequence

import repro.experiments.catalog  # noqa: F401  (populates REGISTRY)
from repro import runtime
from repro.invariants import MODES, InvariantConfig, InvariantViolation
from repro.runner import REGISTRY, SCENARIOS, format_table
from repro.runner.registry import resolve
from repro.shard import can_shard, effective_shards, serial_reason


def _checked(field: str):
    """An argparse ``type=`` holding a flag to the rule its variable obeys."""
    var = runtime.VARS[field]

    def check(value: str) -> str:
        try:
            var.parse(value.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {var.accepts}, got {value!r}"
            ) from None
        return value

    return check


#: options more than one parser takes, each declared once, by dest.  A
#: dest that is a :class:`~repro.runtime.RuntimeConfig` field takes its
#: flag from :data:`repro.runtime.VARS` and parses to the *text*
#: :func:`_export_env` writes; the typed value comes back from
#: ``runtime.current()``.
_SHARED_OPTIONS = {
    "scale": dict(
        choices=runtime.SCALES, help="override REPRO_SCALE for this invocation"
    ),
    "jobs": dict(
        type=_checked("jobs"),
        help="worker processes for cell fan-out ('auto' or an integer; "
        "sets REPRO_JOBS)",
    ),
    "shards": dict(
        type=_checked("shards"),
        help="worker processes for one sharded fabric run (sets "
        "REPRO_SHARDS; non-fabric scenarios stay serial)",
    ),
    "cache": dict(
        action="store_const",
        const="off",
        help="recompute everything, ignoring results/.cache/",
    ),
    "run_timeout": dict(
        type=_checked("run_timeout"),
        metavar="SECONDS",
        help="per-cell wall-clock budget, or 'off' (sets REPRO_RUN_TIMEOUT; "
        "default scales with REPRO_SCALE)",
    ),
    "invariants": dict(
        choices=MODES,
        help="overlay a guard mode on a named scenario ('strict' aborts "
        "on the first violation, 'report' collects them)",
    ),
    "seed": dict(type=int, default=0, help="simulation seed"),
    "faults": dict(
        metavar="PLAN.json",
        help="overlay a fault plan on a named scenario "
        "(see 'python -m repro faults example')",
    ),
}

#: options only a named scenario or an arm reads (:func:`run_scenario_main`);
#: an experiment's cells carry their own guard modes in their scenarios
_SCENARIO_ONLY = ("faults", "shards", "seed", "invariants")


def _add_shared(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add the named :data:`_SHARED_OPTIONS` to ``parser``."""
    for name in names:
        var = runtime.VARS.get(name)
        flag = var.flag if var is not None else f"--{name}"
        parser.add_argument(flag, dest=name, **_SHARED_OPTIONS[name])


def _export_env(args: argparse.Namespace) -> None:
    """Write the given runtime options where ``runtime.current()``, here
    and in every child process, reads them."""
    for field, var in runtime.VARS.items():
        value = getattr(args, field, None)
        if value is not None:
            os.environ[var.env] = value


def _unread_option(experiment_id: str, args: argparse.Namespace) -> Optional[str]:
    """Why a registry experiment cannot honour an option it was given."""
    for name in _SCENARIO_ONLY:
        if getattr(args, name) is not None:
            return (
                f"--{name} applies to named scenarios (see 'scenarios') and "
                f"to arms ({experiment_id}/<arm>), not to experiment "
                f"{experiment_id!r}"
            )
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures from the DCQCN paper.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig16, sec4), 'run <id>', 'run <id>/<arm>', "
        "or 'list'",
    )
    parser.add_argument(
        "extra",
        nargs="?",
        default=None,
        help="experiment id when the first argument is 'run'",
    )
    _add_shared(
        parser,
        "scale", "jobs", "shards", "cache", "seed", "faults", "invariants",
        "run_timeout",
    )
    # None = not given: main() refuses --seed on a target that would
    # drop it, and a named scenario or an arm runs its own first seed
    parser.set_defaults(seed=None)
    return parser


def list_experiments() -> str:
    rows = [[exp.id, exp.description] for exp in REGISTRY]
    return format_table(["experiment", "regenerates"], rows)


def scenarios_main(argv: Sequence[str]) -> int:
    """``python -m repro scenarios`` — the named-scenario table."""
    rows = [[sc.id, sc.description] for sc in SCENARIOS]
    print(format_table(["scenario", "description"], rows))
    print("\nany arm of an experiment runs too, as <id>/<arm> (an unknown "
          "arm lists the id's arms)")
    return 0


def _telemetry_parser(prog: str, description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "scenario",
        help="named scenario (see 'python -m repro scenarios') or <id>/<arm>",
    )
    _add_shared(parser, "seed", "scale", "faults", "invariants")
    parser.set_defaults(seed=None)
    return parser


def _prepare_scenario(target: str, seed: Optional[int], faults=None, invariants=None):
    """``(scenario, seed)`` of a named scenario or an ``<id>/<arm>``, with
    ``--faults`` / ``--invariants`` overlaid; ``seed`` defaults to the
    target's first.

    Prints the reason and returns None when the target is unknown or
    the plan file does not load.
    """
    try:
        scenario, seeds = resolve(target)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None
    if faults is not None:
        import json

        from repro.faults import FaultPlan

        try:
            with open(faults, "r", encoding="utf-8") as handle:
                plan = FaultPlan.from_json(json.load(handle))
        except (OSError, ValueError, TypeError, KeyError) as exc:
            print(f"bad fault plan {faults!r}: {exc}", file=sys.stderr)
            return None
        scenario = dataclasses.replace(scenario, faults=plan)
    if invariants is not None:
        scenario = dataclasses.replace(
            scenario, invariants=InvariantConfig(mode=invariants)
        )
    return scenario, seeds[0] if seed is None else seed


def _run_inline(scenario, seed: int, **instruments):
    """One inline repetition; None, after saying why, if the guard aborts it."""
    from repro.runner import run_scenario_inline

    try:
        result, _ = run_scenario_inline(scenario, seed, **instruments)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return None
    return result


def trace_main(argv: Sequence[str]) -> int:
    """``python -m repro trace <scenario|id/arm>`` — run once, emit the trace.

    Without ``--out`` the JSONL stream goes to stdout (pipe it to
    ``jq``/``repro.analysis.trace``); a per-type summary goes to
    stderr.  With ``--out`` the stream goes to the file and the summary
    to stdout.
    """
    parser = _telemetry_parser(
        "repro trace", "Run one scenario repetition with tracing on."
    )
    parser.add_argument(
        "--level",
        choices=("cc", "full"),
        default="full",
        help="trace verbosity (cc: control-plane decisions only)",
    )
    parser.add_argument(
        "--out", default=None, help="write JSONL here instead of stdout"
    )
    parser.add_argument(
        "--stride",
        type=int,
        default=1,
        help="keep 1-in-N of the high-frequency event types",
    )
    parser.add_argument(
        "--queue-sample-ns",
        type=int,
        default=None,
        help="sample every switch egress queue at this period",
    )
    parser.add_argument(
        "--rate-sample-ns",
        type=int,
        default=None,
        help="sample per-flow goodput at this period",
    )
    args = parser.parse_args(argv)
    _export_env(args)
    prepared = _prepare_scenario(args.scenario, args.seed, args.faults, args.invariants)
    if prepared is None:
        return 2
    scenario, seed = prepared

    import json

    from repro.telemetry import Telemetry, TelemetrySpec

    spec = TelemetrySpec(
        trace=args.level,
        sink="jsonl" if args.out else "ring",
        path=args.out,
        sample_stride=args.stride,
        queue_sample_ns=args.queue_sample_ns,
        rate_sample_ns=args.rate_sample_ns,
    )
    scenario = dataclasses.replace(scenario, telemetry=spec)
    telemetry = Telemetry.from_spec(spec, seed=seed)
    try:
        result = _run_inline(scenario, seed, telemetry=telemetry)
    finally:
        telemetry.close()
    if result is None:
        return 3

    counts = sorted(telemetry.trace_counts().items())
    summary_rows = [[etype, count] for etype, count in counts]
    summary = format_table(["event type", "count"], summary_rows)
    total = sum(count for _, count in counts)
    if args.out:
        print(f"wrote {total} events to {args.out}")
        print(summary)
        print(result.table())
    else:
        for event in telemetry.tracer.sink.events:
            print(json.dumps(event, sort_keys=True))
        print(summary, file=sys.stderr)
    return 0


def profile_main(argv: Sequence[str]) -> int:
    """``python -m repro profile <scenario|id/arm>`` — per-site hotspot table."""
    parser = _telemetry_parser(
        "repro profile",
        "Run one scenario repetition under the scheduler profiler.",
    )
    parser.add_argument(
        "--limit", type=int, default=15, help="rows in the hotspot table"
    )
    args = parser.parse_args(argv)
    _export_env(args)
    prepared = _prepare_scenario(args.scenario, args.seed, args.faults, args.invariants)
    if prepared is None:
        return 2
    scenario, seed = prepared

    from repro.telemetry import SchedulerProfiler

    profiler = SchedulerProfiler()
    result = _run_inline(scenario, seed, profiler=profiler)
    if result is None:
        return 3
    print(f"=== profile: {scenario.label or args.scenario} ===")
    print(profiler.table(limit=args.limit))
    print()
    print(result.table())
    return 0


def fabric_main(argv: Sequence[str]) -> int:
    """``python -m repro fabric check`` — build and validate a fabric.

    Builds the requested topology, runs the structural validator
    (tier/host counts, port counts, link symmetry, routing
    completeness) and prints a one-line summary plus the build and
    route-install timings.  Exit status 1 when validation fails — the
    CI fabric-smoke job gates on this.
    """
    parser = argparse.ArgumentParser(
        prog="repro fabric",
        description="Inspect and validate repro.fabric topologies.",
    )
    parser.add_argument("action", choices=("check",), help="what to do")
    parser.add_argument(
        "--kind",
        choices=("fat_tree", "clos"),
        default="fat_tree",
        help="fabric family (default: fat_tree)",
    )
    parser.add_argument(
        "--k", type=int, default=4, help="fat-tree arity (default: 4)"
    )
    parser.add_argument(
        "--pods", type=int, default=2, help="clos: number of pods"
    )
    parser.add_argument(
        "--tors-per-pod", type=int, default=2, help="clos: ToRs per pod"
    )
    parser.add_argument(
        "--leaves-per-pod", type=int, default=2, help="clos: leaves per pod"
    )
    parser.add_argument(
        "--spines", type=int, default=2, help="clos: spine count"
    )
    parser.add_argument(
        "--hosts-per-tor", type=int, default=2, help="clos: hosts per ToR"
    )
    _add_shared(parser, "seed")
    parser.add_argument(
        "--expect-hosts",
        type=int,
        default=None,
        help="fail unless the fabric has exactly this many hosts",
    )
    args = parser.parse_args(argv)

    import time

    from repro.fabric import FabricSpec, build_fabric

    try:
        if args.kind == "fat_tree":
            spec = FabricSpec(kind="fat_tree", k=args.k)
        else:
            spec = FabricSpec(
                kind="clos",
                pods=args.pods,
                tors_per_pod=args.tors_per_pod,
                leaves_per_pod=args.leaves_per_pod,
                spines=args.spines,
                hosts_per_tor=args.hosts_per_tor,
            )
    except ValueError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    fabric = build_fabric(spec, seed=args.seed)
    build_s = time.perf_counter() - start
    problems = fabric.validate()
    hosts = len(fabric.all_hosts())
    if args.expect_hosts is not None and hosts != args.expect_hosts:
        problems.append(
            f"expected {args.expect_hosts} hosts, built {hosts}"
        )
    tiers = {tier: len(sw) for tier, sw in fabric.tiers().items()}
    print(
        f"{args.kind} fabric: {hosts} hosts, "
        + ", ".join(f"{n} {tier}" for tier, n in tiers.items())
        + f"; built in {build_s:.3f}s "
        f"(routes {fabric.net.route_install_s:.3f}s)"
    )
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    print("validation: ok")
    return 0


def faults_main(argv: Sequence[str]) -> int:
    """``python -m repro faults list|example`` — the injector vocabulary."""
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="Inspect the fault-injection vocabulary (DESIGN.md §9).",
    )
    parser.add_argument(
        "action",
        choices=("list", "example"),
        help="'list' the injector kinds; print an 'example' plan JSON",
    )
    args = parser.parse_args(argv)

    import json

    from repro import units
    from repro.faults import (
        FaultPlan,
        INJECTOR_KINDS,
        LinkFlap,
        PauseStorm,
        WatchdogConfig,
    )

    if args.action == "list":
        rows = [
            [kind, (cls.__doc__ or "").strip().splitlines()[0]]
            for kind, cls in sorted(INJECTOR_KINDS.items())
        ]
        print(format_table(["kind", "injects"], rows))
        return 0
    # an example plan sized for the 'storm' scenario's dumbbell: a PAUSE
    # storm on the stormed receiver plus one trunk flap later in the run
    plan = FaultPlan(
        injectors=(
            PauseStorm(
                host="R1", start_ns=units.us(500), duration_ns=units.us(500)
            ),
            LinkFlap(
                a="SL", b="SR", start_ns=units.us(1500), down_ns=units.us(100)
            ),
        ),
        watchdog=WatchdogConfig(),
    )
    print(json.dumps(plan.to_json(), indent=2, sort_keys=True))
    return 0


def digest_main(argv: Sequence[str]) -> int:
    """``python -m repro digest`` — the manifest ``tests/digests.json`` pins.

    Every registered id runs at smoke scale with the cache on, each in
    its own fresh results directory, so the cells it leaves there are
    its own; then every named scenario runs once, as defined, at seed 0.
    Prints the manifest as JSON (see :mod:`repro.runner.digest`).
    """
    parser = argparse.ArgumentParser(
        prog="repro digest",
        description="Print the result-digest manifest of every id and scenario.",
    )
    _add_shared(parser, "jobs")
    args = parser.parse_args(argv)
    _export_env(args)

    import json
    import tempfile

    from repro.runner import digest

    # the one configuration the manifest is taken at
    os.environ[runtime.VARS["scale"].env] = "smoke"
    os.environ[runtime.VARS["cache"].env] = "on"
    manifest: dict = {"experiments": {}, "scenarios": {}}
    with tempfile.TemporaryDirectory() as root:
        for experiment in REGISTRY:
            os.environ[runtime.VARS["results_dir"].env] = os.path.join(
                root, experiment.id
            )
            manifest["experiments"][experiment.id] = digest.of_experiment(
                experiment.run()
            )
    for named in SCENARIOS:
        manifest["scenarios"][named.id] = digest.sha256(
            digest.scenario_result(named.id).to_json()
        )
    print(json.dumps(manifest, indent=1, sort_keys=True))
    return 0


def run_scenario_main(scenario_id: str, args) -> int:
    """``python -m repro run <scenario|id/arm>`` — one inline repetition.

    Named scenarios (``python -m repro scenarios``) and arms run through
    the same path the telemetry commands use, so ``--faults`` overlays a
    plan and the result table includes the fault/watchdog counters.
    """
    prepared = _prepare_scenario(scenario_id, args.seed, args.faults, args.invariants)
    if prepared is None:
        return 2
    scenario, seed = prepared

    # the shard runtime is imported only by a run that will use it
    shard_runner = None
    ambient_shards = runtime.current().shards
    if can_shard(scenario) and effective_shards(scenario, ambient_shards) > 1:
        from repro.shard import runner as shard_runner

        shard_runner.LAST_STATS = None
    result = _run_inline(scenario, seed)
    if result is None:
        return 3
    print(f"=== scenario {scenario_id}: {scenario.label or scenario_id} ===")
    print(result.table())
    stats = None if shard_runner is None else shard_runner.LAST_STATS
    if stats is not None:
        print(
            f"sharded: {stats['shards']} workers, "
            f"window {stats['window_ns']}ns, "
            f"{stats['barriers']} barriers, "
            f"{stats['messages']} boundary messages, "
            f"sync stall {stats['stall_fraction']:.0%}"
        )
        from repro.shard.supervise import ShardFailure

        for failure in result.shard_report.get("failures", ()):
            # the survived-fault summary
            print(
                "resilience: degraded to serial after "
                + ShardFailure(**failure).describe()
            )
    elif ambient_shards > 1:
        reason = serial_reason(scenario) or "the fabric has no shard boundary"
        print(f"sharding skipped ({reason})")
    if result.flow_stats:
        completed = [r for r in result.flow_stats_records() if r.completed]
        print(
            f"flow_stats: {len(result.flow_stats)} rows, "
            f"{len(completed)} completed transfers"
        )
    report = result.invariant_report
    if report:
        print(
            f"invariants[{report.get('mode', '-')}]: "
            f"{report.get('checks', 0)} checks, "
            f"{report.get('violation_count', 0)} violations"
        )
    return 0


#: commands with their own option grammar, dispatched before the
#: experiment parser (whose grammar is a bare positional id)
SUBCOMMANDS = {
    "trace": trace_main,
    "profile": profile_main,
    "scenarios": scenarios_main,
    "faults": faults_main,
    "digest": digest_main,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    # only dispatch "fabric" when an action follows: a bare
    # ``repro fabric`` is the experiment of the same name
    if argv[:2] == ["fabric", "check"]:
        return fabric_main(argv[1:])
    args = build_parser().parse_args(argv)
    experiment_id = args.experiment
    if experiment_id == "run":
        if args.extra is None:
            print("usage: repro run <experiment id>", file=sys.stderr)
            return 2
        experiment_id = args.extra
    if experiment_id == "list":
        print(list_experiments())
        return 0
    # named scenarios and arms run too ('repro run storm --faults plan.json')
    named_scenario = experiment_id not in REGISTRY
    if named_scenario and "/" not in experiment_id and experiment_id not in SCENARIOS:
        print(
            f"unknown experiment {experiment_id!r}; try 'list'",
            file=sys.stderr,
        )
        return 2
    unread = None if named_scenario else _unread_option(experiment_id, args)
    if unread is not None:
        print(unread, file=sys.stderr)
        return 2
    _export_env(args)
    try:
        # a malformed REPRO_* value ends the command here, whether or
        # not the target would have read it
        runtime.current()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if named_scenario:
        return run_scenario_main(experiment_id, args)
    experiment = REGISTRY.get(experiment_id)
    print(f"=== {experiment.id}: {experiment.description} ===")
    print(experiment.run())
    return 0
