"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``info`` (default) — library overview and subsystem inventory;
* ``experiments [names...]`` — regenerate paper tables/figures
  (delegates to :mod:`repro.experiments.runner`); ``--list`` prints the
  available experiment ids and ``--jobs N`` fans independent
  experiments out across ``N`` worker processes;
* ``monitor [--tech N] [--voltage V]`` — build the default monitor and
  print a one-shot reading with its error budget;
* ``characterize --kind ring|divider --voltages SPEC`` — cached SPICE
  characterization curves from the command line; ``--engine
  auto|exact|surrogate`` picks between exact solves and certified
  interpolants (``docs/surrogates.md``), ``--fit`` pre-fits a certified
  surrogate over the requested span;
* ``fleet [--devices N] [--jobs J]`` — simulate a heterogeneous device
  fleet and print aggregate duty/checkpoint distributions plus a
  deployment-plan preview (``--no-plan`` to skip); each monitor design
  enrolls once per run, in memory; ``--stream``
  switches to the sharded constant-memory mode (``--shard-size``,
  ``--sample``, ``--sample-seed``, ``--reservoir``), which scales to
  million-device fleets (``docs/fleet_scale.md``);
* ``riscv [--workload NAME]`` — run a named
  RV32IM workload on the intermittent machine; ``--differential``
  switches the checkpoint runtime to dirty-page mode, ``--continuous``
  runs on stable power, ``--list-workloads`` prints the kernel names
  (``docs/performance.md``);
* ``serve [--host H] [--port P] [--workers N] [--queue-depth D]`` —
  run the long-lived HTTP job service (:mod:`repro.serve`,
  ``docs/serving.md``) until Ctrl-C;
* ``replay TRACE [--diff OTHER] [--device ID]`` — re-execute a
  recording written by ``--record`` and assert byte-identity, or name
  the first divergent event between two recordings
  (``docs/replay.md``).

``fleet`` and ``riscv`` accept ``--record PATH`` to capture the run as
a deterministic replay trace (``.gz`` transparently compressed).

``--version``/``-V`` prints the package version and exits.  Every
subcommand accepts the observability flags ``--trace PATH`` (write a
JSONL span/event trace) and ``--metrics`` (collect and print
counters/gauges/histograms); see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

import repro.obs as obs
from repro import __version__
from repro.errors import ConfigurationError


def cmd_info(_args) -> None:
    from repro.experiments.runner import EXPERIMENTS

    print(f"repro {__version__} — Failure Sentinels (ISCA 2021) reproduction")
    print(__doc__.split("Subcommands:")[0].strip())
    print("\nsubsystems:")
    for name, what in [
        ("repro.tech", "PTM-inspired technology cards, temperature, variation"),
        ("repro.spice", "nodal circuit simulator (DC Newton + transient)"),
        ("repro.analog", "ring oscillator, divider, level shifter, ADC/comparator"),
        ("repro.core", "the Failure Sentinels monitor"),
        ("repro.dse", "design-space exploration (NSGA-II + grid)"),
        ("repro.harvest", "energy-harvesting intermittent-system simulator"),
        ("repro.riscv", "RV32IM ISS with the two FS instructions"),
        ("repro.runtimes", "checkpoint policies + energy-aware scheduling"),
        ("repro.fleet", "fleet-scale deployment simulation + calibration cache"),
        ("repro.soc", "structural area/power overheads"),
    ]:
        print(f"  {name:<16s} {what}")
    print(f"\nexperiments ({len(EXPERIMENTS)}): {', '.join(EXPERIMENTS)}")
    print("run them with: python -m repro experiments [names...]")


def cmd_experiments(args) -> None:
    from repro.experiments.runner import EXPERIMENTS, run_all

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return
    run_all(args.names or None, json_path=args.json, parallel=args.jobs)


#: Reduced factorial grid for the CLI's deployment-plan preview: a
#: representative sub-grid with 3 ring lengths, so three ring-physics
#: solves where the full sweep the dse experiments run needs seven.
_PLAN_GRID = dict(
    lengths=(7, 13, 23),
    f_samples=(1e3, 5e3),
    counter_bits=(8, 12, 16),
    t_enables=(1e-5, 5e-5),
    nvm_entries=(64,),
    entry_bits=(12, 16),
)


def _plan_preview() -> None:
    """Match Pareto-optimal monitor designs to representative sites."""
    from repro.dse.grid import grid_explore
    from repro.dse.objectives import PerformanceModel
    from repro.dse.space import DesignSpace
    from repro.fleet import DeploymentPlanner, SiteRequirement
    from repro.tech import TECH_90NM

    model = PerformanceModel(DesignSpace(TECH_90NM))
    grid = grid_explore(model, points=model.space.grid(**_PLAN_GRID))
    planner = DeploymentPlanner(tech=TECH_90NM, model=model, candidates=grid.pareto)
    sites = [
        SiteRequirement(name="storefront", granularity_max=0.060, f_sample_min=1e3),
        SiteRequirement(name="deep-shade", granularity_max=0.040, f_sample_min=2e3),
        SiteRequirement(name="rooftop", granularity_max=0.080, f_sample_min=1e3),
    ]
    print(f"deployment plan ({len(grid.pareto)} Pareto designs from {grid.total_count} grid points):")
    for site in sites:
        try:
            print(f"  {planner.assign(site).summary()}")
        except ConfigurationError as exc:
            print(f"  {site.name}: no qualifying design ({exc})")


def cmd_fleet(args) -> None:
    from repro.fleet import FleetRunner, synthesize_fleet

    recorder = None
    if args.record:
        from repro.trace import TraceRecorder

        # Stream to disk without keeping events in memory so --record
        # composes with million-device --stream runs.
        recorder = TraceRecorder(path=args.record, keep_events=False)
    if args.stream:
        # Sharded constant-memory mode: devices are generated lazily, so
        # a million-device fleet never exists as a list anywhere.
        from repro.fleet import iter_synthesized_devices, stream_fleet

        devices = iter_synthesized_devices(
            args.devices,
            seed=args.seed,
            duration=args.duration,
            trace=args.irradiance,
        )
        result = stream_fleet(
            devices,
            name=f"synthetic-{args.devices}dev-seed{args.seed}",
            parallel=args.jobs,
            shard_size=args.shard_size,
            eval_engine=args.eval_engine,
            sample=args.sample,
            sample_seed=args.sample_seed,
            capacity=args.reservoir,
            record=recorder,
        )
        if recorder is not None:
            print(f"(wrote the replay trace to {args.record})")
        print(result.report.render())
        print(
            f"({result.devices_simulated}/{result.devices_seen} devices in "
            f"{result.elapsed:.2f}s, {result.shards} shards, jobs={result.jobs}, "
            f"calibration cache: {result.cache_summary})"
        )
        if args.json:
            import json

            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(result.report.to_dict(), fh, indent=2)
            print(f"(wrote the fleet sketch report to {args.json})")
        if not args.no_plan:
            _plan_preview()
        return
    fleet = synthesize_fleet(
        args.devices,
        seed=args.seed,
        duration=args.duration,
        trace=args.irradiance,
    )
    runner = FleetRunner(fleet, parallel=args.jobs, eval_engine=args.eval_engine)
    result = runner.run(record=recorder)
    if recorder is not None:
        print(f"(wrote the replay trace to {args.record})")
    print(result.report.render())
    print(
        f"({len(fleet)} devices in {result.elapsed:.2f}s, jobs={result.jobs}, "
        f"calibration cache: {result.cache_summary})"
    )
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.report.to_dict(), fh, indent=2)
        print(f"(wrote the fleet report to {args.json})")
    if not args.no_plan:
        _plan_preview()


def _parse_voltages(spec: str):
    """``"a,b,c"`` literal points or ``"lo:hi:n"`` linear span."""
    from repro.spice.charlib import MAX_SWEEP_POINTS

    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                f"voltage span must be lo:hi:n, got {spec!r}"
            )
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if not 1 <= n <= MAX_SWEEP_POINTS:
            raise ConfigurationError(
                f"voltage span needs 1 <= n <= {MAX_SWEEP_POINTS} points, got {n}"
            )
        if n == 1:
            return (lo,)
        step = (hi - lo) / (n - 1)
        return tuple(lo + i * step for i in range(n))
    try:
        return tuple(float(v) for v in spec.split(",") if v.strip())
    except ValueError:
        raise ConfigurationError(f"bad voltage list {spec!r}")


def cmd_characterize(args) -> None:
    from repro.spice.charlib import DividerSweep, RingSweep, characterize_many
    from repro.tech import get_technology

    tech = get_technology(args.tech)
    voltages = _parse_voltages(args.voltages)
    if args.kind == "ring":
        sweep = RingSweep(
            tech=tech, n_stages=args.stages, voltages=voltages, temp_k=args.temp
        )
    else:
        sweep = DividerSweep(tech=tech, voltages=voltages, temp_k=args.temp)
    if args.fit:
        from repro.spice.surrogate import DEFAULT_TOLERANCE, fit_surrogate

        tol = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        model = fit_surrogate(sweep, tolerance=tol)
        print(
            f"fitted surrogate: {len(model.v_anchors)} anchors x "
            f"{len(model.temps)} temps, certified error "
            f"{model.certified_error:.2%} <= {model.tolerance:.2%} "
            f"({model.cert_points} held-out solves, {model.rounds} refinement rounds)"
        )
    [result] = characterize_many(
        [sweep], engine=args.engine, parallel=args.jobs, tolerance=args.tolerance
    )
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2))
        return
    label = f"{args.kind} @ {tech.name}, {args.temp:.1f} K ({result.source})"
    if args.kind == "ring":
        label += f", {args.stages} stages"
        print(label)
        print(f"  {'V':>8s} {'freq (MHz)':>12s} {'current (uA)':>13s}")
        for v, f, i in zip(result.voltages, result.frequency, result.current):
            print(f"  {v:8.3f} {f / 1e6:12.4f} {i * 1e6:13.4f}")
    else:
        print(label)
        print(f"  {'V':>8s} {'tap (V)':>10s} {'current (uA)':>13s}")
        for v, t, i in zip(result.voltages, result.tap, result.current):
            print(f"  {v:8.3f} {t:10.4f} {i * 1e6:13.4f}")


def cmd_riscv(args) -> None:
    from repro.harvest.traces import constant_trace
    from repro.riscv import IntermittentMachine, WORKLOADS, get_workload

    if args.list_workloads:
        for name, workload in WORKLOADS.items():
            print(f"{name:<10s} ~{workload.approx_instructions} insns  {workload.description}")
        return
    workload = get_workload(args.workload)
    machine = IntermittentMachine(
        workload.assemble(),
        capacitance=args.capacitance * 1e-6,
        clock_hz=args.clock,
        volatile_bytes=args.volatile_bytes,
        differential_checkpoints=args.differential,
    )
    recorder = None
    if args.record:
        if args.continuous:
            raise ConfigurationError(
                "--record captures the intermittent run loop; it does not "
                "compose with --continuous"
            )
        from repro.trace import TraceRecorder

        recorder = TraceRecorder(path=args.record, keep_events=False)
    if args.continuous:
        result = machine.run_continuous()
    else:
        trace = constant_trace(args.irradiance, args.duration)
        result = machine.run(
            trace=trace, max_wall_time=args.duration, record=recorder
        )
        if recorder is not None:
            print(f"(wrote the replay trace to {args.record})")
    mode = "differential" if args.differential else "full-image"
    print(f"{workload.name} [fast engine, {mode} checkpoints]")
    print(f"  {result.summary()}")
    expected = workload.expected_exit_code()
    verdict = "matches" if result.exit_code == expected else "MISMATCH vs"
    print(f"  exit code {verdict} the Python reference ({expected})")
    print(
        f"  blocks compiled: {machine.interpreter.blocks_compiled}, "
        f"cache hits: {machine.interpreter.block_hits}"
    )
    if result.checkpoints:
        print(
            f"  checkpoint time: {result.checkpoint_time * 1e3:.3f} ms over "
            f"{result.checkpoints} checkpoints "
            f"({machine.runtime.dirty_pages_written} dirty pages written)"
        )


def cmd_serve(args) -> None:
    from repro.serve import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        buffer_limit=args.buffer_limit,
    )
    server.run(
        on_ready=lambda s: print(
            f"repro {__version__} serving on {s.base_url} "
            f"(workers={s.manager.workers}, queue_depth={s.manager.queue_depth}); "
            "Ctrl-C to stop",
            flush=True,
        )
    )


def cmd_replay(args) -> None:
    from repro.trace import Recording, diff_recordings, replay

    if args.diff:
        left = Recording.load(args.trace)
        right = Recording.load(args.diff)
        diff = diff_recordings(left, right)
        if args.json:
            import json

            print(json.dumps(diff.to_dict(), indent=2))
        else:
            print(diff.render())
        if not diff.identical:
            raise SystemExit(1)
        return
    outcome = replay(
        args.trace,
        device=args.device,
        check=False,
    )
    if args.json:
        import json

        print(json.dumps(outcome.diff.to_dict(), indent=2))
    else:
        print(outcome.render())
    if not outcome.identical:
        raise SystemExit(1)


def cmd_monitor(args) -> None:
    from repro.core import FailureSentinels, FSConfig
    from repro.harvest.capacitor import BufferCapacitor
    from repro.tech import get_technology

    if not 0.0 <= args.voltage <= BufferCapacitor.v_max:  # refuses NaN too
        raise ConfigurationError(f"--voltage must be in [0, {BufferCapacitor.v_max}] V, got {args.voltage}")
    config = FSConfig(tech=get_technology(args.tech))
    fs = FailureSentinels(config)
    fs.enroll()
    count = fs.sample(args.voltage)
    print(f"{config.label()}")
    print(f"  supply {args.voltage:.3f} V -> count {count} -> reads {fs.read_voltage(count):.3f} V")
    print(f"  mean current @ {args.voltage} V: {fs.mean_current(args.voltage) * 1e6:.3f} uA")
    print("  error budget (mV):", {k: round(v * 1e3, 1) for k, v in fs.error_budget().breakdown().items()})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    parser.add_argument(
        "--version", "-V", action="version", version=f"repro {__version__}",
        help="print the package version and exit",
    )
    # Observability flags work before *or* after the subcommand.  The
    # subparser copies default to SUPPRESS so a flag given only at the
    # top level is not clobbered by the subparser's parse pass.
    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_parent.add_argument(
        "--trace", dest="obs_trace", metavar="PATH", default=argparse.SUPPRESS,
        help="write a JSONL span/event trace to PATH",
    )
    obs_parent.add_argument(
        "--metrics", action="store_true", default=argparse.SUPPRESS,
        help="collect counters/gauges/histograms and print them at exit",
    )
    parser.add_argument("--trace", dest="obs_trace", metavar="PATH", default=None,
                        help="write a JSONL span/event trace to PATH")
    parser.add_argument("--metrics", action="store_true", default=False,
                        help="collect counters/gauges/histograms and print them at exit")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="library overview", parents=[obs_parent])
    exp = sub.add_parser("experiments", help="regenerate paper tables/figures", parents=[obs_parent])
    exp.add_argument("names", nargs="*", help="experiment ids (default: all)")
    exp.add_argument("--list", action="store_true", help="print available experiment ids")
    exp.add_argument("--json", metavar="PATH", default=None,
                     help="also write the results as a JSON list to PATH")
    exp.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="run independent experiments across N worker processes")
    mon = sub.add_parser("monitor", help="one-shot monitor demo", parents=[obs_parent])
    mon.add_argument("--tech", default="90nm", choices=["130nm", "90nm", "65nm"])
    mon.add_argument("--voltage", type=float, default=2.7, metavar="V",
                     help="supply to sample (default 2.7); outside [0, 3.6] V, the "
                          "buffer capacitor's v_max, or NaN exits 2")
    chz = sub.add_parser(
        "characterize", help="cached SPICE characterization curves",
        parents=[obs_parent],
    )
    chz.add_argument("--kind", default="divider", choices=["ring", "divider"],
                     help="circuit to characterize (default divider)")
    chz.add_argument("--tech", default="90nm", choices=["130nm", "90nm", "65nm"])
    chz.add_argument("--stages", type=int, default=5,
                     help="ring length for --kind ring (default 5)")
    chz.add_argument("--voltages", default="1.0:3.5:11", metavar="SPEC",
                     help='supply points: "a,b,c" literals or "lo:hi:n" span '
                          "(default 1.0:3.5:11; at most 64 points, which at the "
                          "ring step cap is ~16 min of SPICE: 64 x 15.3 s)")
    chz.add_argument("--temp", type=float, default=298.15, metavar="K",
                     help="simulation temperature in kelvin (default 298.15)")
    chz.add_argument(
        "--engine", default="auto", choices=["auto", "exact", "surrogate"],
        help="curve source (default auto: certified surrogate when one covers "
             "the request, exact solves otherwise; see docs/surrogates.md)",
    )
    chz.add_argument("--tolerance", type=float, default=None, metavar="RTOL",
                     help="certified surrogate tolerance (default 0.02)")
    chz.add_argument("--fit", action="store_true",
                     help="fit+certify a surrogate over the requested span first")
    chz.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="worker processes for exact solves")
    chz.add_argument("--json", action="store_true",
                     help="print the SweepResult as JSON instead of a table")
    flt = sub.add_parser("fleet", help="fleet-scale deployment simulation", parents=[obs_parent])
    flt.add_argument("--devices", type=int, default=20, help="fleet size (default 20)")
    flt.add_argument("--jobs", type=int, default=1, help="worker processes (default serial)")
    flt.add_argument("--duration", type=float, default=300.0, help="trace seconds per device")
    flt.add_argument("--seed", type=int, default=1, help="fleet synthesis seed")
    flt.add_argument(
        "--irradiance",
        default="nyc_pedestrian_night",
        choices=["nyc_pedestrian_night", "diurnal", "rfid_reader", "thermal_gradient", "constant"],
        help="irradiance trace shape replayed by every device",
    )
    flt.add_argument(
        "--eval-engine", default="auto", choices=["auto", "scalar", "batch"],
        help="per-device evaluation dispatch (default auto: batch when numpy "
             "is available and the chunk is large enough)",
    )
    flt.add_argument("--json", metavar="PATH", default=None,
                     help="also write the fleet report as JSON to PATH")
    flt.add_argument("--stream", action="store_true",
                     help="sharded constant-memory mode: fold devices into mergeable "
                          "sketches instead of holding every result (docs/fleet_scale.md)")
    flt.add_argument("--shard-size", type=int, default=2048, metavar="N",
                     help="devices per shard in --stream mode (default 2048)")
    flt.add_argument("--sample", type=float, default=1.0, metavar="F",
                     help="stratified sampling fraction in --stream mode "
                          "(default 1.0 = simulate everything)")
    flt.add_argument("--sample-seed", type=int, default=0,
                     help="seed for the stratified device sampler (default 0)")
    flt.add_argument("--reservoir", type=int, default=4096, metavar="K",
                     help="percentile reservoir capacity in --stream mode (default 4096)")
    flt.add_argument("--record", metavar="PATH", default=None,
                     help="capture the run as a deterministic replay trace "
                          "(JSONL, .gz ok; see `replay` and docs/replay.md)")
    flt.add_argument("--no-plan", action="store_true", help="skip the deployment-plan preview")
    rsv = sub.add_parser("riscv", help="run an RV32IM workload intermittently", parents=[obs_parent])
    rsv.add_argument("--workload", default="crc32",
                     help="workload name (default crc32; see --list-workloads)")
    rsv.add_argument("--list-workloads", action="store_true",
                     help="print the available kernels and exit")
    rsv.add_argument("--differential", action="store_true",
                     help="dirty-page differential checkpoints instead of full images")
    rsv.add_argument("--continuous", action="store_true",
                     help="run on stable power instead of the harvested supply")
    rsv.add_argument("--capacitance", type=float, default=47.0, metavar="UF",
                     help="buffer capacitance in microfarads (default 47)")
    rsv.add_argument("--clock", type=float, default=1e6, metavar="HZ",
                     help="core clock (default 1 MHz)")
    rsv.add_argument("--volatile-bytes", type=int, default=8 * 1024,
                     help="checkpointed volatile footprint (default 8192)")
    rsv.add_argument("--irradiance", type=float, default=5.0, metavar="SUN",
                     help="constant irradiance level (default 5.0)")
    rsv.add_argument("--duration", type=float, default=3600.0, metavar="S",
                     help="max wall-clock seconds simulated (default 3600)")
    rsv.add_argument("--record", metavar="PATH", default=None,
                     help="capture the run as a deterministic replay trace "
                          "(JSONL, .gz ok; see `replay` and docs/replay.md)")
    rpl = sub.add_parser(
        "replay", help="re-execute a recorded trace, assert byte-identity",
        parents=[obs_parent],
    )
    rpl.add_argument("trace", help="recording written by --record (JSONL, .gz ok)")
    rpl.add_argument("--diff", metavar="OTHER", default=None,
                     help="diff against another recording instead of re-executing; "
                          "reports the first divergent event")
    rpl.add_argument("--device", type=int, default=None, metavar="ID",
                     help="replay one device of a fleet recording in isolation")
    rpl.add_argument("--json", action="store_true",
                     help="print the diff as JSON instead of prose")
    srv = sub.add_parser("serve", help="run the HTTP job service", parents=[obs_parent])
    srv.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8733,
                     help="bind port (default 8733; 0 picks an ephemeral port)")
    srv.add_argument("--workers", type=int, default=2,
                     help="concurrent job worker threads (default 2)")
    srv.add_argument("--queue-depth", type=int, default=16,
                     help="bounded job queue length; submits beyond it get 503 (default 16)")
    srv.add_argument("--buffer-limit", type=int, default=256,
                     help="per-subscriber stream buffer before drop-oldest (default 256)")

    args = parser.parse_args(argv)
    command = args.command or "info"
    trace_path = getattr(args, "obs_trace", None)
    metrics_on = bool(getattr(args, "metrics", False))
    if trace_path or metrics_on:
        obs.configure(trace_path=trace_path, metrics=metrics_on)
    try:
        {
            "info": cmd_info,
            "experiments": cmd_experiments,
            "monitor": cmd_monitor,
            "characterize": cmd_characterize,
            "fleet": cmd_fleet,
            "riscv": cmd_riscv,
            "replay": cmd_replay,
            "serve": cmd_serve,
        }[command](args)
        if metrics_on:
            print(obs.OBS.metrics.render())
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    finally:
        if trace_path or metrics_on:
            obs.reset()


if __name__ == "__main__":
    main()
