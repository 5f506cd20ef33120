"""Record, replay and inspect executions, record sweep grids through the
result cache, regenerate the paper's Section 5 tables, and time and fuzz
the simulator, one command each; --help on a command lists its flags.
Exit codes: 0 success, 1 replay divergence or a failed gate, 2 bad input
or usage.

This module is the only command line (``python -m repro.tools``).  Three
flag groups are shared by its commands: machine and workload selection
(:func:`add_machine_flags`), the sweep pool and cache
(:func:`add_sweep_flags`), and the output files (:func:`add_output_flags`).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

from .common.config import (
    CoherenceProtocol,
    ConsistencyModel,
    MachineConfig,
    RecorderConfig,
    RecorderMode,
)
from .common.errors import (
    ConfigError,
    FuzzError,
    LogFormatError,
    ReplayDivergenceError,
    WorkloadError,
)
from .harness.figures import EXPERIMENTS, required_runs
from .harness.parallel_runner import CACHE_FILE, DEFAULT_CACHE_DIR, ResultCache
from .obs.logging import LOG_LEVELS, get_logger, log_kv, setup_logging
from .sim import Machine
from .sim.kernel import KERNELS
from .storage import (StoredRecording, load_program, load_recording,
                      save_recording)
from .workloads import WORKLOAD_NAMES, build_workload

_LOG = get_logger("tools")

#: The append-only perf history ``bench`` extends.
HISTORY = "BENCH_history.jsonl"

#: The miss-heavy machine ``bench`` times the kernels on: a small L1 with
#: few MSHRs in front of slow memory, so stalls dominate.
BENCH_L1_KB = 4
BENCH_L1_ASSOC = 2
BENCH_MSHRS = 2
BENCH_MEMORY_CYCLES = 400


# ------------------------------------------------------------ flag groups

def add_machine_flags(parser, *, workload: str | None = "fft",
                      cores: int = 8, scale: float | None = 0.5,
                      seed: int = 1, lists: tuple[str, ...] = (),
                      program: bool = False) -> None:
    """Add the machine and workload selection flags: ``--workload``,
    ``--cores``, ``--scale``, ``--seed`` and ``--consistency``.

    ``workload`` is the default workload; None leaves out the workload
    and consistency flags (``figures`` picks its own grid).  ``lists``
    names the flags that take comma-separated lists: ``"workload"``
    (spelled ``--workloads``, ``all`` for every workload), ``"cores"`` and
    ``"consistency"``.  ``program`` adds ``--program`` as the alternative
    to ``--workload``.  ``scale=None`` defaults to ``REPRO_SCALE``.
    """
    if workload is not None and "workload" in lists:
        parser.add_argument("--workloads", default=workload,
                            help="comma-separated workloads, or all "
                                 f"(default: {workload})")
    elif workload is not None:
        choice = (parser.add_mutually_exclusive_group() if program
                  else parser)
        choice.add_argument("--workload", choices=WORKLOAD_NAMES,
                            default=workload)
        if program:
            choice.add_argument("--program",
                                help="record a saved program.json instead "
                                     "of a named workload")
    if "cores" in lists:
        parser.add_argument("--cores", default=str(cores),
                            help=f"comma-separated core counts "
                                 f"(default: {cores})")
    else:
        parser.add_argument("--cores", type=int, default=cores)
    parser.add_argument("--scale", type=float, default=scale,
                        help="work scale (default: "
                             + ("REPRO_SCALE env or 1.0)" if scale is None
                                else f"{scale})"))
    parser.add_argument("--seed", type=int, default=seed)
    if workload is None:
        return
    models = [model.value for model in ConsistencyModel]
    if "consistency" in lists:
        parser.add_argument("--consistency", default="RC",
                            help="comma-separated models out of "
                                 + ",".join(models) + " (default: RC)")
    else:
        parser.add_argument("--consistency", default="RC", choices=models)


def parse_workloads(text: str) -> list[str]:
    """The workloads a ``--workloads`` list names (``all``: every one).
    Unknown names raise :class:`WorkloadError` naming them."""
    if text == "all":
        return list(WORKLOAD_NAMES)
    names = [name.strip() for name in text.split(",")]
    unknown = [name for name in names if name not in WORKLOAD_NAMES]
    if unknown:
        raise WorkloadError(f"unknown workloads: {', '.join(unknown)}")
    return names


def machine_config(args, *, num_cores: int | None = None) -> MachineConfig:
    """The machine ``--cores``, ``--seed`` and ``--consistency`` select
    (``num_cores`` overrides ``--cores``)."""
    return MachineConfig(
        num_cores=args.cores if num_cores is None else num_cores,
        seed=args.seed, consistency=ConsistencyModel(args.consistency))


def _add_jobs(parser, default: int | None, what: str) -> None:
    parser.add_argument("--jobs", type=int, default=default,
                        help=f"worker processes for {what} "
                             + ("(default: CPU count)" if default is None
                                else f"(default {default})"))


def add_sweep_flags(parser, *, jobs: int | None) -> None:
    """Add ``--jobs``, ``--cache-dir`` and ``--no-cache``: the pool width
    and the result cache of a recording sweep.  ``jobs`` is the default
    width (None: CPU count)."""
    _add_jobs(parser, jobs, "the recording sweep")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="result cache directory; results live in "
                             f"DIR/{CACHE_FILE} (default {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result cache")


def open_cache(args) -> ResultCache | None:
    """The result cache :func:`add_sweep_flags` selected (None under
    ``--no-cache``).  An unusable cache file raises
    :class:`~repro.harness.cachestore.CacheBackendError`."""
    return None if args.no_cache else ResultCache(args.cache_dir)


def add_output_flags(parser, *, sweep: bool = False) -> None:
    """Add the output files ``--result-out`` (``--results-out`` for a
    sweep), ``--metrics-out`` and ``--trace-out``; a trace file turns
    tracing on."""
    if sweep:
        parser.add_argument("--results-out",
                            help="write the serialized results keyed by "
                                 "shard label (deterministic: byte-identical "
                                 "across job widths and cache temperature)")
        parser.add_argument("--metrics-out",
                            help="write the sweep metrics snapshot as JSON")
        parser.add_argument("--trace-out",
                            help="write the merged worker traces as JSONL")
    else:
        parser.add_argument("--result-out",
                            help="write the full serialized RunResult as "
                                 "JSON (the inspect input)")
        parser.add_argument("--metrics-out",
                            help="write the flat metrics snapshot as JSON")
        parser.add_argument("--trace-out",
                            help="write Chrome trace-event JSON of the run")


def write_json(path, payload, label: str, **dump_args) -> None:
    """Write ``payload`` to ``path`` as key-sorted JSON (``dump_args`` go
    to :func:`json.dump`) and say where it went."""
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, **dump_args)
    print(f"  {label} -> {path}")


def _add_checkpoint_every(parser) -> None:
    parser.add_argument("--checkpoint-every", type=int, default=8,
                        metavar="N",
                        help="replay-checkpoint cadence in chunks "
                             "(default 8)")


def _add_history_flags(parser) -> None:
    parser.add_argument("--history", default=HISTORY,
                        help=f"append-only JSONL perf history "
                             f"(default: {HISTORY})")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append this run to the history")


# --------------------------------------------------------------- commands

def _build_variants(names: list[str]) -> dict[str, RecorderConfig]:
    variants = {}
    for name in names:
        mode_part, _, cap_part = name.partition("_")
        mode = RecorderMode(mode_part)
        cap = None if cap_part in ("", "inf") else int(cap_part)
        variants[name] = RecorderConfig(mode=mode,
                                        max_interval_instructions=cap)
    return variants


def cmd_record(args) -> int:
    if args.forensics_out or args.inject_fault:
        args.verify_replay = True
    if not (args.out or args.result_out or args.metrics_out
            or args.trace_out or args.verify_replay):
        raise ConfigError("record needs an output: --out, --result-out, "
                          "--metrics-out, --trace-out or --verify-replay")
    if args.program:
        program = load_program(args.program)
    else:
        program = build_workload(args.workload, num_threads=args.cores,
                                 scale=args.scale, seed=args.seed)
    config = replace(machine_config(args, num_cores=program.num_threads),
                     protocol=CoherenceProtocol(args.protocol))
    tracer = None
    if args.trace_out:
        from .obs import Tracer
        tracer = Tracer()
    # The load trace makes --verify-replay check every loaded value, not
    # just the final state.
    result = Machine(config, _build_variants(args.variants)).run(
        program, collect_dependence_edges=args.edges, tracer=tracer,
        kernel=args.kernel, capture_load_trace=args.verify_replay)
    print(f"recorded {result.total_instructions} instructions "
          f"({result.cycles} cycles, {len(result.cores)} cores)")
    if args.out:
        print(f"  recording -> {save_recording(result, args.out)}")
    if args.result_out:
        from .sim.serialize import run_result_to_dict
        write_json(args.result_out, run_result_to_dict(result), "run result")
    if args.trace_out:
        from .obs import export_chrome_trace
        export_chrome_trace(tracer.events(), args.trace_out)
        print(f"  trace ({len(tracer)} events) -> {args.trace_out}")
    if args.metrics_out:
        write_json(args.metrics_out, result.metrics.to_dict(), "metrics",
                   indent=1)
    for variant in args.variants:
        stats = result.recording_stats(variant)
        print(f"  {variant}: {stats.log_bits} bits "
              f"({stats.bits_per_kilo_instruction():.0f} b/KI, "
              f"{stats.reordered_total} reordered)")
    if args.verify_replay:
        return _verify_replay(result, args, tracer)
    return 0


def _verify_replay(result, args, tracer) -> int:
    """``record --verify-replay``: checkpointed replay of the first
    variant, verified against the recording.

    Writes the verdict to ``--forensics-out`` when asked: ``verified``
    plus (on divergence) the full :class:`DivergenceReport` dict with its
    nearest-checkpoint, causal-slice and inspect-hint fields.  Returns 1
    on divergence.
    """
    from .replay.replayer import replay_recording

    variant = args.variants[0]
    if args.inject_fault:
        # Flip the low bit of the recorded final memory at the lowest
        # written address: replay itself stays sound, verification must
        # then blame the chunk that last wrote that word.
        addr = min(result.final_memory, default=0x8000)
        result.final_memory[addr] = result.final_memory.get(addr, 0) ^ 0x1
        log_kv(_LOG, logging.WARNING, "record.fault_injected",
               addr=hex(addr))

    payload: dict = {"workload": result.program.name, "variant": variant,
                     "checkpoint_every": args.checkpoint_every}
    code = 0
    try:
        replay = replay_recording(result, variant, tracer=tracer,
                                  checkpoint_every=args.checkpoint_every)
        payload.update(verified=True, report=None,
                       intervals=replay.counts.intervals)
        print(f"  {variant}: replay VERIFIED "
              f"({replay.counts.intervals} intervals, "
              f"{replay.counts.injected_loads} injected loads)")
    except ReplayDivergenceError as error:
        report = error.report
        payload.update(verified=False,
                       report=None if report is None else report.to_dict())
        print(report.render() if report is not None else str(error),
              file=sys.stderr)
        code = 1
    if args.forensics_out:
        write_json(args.forensics_out, payload, "forensics", indent=1)
    return code


def open_recording(path):
    """The one loader of ``replay`` and ``inspect``: a recording directory
    (``record --out``) as a :class:`~repro.storage.StoredRecording`, any
    other path as a serialized ``RunResult`` (``record --result-out``)."""
    path = Path(path)
    if path.is_dir():
        return load_recording(path)
    from .sim.serialize import run_result_from_dict
    return run_result_from_dict(json.loads(path.read_text()))


def cmd_replay(args) -> int:
    from .replay import parallel_replay_recording, replay_recording

    recording = open_recording(args.recording)
    variants = args.variant or recording.variants
    if not variants:
        raise LogFormatError(f"{args.recording} holds no variant to replay")
    for variant in variants:
        if args.parallel:
            result = parallel_replay_recording(recording, variant,
                                               verify=not args.no_verify)
            status = "VERIFIED" if result.verified else "unverified"
            print(f"{variant}: parallel replay OK, {status} "
                  f"({result.counts.intervals} intervals, {result.edges} "
                  f"edges, speedup {result.speedup:.2f}x)")
            continue
        result = replay_recording(recording, variant,
                                  verify=not args.no_verify)
        status = "VERIFIED" if result.verified else "replayed (unverified)"
        normalized = result.normalized_to_recording(recording.cycles)
        print(f"{variant}: {status} — {result.counts.instructions} native "
              f"instructions, {result.counts.injected_loads} injected "
              f"loads, {result.counts.patched_writes} patched writes; "
              f"est. {normalized['total']:.1f}x recording time")
    return 0


def _parse_chunk(text: str) -> tuple[int, int]:
    """Parse a ``CORE:CISN`` chunk reference."""
    core, sep, cisn = text.partition(":")
    try:
        if not sep:
            raise ValueError
        return int(core, 0), int(cisn, 0)
    except ValueError:
        raise ValueError(f"expected CORE:CISN, got {text!r}") from None


def _parse_addr_value(text: str) -> tuple[int, int | None]:
    """Parse an ``ADDR`` or ``ADDR=VALUE`` reference (0x… accepted)."""
    addr_part, sep, value_part = text.partition("=")
    try:
        return int(addr_part, 0), (int(value_part, 0) if sep else None)
    except ValueError:
        raise ValueError(f"expected ADDR[=VALUE], got {text!r}") from None


def _summarize_directory(stored, args) -> int:
    """The classic recording-directory summary (no replay needed): each
    variant's counts from the recorder's own stats; ``-v`` and
    ``--analyze`` walk its decoded logs."""
    from .obs.inspect import LogSummary

    config = stored.config
    print(f"recording: {Path(args.recording)}")
    print(f"  program : {stored.program.name} "
          f"({stored.program.num_threads} threads, "
          f"{stored.program.total_instructions()} static instructions)")
    print(f"  machine : {config.num_cores} cores, "
          f"{config.consistency.value}, {config.protocol.value}, "
          f"{stored.cycles} cycles")
    for variant in stored.variants:
        stats = stored.recording_stats(variant)
        entries = stats.frames + stats.inorder_blocks + stats.reordered_total
        bits = stats.log_bits
        print(f"  {variant}: {entries} entries, {stats.frames} intervals, "
              f"{bits} bits ({bits / 8 / 1024:.2f} KiB on disk)")
        if not (args.verbose or args.analyze):
            continue
        summary = LogSummary.of(stored.log_entries(variant),
                                stored.recorder_config(variant))
        if args.verbose:
            for kind, count in sorted(summary.kinds.items()):
                print(f"      {kind}: {count}")
        if args.analyze:
            print(summary.render_profile(variant), end="")
            print(summary.render_timeline(), end="")
    return 0


def cmd_inspect(args) -> int:
    queries = any(value is not None for value in (
        args.state_at, args.first_write, args.last_write, args.who_read,
        args.timeline, args.hb_slice))
    recording = open_recording(args.recording)
    if isinstance(recording, StoredRecording) and not (queries or args.json):
        return _summarize_directory(recording, args)
    from .obs.inspect import ReplayInspector

    inspector = ReplayInspector(recording, args.variant,
                                checkpoint_every=args.checkpoint_every)

    payload: dict = {"summary": inspector.summary()}
    blocks: list[str] = []
    if args.state_at is not None:
        core, cisn = _parse_chunk(args.state_at)
        view = inspector.state_at(core, cisn)
        payload["state"] = view.to_dict()
        blocks.append(view.render())
    if args.first_write is not None:
        addr, _ = _parse_addr_value(args.first_write)
        access = inspector.first_write(addr)
        payload["first_write"] = None if access is None else access.to_dict()
        blocks.append(f"first write to {addr:#x}: "
                      + (access.render() if access else "never written"))
    if args.last_write is not None:
        addr, _ = _parse_addr_value(args.last_write)
        access = inspector.last_write(addr)
        payload["last_write"] = None if access is None else access.to_dict()
        blocks.append(f"last write to {addr:#x}: "
                      + (access.render() if access else "never written"))
    if args.who_read is not None:
        addr, value = _parse_addr_value(args.who_read)
        reads = inspector.who_read(addr, value)
        payload["who_read"] = [access.to_dict() for access in reads]
        header = (f"reads of {addr:#x}"
                  + (f" = {value:#x}" if value is not None else ""))
        blocks.append(f"{header}: {len(reads)}\n"
                      + "\n".join(f"  {access.render()}"
                                  for access in reads))
    if args.timeline is not None:
        spans = inspector.timeline(args.timeline)
        payload["timeline"] = spans
        lines = [f"core {args.timeline} timeline ({len(spans)} chunks):"]
        for span in spans:
            lines.append(
                f"  chunk {span['cisn']:>4} pos {span['position']:>4} "
                f"cycles {span['start']}..{span['end']}: "
                f"{span['instructions']} instr, "
                f"{span['injected_loads']} injected, "
                f"{span['dummies']} dummies, "
                f"{span['patched_writes']} patched")
        blocks.append("\n".join(lines))
    if args.hb_slice is not None:
        core, cisn = _parse_chunk(args.hb_slice)
        hb = inspector.hb_slice(core, cisn, depth=args.hb_depth)
        payload["hb_slice"] = hb.to_dict()
        blocks.append(hb.render())

    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    summary = payload["summary"]
    print(f"inspect [{summary['variant']}]: {summary['intervals']} chunks, "
          f"{summary['checkpoints']} checkpoints "
          f"(every {summary['checkpoint_every']}), "
          f"{summary['accesses']} accesses, "
          f"HB {summary['hb_source']} ({summary['hb_edges']} edges)")
    for block in blocks:
        print(block)
    return 0


def cmd_sweep(args) -> int:
    from .harness.report import format_table, render_sweep_summary
    from .harness.runner import ExperimentRunner, RunKey

    workloads = parse_workloads(args.workloads)
    core_counts = [int(item) for item in args.cores.split(",")]
    models = [ConsistencyModel(item.strip())
              for item in args.consistency.split(",")]
    runner = ExperimentRunner(seed=args.seed, scale=args.scale,
                              jobs=args.jobs, timeout_s=args.timeout)
    runner.cache = open_cache(args)
    keys = [runner.run_key(workload, cores=cores, consistency=model,
                           with_baselines=args.with_baselines)
            for workload in workloads
            for cores in core_counts
            for model in models]
    # Progress lines go through the structured repro.harness.sweep logger
    # (configured by --log-level in main), not ad-hoc stderr prints.
    runner.prefetch(keys, trace=bool(args.trace_out))
    results = {key: runner.result(key) for key in keys}

    rows = []
    for key in keys:
        result = results[key]
        stats = result.recording_stats("opt_4k")
        rows.append([key.workload, key.cores, key.consistency.value,
                     result.cycles, result.total_instructions,
                     stats.bits_per_kilo_instruction()])
    print(format_table(
        "Sweep results",
        ["workload", "cores", "model", "cycles", "instructions",
         "opt_4k b/KI"], rows, floatfmt="{:.1f}"))
    snapshot = runner.sweep_metrics()
    print(render_sweep_summary(snapshot))
    if args.results_out:
        from .sim.serialize import run_result_to_dict
        # Fully deterministic artifact: serialized results keyed by shard
        # label, no wall times or counters — byte-identical no matter the
        # job width or cache temperature.
        payload = {key.label(): run_result_to_dict(results[key])
                   for key in sorted(keys, key=RunKey.label)}
        write_json(args.results_out, payload, "sweep results",
                   separators=(",", ":"))
    if args.metrics_out:
        write_json(args.metrics_out, snapshot.to_dict(), "sweep metrics",
                   indent=1)
    if args.trace_out:
        events = runner.trace_events
        with open(args.trace_out, "w") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        print(f"  merged trace ({len(events)} events) -> {args.trace_out}")
    return 0


def cmd_figures(args) -> int:
    from .harness.report import render_all, render_sweep_summary
    from .harness.runner import ExperimentRunner

    names = (list(EXPERIMENTS) if args.experiments == "all"
             else [name.strip() for name in args.experiments.split(",")])
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise ConfigError(f"unknown experiments: {', '.join(unknown)}")
    runner = ExperimentRunner(seed=args.seed, scale=args.scale,
                              jobs=args.jobs)
    runner.cache = open_cache(args)
    keys = required_runs(names, runner, cores=args.cores)
    if keys:
        started = time.time()
        executed = runner.prefetch(keys)
        log_kv(_LOG, logging.INFO, "sweep.ready", shards=len(keys),
               wall_s=time.time() - started, recorded=executed,
               cached=len(keys) - executed)
        snapshot = runner.sweep_metrics()
        if snapshot is not None:
            print(render_sweep_summary(snapshot), file=sys.stderr)

    results = {}
    for name in names:
        started = time.time()
        results[name] = EXPERIMENTS[name](runner, args.cores)
        log_kv(_LOG, logging.INFO, "experiment.computed", experiment=name,
               wall_s=time.time() - started)

    text = render_all(results)
    print(text)
    if args.out:
        Path(args.out).write_text(text)
    return 0


def cmd_bench(args) -> int:
    from .sim.serialize import run_result_to_dict

    workloads = parse_workloads(args.workloads)
    base = machine_config(args)
    config = replace(
        base,
        l1=replace(base.l1, size_kb=BENCH_L1_KB, assoc=BENCH_L1_ASSOC,
                   mshr_entries=BENCH_MSHRS),
        memory=replace(base.memory, roundtrip_cycles=BENCH_MEMORY_CYCLES))

    report = {
        "config": {
            "cores": args.cores, "scale": args.scale, "seed": args.seed,
            "consistency": args.consistency, "l1_kb": BENCH_L1_KB,
            "l1_assoc": BENCH_L1_ASSOC, "mshr": BENCH_MSHRS,
            "mem_cycles": BENCH_MEMORY_CYCLES, "repeats": args.repeats,
        },
        "workloads": {},
    }
    worst_speedup = None
    worst_compiled = None
    for name in workloads:
        program = build_workload(name, num_threads=args.cores,
                                 scale=args.scale, seed=args.seed)
        entry = {"kernels": {}}
        fingerprints = {}
        for kernel in sorted(KERNELS):
            best_wall = None
            result = None
            for _ in range(args.repeats):
                machine = Machine(config)
                start = time.perf_counter()
                result = machine.run(program, kernel=kernel)
                wall = time.perf_counter() - start
                if best_wall is None or wall < best_wall:
                    best_wall = wall
            fingerprints[kernel] = json.dumps(
                run_result_to_dict(result), sort_keys=True)
            entry["kernels"][kernel] = {
                "wall_s": round(best_wall, 4),
                "sim_cycles_per_s": round(result.cycles / best_wall, 1),
            }
            entry["cycles"] = result.cycles
            entry["instructions"] = result.total_instructions
        lockstep_wall = entry["kernels"]["lockstep"]["wall_s"]
        entry["speedups"] = {
            kernel: round(lockstep_wall / data["wall_s"], 3)
            for kernel, data in entry["kernels"].items()
            if kernel != "lockstep"}
        speedup = entry["speedups"]["event"]
        identical = len(set(fingerprints.values())) == 1
        entry["speedup"] = speedup
        entry["identical"] = identical
        report["workloads"][name] = entry
        worst_speedup = (speedup if worst_speedup is None
                         else min(worst_speedup, speedup))
        worst_compiled = (entry["speedups"]["compiled"]
                          if worst_compiled is None
                          else min(worst_compiled,
                                   entry["speedups"]["compiled"]))
        ratios = " ".join(f"{kernel} {ratio:.2f}x" for kernel, ratio
                          in sorted(entry["speedups"].items()))
        print(f"{name}: lockstep {lockstep_wall:.2f}s"
              f" speedups: {ratios} identical={identical}")
        if not identical:
            print(f"error: kernels diverged on {name}", file=sys.stderr)
            return 1

    if args.min_speedup is not None:
        report["min_speedup"] = args.min_speedup
        report["pass"] = worst_speedup >= args.min_speedup
    if args.min_compiled_speedup is not None:
        report["min_compiled_speedup"] = args.min_compiled_speedup
        report["pass"] = (report.get("pass", True)
                          and worst_compiled >= args.min_compiled_speedup)
    if args.out:
        write_json(args.out, report, "report", indent=1)
    if not args.no_history:
        from .obs.perfdb import (append_records, git_revision,
                                 records_from_bench_report)
        records = records_from_bench_report(report, timestamp=time.time(),
                                            git_rev=git_revision())
        append_records(args.history, records)
        print(f"  history +{len(records)} records -> {args.history}")
    if args.min_speedup is not None and worst_speedup < args.min_speedup:
        print(f"error: event kernel speedup {worst_speedup:.2f}x below "
              f"required {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    if (args.min_compiled_speedup is not None
            and worst_compiled < args.min_compiled_speedup):
        print(f"error: compiled kernel speedup {worst_compiled:.2f}x below "
              f"required {args.min_compiled_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    from .obs.profiler import KernelProfiler, profile_to_chrome
    from .obs.profiler import render_profile as render_kernel_profile

    program = build_workload(args.workload, num_threads=args.cores,
                             scale=args.scale, seed=args.seed)
    profiler = KernelProfiler()
    result = Machine(machine_config(args)).run(program, kernel=args.kernel,
                                               profiler=profiler)
    profile = profiler.profile()
    print(f"{args.workload}: {result.cycles} cycles, "
          f"{result.total_instructions} instructions, "
          f"{args.cores} cores ({args.kernel} kernel)")
    print(render_kernel_profile(profile), end="")
    unattributed = sum(profile["sim"]["unattributed_cycles"])
    if unattributed:
        print(f"error: {unattributed} unattributed core-cycles "
              f"(attribution must be exact)", file=sys.stderr)
        return 1
    if args.out:
        write_json(args.out, profile, "profile", indent=1)
    if args.chrome_out:
        write_json(args.chrome_out, profile_to_chrome(profile),
                   "chrome trace")
    return 0


def cmd_perf_report(args) -> int:
    from .obs.perfdb import (DEFAULT_TOLERANCE, DEFAULT_WINDOW, load_history,
                             regression_report)

    if not Path(args.history).exists():
        raise ConfigError(f"no bench history at {args.history}")
    records, skipped = load_history(args.history)
    if not records:
        print(f"perf report: no usable history in {args.history} "
              f"({skipped} corrupt lines skipped)")
        return 0
    tolerance = (DEFAULT_TOLERANCE if args.tolerance is None
                 else args.tolerance)
    window = DEFAULT_WINDOW if args.window is None else args.window
    floors = {}
    if args.floor_compiled_speedup is not None:
        floors["compiled"] = args.floor_compiled_speedup
    report = regression_report(records, tolerance=tolerance, window=window,
                               floor_speedup=args.floor_speedup,
                               floor_speedups=floors,
                               skipped_lines=skipped)
    print(report.render(), end="")
    return 0 if report.passed else 1


#: Known-bad configurations the fuzz harness can deliberately
#: re-introduce (``--inject-bug``) to prove it still catches them:
#: recorder-field overrides, or a ``__codegen_bug__`` key naming one of
#: :data:`repro.sim.compiled.INJECTED_CODEGEN_BUGS` for the compiled
#: kernel only.
INJECTED_BUGS = {
    "timestamp-floor-off": {"interval_timestamp_floor": False},
    "drop-fence-stall": {"__codegen_bug__": "drop-fence-stall"},
}

#: Which oracle must catch each injected bug for the self-test to pass.
INJECTED_BUG_ORACLES = {
    "timestamp-floor-off": "replay:",
    "drop-fence-stall": "compiled-vs-event",
}


def _parse_fuzz_budget(text: str) -> dict:
    """``NNN`` = candidate count (deterministic); ``NNNs`` = wall seconds."""
    if text.endswith("s"):
        return {"budget": None, "wall_budget_s": float(text[:-1])}
    return {"budget": int(text)}


def cmd_fuzz(args) -> int:
    from .fuzz import (FuzzConfig, FuzzSession, load_corpus_dir,
                       random_baseline)

    overrides = dict(INJECTED_BUGS[args.inject_bug]) if args.inject_bug else {}
    config = FuzzConfig(seed=args.seed, jobs=args.jobs, batch=args.batch,
                        overrides=overrides,
                        emit_dir=args.emit_regressions,
                        max_failures=args.max_failures,
                        **_parse_fuzz_budget(args.budget))
    if args.baseline_random and config.budget is None:
        raise ConfigError("--baseline-random needs a count budget "
                          "(wall-clock budgets are not comparable)")
    extra = (load_corpus_dir(args.corpus_dir) if args.corpus_dir else None)

    def note(line: str) -> None:
        print(line, file=sys.stderr)

    session = FuzzSession(config, extra_corpus=extra, note=note)
    report = session.run()
    print(f"fuzz: evaluated {report.evaluated} candidates "
          f"({report.seed_candidates} seeds) in {report.wall_seconds:.1f}s")
    print(f"fuzz: coverage {report.coverage_buckets} buckets "
          f"({report.mutation_new_buckets} found post-seed), "
          f"pool {report.pool_size}, "
          f"minimize evals {report.minimize_evals}")
    for failure in report.failures:
        line = (f"fuzz: FAILURE {failure.oracle} [{failure.origin}] "
                f"minimized {failure.spec.describe()} -> "
                f"{failure.minimized_spec.describe()} "
                f"({failure.minimize_steps} steps)")
        if failure.regression_path:
            line += f" -> {failure.regression_path}"
        print(line)

    baseline = None
    if args.baseline_random:
        baseline = random_baseline(replace(
            config, overrides={}, emit_dir=None, minimize_failures=False))
        print(f"fuzz: random baseline reached {baseline.coverage_buckets} "
              f"buckets at equal budget "
              f"(guided {report.coverage_buckets})")

    if args.out:
        payload = {"report": report.to_dict()}
        if baseline is not None:
            payload["baseline"] = baseline.to_dict()
        write_json(args.out, payload, "fuzz report", indent=2)

    ok = True
    if args.inject_bug:
        # Harness self-test mode: the injected bug MUST be caught, by
        # the oracle that owns that failure mode.
        expected = INJECTED_BUG_ORACLES[args.inject_bug]
        caught = [f for f in report.failures
                  if f.oracle.startswith(expected)]
        if not caught:
            print(f"fuzz: injected bug {args.inject_bug!r} was NOT caught",
                  file=sys.stderr)
            ok = False
        else:
            print(f"fuzz: injected bug {args.inject_bug!r} caught and "
                  f"minimized ({len(caught)} failure(s))")
    elif report.failures:
        ok = False
    if (args.min_new_buckets is not None
            and report.mutation_new_buckets < args.min_new_buckets):
        print(f"fuzz: only {report.mutation_new_buckets} new coverage "
              f"buckets post-seed (required {args.min_new_buckets})",
              file=sys.stderr)
        ok = False
    if baseline is not None and not (report.coverage_buckets
                                     > baseline.coverage_buckets):
        print("fuzz: guided coverage did not beat the random baseline",
              file=sys.stderr)
        ok = False
    return 0 if ok else 1


# ------------------------------------------------------------ the tree

def build_parser() -> argparse.ArgumentParser:
    """Every command and flag of ``python -m repro.tools``."""
    parser = argparse.ArgumentParser(prog="python -m repro.tools",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--log-level", default="info",
                        choices=sorted(LOG_LEVELS),
                        help="structured-logging verbosity (default: info)")
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="record a workload execution, optionally verifying "
                       "it by replay")
    add_machine_flags(record, program=True)
    record.add_argument("--protocol", default="snoopy",
                        choices=[p.value for p in CoherenceProtocol])
    record.add_argument("--variants", nargs="+", default=["opt_4096"],
                        help="e.g. opt_inf base_4096 opt_512")
    record.add_argument("--edges", action="store_true",
                        help="collect pairwise edges (enables parallel "
                             "replay; snoopy only)")
    record.add_argument("--kernel", default="event", choices=sorted(KERNELS),
                        help="simulation kernel (all give identical "
                             "results; lockstep is the slow reference)")
    record.add_argument("--out", help="recording directory to write")
    add_output_flags(record)
    record.add_argument("--verify-replay", action="store_true",
                        help="replay the first variant with checkpoints "
                             "and verify it against the recording "
                             "(exit 1 on divergence)")
    record.add_argument("--forensics-out",
                        help="write the replay-verification verdict as JSON "
                             "— on divergence the full DivergenceReport "
                             "with nearest checkpoint and causal slice "
                             "(implies --verify-replay)")
    _add_checkpoint_every(record)
    record.add_argument("--inject-fault", action="store_true",
                        help="corrupt the recorded final memory before "
                             "verification (forces a divergence; implies "
                             "--verify-replay)")
    record.set_defaults(func=cmd_record)

    replay = sub.add_parser("replay", help="replay a stored recording")
    replay.add_argument("recording")
    replay.add_argument("--variant", action="append",
                        help="variant(s) to replay (default: all)")
    replay.add_argument("--parallel", action="store_true",
                        help="use the DAG-ordered parallel replayer "
                             "(requires --edges at record time)")
    replay.add_argument("--no-verify", action="store_true")
    replay.set_defaults(func=cmd_replay)

    inspect = sub.add_parser(
        "inspect",
        help="summarize a recording or run time-travel replay queries")
    inspect.add_argument("recording",
                         help="recording directory or serialized RunResult "
                              "JSON (record --result-out)")
    inspect.add_argument("--verbose", "-v", action="store_true")
    inspect.add_argument("--analyze", "-a", action="store_true",
                         help="print log profiles and interval timelines "
                              "(directory summaries only)")
    inspect.add_argument("--variant", default=None,
                         help="recorder variant to inspect (default: the "
                              "first in sorted order)")
    _add_checkpoint_every(inspect)
    inspect.add_argument("--json", action="store_true",
                         help="emit one sorted JSON object instead of "
                              "tables")
    inspect.add_argument("--state-at", metavar="CORE:CISN",
                         help="machine state right after a chunk committed")
    inspect.add_argument("--first-write", metavar="ADDR",
                         help="first chunk that wrote an address")
    inspect.add_argument("--last-write", metavar="ADDR",
                         help="last chunk that wrote an address")
    inspect.add_argument("--who-read", metavar="ADDR[=VALUE]",
                         help="every read of an address (optionally only "
                              "reads that observed VALUE)")
    inspect.add_argument("--timeline", type=int, metavar="CORE",
                         help="one core's per-chunk interval timeline")
    inspect.add_argument("--hb-slice", metavar="CORE:CISN",
                         help="a chunk's happens-before causal cone")
    inspect.add_argument("--hb-depth", type=int, default=None,
                         help="bound the --hb-slice BFS to N hops")
    inspect.set_defaults(func=cmd_inspect)

    sweep = sub.add_parser(
        "sweep", help="record a workload grid in parallel with caching")
    add_machine_flags(sweep, workload="all",
                      lists=("workload", "cores", "consistency"))
    sweep.add_argument("--with-baselines", action="store_true",
                       help="attach the SC/TSO baseline recorders")
    add_sweep_flags(sweep, jobs=None)
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-shard timeout in seconds")
    add_output_flags(sweep, sweep=True)
    sweep.set_defaults(func=cmd_sweep)

    figures = sub.add_parser(
        "figures", help="regenerate the paper's Section 5 tables")
    figures.add_argument("--experiments", default="all",
                         help="comma-separated subset of: "
                              + ",".join(EXPERIMENTS) + " (default: all)")
    add_machine_flags(figures, workload=None, scale=None)
    add_sweep_flags(figures, jobs=1)
    figures.add_argument("--out", help="also write the tables to this file")
    figures.set_defaults(func=cmd_figures)

    bench = sub.add_parser(
        "bench", help="time every kernel against the lockstep reference "
                      "and check they agree byte-for-byte")
    add_machine_flags(bench, cores=16, seed=7, lists=("workload",))
    bench.add_argument("--repeats", type=int, default=3,
                       help="timing repeats; best wall time is reported")
    bench.add_argument("--out",
                       help="write the JSON report (e.g. BENCH_kernel.json)")
    bench.add_argument("--min-speedup", type=float, default=None,
                       help="exit non-zero if the event kernel speedup "
                            "falls below this factor")
    bench.add_argument("--min-compiled-speedup", type=float, default=None,
                       help="exit non-zero if the compiled kernel speedup "
                            "falls below this factor")
    _add_history_flags(bench)
    bench.set_defaults(func=cmd_bench)

    profile = sub.add_parser(
        "profile", help="attribute simulated cycles and host time of a run")
    add_machine_flags(profile, cores=16)
    profile.add_argument("--kernel", default="event",
                         choices=sorted(KERNELS))
    profile.add_argument("--out",
                         help="write the hierarchical profile as JSON")
    profile.add_argument("--chrome-out",
                         help="write a Chrome trace-event rendering")
    profile.set_defaults(func=cmd_profile)

    perf_report = sub.add_parser(
        "perf-report",
        help="regression-check the bench history against a rolling baseline")
    perf_report.add_argument("--history", default=HISTORY)
    perf_report.add_argument("--tolerance", type=float, default=None,
                             help="relative drop tolerated vs the rolling "
                                  "baseline (default 0.25)")
    perf_report.add_argument("--window", type=int, default=None,
                             help="rolling-baseline depth in records "
                                  "(default 5)")
    perf_report.add_argument("--floor-speedup", type=float, default=None,
                             help="absolute event-kernel speedup floor "
                                  "enforced even without history")
    perf_report.add_argument("--floor-compiled-speedup", type=float,
                             default=None,
                             help="absolute compiled-kernel speedup floor "
                                  "enforced even without history")
    perf_report.set_defaults(func=cmd_perf_report)

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided fuzzing of the recorder via differential "
             "oracles")
    fuzz.add_argument("--budget", default="100", metavar="N|Ns",
                      help="candidate evaluations (deterministic), or wall "
                           "seconds with an 's' suffix, e.g. 60s "
                           "(default 100)")
    fuzz.add_argument("--seed", type=int, default=0)
    _add_jobs(fuzz, 1, "candidate evaluation (any width gives identical "
                       "results under a count budget)")
    fuzz.add_argument("--batch", type=int, default=None,
                      help="candidates per generation (default max(4, jobs))")
    fuzz.add_argument("--corpus-dir",
                      help="extra corpus directory to seed from")
    fuzz.add_argument("--emit-regressions", metavar="DIR",
                      help="write minimized failures as ready-to-commit "
                           "regression entries + forensics bundles")
    fuzz.add_argument("--inject-bug", choices=sorted(INJECTED_BUGS),
                      help="re-introduce a known-bad recorder config; exit 0 "
                           "iff the fuzzer catches it (harness self-test)")
    fuzz.add_argument("--max-failures", type=int, default=5,
                      help="stop minimizing/emitting past this many failures")
    fuzz.add_argument("--min-new-buckets", type=int, default=None,
                      help="fail unless at least N coverage buckets were "
                           "first reached after the seed batch")
    fuzz.add_argument("--baseline-random", action="store_true",
                      help="also run the pure-random control at equal "
                           "budget; fail unless guided coverage beats it")
    fuzz.add_argument("--out",
                      help="write the session report (and baseline, if any) "
                           "as JSON")
    fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place errors become exit codes (1 replay
    divergence, 2 bad input or usage)."""
    args = build_parser().parse_args(argv)
    setup_logging(args.log_level)
    try:
        return args.func(args)
    except ReplayDivergenceError as error:
        report = error.report
        print(report.render() if report is not None else str(error),
              file=sys.stderr)
        _LOG.debug("replay divergence", exc_info=True)
        return 1
    except (OSError, json.JSONDecodeError, LogFormatError, ConfigError,
            WorkloadError, FuzzError, KeyError, ValueError) as error:
        message = (error.args[0] if error.args and
                   isinstance(error.args[0], str) else str(error))
        print(f"error: {message}", file=sys.stderr)
        _LOG.debug("command failed", exc_info=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
