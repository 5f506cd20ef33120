#!/usr/bin/env python3
"""Finding false sharing with an RnR log.

Interval terminations are a free by-product of recording — and every one
of them names a cache line that two cores fought over.  This example shows
the workflow:

1. run a workload where each thread updates its own statistics counter,
   but the counters were allocated adjacently (classic false sharing) —
   invisible in the code, loud in the coherence traffic;
2. record it and ask the recorder's own statistics which lines cut the
   intervals, and its dependence edges which cores talked: the hot line
   jumps out, attributed to the shared counter array;
3. apply the textbook fix (pad each counter to its own line) and
   re-record: the coherence ping-pong disappears — conflict terminations
   collapse and the RnR log shrinks by orders of magnitude with them.

Run:  python examples/performance_debugging.py
"""

from repro import Machine, MachineConfig, Program, RecorderConfig, RecorderMode
from repro.isa import ThreadBuilder
from repro.workloads import Allocator

THREADS = 4
UPDATES = 150


def build_program(padded: bool) -> tuple[Program, dict]:
    alloc = Allocator()
    if padded:
        # One line (32B) per counter: allocate each as its own region.
        counters = [alloc.word(f"counter{t}") for t in range(THREADS)]
    else:
        # All counters packed into one cache line: false sharing.
        base = alloc.array("counters", THREADS)
        counters = [base + 8 * t for t in range(THREADS)]
    scratch = [alloc.array(f"scratch{t}", 64) for t in range(THREADS)]

    threads = []
    for tid in range(THREADS):
        builder = ThreadBuilder(f"t{tid}")
        builder.movi(1, 0)
        for step in range(UPDATES):
            # "Work"...
            builder.muli(2, 1, 31)
            builder.addi(1, 2, step)
            builder.store(1, offset=scratch[tid] + (step % 64) * 8)
            # ...then bump my statistics counter.
            builder.load(3, offset=counters[tid])
            builder.addi(3, 3, 1)
            builder.store(3, offset=counters[tid])
        threads.append(builder.build())
    return Program(threads, name="stats" + ("_padded" if padded else "")), \
        alloc.regions


def region_of(line_addr: int, regions: dict, line_bytes: int) -> str | None:
    """The allocator region (``{name: (base, words)}``) a line lies in."""
    byte_addr = line_addr * line_bytes
    for name, (base, words) in regions.items():
        if base <= byte_addr < base + words * 8 + line_bytes:
            return name
    return None


def record(program: Program):
    machine = Machine(MachineConfig(num_cores=THREADS), {
        "opt": RecorderConfig(mode=RecorderMode.OPT)})
    return machine.run(program, collect_dependence_edges=True)


def main() -> None:
    print("=== step 1: the mystery slowdown (packed counters) ===")
    program, regions = build_program(padded=False)
    recording = record(program)
    stats = recording.recording_stats("opt")
    print(f"recorded {recording.total_instructions} instructions in "
          f"{recording.cycles} cycles; {stats.conflict_terminations} "
          f"conflict terminations, log {stats.log_bits} bits")

    print("\n=== step 2: ask the recording what the cores fought over ===")
    line_bytes = recording.config.l1.line_bytes
    hot = sorted(stats.conflict_lines.items(), key=lambda item: -item[1])
    print("hottest lines:")
    for line, count in hot[:3]:
        region = region_of(line, regions, line_bytes)
        print(f"  line {line:#08x}: {count} terminations"
              + (f"  [{region}]" if region else ""))
    edges: dict[tuple[int, int], int] = {}
    for edge in recording.dependence_edges["opt"]:
        pair = (edge.src_core, edge.dst_core)
        edges[pair] = edges.get(pair, 0) + 1
    print("dependence edges (src rows -> dst columns):")
    for src in range(THREADS):
        print(f"  c{src} " + " ".join(f"{edges.get((src, dst), 0):>5d}"
                                      for dst in range(THREADS)))
    line, count = hot[0]
    print(f"-> line {line:#x} in region "
          f"{region_of(line, regions, line_bytes)!r} caused {count} of "
          f"{stats.conflict_terminations} terminations,"
          f"\n   yet every thread only touches its *own* counter: false "
          f"sharing.")

    print("\n=== step 3: pad the counters and re-record ===")
    padded_program, _ = build_program(padded=True)
    padded_recording = record(padded_program)
    padded_stats = padded_recording.recording_stats("opt")
    print(f"recorded {padded_recording.total_instructions} instructions in "
          f"{padded_recording.cycles} cycles; "
          f"{padded_stats.conflict_terminations} conflict terminations, "
          f"log {padded_stats.log_bits} bits")
    saved = (1 - padded_stats.conflict_terminations
             / max(1, stats.conflict_terminations))
    shrink = stats.log_bits / max(1, padded_stats.log_bits)
    remaining = max(padded_stats.conflict_lines.values(), default=0)
    print(f"\nconflict terminations down {saved:.0%}; the log shrank "
          f"{shrink:.0f}x; the hottest remaining line causes {remaining} "
          f"terminations.  The sharing was never needed — only the layout "
          f"was wrong.")


if __name__ == "__main__":
    main()
