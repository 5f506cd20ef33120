#!/usr/bin/env python3
"""Anatomy of a RelaxReplay interval log.

Builds a small producer/consumer pipeline with the ThreadBuilder DSL (the
same API the SPLASH-2 analogs use), records it, and then dissects the log:

* decodes the bit-exact binary encoding and round-trips it,
* groups entries into intervals and shows the per-interval structure
  (InorderBlocks, reordered entries, QuickRec timestamps),
* runs the Section 3.3.2 patching pass and shows where reordered stores
  move,
* summarizes the log's distributions and interval timeline,
* replays and verifies.

Run:  python examples/log_anatomy.py
"""

from repro import Machine, MachineConfig, Program, RecorderConfig, RecorderMode
from repro.isa import ThreadBuilder
from repro.obs import LogSummary
from repro.recorder import decode_log, encode_log
from repro.replay import group_intervals, patch_intervals, replay_recording

QUEUE = 0x1000        # 8-slot ring of words
HEAD = 0x2000         # producer's publish counter
RESULT = 0x3000


def build_pipeline() -> Program:
    producer = ThreadBuilder("producer")
    producer.movi(1, 1)                     # running value
    for slot in range(8):
        producer.muli(1, 1, 31)             # "compute" an item
        producer.addi(1, 1, slot)
        producer.store(1, offset=QUEUE + slot * 8)
        producer.movi(2, slot + 1)
        producer.store(2, offset=HEAD, release=True)   # publish

    consumer = ThreadBuilder("consumer")
    consumer.movi(5, 0)                     # checksum
    for slot in range(8):
        # Wait until the producer has published past this slot.
        spin = consumer.label()
        consumer.load(3, offset=HEAD, acquire=True)
        consumer.cmplti(4, 3, slot + 1)
        consumer.bnez(4, spin)
        consumer.load(3, offset=QUEUE + slot * 8)
        consumer.xor(5, 5, 3)
    consumer.store(5, offset=RESULT)

    return Program([producer.build(), consumer.build()], name="pipeline")


def main() -> None:
    machine = Machine(MachineConfig(num_cores=2), {
        "base": RecorderConfig(mode=RecorderMode.BASE),
    })
    recording = machine.run(build_pipeline())
    outputs = recording.recordings["base"]

    print("=== binary encoding (Figure 6(c) format) ===")
    for output in outputs:
        data, bits = encode_log(output.entries, output.config)
        decoded = decode_log(data, bits, output.config)
        assert len(decoded) == len(output.entries)
        print(f"core {output.core_id}: {len(output.entries)} entries, "
              f"{bits} bits ({len(data)} bytes); decode round-trip OK")

    print("\n=== interval structure ===")
    for output in outputs:
        intervals = group_intervals(output.core_id, output.entries,
                                    cisn_bits=output.config.cisn_bits)
        print(f"core {output.core_id}: {len(intervals)} intervals")
        for interval in intervals[:6]:
            summary = ", ".join(type(entry).__name__ for entry
                                in interval.entries)
            print(f"  [cisn={interval.cisn} t={interval.timestamp}] "
                  f"{summary or '(frame only)'}")
        if len(intervals) > 6:
            print(f"  ... {len(intervals) - 6} more")

    print("\n=== patching pass (Section 3.3.2) ===")
    for output in outputs:
        intervals = patch_intervals(group_intervals(
            output.core_id, output.entries, cisn_bits=output.config.cisn_bits))
        moved = sum(1 for interval in intervals for entry in interval.entries
                    if type(entry).__name__ == "PatchedWrite")
        dummies = sum(1 for interval in intervals
                      for entry in interval.entries
                      if type(entry).__name__ == "Dummy")
        print(f"core {output.core_id}: {moved} store updates relocated, "
              f"{dummies} dummies left at counting positions")

    print("\n=== log summary (what `repro.tools inspect DIR -a` prints) ===")
    summary = LogSummary.of([output.entries for output in outputs],
                            outputs[0].config)
    print(summary.render_profile("pipeline/base"), end="")
    print(summary.render_timeline(), end="")

    replay = replay_recording(recording, "base")
    print(f"\nreplay VERIFIED; consumer checksum = "
          f"{replay.final_memory.get(RESULT, 0):#x} (matches recorded "
          f"{recording.final_memory.get(RESULT, 0):#x})")


if __name__ == "__main__":
    main()
