"""Micro-benchmarks of the hot data structures and the simulator itself.

Unlike the figure benchmarks (pedantic single runs of deterministic
simulations), these measure genuine per-operation throughput with
pytest-benchmark's normal statistics.
"""

import pytest

from repro.common.bits import BitWriter
from repro.common.bloom import BloomSignature
from repro.common.config import MachineConfig, RecorderConfig, RecorderMode
from repro.common.h3 import H3Hash
from repro.recorder.logfmt import (
    InorderBlock,
    IntervalFrame,
    ReorderedLoad,
    ReorderedStore,
    decode_log,
    encode_log,
)
from repro.recorder.snoop_table import SnoopTable
from repro.sim import Machine
from repro.workloads import build_workload


def test_perf_h3_hash(benchmark):
    h = H3Hash(8, seed=1)
    keys = list(range(0, 64_000, 64))
    benchmark(lambda: [h(key) for key in keys])


def test_perf_bloom_insert_query(benchmark):
    sig = BloomSignature(4, 256, seed=1)

    def work():
        sig.clear()
        for addr in range(0, 4096, 32):
            sig.insert(addr)
        return sum(sig.may_contain(addr) for addr in range(0, 8192, 32))

    assert benchmark(work) >= 128


def test_perf_snoop_table(benchmark):
    table = SnoopTable(RecorderConfig(mode=RecorderMode.OPT), seed=1)

    def work():
        hits = 0
        for line in range(512):
            snap = table.sample(line)
            table.observe(line + 7)
            hits += table.conflicts_since(line, snap)
        return hits

    benchmark(work)


def test_perf_log_encode_decode(benchmark):
    config = RecorderConfig()
    entries = []
    for index in range(200):
        entries.append(InorderBlock(index + 1))
        if index % 5 == 0:
            entries.append(ReorderedLoad(index * 977))
        if index % 11 == 0:
            entries.append(ReorderedStore(index * 64, index, 2))
        if index % 7 == 0:
            entries.append(IntervalFrame(index, index * 13))

    def roundtrip():
        data, bits = encode_log(entries, config)
        return decode_log(data, bits, config)

    assert len(benchmark(roundtrip)) == len(entries)


def test_perf_bit_stream(benchmark):
    def work():
        writer = BitWriter()
        for index in range(2000):
            writer.write(index & 0x7, 3)
            writer.write(index, 32)
        return writer.getvalue()

    assert len(benchmark(work)) == (2000 * 35 + 7) // 8


def test_perf_simulator_throughput(benchmark):
    """End-to-end recording speed in simulated instructions per second."""
    program = build_workload("fft", num_threads=4, scale=0.15, seed=2)
    machine = Machine(MachineConfig(num_cores=4), {
        "opt": RecorderConfig(mode=RecorderMode.OPT)})

    result = benchmark.pedantic(lambda: machine.run(program), rounds=3,
                                iterations=1)
    benchmark.extra_info["instructions"] = result.total_instructions
    benchmark.extra_info["sim_cycles"] = result.cycles
