"""CLI contract tests for ``python -m repro.tools``: exit codes on
failure paths, the time-travel inspect queries, and stable JSON output."""

import json
import shutil

import pytest

from repro.storage import save_program
from repro.tools import main
from repro.workloads.litmus import LITMUS_TESTS, litmus_program
from tests.sim.test_storage import redigest


@pytest.fixture(scope="module")
def run_json(tmp_path_factory):
    """A recorded litmus run serialized by ``record --result-out``."""
    root = tmp_path_factory.mktemp("cli")
    program_path = root / "sb.json"
    save_program(litmus_program(LITMUS_TESTS["SB"], staggers=(0, 3)),
                 program_path)
    out = root / "run.json"
    rec = root / "rec"
    code = main(["record", "--program", str(program_path),
                 "--consistency", "TSO", "--edges",
                 "--out", str(rec), "--result-out", str(out)])
    assert code == 0
    return {"run": out, "rec": rec, "root": root}


@pytest.fixture(scope="module")
def two_variants(tmp_path_factory):
    """The SB run recorded under two variants, without edges, both as a
    directory and as a ``--result-out`` file."""
    root = tmp_path_factory.mktemp("cli2")
    program_path = root / "sb.json"
    save_program(litmus_program(LITMUS_TESTS["SB"], staggers=(0, 3)),
                 program_path)
    code = main(["record", "--program", str(program_path),
                 "--consistency", "TSO", "--variants", "opt_4096",
                 "base_inf", "--out", str(root / "rec"),
                 "--result-out", str(root / "run.json")])
    assert code == 0
    return {"run": root / "run.json", "rec": root / "rec"}


def _tampered(rec, tmp_path, mutate, name="manifest.json"):
    """A copy of the recording directory ``rec`` whose parsed ``name``
    file went through ``mutate``; a changed payload part, such as
    ``program.json``, is re-digested so that it reaches its decoder."""
    copy = tmp_path / "tampered"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(rec, copy)
    data = json.loads((copy / name).read_text())
    mutate(data)
    (copy / name).write_text(json.dumps(data))
    if name != "manifest.json":
        redigest(copy)
    return copy


def _assert_rejected(paths, where, capsys):
    """``replay`` and ``inspect`` on each path exit 2 with one error line
    containing ``where``."""
    for path in paths:
        for command in ("replay", "inspect"):
            assert main([command, str(path)]) == 2, (where, command, path)
            err = capsys.readouterr().err
            assert err.count("error:") == 1, err
            assert where in err, err


class TestInspectQueries:
    def test_table_output_answers_all_queries(self, run_json, capsys):
        code = main(["inspect", str(run_json["run"]),
                     "--state-at", "0:0", "--first-write", "0x8000",
                     "--last-write", "0x8000", "--who-read", "0x2000",
                     "--timeline", "0", "--hb-slice", "1:0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "state after" in out
        assert "first write to 0x8000" in out
        assert "last write to 0x8000" in out
        assert "reads of 0x2000" in out
        assert "timeline" in out
        assert "HB slice of core 1 chunk 0" in out

    def test_json_output_is_stable_across_runs(self, run_json, capsys):
        argv = ["inspect", str(run_json["run"]), "--json",
                "--state-at", "0:0", "--first-write", "0x8000",
                "--hb-slice", "1:0"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert set(payload) == {"summary", "state", "first_write",
                                "hb_slice"}
        assert payload["state"]["cisn_watermarks"][0] == 1
        assert payload["hb_slice"]["source"] == "edges"

    def test_directory_input_supports_queries(self, run_json, capsys):
        code = main(["inspect", str(run_json["rec"]),
                     "--state-at", "0:0", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"]["position"] == 1

    def test_directory_summary_still_works(self, run_json, capsys):
        assert main(["inspect", str(run_json["rec"]), "-v", "-a"]) == 0
        out = capsys.readouterr().out
        assert "recording:" in out
        assert "litmus_SB" in out

    def test_analyze_timeline_draws_every_boundary(self, run_json, capsys):
        """Each core's row has one ``|`` per column an interval boundary
        falls in (core 0's two boundaries land in distinct columns)."""
        from repro.recorder.logfmt import IntervalFrame
        from repro.storage import load_recording

        stored = load_recording(run_json["rec"])
        frames = [[entry.timestamp for entry in entries
                   if isinstance(entry, IntervalFrame)]
                  for entries in stored.log_entries(stored.variants[0])]
        horizon = max(max(core) for core in frames)
        last = 72 - 1  # the timeline's last column
        columns = [{min(last, cycle * last // horizon) for cycle in core}
                   for core in frames]
        assert len(columns[0]) == 2
        assert main(["inspect", str(run_json["rec"]), "-a"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("  core ")]
        assert [row.count("|") for row in rows] == \
            [len(core) for core in columns], rows

    def test_directory_and_run_file_default_to_the_same_variant(
            self, two_variants, capsys):
        """Both forms default to the first variant in sorted order and
        print the same document."""
        assert main(["inspect", str(two_variants["rec"]), "--json",
                     "--state-at", "0:0", "--hb-slice", "1:0"]) == 0
        from_dir = capsys.readouterr().out
        assert main(["inspect", str(two_variants["run"]), "--json",
                     "--state-at", "0:0", "--hb-slice", "1:0"]) == 0
        from_file = capsys.readouterr().out
        assert from_dir == from_file
        assert json.loads(from_dir)["summary"]["variant"] == "base_inf"

    def test_who_read_value_filter(self, run_json, capsys):
        assert main(["inspect", str(run_json["run"]),
                     "--who-read", "0x2000=0x1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(access["value"] == 1 for access in payload["who_read"])


class TestFailureExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["inspect", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_run_result_json(self, run_json, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["inspect", str(bad)]) == 2
        bad.write_text(json.dumps({"wrong": "shape"}))
        assert main(["inspect", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
        # Each malformed top-level key of a real run is an input error
        # (exit 2) with one error line naming the key.
        good = json.loads(run_json["run"].read_text())
        missing = object()
        cases = [("program", 5), ("cores", "two"), ("final_memory", [1, 2]),
                 ("recordings", []), ("program", missing),
                 ("config", missing), ("cycles", "x")]
        for key, value in cases:
            data = dict(good)
            if value is missing:
                del data[key]
            else:
                data[key] = value
            bad.write_text(json.dumps(data))
            assert main(["inspect", str(bad)]) == 2, (key, value)
            err = capsys.readouterr().err
            assert err.count("error:") == 1, err
            assert repr(key) in err, err
        # So is each malformed nested entry; the error names its path.
        variant = sorted(good["recordings"])[0]
        recording = f"recordings.{variant}[0]"
        nested = [
            (f"{recording}.bit_length", ("recordings", variant, 0,
                                         "bit_length"), "x"),
            (f"{recording}.log", ("recordings", variant, 0, "log"), 5),
            (f"{recording}.stats", ("recordings", variant, 0, "stats"), []),
            (f"{recording}.config", ("recordings", variant, 0, "config"),
             "x"),
            (recording, ("recordings", variant, 0), [1]),
            ("cores[0]", ("cores", 0), 5),
            ("cores[0].final_regs", ("cores", 0, "final_regs"), 5),
            ("cores[0].traq_occupancy", ("cores", 0, "traq_occupancy"), "x"),
            ("cores[0] is missing key 'loads'", ("cores", 0, "loads"),
             missing),
            (f"dependence_edges.{variant}", ("dependence_edges", variant),
             5),
        ]
        for where, path, value in nested:
            data = json.loads(json.dumps(good))
            parent = data
            for step in path[:-1]:
                parent = parent[step]
            if value is missing:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            bad.write_text(json.dumps(data))
            assert main(["inspect", str(bad), "--state-at", "0:0"]) == 2, where
            err = capsys.readouterr().err
            assert err.count("error:") == 1, err
            assert where in err, err

    def test_unknown_chunk_reference(self, run_json, capsys):
        assert main(["inspect", str(run_json["run"]),
                     "--state-at", "9:9"]) == 2
        assert "no chunk" in capsys.readouterr().err

    def test_malformed_query_syntax(self, run_json, capsys):
        assert main(["inspect", str(run_json["run"]),
                     "--state-at", "nonsense"]) == 2
        assert main(["inspect", str(run_json["run"]),
                     "--first-write", "zz"]) == 2
        err = capsys.readouterr().err
        assert "CORE:CISN" in err and "ADDR" in err

    def test_unknown_variant(self, run_json, capsys):
        assert main(["inspect", str(run_json["run"]),
                     "--variant", "nope", "--state-at", "0:0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_variant_names_the_available_ones(self, run_json,
                                                      capsys):
        for path in (run_json["run"], run_json["rec"]):
            assert main(["replay", str(path), "--variant", "nope"]) == 2
            err = capsys.readouterr().err
            assert err.count("error:") == 1, err
            assert "'nope'" in err and "available: opt_4096" in err

    def test_malformed_manifest(self, run_json, tmp_path, capsys):
        """Each malformed manifest makes both replay and inspect exit 2
        with one error line naming the bad key's path.  Below
        ``manifest.result`` the path is the one a run file's error names."""
        variant = "opt_4096"

        def setter(*path, value):
            def mutate(manifest):
                parent = manifest
                for step in path[:-1]:
                    parent = parent[step]
                if value is None:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
            return mutate

        def result(*path, value):
            return setter("result", *path, value=value)

        recording = f"recordings.{variant}[0]"
        cases = [
            ("manifest is missing key 'payload_sha256'",
             setter("payload_sha256", value=None)),
            ("manifest.payload_bytes must be an integer",
             setter("payload_bytes", value="9")),
            ("manifest.result must be an object",
             setter("result", value=[])),
            ("run result key 'cycles' must be an integer",
             result("cycles", value="x")),
            ("run result key 'cores' must be an array",
             result("cores", value=5)),
            ("run result key 'recordings' must be an object",
             result("recordings", value=[])),
            (f"{recording}.bit_length must be an integer",
             result("recordings", variant, 0, "bit_length", value="9")),
            (f"{recording}.core_id must be an integer",
             result("recordings", variant, 0, "core_id", value="0")),
            (f"{recording}.config must be an object",
             result("recordings", variant, 0, "config", value=3)),
            (f"{recording}.config.cisn_bits must be an integer",
             result("recordings", variant, 0, "config", "cisn_bits",
                    value="x")),
            ("run result key 'final_memory' must be an object",
             result("final_memory", value=[1])),
            ("run result is missing key 'final_memory'",
             result("final_memory", value=None)),
            ("run result key 'config' must be an object",
             result("config", value=[])),
            ("config.l1 must be an object", result("config", "l1",
                                                   value=[1])),
            ("config.consistency has unknown value 'XYZ'",
             result("config", "consistency", value="XYZ")),
            (f"dependence_edges.{variant} must be an array",
             result("dependence_edges", variant, value="2")),
        ]
        for where, mutate in cases:
            bad = _tampered(run_json["rec"], tmp_path, mutate)
            for argv in (["replay", str(bad)], ["inspect", str(bad)]):
                assert main(argv) == 2, (where, argv)
                err = capsys.readouterr().err
                assert err.count("error:") == 1, err
                assert where in err, err

    def test_malformed_program(self, run_json, tmp_path, capsys):
        """A program of the wrong shape, in a directory's ``program.json``
        or a run file's ``program``, is bad input naming its path."""
        first = "program.threads[1].instructions[0]"
        cases = [
            ("program.threads must be an array",
             lambda program: program.update(threads=5)),
            ("program.threads[0].instructions must be an array",
             lambda program: program.update(threads=[{"instructions": 5}])),
            (f"{first} must be an object",
             lambda program: program["threads"][1]["instructions"]
             .__setitem__(0, 5)),
            (f"{first}.dst must be an integer",
             lambda program: program["threads"][1]["instructions"][0]
             .update(dst="x")),
            ('program.initial_memory["zz"]',
             lambda program: program.update(initial_memory={"zz": 1})),
        ]
        run_file = tmp_path / "bad.json"
        for where, mutate in cases:
            directory = _tampered(run_json["rec"], tmp_path, mutate,
                                  "program.json")
            data = json.loads(run_json["run"].read_text())
            mutate(data["program"])
            run_file.write_text(json.dumps(data))
            _assert_rejected((directory, run_file), where, capsys)

    def test_malformed_final_state(self, run_json, tmp_path, capsys):
        """A final-memory key or value, or a final register, of the wrong
        type is bad input naming its path in both forms."""
        memory = json.loads(run_json["run"].read_text())["final_memory"]
        addr = min(memory, key=int)
        cases = [
            (f'final_memory["{addr}"] must be an integer',
             lambda memory, cores: memory.update({addr: "x"})),
            ('final_memory["zz"]: the key must be a decimal integer',
             lambda memory, cores: memory.update(zz=1)),
            ("cores[0].final_regs[1] must be an integer",
             lambda memory, cores: cores[0]["final_regs"]
             .__setitem__(1, "x")),
        ]
        run_file = tmp_path / "bad.json"
        for where, mutate in cases:
            directory = _tampered(
                run_json["rec"], tmp_path,
                lambda manifest: mutate(manifest["result"]["final_memory"],
                                        manifest["result"]["cores"]))
            data = json.loads(run_json["run"].read_text())
            mutate(data["final_memory"], data["cores"])
            run_file.write_text(json.dumps(data))
            _assert_rejected((directory, run_file), where, capsys)

    @pytest.mark.parametrize("where, path, value", [
        ("cores[0].traq_histogram.counts must be an object",
         ("cores", 0, "traq_histogram", "counts"), 5),
        ('cores[0].traq_histogram.counts["x"]: the key must be a decimal',
         ("cores", 0, "traq_histogram", "counts"), {"x": 1}),
        ('cores[0].traq_histogram.counts["0"] must be an integer',
         ("cores", 0, "traq_histogram", "counts"), {"0": 1.5}),
        ("cores[0].traq_histogram.bin_width must be positive",
         ("cores", 0, "traq_histogram", "bin_width"), 0),
        ("cores[0].traq_histogram.samples must be an integer",
         ("cores", 0, "traq_histogram", "samples"), "x"),
        ("load_trace[0][0] must be an array of 3 integers",
         ("load_trace",), [[5]]),
        ("load_trace[0] must be an array", ("load_trace",), [5]),
        ("baselines.x[0] must be an object", ("baselines", "x"), [5]),
        ("baselines.x must be an array", ("baselines", "x"), 5),
        ("baselines.x[0].chunked must be a boolean", ("baselines", "x"),
         [{"log_bits": 1, "instructions_counted": 1, "chunked": 1}]),
        ("STATS is missing key 'mem_counted'", ("STATS",), {}),
        ("STATS.log_bits must be an integer", ("STATS", "log_bits"), "x"),
        ('STATS.entry_bits_by_type["Dummy"] must be an integer',
         ("STATS", "entry_bits_by_type"), {"Dummy": "x"}),
        ('STATS.conflict_lines["0x1"]: the key must be a decimal',
         ("STATS", "conflict_lines"), {"0x1": 1}),
        ("cores[0].traq_occupancy is missing key 'count'",
         ("cores", 0, "traq_occupancy"), {}),
        ("cores[0].traq_occupancy is missing key 'mean'",
         ("cores", 0, "traq_occupancy"), {"count": 1, "total": 2.0}),
        ("cores[0].traq_occupancy.total must be an integer or a number",
         ("cores", 0, "traq_occupancy", "total"), "x"),
        ('metrics["a"] must be an integer or a number, got a string',
         ("metrics",), {"a": "b"}),
        ("RECORDING.log is not base64", ("RECORDING", "log"), "abc"),
    ])
    def test_malformed_run_result_contents(self, run_json, tmp_path, capsys,
                                           where, path, value):
        """A bad stats, TRAQ, load-trace, baseline or metrics value in a
        run file is bad input naming its path, for replay and inspect."""
        data = json.loads(run_json["run"].read_text())
        variant = sorted(data["recordings"])[0]
        recording = ("recordings", variant, 0)
        steps = {"RECORDING": recording, "STATS": recording + ("stats",)}
        path = steps.get(path[0], path[:1]) + path[1:]
        where = where.replace("STATS", "RECORDING.stats").replace(
            "RECORDING", f"recordings.{variant}[0]")
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        run_file = tmp_path / "bad.json"
        run_file.write_text(json.dumps(data))
        _assert_rejected((run_file,), where, capsys)

    def test_malformed_run_result_config(self, run_json, tmp_path, capsys):
        good = json.loads(run_json["run"].read_text())
        variant = sorted(good["recordings"])[0]
        cases = [
            ("config.l1", ("config", "l1"), [1]),
            ("config.num_cores", ("config", "num_cores"), "2"),
            ("config.recorder.mode has unknown value 'fast'",
             ("config", "recorder", "mode"), "fast"),
            (f"recordings.{variant}[0].config.cisn_bits",
             ("recordings", variant, 0, "config"), {"cisn_bits": "x"}),
        ]
        bad = tmp_path / "bad.json"
        for where, path, value in cases:
            data = json.loads(json.dumps(good))
            parent = data
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = value
            bad.write_text(json.dumps(data))
            for argv in (["inspect", str(bad)], ["replay", str(bad)]):
                assert main(argv) == 2, (where, argv)
                err = capsys.readouterr().err
                assert err.count("error:") == 1, err
                assert where in err, err

    def test_record_needs_an_output(self, run_json, capsys):
        program_path = run_json["root"] / "sb.json"
        assert main(["record", "--program", str(program_path)]) == 2
        assert "--out" in capsys.readouterr().err

    def test_perf_report_missing_history(self, tmp_path, capsys):
        assert main(["perf-report",
                     "--history", str(tmp_path / "nope.jsonl")]) == 2
        assert "no bench history" in capsys.readouterr().err

    def test_perf_report_corrupt_lines_still_pass(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        history.write_text("this is not json\n")
        assert main(["perf-report", "--history", str(history)]) == 0
        assert "corrupt lines skipped" in capsys.readouterr().out

    def test_replay_missing_recording_dir(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "ghost")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_log_level_flag_accepted_on_failure_paths(self, tmp_path,
                                                      capsys):
        code = main(["--log-level", "debug", "inspect",
                     str(tmp_path / "missing.json")])
        assert code == 2


class TestReplayVerifiesEveryForm:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_run_file_replays_and_verifies(self, run_json, capsys, parallel):
        argv = ["replay", str(run_json["run"])]
        assert main(argv + (["--parallel"] if parallel else [])) == 0
        assert "VERIFIED" in capsys.readouterr().out

    @pytest.mark.parametrize("parallel", [False, True])
    def test_flipped_final_memory_word_diverges(self, run_json, tmp_path,
                                                capsys, parallel):
        def flip(manifest):
            memory = manifest["result"]["final_memory"]
            addr = min(memory, key=int)
            memory[addr] ^= 1

        bad = _tampered(run_json["rec"], tmp_path, flip)
        argv = ["replay", str(bad)] + (["--parallel"] if parallel else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "replay divergence [opt_4096] memory" in err
        assert "culprit: core" in err and "chunk" in err

    @pytest.mark.parametrize("parallel", [False, True])
    def test_flipped_final_register_diverges(self, run_json, tmp_path,
                                             capsys, parallel):
        def flip(manifest):
            manifest["result"]["cores"][1]["final_regs"][3] ^= 1

        bad = _tampered(run_json["rec"], tmp_path, flip)
        argv = ["replay", str(bad)] + (["--parallel"] if parallel else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "replay divergence [opt_4096] registers" in err
        assert "culprit: core 1" in err

    def test_nothing_to_verify_is_bad_input(self, run_json, tmp_path,
                                            capsys):
        """A manifest that verifies fewer cores than the log holds, or
        holds no variant, is rejected instead of replayed with a core
        unchecked or not replayed at all."""
        def truncate(manifest):
            del manifest["result"]["cores"][1:]

        def empty(manifest):
            manifest["result"]["recordings"] = {}

        for mutate, message in ((truncate, "final state of 1 cores"),
                                (empty, "no variant to replay")):
            bad = _tampered(run_json["rec"], tmp_path, mutate)
            redigest(bad)   # a dropped variant's logs leave the payload
            assert main(["replay", str(bad)]) == 2, message
            err = capsys.readouterr().err
            assert err.count("error:") == 1, err
            assert message in err, err

    def test_parallel_needs_edges(self, two_variants, capsys):
        assert main(["replay", str(two_variants["rec"]), "--parallel"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1, err
        assert "--edges" in err
