"""CLI contract tests for ``python -m repro.tools``: exit codes on
failure paths, the time-travel inspect queries, and stable JSON output."""

import json

import pytest

from repro.storage import save_program
from repro.tools import main
from repro.workloads.litmus import LITMUS_TESTS, litmus_program


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
