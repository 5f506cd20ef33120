"""End-to-end tests for ``python -m repro.tools record`` replay
verification: --verify-replay, --forensics-out and --inject-fault."""

import json

from repro.tools import main

_FAST = ["--workload", "fft", "--cores", "2", "--scale", "0.1"]


class TestVerifyReplay:
    def test_clean_run_verifies_and_reports(self, tmp_path, capsys):
        forensics = tmp_path / "forensics.json"
        result_out = tmp_path / "run.json"
        code = main(["record", *_FAST,
                     "--verify-replay",
                     "--forensics-out", str(forensics),
                     "--result-out", str(result_out)])
        assert code == 0
        payload = json.loads(forensics.read_text())
        assert payload["verified"] is True
        assert payload["report"] is None
        assert payload["workload"] == "fft"
        assert payload["intervals"] > 0
        # --result-out wrote a deserializable RunResult.
        from repro.sim.serialize import run_result_from_dict
        result = run_result_from_dict(json.loads(result_out.read_text()))
        assert result.total_instructions > 0

    def test_injected_fault_diverges_with_forensics(self, tmp_path,
                                                    capsys):
        forensics = tmp_path / "forensics.json"
        code = main(["record", *_FAST,
                     "--inject-fault",
                     "--checkpoint-every", "4",
                     "--forensics-out", str(forensics)])
        assert code == 1
        payload = json.loads(forensics.read_text())
        assert payload["verified"] is False
        report = payload["report"]
        assert report["kind"] == "memory"
        assert report["core"] is not None
        assert report["chunk"] is not None
        # The time-travel attachments the tentpole promises:
        assert report["checkpoint_id"] is not None
        assert report["checkpoint_position"] is not None
        assert report["hb_slice"]["ancestor_count"] >= 0
        assert "repro.tools inspect" in report["inspect_hint"]
        assert f"--state-at {report['core']}:{report['chunk']}" \
            in report["inspect_hint"]
        # The human rendering went to stderr too.
        err = capsys.readouterr().err
        assert "replay divergence" in err
        assert "nearest checkpoint" in err

    def test_forensics_out_implies_verification(self, tmp_path):
        forensics = tmp_path / "forensics.json"
        code = main(["record", *_FAST, "--forensics-out", str(forensics)])
        assert code == 0
        assert json.loads(forensics.read_text())["verified"] is True
