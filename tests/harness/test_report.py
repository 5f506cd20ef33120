"""Unit tests for the report renderers (no simulation required)."""

from repro.harness.report import (
    format_table,
    render_baselines,
    render_fig1,
    render_fig9,
    render_fig10,
    render_fig11,
    render_fig12,
    render_fig13,
    render_fig14,
    render_overhead,
    render_table1,
)


class TestFormatTable:
    def test_headers_and_rows(self):
        text = format_table("Title", ["col_a", "col_b"],
                            [["x", 1.5], ["y", 2.25]])
        lines = text.strip().splitlines()
        assert lines[0] == "Title"
        assert "col_a" in lines[2]
        assert "1.500" in text and "2.250" in text

    def test_custom_float_format(self):
        text = format_table("T", ["v"], [[3.14159]], floatfmt="{:.1f}")
        assert "3.1" in text and "3.14" not in text

    def test_empty_rows(self):
        text = format_table("T", ["a"], [])
        assert "T" in text


def _variant_data(**per_variant):
    return {
        "fft": per_variant,
        "average": per_variant,
    }


class TestRenderers:
    def test_fig1(self):
        data = {"fft": {"loads": 0.5, "stores": 0.03, "total": 0.53},
                "average": {"loads": 0.5, "stores": 0.03, "total": 0.53}}
        text = render_fig1(data)
        assert "Figure 1" in text
        assert "50.0" in text  # rendered as percent

    def test_fig9(self):
        entry = {"fraction": 0.0123}
        data = _variant_data(base_4k=entry, base_inf=entry, opt_4k=entry,
                             opt_inf=entry)
        text = render_fig9(data)
        assert "1.230" in text

    def test_fig10(self):
        caps = {"4k": {"opt_normalized": 0.5},
                "inf": {"opt_normalized": 0.75},
                "512": {"opt_normalized": 0.25}}
        text = render_fig10({"fft": caps, "average": caps})
        assert "0.500" in text and "0.250" in text

    def test_fig11(self):
        entry = {"bits_per_ki": 123.4, "mb_per_s": 55.5}
        data = _variant_data(base_4k=entry, base_inf=entry, opt_4k=entry,
                             opt_inf=entry)
        text = render_fig11(data)
        assert "123.4" in text and "55.5" in text

    def test_fig12(self):
        data = {"average_occupancy": {"fft": 42.0},
                "stall_fraction": {"fft": 0.001},
                "histograms": {"fft": {0: 0.25, 4: 0.75}}}
        text = render_fig12(data)
        assert "42.00" in text
        assert "[40-49]:75%" in text

    def test_fig13(self):
        entry = {"user": 4.0, "os": 2.0, "total": 6.0}
        data = _variant_data(base_4k=entry, base_inf=entry, opt_4k=entry,
                             opt_inf=entry)
        text = render_fig13(data)
        assert "6.0 (4.0u/2.0os)" in text

    def test_fig14(self):
        entry = {"reordered_fraction": 0.02, "log_mb_per_s": 100.0}
        data = {8: {v: entry for v in ("base_4k", "base_inf", "opt_4k",
                                       "opt_inf")}}
        text = render_fig14(data)
        assert "P8" in text and "2.000" in text

    def test_table1(self):
        from repro.harness import table1_parameters
        text = render_table1(table1_parameters())
        assert "2.3 KB" in text and "3.3 KB" in text

    def test_baselines(self):
        row = {"relaxreplay_opt_rc": 500.0, "sc_chunk_sc": 250.0,
               "coreracer_tso": 260.0, "rtr_tso": 300.0, "fdr_sc": 2000.0,
               "opt_vs_sc_chunk": 2.0}
        text = render_baselines({"fft": row, "average": row})
        assert "500" in text and "2000" in text

    def test_overhead(self):
        row = {"traq_stall_fraction": 0.001, "log_mb_per_s_opt_4k": 10.0,
               "log_mb_per_s_base_4k": 20.0}
        text = render_overhead({"fft": row, "average": row})
        assert "0.10" in text  # stall rendered as percent


class TestCli:
    def test_main_subset(self, capsys):
        from repro.tools import main
        assert main(["figures", "--experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_main_rejects_unknown(self, capsys):
        from repro.tools import main
        assert main(["figures", "--experiments", "fig99"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "unknown experiments: fig99" in err

    def test_main_writes_file(self, tmp_path, capsys):
        from repro.tools import main
        out = tmp_path / "report.txt"
        assert main(["figures", "--experiments", "table1",
                     "--out", str(out)]) == 0
        assert "Table 1" in out.read_text()

    def test_every_experiment_has_a_renderer(self):
        from repro.harness.figures import EXPERIMENTS
        from repro.harness.report import RENDERERS
        assert list(EXPERIMENTS) == list(RENDERERS)
