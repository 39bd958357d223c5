"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.engine import load_results_jsonl


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "[here]" in out

    def test_eval(self, capsys):
        assert main(["eval", "1024", "256", "49"]) == 0
        out = capsys.readouterr().out
        assert "Strassen" in out
        assert "n=1024" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 2" in out
        assert "Figure 3" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "16", "32", "--M", "48"]) == 0
        out = capsys.readouterr().out
        assert "fitted exponent" in out

    def test_recompute(self, capsys):
        assert main(["recompute"]) == 0
        out = capsys.readouterr().out
        assert "with recompute" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestCLIJson:
    def test_table1_json(self, capsys):
        assert main(["table1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 6
        assert rows[1]["algorithm"].startswith("Strassen")
        assert rows[1]["with_recomputation"] == "[10]; [here]"
        assert isinstance(rows[0]["bounds"], list)

    def test_eval_json(self, capsys):
        assert main(["eval", "1024", "256", "49", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 1024 and payload["M"] == 256 and payload["P"] == 49
        assert len(payload["rows"]) == 6
        classical = payload["rows"][0]["bounds"]
        assert all(isinstance(v, float) for v in classical.values())

    def test_sweep_json(self, capsys):
        assert main(["sweep", "16", "32", "--M", "48", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameter"] == "n"
        assert [p["x"] for p in payload["points"]] == [16.0, 32.0]
        assert all(p["measured"] >= p["bound"] for p in payload["points"])
        assert payload["stats"]["points"] == 2

    def test_sweep_json_with_cache_and_jsonl(self, capsys, tmp_path):
        argv = [
            "sweep", "16", "--M", "48", "--json",
            "--cache-dir", str(tmp_path / "cache"),
            "--sweep-dir", str(tmp_path / "sweep"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["cache_hits"] == 1
        stream = tmp_path / "sweep" / "results.jsonl"
        lines = stream.read_text().strip().splitlines()
        assert len(lines) == 2  # appended across both invocations
        assert load_results_jsonl(stream)[0].kind == "seq_io"

    def test_sweep_classical_algorithm(self, capsys):
        assert main(["sweep", "16", "--M", "48", "--algorithm", "classical", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"][0]["run"]["params"]["alg"] is None

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])


class TestZooCLI:
    def test_zoo_list_shows_all_entries(self, capsys):
        assert main(["zoo", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        names = {r["name"] for r in rows}
        assert {"strassen", "winograd", "laderman",
                "grey-333-23-221", "grey-522-18"} <= names
        assert len(rows) >= 5

    def test_zoo_validate_all_brent_valid(self, capsys):
        assert main(["zoo", "validate", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]
        assert all(e["ok"] for e in payload["entries"])

    def test_zoo_sweep_laderman_fits_own_omega0(self, capsys):
        """Satellite regression: a Laderman sweep is compared against
        ω₀ = 3·log₂₇ 23 — not Strassen's log₂ 7 — and fits within the
        Strassen tolerance."""
        assert main(["zoo", "sweep", "--alg", "laderman", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reference_omega0"] == pytest.approx(2.8540, abs=1e-3)
        assert payload["within_tolerance"]
        assert abs(payload["fitted_exponent"] - payload["reference_omega0"]) <= 0.15

    def test_zoo_sweep_rectangular_uses_effective_dim(self, capsys):
        """Rectangular ⟨5,2,2⟩ sweeps fit against (R·K·C)^{1/3}, not the
        raw A-side (which would measure log₅ 18 ≈ 1.8).  Default grid:
        a 3-point one overshoots the entry's 0.08 gate by design
        (tests/integration/test_cli_hybrid.py)."""
        assert main(
            ["zoo", "sweep", "--alg", "grey-522-18", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        xs = [p["x"] for p in payload["points"]]
        assert xs == sorted(xs)
        assert any(abs(x - round(x)) > 1e-9 for x in xs)  # geometric means
        assert payload["fitted_exponent"] > 2.5
        assert payload["within_tolerance"]

    def test_zoo_sweep_unknown_entry(self, capsys):
        assert main(["zoo", "sweep", "--alg", "nope"]) == 2
        assert "no corpus entry" in capsys.readouterr().err

    def test_main_sweep_accepts_zoo_name_and_reports_its_omega0(self, capsys):
        assert main(
            ["sweep", "9", "27", "--M", "48", "--algorithm", "laderman", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "laderman"
        assert payload["reference_omega0"] == pytest.approx(2.8540, abs=1e-3)

    def test_main_sweep_unknown_algorithm(self, capsys):
        assert main(["sweep", "16", "--M", "48", "--algorithm", "nope"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err


class TestAtlasCLI:
    @pytest.fixture
    def tiny_preset(self, monkeypatch):
        """Register a seconds-fast preset so the CLI path is exercised in
        tier-1; the real ci/full presets run in the CI atlas job."""
        from repro import cli as cli_mod
        from repro.obs.atlas import ATLAS_PRESETS

        monkeypatch.setattr(cli_mod, "ATLAS_CHOICES", ("ci", "full", "tiny"))
        monkeypatch.setitem(
            ATLAS_PRESETS,
            "tiny",
            [
                {
                    "instance": "gadget-1x2",
                    "family": "recompute_wins",
                    "family_params": {"gadgets": 1, "flush_length": 2},
                    "Ms": [3],
                    "schedulers": ("portfolio", "topological-belady"),
                    "certify": True,
                    "gadget": True,
                }
            ],
        )

    def test_atlas_markdown(self, capsys, tiny_preset):
        assert main(["atlas", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "# Schedule atlas" in out
        assert "strict win" in out
        assert "**OK**" in out

    def test_atlas_json(self, capsys, tiny_preset):
        assert main(["atlas", "--preset", "tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certification"]["ok"]
        assert payload["recompute_wins"]["ok"]
        assert payload["failures"] == []
        (row,) = payload["rows"]
        assert row["best"] == row["optimal"] == 7.0
        assert row["optimal_no_recompute"] == 8.0

    def test_atlas_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["atlas", "--preset", "nope"])


class TestReproduceCommand:
    def test_reproduce_all_pass(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "15/15 experiments reproduced" in out
        assert "FAIL" not in out


class TestReportCommand:
    def test_corrupt_sweep_log_exits_2_with_one_line(self, tmp_path, capsys):
        """A flipped ``io`` digit mid-file fails closed: exit 2 and one
        ``report:`` line naming the file and the record, no traceback."""
        import re

        sweep_dir = tmp_path / "sweep"
        assert main(["sweep", "16", "32", "64", "--M", "48",
                     "--sweep-dir", str(sweep_dir)]) == 0
        stream = sweep_dir / "results.jsonl"
        lines = stream.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        digit = re.search(r'"io": ?(\d)', lines[1])
        flipped = "3" if digit.group(1) == "2" else "2"
        lines[1] = lines[1][: digit.start(1)] + flipped + lines[1][digit.end(1):]
        stream.write_text("".join(lines))
        capsys.readouterr()

        assert main(["report", str(sweep_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("report: ")
        assert str(stream) in err[0] and "at record 1" in err[0]
