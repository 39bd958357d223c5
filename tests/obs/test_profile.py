"""Per-point profiling artifacts (EngineConfig.profile modes)."""

import pstats

import pytest

from repro.obs.profile import PROFILE_MODES, artifact_path, profile_point


class TestProfilePoint:
    def test_off_and_none_produce_nothing(self, tmp_path):
        with profile_point(None):
            pass
        with profile_point({"mode": "off", "dir": str(tmp_path), "key": "k"}):
            pass
        assert list(tmp_path.iterdir()) == []

    def test_unknown_mode_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown profile mode"):
            with profile_point({"mode": "flamegraph", "dir": str(tmp_path), "key": "k"}):
                pass

    def test_cprofile_mode_dumps_loadable_stats(self, tmp_path):
        spec = {"mode": "cprofile", "dir": str(tmp_path), "key": "abc"}
        with profile_point(spec):
            sum(range(1000))
        artifact = artifact_path(tmp_path, "abc", "cprofile")
        assert artifact.is_file()
        stats = pstats.Stats(str(artifact))  # loadable = well-formed
        assert stats.total_calls >= 1

    def test_tracemalloc_mode_reports_peak(self, tmp_path):
        spec = {"mode": "tracemalloc", "dir": str(tmp_path), "key": "abc"}
        with profile_point(spec):
            _junk = [bytearray(1024) for _ in range(64)]
        text = artifact_path(tmp_path, "abc", "tracemalloc").read_text()
        assert text.startswith("peak_traced_bytes:")
        assert int(text.splitlines()[0].split(":")[1]) > 0

    def test_artifact_written_even_when_point_raises(self, tmp_path):
        spec = {"mode": "cprofile", "dir": str(tmp_path), "key": "boom"}
        with pytest.raises(RuntimeError):
            with profile_point(spec):
                raise RuntimeError("executor died")
        assert artifact_path(tmp_path, "boom", "cprofile").is_file()

    def test_modes_registry_matches_engine_config(self):
        from repro.engine import EngineConfig

        assert PROFILE_MODES == ("off", "cprofile", "tracemalloc")
        with pytest.raises(ValueError, match="unknown profile mode"):
            EngineConfig(profile="wall")
        with pytest.raises(ValueError, match="requires sweep_dir"):
            EngineConfig(profile="cprofile")


class TestEngineIntegration:
    def test_sweep_profile_artifacts_land_in_profiles_dir(self, tmp_path):
        from repro.engine import EngineConfig, run_sweep, seq_io_point

        points = [seq_io_point(None, n, 48) for n in (8, 16)]
        config = EngineConfig(sweep_dir=tmp_path / "sweep", profile="cprofile")
        res = run_sweep(points, config)
        assert len(res.points) == 2
        profiles = sorted((tmp_path / "sweep" / "profiles").iterdir())
        assert [p.name for p in profiles] == sorted(
            f"{pt.key}.pstats" for pt in points
        )
        for artifact in profiles:
            assert pstats.Stats(str(artifact)).total_calls >= 1
