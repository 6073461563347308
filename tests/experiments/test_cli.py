"""CLI entry point."""

import pytest

from repro.campaign import CampaignCase
from repro.experiments.cli import main


class TestCli:
    def test_fig7_runs(self, capsys):
        assert main(["fig7", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "done in" in out

    def test_fig9_runs(self, capsys):
        assert main(["fig9", "--scale", "quick"]) == 0
        assert "Fig. 9" in capsys.readouterr().out

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["fig7", "--output", str(out)]) == 0
        assert "Fig. 7" in out.read_text()

    def test_csv_dir_for_panel_figures(self, capsys, tmp_path, monkeypatch):
        # fig3 at quick scale is a second or two; dump its panel CSV.
        csv_dir = tmp_path / "csv"
        assert main(["fig3", "--csv-dir", str(csv_dir)]) == 0
        files = list(csv_dir.iterdir())
        assert len(files) == 1
        assert files[0].name == "fig3_panel.csv"
        assert files[0].read_text().startswith("label,makespan")

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig7", "--scale", "enormous"])

    def test_zero_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig7", "--jobs", "0"])


class TestCampaignFlags:
    def test_fig3_with_jobs_and_cache(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["fig3", "--jobs", "2", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "1 stored" in out
        assert len(list(cache_dir.glob("*.json"))) == 1

    def test_parallel_report_identical_to_serial(self, capsys, tmp_path):
        assert main(["fig3", "--jobs", "4"]) == 0
        parallel_out = capsys.readouterr().out.splitlines()[0]
        assert main(["fig3"]) == 0
        serial_out = capsys.readouterr().out.splitlines()[0]
        assert parallel_out == serial_out

    def test_warm_cache_skips_recomputation(self, capsys, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        assert main(["fig3", "--cache-dir", str(cache_dir)]) == 0
        first = capsys.readouterr().out.splitlines()[0]

        def boom(self):  # pragma: no cover - must never run on a warm cache
            raise AssertionError("case recomputed despite warm cache")

        monkeypatch.setattr(CampaignCase, "run", boom)
        assert main(["fig3", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == first
        assert "1 hits" in out

    def test_force_recomputes(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["fig3", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["fig3", "--cache-dir", str(cache_dir), "--force"]) == 0
        assert "0 hits, 1 stored" in capsys.readouterr().out

    def test_resume_uses_default_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig3", "--resume"]) == 0
        capsys.readouterr()
        assert (tmp_path / ".repro-cache").is_dir()
        assert main(["fig3", "--resume"]) == 0
        assert "1 hits" in capsys.readouterr().out

    @pytest.mark.fleet
    def test_fig9_accepts_jobs(self, capsys):
        assert main(["fig9", "--jobs", "2"]) == 0
        assert "Fig. 9" in capsys.readouterr().out


class TestAggregateSubcommand:
    @staticmethod
    def _mini_suite(monkeypatch):
        from repro.experiments.cases import CaseSpec
        from repro.experiments import fig6_aggregate

        monkeypatch.setattr(
            fig6_aggregate, "default_suite", lambda: [CaseSpec("cholesky", 3, 1.01)]
        )

    def test_aggregate_requires_cache(self):
        with pytest.raises(SystemExit):
            main(["aggregate"])

    def test_aggregate_empty_cache_is_clean_cli_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["aggregate", "--cache-dir", str(tmp_path / "nothing-here")])
        assert "no artifacts" in capsys.readouterr().err

    def test_aggregate_reproduces_fig6_without_recomputation(
        self, capsys, tmp_path, monkeypatch
    ):
        self._mini_suite(monkeypatch)
        cache_dir = tmp_path / "cache"
        assert main(["fig6", "--cache-dir", str(cache_dir)]) == 0
        fig6_report = capsys.readouterr().out.splitlines()

        def boom(self):  # pragma: no cover - must never run from `aggregate`
            raise AssertionError("aggregate recomputed a case")

        monkeypatch.setattr(CampaignCase, "run", boom)
        assert main(["aggregate", "--cache-dir", str(cache_dir)]) == 0
        agg_report = capsys.readouterr().out.splitlines()
        # Identical report body (matrix + §VII line); the three footer
        # lines (timing, cache/aggregate info, blank) legitimately differ.
        assert agg_report[:-3] == fig6_report[:-3]
        assert any("nothing recomputed" in line for line in agg_report)

    def test_stream_flag_keeps_report_identical(self, capsys, tmp_path, monkeypatch):
        self._mini_suite(monkeypatch)
        cache_dir = tmp_path / "cache"
        assert main(["fig6", "--cache-dir", str(cache_dir)]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(["fig6", "--cache-dir", str(cache_dir), "--stream"]) == 0
        streamed = capsys.readouterr().out.splitlines()
        # Same report; only the timing/cache footer lines may differ.
        assert streamed[:-3] == plain[:-3]


class TestBackendFlag:
    def test_backend_serial_matches_default(self, capsys):
        assert main(["fig3", "--backend", "serial"]) == 0
        serial = capsys.readouterr().out.splitlines()[0]
        assert main(["fig3"]) == 0
        default = capsys.readouterr().out.splitlines()[0]
        assert serial == default

    def test_shards_requires_queue_backend(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--shards", "2"])
        with pytest.raises(SystemExit):
            main(["fig3", "--backend", "queue", "--shards", "0"])

    def test_shard_backend_and_command_are_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fig3", "--backend", "shard"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["campaign", "shard", "--shards", "2", "--out-dir", "x"])
        assert err.value.code == 2
        assert "invalid choice: 'shard'" in capsys.readouterr().err

    def test_fig9_accepts_backend(self, capsys):
        assert main(["fig9", "--backend", "serial"]) == 0
        assert "Fig. 9" in capsys.readouterr().out


class TestCampaignSubcommands:
    """The queue-init/worker/merge/verify-cache protocol driven from the CLI."""

    @staticmethod
    def _mini_suite(monkeypatch):
        import repro.experiments.cli as cli_mod
        from repro.experiments import fig6_aggregate
        from repro.experiments.cases import CaseSpec

        # Two shards: the first two cases hash to shard 0 of 2, the third
        # to shard 1.
        suite = lambda: [
            CaseSpec("cholesky", 3, 1.01),
            CaseSpec("random", 10, 1.1),
            CaseSpec("cholesky", 3, 1.1),
        ]
        monkeypatch.setattr(fig6_aggregate, "default_suite", suite)
        monkeypatch.setattr(cli_mod, "default_suite", suite)

    def _shard_worker_merge(self, tmp_path, capsys):
        queue = tmp_path / "queue"
        cache = tmp_path / "shard-cache"
        assert main(
            ["campaign", "queue-init", str(queue), "--scale", "quick",
             "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 shard(s) enqueued" in out and "3 cases" in out
        for k in (0, 1):
            assert main(
                ["campaign", "worker",
                 str(queue / "tasks" / f"shard-{k:03d}-of-002.json"),
                 "--cache-dir", str(cache)]
            ) == 0
        capsys.readouterr()
        merged_json = tmp_path / "merged.json"
        assert main(
            ["campaign", "merge",
             str(queue / "tasks" / "partial-000-of-002.json"),
             str(queue / "tasks" / "partial-001-of-002.json"),
             "--json", str(merged_json)]
        ) == 0
        return merged_json, capsys.readouterr().out

    def test_shard_worker_merge_round_trip(self, capsys, tmp_path, monkeypatch):
        self._mini_suite(monkeypatch)
        merged_json, out = self._shard_worker_merge(tmp_path, capsys)
        assert "Merged aggregate" in out
        assert "§VII" in out
        assert merged_json.exists()

    def test_merge_bit_identical_to_fig6_json(self, capsys, tmp_path, monkeypatch):
        self._mini_suite(monkeypatch)
        single_json = tmp_path / "single.json"
        assert main(
            ["fig6", "--scale", "quick", "--cache-dir", str(tmp_path / "a"),
             "--json", str(single_json)]
        ) == 0
        capsys.readouterr()
        merged_json, _ = self._shard_worker_merge(tmp_path, capsys)
        assert single_json.read_bytes() == merged_json.read_bytes()
        # The shard workers' artifacts are byte-identical to the
        # single-process campaign's.
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "shard-cache").iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for a, b in zip(files_a, files_b):
            assert a.read_bytes() == b.read_bytes()

    def test_worker_partial_lands_in_the_queue(
        self, capsys, tmp_path, monkeypatch
    ):
        # `campaign worker --partial Q/partials/...` is the hand-run
        # transport into a queue: the shard counts as done, and the bytes
        # equal the partial written to the default path.
        import json

        self._mini_suite(monkeypatch)
        queue = tmp_path / "queue"
        manifest = queue / "tasks" / "shard-000-of-002.json"
        assert main(
            ["campaign", "queue-init", str(queue), "--scale", "quick",
             "--shards", "2"]
        ) == 0
        assert main(
            ["campaign", "worker", str(manifest),
             "--cache-dir", str(tmp_path / "cache"),
             "--partial", str(queue / "partials" / "partial-000-of-002.json")]
        ) == 0
        capsys.readouterr()
        assert main(["campaign", "queue-status", str(queue), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["tasks"]["shard-000-of-002"]["state"] == "done"
        assert status["tasks"]["shard-001-of-002"]["state"] == "open"
        # Default destination (beside the manifest), against a fresh cache
        # so the partial records the same computed/cached counts.
        assert main(
            ["campaign", "worker", str(manifest),
             "--cache-dir", str(tmp_path / "cache-2")]
        ) == 0
        assert (queue / "partials" / "partial-000-of-002.json").read_bytes() == (
            queue / "tasks" / "partial-000-of-002.json"
        ).read_bytes()

    def test_worker_rejects_bad_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit):
            main(["campaign", "worker", str(bad), "--cache-dir", str(tmp_path)])

    def test_merge_rejects_foreign_files(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "nope"}')
        with pytest.raises(SystemExit):
            main(["campaign", "merge", str(bad)])
        assert "not a shard partial" in capsys.readouterr().err

    def test_verify_cache_rejects_missing_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                ["campaign", "verify-cache", "--cache-dir",
                 str(tmp_path / "no-such-dir")]
            )
        assert "does not exist" in capsys.readouterr().err

    def test_verify_cache_clean_and_corrupt(self, capsys, tmp_path, monkeypatch):
        self._mini_suite(monkeypatch)
        cache = tmp_path / "cache"
        assert main(["fig6", "--scale", "quick", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "verify-cache", "--cache-dir", str(cache),
             "--scale", "quick"]
        ) == 0
        assert "3 valid, 0 corrupt" in capsys.readouterr().out

        (cache / "zz-broken.json").write_text("{truncated")
        assert main(
            ["campaign", "verify-cache", "--cache-dir", str(cache)]
        ) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "zz-broken.json" in out
