"""CLI surface of the sweep engine: ``campaign sweep`` + ``queue-status --json``.

The CLI shares the exact resolver (:mod:`repro.caseset`) and aggregate
writer with the service, so the assertions here are about byte identity
across entry points: the compute path's ``--json`` equals the
``--from-cache`` path's equals the in-process oracle.
"""

import json

import pytest

from repro.campaign import (
    ArtifactCache,
    QueueConfig,
    WorkQueue,
    queue_worker,
    suite_aggregate_to_payload,
)
from repro.caseset import parse
from repro.experiments.cli import main
from repro.experiments.fig6_aggregate import aggregate_from_cache
from repro.io.json_io import canonical_json

#: Two HIT-sized cases: cheap enough to compute inline in a test.
EXPR = (
    "graph[rand10] x ul[1.1] x seed[0-1] "
    "x n_random[5] x mc_realizations[50] x grid_n[17] x base_seed[7]"
)


class TestSweepSubcommand:
    def test_fold_prints_the_canonical_form(self, capsys):
        assert main(["campaign", "sweep", EXPR, "--fold"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == parse(EXPR).fold()
        assert "seed[0-1]" in out

    def test_expand_lists_cases_in_expansion_order(self, capsys):
        assert main(["campaign", "sweep", EXPR, "--expand"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        cases = parse(EXPR).cases()
        assert lines[: len(cases)] == [c.name for c in cases]
        assert f"[{len(cases)} case(s)" in lines[-1]

    def test_compute_and_from_cache_write_identical_bytes(
        self, capsys, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        computed = tmp_path / "computed.json"
        replayed = tmp_path / "replayed.json"
        assert main(
            ["campaign", "sweep", EXPR, "--cache-dir", str(cache_dir),
             "--json", str(computed)]
        ) == 0
        assert "sweep" in capsys.readouterr().out
        assert main(
            ["campaign", "sweep", EXPR, "--cache-dir", str(cache_dir),
             "--from-cache", "--json", str(replayed)]
        ) == 0
        assert computed.read_bytes() == replayed.read_bytes()
        # ...and both equal the in-process oracle over the same cases.
        result = aggregate_from_cache(
            cases=parse(EXPR).cases(), cache=ArtifactCache(cache_dir)
        )
        oracle = canonical_json(
            suite_aggregate_to_payload(result.suite_aggregate())
        )
        assert computed.read_text() == oracle + "\n"

    def test_from_cache_reports_the_missing_subset(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        narrow = parse(EXPR) - parse(EXPR.replace("seed[0-1]", "seed[1]"))
        assert main(
            ["campaign", "sweep", narrow.fold(), "--cache-dir",
             str(cache_dir)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "sweep", EXPR, "--cache-dir", str(cache_dir),
             "--from-cache"]
        ) == 1
        out = capsys.readouterr().out
        missing_line = [l for l in out.splitlines() if "missing" in l][0]
        expr = missing_line.split("missing:", 1)[1].strip()[:-1]
        assert parse(expr).keys() == parse(
            EXPR.replace("seed[0-1]", "seed[1]")
        ).keys()

    def test_from_cache_reports_a_corrupt_artifact_missing(
        self, capsys, tmp_path
    ):
        # The replay reads each artifact once, through the full check; a
        # case whose bytes fail it is missing, even though its file exists.
        cache_dir = tmp_path / "cache"
        argv = ["campaign", "sweep", EXPR, "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        capsys.readouterr()
        corrupted = parse(EXPR).cases()[0]
        path = ArtifactCache(cache_dir).path_for(corrupted)
        data = bytearray(path.read_bytes())
        data[100] = 0xFF
        path.write_bytes(bytes(data))
        assert main(argv + ["--from-cache"]) == 1
        out = capsys.readouterr().out
        assert "(partial: 1/2 cases)" in out
        missing_line = [l for l in out.splitlines() if "missing" in l][0]
        expr = missing_line.split("missing:", 1)[1].strip()[:-1]
        assert parse(expr).keys() == [corrupted.key]

    def test_compute_and_replay_print_one_complete_report(
        self, capsys, tmp_path
    ):
        argv = ["campaign", "sweep", EXPR, "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        computed = capsys.readouterr().out
        assert main(argv + ["--from-cache"]) == 0
        replayed = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert main(argv + ["--force"]) == 0
        forced = capsys.readouterr().out

        def report(out):
            return out[: out.index("[sweep ")]

        # A complete 2-case sweep is not a partial fig-6 suite, and both
        # paths print the same heading, naming the expression.
        assert report(computed) == report(replayed) == report(warm)
        assert report(computed).startswith(f"Sweep {parse(EXPR).fold()} — ")
        assert "(partial:" not in computed + replayed
        assert "2/2 case(s), 2 computed, 0 cached]" in computed
        assert "2/2 case(s) aggregated from" in replayed
        assert "2/2 case(s), 0 computed, 2 cached]" in warm
        assert "2/2 case(s), 2 computed, 0 cached]" in forced

    def test_from_cache_with_nothing_landed_reports_everything_missing(
        self, capsys, tmp_path
    ):
        empty = tmp_path / "empty"
        empty.mkdir()
        out_json = tmp_path / "agg.json"
        assert main(
            ["campaign", "sweep", EXPR, "--cache-dir", str(empty),
             "--from-cache", "--json", str(out_json)]
        ) == 1
        out = capsys.readouterr().out
        # No aggregate, no --json file: only the missing subset.
        assert out.splitlines()[0].startswith("[missing: ")
        assert "Pearson" not in out and not out_json.exists()
        expr = out.split("missing:", 1)[1].strip()[:-1]
        assert parse(expr).keys() == parse(EXPR).keys()
        # A cache directory that does not exist stays a usage error.
        with pytest.raises(SystemExit) as err:
            main(["campaign", "sweep", EXPR, "--cache-dir",
                  str(tmp_path / "nope"), "--from-cache"])
        assert err.value.code == 2

    def test_expression_selecting_no_case_exits_2(self, capsys, tmp_path):
        term = "graph[rand10] x ul[1.1]"
        with pytest.raises(SystemExit) as err:
            main(["campaign", "sweep", f"{term} ! {term}", "--cache-dir",
                  str(tmp_path / "cache")])
        assert err.value.code == 2
        assert "selects no cases" in capsys.readouterr().err

    def test_malformed_expression_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["campaign", "sweep", "graph[chol84] x ul[oops]", "--fold"])
        assert err.value.code == 2
        assert "numbers" in capsys.readouterr().err


class TestQueueStatusJson:
    def test_json_payload_matches_the_queue(self, capsys, tmp_path):
        queue = WorkQueue(tmp_path / "queue").init()
        for case in parse(EXPR).cases():
            queue.enqueue_case(case)
        assert main(
            ["campaign", "queue-status", str(queue.root), "--json"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        # stdout carries canonical bytes, not merely an equal payload.
        assert out == canonical_json(payload) + "\n"
        assert payload["format"] == "repro-queue-status-v1"
        assert payload["total"] == 2
        assert payload["open"] == 2
        assert payload["done"] == payload["poisoned"] == 0
        assert all(
            t["state"] == "open" for t in payload["tasks"].values()
        )
        assert canonical_json(payload) == canonical_json(
            queue.status_payload()
        )

    def test_a_served_queue_lists_no_retired_case_task(
        self, capsys, tmp_path
    ):
        # Every served case task retired: the cache is its only record,
        # so queue-status lists none of them.
        queue = WorkQueue(tmp_path / "queue").init()
        for case in parse(EXPR).cases():
            queue.enqueue_case(case)
        queue_worker(queue, tmp_path / "cache", "w0", env_faults=False)
        assert main(
            ["campaign", "queue-status", str(queue.root), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["total"], payload["tasks"]) == (0, {})
        assert len(list((tmp_path / "cache").glob("*.json"))) == 2

    def test_poisoned_queue_exits_nonzero(self, capsys, tmp_path):
        queue = WorkQueue(
            tmp_path / "queue", QueueConfig(max_attempts=1)
        ).init()
        task_id = queue.enqueue_case(parse(EXPR).cases()[0])
        assert queue.claim(task_id, "w0")
        queue.fail(task_id, "synthetic failure")
        assert main(
            ["campaign", "queue-status", str(queue.root), "--json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["poisoned"] == 1
        assert payload["tasks"][task_id]["state"] == "poisoned"
        assert task_id in payload["poisoned_tasks"]
