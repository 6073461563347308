"""Tests of the benchmark's own code (percentiles, spans, names, goldens)."""

from __future__ import annotations

import json
import pathlib
import types

import pytest

from perfbench import lib
from perfbench.workloads import BLOCK, MISSES_PER_BLOCK, SWEEPS_PER_BLOCK, serve_blocks

ROOT = pathlib.Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------- #
# the percentile rule
# ---------------------------------------------------------------------- #


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    tail = lib.tail_percentile([float(v) for v in range(1, 101)])
    assert (tail.p, tail.beyond, tail.n) == (90.0, 10, 100)
    tail = lib.tail_percentile([float(v) for v in range(1, 1001)])
    assert (tail.p, tail.beyond, tail.n) == (99.0, 10, 1000)


def test_tail_needs_ten_samples_beyond_even_the_median():
    assert lib.tail_percentile([float(v) for v in range(15)]) is None
    assert lib.tail_percentile([1.0] * 500) is None  # ties are not beyond
    assert lib.tail_percentile([float(v) for v in range(21)]).p == 50.0


def test_percentile_interpolates_between_ranks():
    assert lib.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert lib.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        lib.percentile([], 50)


def test_quartile_spread_is_relative_to_the_median():
    assert lib.quartile_spread([10.0] * 10) == 0.0
    assert lib.quartile_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(0.15)


# ---------------------------------------------------------------------- #
# span self-time arithmetic
# ---------------------------------------------------------------------- #


def _span(i, start, end, parent=None):
    return lib.Span(i, f"s{i}", start, end, parent, None)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [_span(0, 0, 10), _span(1, 1, 3, 0), _span(2, 2, 5, 0)]
    own = lib.self_times(spans)
    assert own == {0: pytest.approx(6.0), 1: 2.0, 2: 3.0}


def test_self_time_clips_children_and_ignores_grandchildren():
    spans = [
        _span(0, 0, 10),
        _span(1, 8, 12, 0),  # sticks out of its parent
        _span(2, 1, 4, 0),
        _span(3, 2, 3, 2),  # nested: only its parent's self time shrinks
    ]
    own = lib.self_times(spans)
    assert own[0] == pytest.approx(10 - 2 - 3)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    totals = lib.layer_self_times(spans)
    assert sum(totals.values()) == pytest.approx(5 + 4 + 2 + 1)


def test_self_time_never_negative_and_covered_length_merges():
    assert lib.covered_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4
    spans = [_span(0, 0, 1), _span(1, 0, 1, 0), _span(2, 0, 1, 0)]
    assert lib.self_times(spans)[0] == 0.0


def test_tracer_nests_spans_and_inherits_the_case():
    tr = lib.Tracer()
    with tr.span("case", case="k1") as case:
        with tr.span("layer") as layer:
            pass
        tr.record("gen", layer.end, layer.end)
    assert layer.parent == case.id and layer.case == "k1"
    assert tr.spans[2].parent == case.id
    assert case.start <= layer.start <= layer.end <= case.end


def test_share_table_names_every_layer(tmp_path):
    tr = lib.Tracer()
    with tr.span("case"):
        with tr.span("analysis.classical.walk"):
            pass
    text = lib.share_table(tr.spans, "t")
    assert "analysis.classical.walk" in text and "case" in text
    tr.write_ndjson(tmp_path / "t.ndjson")
    rows = [json.loads(line) for line in (tmp_path / "t.ndjson").read_text().splitlines()]
    assert {r["name"] for r in rows} == {"case", "analysis.classical.walk"}
    assert set(rows[0]) == {"id", "name", "start", "end", "parent", "case"}


# ---------------------------------------------------------------------- #
# metric names
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", ["setup_s", "a", "9x", "core.panel.s", "a-b_c.d", "x" * 64])
def test_valid_names(name):
    assert lib.check_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "x" * 65, "é", "a/b", "a\n"])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        lib.check_name(name)


@pytest.mark.parametrize("unit", ["ms", "s", "1/s", "%", "count", "MB", "1"])
def test_valid_units(unit):
    assert lib.check_unit(unit) == unit


@pytest.mark.parametrize("unit", ["", "m s", "x" * 17, "µs"])
def test_invalid_units(unit):
    with pytest.raises(ValueError):
        lib.check_unit(unit)


def test_benchmark_json_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        lib.check_name(name)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        lib.check_unit(metric["unit"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        lib.check_unit(metric["unit"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert 2 <= len(spec["workloads"]) <= 8 and 1 <= len(spec["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in spec["workloads"])


def test_layer_map_covers_every_micro_row_once():
    import fnmatch

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {m["name"] for m in spec["per_layer"]}
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    for rows in layer_map["mapped"].values():
        assert set(rows.values()) <= layers
    patterns = [p for group in ("mapped", "unmapped")
                for rows in layer_map[group].values() for p in rows]
    core = json.loads((ROOT / "BENCH_core.json").read_text())
    for row in core["results"]:
        key = f"{row['op']}@{row['shape']}"
        assert sum(fnmatch.fnmatchcase(key, p) for p in patterns) == 1, key


# ---------------------------------------------------------------------- #
# the serve mix
# ---------------------------------------------------------------------- #


def test_serve_blocks_are_seeded_with_a_fixed_composition():
    warm = [{"kind": "ge", "param": str(b)} for b in range(4)]
    first = [next(serve_blocks(7, warm, "e")) for _ in range(2)]
    assert first[0] == first[1]
    blocks = serve_blocks(7, warm, "e")
    seen_misses = set()
    for _ in range(3):
        block = next(blocks)
        kinds = [op.kind for op in block]
        assert len(block) == BLOCK
        assert kinds.count("sweep") == SWEEPS_PER_BLOCK
        assert kinds.count("miss") == MISSES_PER_BLOCK
        for op in block:
            if op.kind == "miss":
                seen_misses.add(op.params["base_seed"])
    assert len(seen_misses) == 3  # every miss names a fresh case
    assert next(serve_blocks(8, warm, "e")) != first[0]


# ---------------------------------------------------------------------- #
# golden identity: a tampered artifact byte fails its case
# ---------------------------------------------------------------------- #


def test_artifact_mismatches_flags_one_changed_byte(tmp_path):
    path = tmp_path / "a.json"
    path.write_bytes(b'{"x": 1}')
    golden = {"a.json": lib.sha256_file(path)}
    assert lib.artifact_mismatches(golden, {"a.json": path}) == {}
    path.write_bytes(b'{"x": 2}')
    assert lib.artifact_mismatches(golden, {"a.json": path}) == {"a.json": "sha256 differs from the golden"}
    path.unlink()
    assert lib.artifact_mismatches(golden, {"a.json": path}) == {"a.json": "missing"}


def test_wall_is_the_sum_of_each_segments_fastest_pass():
    from perfbench.campaign import FOLD, Pass, best_segments

    a = Pass(0.0, 6.0, {"x.json": 2.0, "y.json": 3.0, FOLD: 1.0}, 0.0, ROOT, ROOT)
    b = Pass(0.0, 7.0, {"x.json": 4.0, "y.json": 2.5, FOLD: 0.5}, 0.0, ROOT, ROOT)
    best = best_segments([a, b])
    assert best == {"x.json": 2.0, "y.json": 2.5, FOLD: 0.5}
    assert sum(best.values()) == 5.0


def test_tampered_artifact_fails_the_golden_check(tmp_path):
    pytest.importorskip("repro")
    from repro.campaign.cache import ArtifactCache
    from repro.caseset import parse

    from perfbench.campaign import Pass, aggregate_text, check_pass

    (case,) = parse("graph[ge9] x ul[1.1] x n_random[4] x heuristic[heft]").cases()
    cache = ArtifactCache(tmp_path / "cache")
    path = cache.store(case, case.run())
    aggregate = tmp_path / "aggregate.json"
    aggregate.write_text(aggregate_text([case], cache.root))
    golden = {
        "artifacts": {case.artifact_name: lib.sha256_file(path)},
        "aggregates": {"dense": aggregate.read_text()},
    }
    ctx = types.SimpleNamespace(golden=golden)

    def check():
        p = Pass(0.0, 0.0, {}, 0.0, cache.root, aggregate)
        return check_pass(ctx, "dense", p, [case])

    assert check() == {}
    # Whitespace inside the envelope: still a valid artifact, different bytes.
    text = path.read_text()
    path.write_text(text.replace(", ", ",  ", 1))
    assert check() == {case.artifact_name: "sha256 differs from the golden"}
    # One changed digit of the result payload breaks the envelope digest.
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    path.write_text(text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:])
    assert check()[case.artifact_name] == "artifact missing or corrupt"
