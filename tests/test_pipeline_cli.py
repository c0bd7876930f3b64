"""Batch pipeline behavior and the command-line surface."""

from __future__ import annotations

import io
import json
import subprocess
import sys

import numpy as np
import pytest

from pathmine import (
    Config,
    ExtractionRequest,
    Extractor,
    WalkStats,
    ingest_csv,
    load_index,
    run_batch,
    save_index,
)
from pathmine.cli import main, render_explanation

from conftest import STORY_CONTEXT, STORY_FULL_PATH, STORY_QUERY, STORY_TRUNCATION, story_dump_bytes


@pytest.fixture()
def story_index(tmp_path):
    g, _ = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
    stats = WalkStats.from_graph(g)
    path = str(tmp_path / "story.idx")
    save_index(g, path, stats)
    return path


@pytest.fixture()
def story_extractor():
    g, _ = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
    return Extractor(g, WalkStats.from_graph(g))


class TestExtractor:
    def test_story_pair_produces_expected_paths(self, story_extractor):
        result = story_extractor.extract(
            ExtractionRequest(context=STORY_CONTEXT, query=STORY_QUERY)
        )
        assert result.error is None
        assert STORY_FULL_PATH in result.paths
        assert STORY_TRUNCATION in result.paths

    def test_query_without_graph_concepts(self, story_extractor):
        result = story_extractor.extract(
            ExtractionRequest(context=STORY_CONTEXT, query="zwrk qblt unknown")
        )
        assert result.error is None
        assert result.paths == []

    def test_max_total_paths_caps_output(self):
        g, _ = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
        ex = Extractor(g, WalkStats.from_graph(g), Config(max_total_paths=3))
        result = ex.extract(ExtractionRequest(context=STORY_CONTEXT, query=STORY_QUERY))
        assert len(result.paths) == 3

    def test_request_validation(self):
        with pytest.raises(ValueError):
            ExtractionRequest(context="", query="lady")
        with pytest.raises(ValueError):
            ExtractionRequest(context="something", query="  ")

    def test_batch_error_line_continues(self, story_extractor):
        lines = [
            json.dumps({"id": "a", "context": STORY_CONTEXT, "query": STORY_QUERY}),
            "{broken json",
            json.dumps({"id": "c", "context": STORY_CONTEXT, "query": "church"}),
        ]
        results = list(run_batch(story_extractor, lines))
        assert [r.id for r in results] == ["a", None, "c"]
        assert results[1].error is not None
        assert results[0].error is None and results[2].error is None

    def test_worker_counts_agree_byte_for_byte(self, story_extractor):
        lines = [
            json.dumps({"id": str(i), "context": STORY_CONTEXT, "query": STORY_QUERY})
            for i in range(30)
        ]
        serial = "\n".join(r.to_json() for r in run_batch(story_extractor, lines, workers=1))
        threaded = "\n".join(r.to_json() for r in run_batch(story_extractor, lines, workers=8))
        assert serial == threaded


class TestConfig:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"lang": "en", "max_ngram": 3, "seed": 5}))
        config = Config.from_file(str(path), seed=9)
        assert config.max_ngram == 3
        assert config.seed == 9

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError):
            Config.from_file(str(path))

    def test_wrong_types_rejected(self):
        for bad in ({"max_ngram": "4"}, {"max_children_per_node": True}, {"seed": 1.0},
                    {"lang": None}, {"stopword_path": 3}, {"max_total_paths": "2"}):
            with pytest.raises(ValueError):
                Config(**bad)
        assert Config(max_total_paths=None, stopword_path=None).max_total_paths is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Config(max_ngram=0)
        with pytest.raises(ValueError):
            Config(max_total_paths=-1)


def _write_story_dump(tmp_path) -> str:
    path = tmp_path / "dump.tsv"
    path.write_bytes(story_dump_bytes())
    return str(path)


class TestCli:
    def test_build_index_then_extract(self, tmp_path, capsys):
        dump = _write_story_dump(tmp_path)
        index = str(tmp_path / "graph.idx")
        assert main(["build-index", dump, "-o", index]) == 0
        err = capsys.readouterr().err
        assert "kept=9" in err

        graph, stats = load_index(index)
        assert stats is not None
        assert graph.neighbors(graph.concept_id("lady"))

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"id": "q1", "context": STORY_CONTEXT, "query": STORY_QUERY}) + "\n"
        )
        out = tmp_path / "out.jsonl"
        code = main(
            ["extract", "--graph", index, "--input", str(requests), "--output", str(out)]
        )
        assert code == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert record["id"] == "q1"
        assert record["error"] is None
        assert STORY_FULL_PATH in record["paths"]
        assert STORY_TRUNCATION in record["paths"]

    def test_empty_dump_is_data_error(self, tmp_path, capsys):
        dump = tmp_path / "empty.tsv"
        dump.write_text("")
        code = main(["build-index", str(dump), "-o", str(tmp_path / "x.idx")])
        assert code == 2
        assert "no edges" in capsys.readouterr().err

    def test_rebuild_is_byte_identical(self, tmp_path):
        dump = _write_story_dump(tmp_path)
        a = tmp_path / "a.idx"
        b = tmp_path / "b.idx"
        assert main(["build-index", dump, "-o", str(a)]) == 0
        assert main(["build-index", dump, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_code(self, capsys):
        assert main(["extract", "--nonsense"]) == 1
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize(
        "bad",
        [{"max_ngram": "4"}, {"seed": True}, {"max_total_paths": 2.5}, {"lang": 7}, {"max_ngram": 0}, [1]],
    )
    def test_bad_config_is_usage_error(self, tmp_path, story_index, capsys, bad):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bad))
        requests = tmp_path / "r.jsonl"
        requests.write_text(json.dumps({"context": STORY_CONTEXT, "query": STORY_QUERY}) + "\n")
        code = main(
            ["extract", "--graph", story_index, "--input", str(requests), "--output", "-",
             "--config", str(config)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: invalid config:")
        assert len(err.strip().splitlines()) == 1

    def test_corrupt_index_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"PMKGgarbagegarbagegarbage")
        requests = tmp_path / "r.jsonl"
        requests.write_text(json.dumps({"context": "x", "query": "y"}) + "\n")
        code = main(
            ["extract", "--graph", str(bad), "--input", str(requests), "--output", "-"]
        )
        assert code == 2

    def test_malformed_request_line_keeps_batch_alive(self, tmp_path, story_index):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"id": "one", "context": STORY_CONTEXT, "query": STORY_QUERY})
            + "\nnot json at all\n"
            + json.dumps({"id": "two", "context": STORY_CONTEXT, "query": "church lady"})
            + "\n"
        )
        out = tmp_path / "out.jsonl"
        code = main(
            ["extract", "--graph", story_index, "--input", str(requests), "--output", str(out)]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        assert records[0]["error"] is None
        assert records[1]["error"] is not None
        assert records[2]["error"] is None

    def test_stdout_output(self, tmp_path, story_index, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"context": STORY_CONTEXT, "query": STORY_QUERY}) + "\n")
        code = main(["extract", "--graph", story_index, "--input", str(requests), "--output", "-"])
        assert code == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert json.loads(line)["error"] is None


class TestExplain:
    def test_shows_drop_decision(self, tmp_path, capsys):
        # graph where book loses at the mother node
        lines = []
        for i, (s, r, e) in enumerate(
            [
                ("lady", "RelatedTo", "mother"),
                ("mother", "RelatedTo", "daughter"),
                ("mother", "RelatedTo", "married"),
                ("mother", "RelatedTo", "book"),
            ]
        ):
            lines.append(f"/a/{i}\t/r/{r}\t/c/en/{s}\t/c/en/{e}\t{{}}")
        dump = tmp_path / "dump.tsv"
        dump.write_text("\n".join(lines) + "\n")
        index = str(tmp_path / "g.idx")
        assert main(["build-index", str(dump), "-o", index]) == 0
        capsys.readouterr()
        context = (
            "the mother loved her daughter . the daughter was married . "
            "being married pleased the mother . a book sat unread"
        )
        code = main(["explain", "--graph", index, "--context", context, "--query", "the lady"])
        assert code == 0
        out = capsys.readouterr().out
        assert "book" in out and "[dropped]" in out
        book_line = next(line for line in out.splitlines() if "book" in line)
        assert "[dropped]" in book_line and "c=" in book_line

    def test_no_paths_notice(self, story_index, capsys):
        code = main(
            ["explain", "--graph", story_index, "--context", "unrelated text", "--query", "lady"]
        )
        assert code == 0
        assert "no paths" in capsys.readouterr().out

    def test_explain_scores_match_extractor(self, story_extractor):
        text = render_explanation(story_extractor, STORY_CONTEXT, STORY_QUERY)
        analyses = story_extractor.analyze(STORY_CONTEXT, STORY_QUERY)
        tree = analyses[0].tree
        scored = analyses[0].scored
        g = story_extractor.graph
        for node_idx in tree.level_indices(2):
            node = tree.node(int(node_idx))
            expected = f"n={scored.n_of(node):.6f}"
            line = next(
                ln
                for ln in text.splitlines()
                if ln.strip().startswith(g.surfaces[node.concept] + " ")
            )
            assert expected in line


class TestModuleEntry:
    def test_python_dash_m_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pathmine", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "build-index" in proc.stdout


class TestInputVariants:
    def test_gzipped_dump(self, tmp_path):
        import gzip

        dump = tmp_path / "dump.tsv.gz"
        with gzip.open(dump, "wb") as fh:
            fh.write(story_dump_bytes())
        index = str(tmp_path / "g.idx")
        assert main(["build-index", str(dump), "-o", index]) == 0
        graph, _ = load_index(index)
        assert graph.edge_count == 9

    def test_stopword_path_override(self, tmp_path):
        g, _ = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
        custom = tmp_path / "stop.txt"
        custom.write_text("lady\nthe\n")
        ex = Extractor(g, WalkStats.from_graph(g), Config(stopword_path=str(custom)))
        result = ex.extract(ExtractionRequest(context=STORY_CONTEXT, query="the lady"))
        assert result.paths == []  # the lone query concept is now stopworded
        assert result.stats["trees"] == 0
