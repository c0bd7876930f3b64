"""Batch pipeline behavior and the command-line surface."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import types
import weakref
from contextlib import redirect_stderr
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathmine import (
    Config,
    ExtractionRequest,
    Extractor,
    PathmineError,
    WalkStats,
    ingest_csv,
    load_index,
    run_batch,
    save_index,
)
from pathmine import cli, pipeline
from pathmine.cli import main, render_explanation

from conftest import (
    STORY_CONTEXT,
    STORY_FULL_PATH,
    STORY_QUERY,
    STORY_TRUNCATION,
    level_indices,
    random_multigraph,
    random_triples,
    regrown,
    story_dump_bytes,
    traced_peak,
    write_defective_index,
)


@pytest.fixture()
def story_index(tmp_path):
    g, _ = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
    stats = WalkStats.from_graph(g)
    path = str(tmp_path / "story.idx")
    save_index(g, path, stats)
    return path


@pytest.fixture(scope="module")
def shared_story_index(tmp_path_factory):
    """The story index and a request file, for tests that run many extractions."""
    root = tmp_path_factory.mktemp("shared")
    g, _ = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
    save_index(g, str(root / "story.idx"), WalkStats.from_graph(g))
    (root / "r.jsonl").write_text(json.dumps({"context": STORY_CONTEXT, "query": STORY_QUERY}) + "\n")
    return root


@pytest.fixture()
def story_extractor():
    g, _ = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
    return Extractor(g, WalkStats.from_graph(g))


def _reachable(root) -> set[int]:
    """The ids of the objects reachable from ``root`` by ``gc.get_referents``
    and array bases; classes, modules and functions are not entered, as
    their globals reach every module."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
        if isinstance(obj, np.ndarray) and obj.base is not None:
            stack.append(obj.base)
    return seen


class TestExtractor:
    def test_story_pair_produces_expected_paths(self, story_extractor):
        result = story_extractor.extract(
            ExtractionRequest(context=STORY_CONTEXT, query=STORY_QUERY)
        )
        assert result.error is None
        assert STORY_FULL_PATH in result.paths
        assert STORY_TRUNCATION in result.paths

    def test_scored_forest_holds_no_request_state(self, story_extractor):
        # once analyze returns, the scored forest reaches neither the
        # pair's graph-sized context counts nor the graph: a forest keeps
        # its arrays, and re-growth is handed what it reads
        pair = story_extractor.ground(STORY_CONTEXT, STORY_QUERY)
        scored, selections = story_extractor.analyze(pair)
        assert (scored.tree.levels == 4).any() and scored.tree.level5.count.any()
        assert selections[0].full_paths
        reachable = _reachable(scored)
        assert id(scored.tree.level5.count) in reachable  # the walk enters the forest's arrays
        assert id(pair.context_counts) not in reachable
        assert id(story_extractor.graph) not in reachable

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

    def test_grounding_calls_pipeline_names(self, story_extractor, monkeypatch):
        # perfbench/tracer.py times grounding by wrapping these two names in
        # pathmine.pipeline; a call that bypasses them escapes the trace
        calls = {"tokenize": 0, "extract_concepts": 0}

        def counting(name):
            wrapped = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(pipeline, name, counting(name))
        pairs = [(STORY_CONTEXT, STORY_QUERY), ("unrelated text", "lady"), ("...", "lady")]
        for i, (context, query) in enumerate(pairs):
            story_extractor.extract(ExtractionRequest(context=context, query=query), request_index=i)
            assert calls == {"tokenize": 2 * (i + 1), "extract_concepts": 2 * (i + 1)}

    def test_batch_error_line_continues(self, story_extractor):
        lines = [
            json.dumps({"id": "a", "context": STORY_CONTEXT, "query": STORY_QUERY}),
            "{broken json",
            "[" * 100_000,  # deeper than the JSON parser recurses
            json.dumps({"id": "c", "context": STORY_CONTEXT, "query": "church"}),
        ]
        results = list(run_batch(story_extractor, lines))
        assert [r.id for r in results] == ["a", None, None, "c"]
        assert all(r.error.startswith("bad request: ") for r in results[1:3])
        assert results[0].error is None and results[3].error is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_request_gets_an_error_line(self, story_extractor, monkeypatch, workers):
        # a request whose tree cannot be built answers with an error line,
        # and every other line keeps the bytes of a run without the failure
        queries = ("lady", "mother", "church", "person", "house")
        lines = [json.dumps({"id": q, "context": STORY_CONTEXT, "query": q}) for q in queries]
        want = [r.to_json() for r in run_batch(story_extractor, lines, workers=workers)]
        church, build_tree = story_extractor.graph.surface_to_id.get("church"), pipeline.build_tree

        def failing(roots, *args):
            if list(roots) == [church]:
                raise RuntimeError("no tree today")
            return build_tree(roots, *args)

        monkeypatch.setattr(pipeline, "build_tree", failing)
        got = [r.to_json() for r in run_batch(story_extractor, lines, workers=workers)]
        assert got[2] == '{"id":"church","paths":[],"stats":{},"error":"RuntimeError: no tree today"}'
        assert got[:2] + got[3:] == want[:2] + want[3:]
        assert all(json.loads(line)["error"] is None for line in want) and '"paths":[]' not in want[0]

    @pytest.mark.parametrize(
        "fields",
        [
            {"context": None, "query": STORY_QUERY},
            {"context": STORY_CONTEXT, "query": ["lady"]},
            {"context": STORY_CONTEXT, "query": STORY_QUERY, "id": {"x": [1]}},
            {"context": STORY_CONTEXT, "query": STORY_QUERY, "id": 7},
            # JSON escapes of lone surrogates, which no UTF-8 output can hold
            {"context": STORY_CONTEXT, "query": STORY_QUERY, "id": "\ud800"},
            {"context": "\udfff", "query": STORY_QUERY},
        ],
    )
    def test_non_string_request_field_is_a_bad_request(self, story_extractor, fields):
        line = json.dumps(fields)
        ok = json.dumps({"id": "ok", "context": STORY_CONTEXT, "query": STORY_QUERY})
        bad, good = run_batch(story_extractor, [line, ok])
        assert bad.id is None and bad.paths == []
        assert bad.error.startswith("bad request: ")
        assert good.error is None and good.paths

    def test_multi_megabyte_lines_stay_bounded(self, story_extractor):
        # every token of a request is a Python string (about 50 bytes each);
        # nothing else may grow faster than the line
        words = ["lady", "church", "house", "child", "mother", "person"] + ["understanding"] * 30
        context = " ".join(np.random.default_rng(5).choice(words, size=200_000))
        valid = json.dumps({"id": "big", "context": context, "query": STORY_QUERY})
        malformed = valid[:-1]  # the closing brace is missing
        assert len(valid) > 2_000_000
        (good, bad), peak = traced_peak(lambda: list(run_batch(story_extractor, [valid, malformed])))
        assert good.error is None and good.paths and good.stats["full_paths"] > 0
        assert bad.error.startswith("bad request:") and not bad.paths
        assert peak < 10 * len(valid)

    def test_worker_counts_agree_byte_for_byte(self, story_extractor):
        lines = [
            json.dumps({"id": str(i), "context": STORY_CONTEXT, "query": STORY_QUERY})
            for i in range(30)
        ]
        serial = "\n".join(r.to_json() for r in run_batch(story_extractor, lines, workers=1))
        threaded = "\n".join(r.to_json() for r in run_batch(story_extractor, lines, workers=8))
        assert serial == threaded

    def test_pool_never_outnumbers_cpus(self, story_extractor, monkeypatch):
        # each pool submit starts a thread while none is idle: uncapped,
        # eight held requests would run on eight threads
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        threads = set()
        extract = story_extractor.extract

        def held(request, request_index=0):
            threads.add(threading.get_ident())
            time.sleep(0.02)
            return extract(request, request_index)

        monkeypatch.setattr(story_extractor, "extract", held)
        line = json.dumps({"context": STORY_CONTEXT, "query": STORY_QUERY})
        results = list(run_batch(story_extractor, [line] * 8, workers=8))
        assert len(results) == 8 and all(r.paths for r in results)
        assert 1 <= len(threads) <= 2

    def test_pool_streams_its_input(self, story_extractor, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        read = []

        def lines():
            for i in range(50):
                read.append(i)
                yield json.dumps({"id": str(i), "context": STORY_CONTEXT, "query": STORY_QUERY})

        results = run_batch(story_extractor, lines(), workers=2)
        assert next(results).id == "0" and len(read) <= 4  # two a worker
        assert [r.id for r in results] == [str(i) for i in range(1, 50)] and len(read) == 50

    def test_one_worker_streams_its_input(self, story_extractor):
        read = []

        def lines():
            for i in range(3):
                read.append(i)
                yield json.dumps({"id": str(i), "context": STORY_CONTEXT, "query": STORY_QUERY})

        results = run_batch(story_extractor, lines(), workers=1)
        assert next(results).id == "0" and read == [0]
        assert [r.id for r in results] == ["1", "2"] and read == [0, 1, 2]

    def test_packaged_stopwords_read_once(self, story_extractor, monkeypatch):
        files, reads = resources.files, []
        monkeypatch.setattr(resources, "files", lambda package: reads.append(package) or files(package))
        g = story_extractor.graph
        for _ in range(2):
            Config()
            pair = pipeline.ground_pair("the lady and the church", "the lady", g)
            assert pair.query_concepts == [g.surface_to_id.get("lady")]  # "the" is a stopword
        assert len(reads) <= 1  # none once an earlier call has read it


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
        with pytest.raises(ValueError):
            Config(seed=-1)
        with pytest.raises(ValueError):
            Config(lang="")
        # cap + 4 must fit in int64; 2**62 already keeps every child
        with pytest.raises(ValueError):
            Config(max_children_per_node=2**63)
        assert Config(max_children_per_node=2**62).build.max_children_per_node == 2**62

    _values = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 6),
        st.integers(2**62, 2**70),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=4),
        st.lists(st.integers(0, 3), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    )
    _files = st.one_of(
        st.dictionaries(
            st.sampled_from(["max_ngram", "max_children_per_node", "max_total_paths", "seed"]),
            st.integers(2, 6),
            max_size=4,
        ),
        st.dictionaries(
            st.sampled_from([*Config.__dataclass_fields__, "bogus", "Seed", ""]), _values, max_size=4
        ),
        _values,
    )

    @settings(max_examples=150, deadline=None)
    @given(data=_files, seed=st.one_of(st.none(), st.integers(-2, 2**65)),
           max_total_paths=st.one_of(st.none(), st.integers(-2, 5)))
    @example(data={"max_children_per_node": 2**62}, seed=None, max_total_paths=None)
    @example(data={"max_children_per_node": 2**63}, seed=None, max_total_paths=None)
    def test_random_config_files_through_cli(self, shared_story_index, data, seed, max_total_paths):
        config_path = shared_story_index / "config.json"
        config_path.write_text(json.dumps(data))
        flags = {"seed": seed, "max_total_paths": max_total_paths}
        argv = ["extract", "--graph", str(shared_story_index / "story.idx"),
                "--input", str(shared_story_index / "r.jsonl"),
                "--output", str(shared_story_index / "out.jsonl"), "--config", str(config_path)]
        for name, value in flags.items():
            if value is not None:
                argv += [f"--{name.replace('_', '-')}", str(value)]
        used: list[Config] = []

        def recording_extractor(graph, stats, config):
            used.append(config)
            return Extractor(graph, stats, config)

        err = io.StringIO()
        with mock.patch.object(cli, "Extractor", recording_extractor), redirect_stderr(err):
            code = main(argv)

        # a given flag wins over the file's value, an absent flag keeps it
        try:
            if not isinstance(data, dict) or set(data) - set(Config.__dataclass_fields__):
                raise ValueError("not a config object")
            expected = Config(**{**data, **{k: v for k, v in flags.items() if v is not None}})
        except ValueError:
            expected = None
        if expected is None:
            assert code == 1 and used == []
            assert err.getvalue().startswith("usage error: invalid config:")
            assert len(err.getvalue().strip().splitlines()) == 1
        else:
            assert code == 0, err.getvalue()
            assert used == [expected]
            lines = (shared_story_index / "out.jsonl").read_text().splitlines()
            assert lines and all(json.loads(line)["error"] is None for line in lines)


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
        assert graph.degrees[graph.surface_to_id.get("lady")]

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

    def test_missing_input_leaves_output_untouched(self, story_index, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        out.write_text("earlier results\n")
        missing = str(tmp_path / "missing.jsonl")
        code = main(["extract", "--graph", story_index, "--input", missing, "--output", str(out)])
        assert code == 2 and "missing.jsonl" in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"

    def test_output_over_its_own_input_is_usage_error(self, story_index, tmp_path, capsys):
        # requests stream from the input, so writing over it would lose them
        requests = tmp_path / "requests.jsonl"
        text = json.dumps({"context": STORY_CONTEXT, "query": STORY_QUERY}) + "\n"
        requests.write_text(text)
        code = main(["extract", "--graph", story_index, "--input", str(requests), "--output", str(requests)])
        assert code == 1 and "--input file" in capsys.readouterr().err
        assert requests.read_text() == text

    def test_output_over_the_graph_is_usage_error(self, story_index, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"context": STORY_CONTEXT, "query": STORY_QUERY}) + "\n")
        index = Path(story_index).read_bytes()
        code = main(["extract", "--graph", story_index, "--input", str(requests), "--output", story_index])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("usage error: ") and err.count("\n") == 1 and "--graph" in err
        assert Path(story_index).read_bytes() == index

    @pytest.mark.parametrize("named", ["--config", "stopword_path"])
    def test_extract_over_its_config_is_usage_error(self, story_index, tmp_path, capsys, named):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"context": STORY_CONTEXT, "query": STORY_QUERY}) + "\n")
        stop, config = tmp_path / "stop.txt", tmp_path / "config.json"
        stop.write_text("the\n")
        config.write_text(json.dumps({"seed": 3, "stopword_path": str(stop)}))
        target = config if named == "--config" else stop
        before = target.read_bytes()
        argv = ["extract", "--graph", story_index, "--input", str(requests), "--output", str(target)]
        code = main(argv + ["--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("usage error: ") and err.count("\n") == 1 and named in err
        assert target.read_bytes() == before

    def test_build_index_over_its_config_is_usage_error(self, tmp_path, capsys):
        dump, config = _write_story_dump(tmp_path), tmp_path / "config.json"
        config.write_text('{"lang": "en"}')
        code = main(["build-index", dump, "-o", str(config), "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("usage error: ") and err.count("\n") == 1 and "--config" in err
        assert config.read_text() == '{"lang": "en"}'

    def test_zero_workers_is_usage_error(self, story_index, tmp_path, capsys):
        requests, out = tmp_path / "requests.jsonl", tmp_path / "out.jsonl"
        requests.write_text(json.dumps({"context": STORY_CONTEXT, "query": STORY_QUERY}) + "\n")
        code = main(["extract", "--graph", story_index, "--input", str(requests), "--output", str(out),
                     "--workers", "0"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("usage error: ") and err.count("\n") == 1 and "workers" in err
        assert not out.exists()

    def test_build_index_over_its_dump_is_usage_error(self, tmp_path, capsys):
        dump = _write_story_dump(tmp_path)
        code = main(["build-index", dump, "-o", dump])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("usage error: ") and err.count("\n") == 1 and "DUMP" in err
        assert Path(dump).read_bytes() == story_dump_bytes()

    def test_empty_dump_is_data_error(self, tmp_path, capsys):
        dump = tmp_path / "empty.tsv"
        dump.write_text("")
        code = main(["build-index", str(dump), "-o", str(tmp_path / "x.idx")])
        assert code == 2
        assert "no edges" in capsys.readouterr().err

    def test_null_weight_is_counted_malformed(self, tmp_path, capsys):
        # the metadata is not read, so a null weight is an edge like any other
        dump = tmp_path / "dump.tsv"
        dump.write_bytes(story_dump_bytes() + b'/a/x\t/r/IsA\t/c/en/lady\t/c/en/person\t{"weight": null}\n')
        assert main(["build-index", str(dump), "-o", str(tmp_path / "g.idx")]) == 0
        err = capsys.readouterr().err
        assert "kept=10 malformed=0" in err and "Traceback" not in err
        g, _ = load_index(str(tmp_path / "g.idx"))
        rels = g.edges_between(g.surface_to_id.get("lady"), g.surface_to_id.get("person"))
        assert "IsA" in [g.relation_names[r] for r in rels]

    def test_rebuild_is_byte_identical(self, tmp_path):
        dump = _write_story_dump(tmp_path)
        a = tmp_path / "a.idx"
        b = tmp_path / "b.idx"
        assert main(["build-index", dump, "-o", str(a)]) == 0
        assert main(["build-index", dump, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_lang_is_usage_error(self, tmp_path, capsys):
        dump = _write_story_dump(tmp_path)
        assert main(["build-index", dump, "-o", str(tmp_path / "x.idx"), "--lang", ""]) == 1
        assert capsys.readouterr().err.startswith("usage error: invalid config:")
        assert not (tmp_path / "x.idx").exists()

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

    @pytest.mark.parametrize("command", ["extract", "explain"])
    @pytest.mark.parametrize(
        "config_text",
        ["[" * 100_000, '{"stopword_path": "DIR/missing.txt"}', '{"stopword_path": "DIR/latin1.txt"}'],
        ids=["nested", "missing_stopwords", "latin1_stopwords"],
    )
    def test_unusable_config_file_is_usage_error(self, tmp_path, story_index, capsys, command, config_text):
        (tmp_path / "latin1.txt").write_bytes(b"caf\xe9\n")
        config = tmp_path / "config.json"
        config.write_text(config_text.replace("DIR", tmp_path.as_posix()))
        requests = tmp_path / "r.jsonl"
        requests.write_text(json.dumps({"context": STORY_CONTEXT, "query": STORY_QUERY}) + "\n")
        io_args = (["--input", str(requests), "--output", "-"] if command == "extract"
                   else ["--context", STORY_CONTEXT, "--query", STORY_QUERY])
        code = main([command, "--graph", story_index, *io_args, "--config", str(config)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: invalid config:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_corrupt_index_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"PMKGgarbagegarbagegarbage")
        requests = tmp_path / "r.jsonl"
        requests.write_text(json.dumps({"context": "x", "query": "y"}) + "\n")
        code = main(
            ["extract", "--graph", str(bad), "--input", str(requests), "--output", "-"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "defect",
        ["start", "end", "relation", "stat_nodes", "stat_short", "stat_len3_zero", "stat_len4_zero",
         "stat_len4_huge", "stat_missing", "conc_duplicate", "conc_undecodable", "meta_undecodable",
         "format_1", "format_2", "format_3", "below_diagonal", "rows_sum", "erel_width", "flip_length"],
    )
    def test_out_of_range_index_is_data_error(self, tmp_path, capsys, defect):
        bad = str(tmp_path / "bad.idx")
        write_defective_index(bad, defect)
        requests = tmp_path / "r.jsonl"
        requests.write_text(json.dumps({"context": STORY_CONTEXT, "query": STORY_QUERY}) + "\n")
        code = main(["extract", "--graph", bad, "--input", str(requests), "--output", "-"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_malformed_request_line_keeps_batch_alive(self, tmp_path, story_index):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"id": "one", "context": STORY_CONTEXT, "query": STORY_QUERY})
            + "\nnot json at all\n"
            + "[" * 100_000
            + "\n"
            + '{"id": "\\ud800", "context": "x", "query": "y"}\n'  # a surrogate no UTF-8 output holds
            + json.dumps({"id": "two", "context": STORY_CONTEXT, "query": "church lady"})
            + "\n"
        )
        out = tmp_path / "out.jsonl"
        code = main(
            ["extract", "--graph", story_index, "--input", str(requests), "--output", str(out)]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 5
        assert records[0]["error"] is None
        assert records[1]["error"] is not None
        assert records[2]["error"].startswith("bad request: ")
        assert records[3]["error"].startswith("bad request: ")
        assert records[4]["id"] == "two" and records[4]["error"] is None

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_undecodable_request_line_is_a_bad_request(
        self, tmp_path, story_index, capsys, monkeypatch, source
    ):
        good = json.dumps({"id": "one", "context": STORY_CONTEXT, "query": STORY_QUERY}).encode()
        last = json.dumps({"id": "two", "context": STORY_CONTEXT, "query": "church lady"}).encode()

        def extract(middle: bytes) -> list[str]:
            data = good + b"\n\n" + middle + b"\r\n" + last + b"\n"
            if source == "stdin":
                monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
                path = "-"
            else:
                path = tmp_path / "requests.jsonl"
                path.write_bytes(data)
            code = main(["extract", "--graph", story_index, "--input", str(path), "--output", "-"])
            assert code == 0
            return capsys.readouterr().out.splitlines()

        bad = extract(b'{"id": "x", "context": "caf\xff", "query": "lady"}')
        assert len(bad) == 3
        assert json.loads(bad[1])["error"].startswith("bad request: ")
        # the other lines keep their request index, so their bytes are unchanged
        reference = extract(b'{"id": "x", "context": "cafe", "query": "lady"}')
        assert bad[0] == reference[0] and bad[2] == reference[2]
        assert json.loads(bad[2])["id"] == "two" and json.loads(bad[2])["error"] is None

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

    @pytest.mark.parametrize("blank", ["context", "query"])
    def test_blank_field_is_usage_error(self, story_index, capsys, blank):
        fields = {"context": STORY_CONTEXT, "query": "lady", blank: "   "}
        code = main(["explain", "--graph", story_index, "--context", fields["context"],
                     "--query", fields["query"]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: context and query must be non-empty\n"

    def test_context_without_tokens_is_named(self, story_index, capsys):
        code = main(["explain", "--graph", story_index, "--context", "...", "--query", "lady"])
        assert code == 0
        assert capsys.readouterr().out == "context has no tokens; no paths\n"

    def test_query_without_concepts_is_named(self, story_index, capsys):
        code = main(["explain", "--graph", story_index, "--context", STORY_CONTEXT, "--query", "zwrk"])
        assert code == 0
        assert capsys.readouterr().out == "no query concepts grounded; no paths\n"

    def test_explain_scores_match_extractor(self, story_extractor):
        text = render_explanation(story_extractor, STORY_CONTEXT, STORY_QUERY)
        scored, _ = story_extractor.analyze(story_extractor.ground(STORY_CONTEXT, STORY_QUERY))
        tree = scored.tree
        g = story_extractor.graph
        for node_idx in level_indices(tree, 2):
            expected = f"n={scored.n_score[node_idx]:.6f}"
            line = next(
                ln
                for ln in text.splitlines()
                if ln.strip().startswith(g.surfaces[tree.concepts[node_idx]] + " ")
            )
            assert expected in line

    def test_kept_marks_match_selected_paths(self):
        rng = np.random.default_rng(71)
        trees = boundary_ties = forests = 0
        for _ in range(40):
            g = random_multigraph(rng, max_nodes=12, max_edges=40)
            try:
                stats = WalkStats.from_graph(g)
            except PathmineError:
                continue
            extractor = Extractor(g, stats, Config(max_children_per_node=int(rng.integers(2, 4))))
            # every concept mentioned once: sibling leaves tie exactly
            context = " ".join(rng.permutation(g.surfaces))
            query = " ".join(g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=2))
            text = render_explanation(extractor, context, query)
            marks = [
                (line.split()[0], line.endswith("[kept]"))
                for line in text.splitlines()
                if line.endswith(("[kept]", "[dropped]"))
            ]
            expected = []
            pair = extractor.ground(context, query)
            scored, selections = extractor.analyze(pair) or (None, [])
            forests += len(selections) > 1
            for root, selection in enumerate(selections):
                # level 5 re-grown as nodes, with the scores its summary gives them
                tree, regrown_scored = regrown(scored.tree, pair, g, extractor.config.build, scored)
                c_score = regrown_scored.c_score
                on_paths = set()
                for path in selection.full_paths:
                    idx = root
                    for concept in path.concepts[1:]:
                        children = range(tree.child_start[idx], tree.child_end[idx])
                        idx = next(i for i in children if tree.concepts[i] == concept)
                        on_paths.add(idx)
                # explain lists each tree's nodes depth-first, siblings in index order
                stack = [root]
                while stack:
                    idx = stack.pop()
                    if idx != root:
                        expected.append((g.surfaces[tree.concepts[idx]], idx in on_paths))
                    stack.extend(reversed(range(tree.child_start[idx], tree.child_end[idx])))
                for idx in on_paths | {root}:
                    ranked = sorted(c_score[tree.child_start[idx] : tree.child_end[idx]], reverse=True)
                    boundary_ties += len(ranked) > 2 and ranked[1] == ranked[2]
                trees += 1
            assert marks == expected
        assert trees > 20 and boundary_ties > 0 and forests > 5

    def test_random_forest_text_is_pinned(self):
        # the JSONL holds no scores: this digest pins every printed raw,
        # normalized and cumulative score and every keep/drop mark on
        # seeded forests of two query concepts under binding caps
        digest = hashlib.sha256()
        level5_lines = capped = 0
        for extractor, context, query in _random_forest_requests():
            text = render_explanation(extractor, context, query)
            digest.update(text.encode("utf-8") + b"\0")
            level5_lines += sum(ln[:8] == " " * 8 and ln[8] != " " for ln in text.splitlines())
            uncapped = Extractor(extractor.graph, extractor.stats, Config(max_children_per_node=2**62))
            pair = extractor.ground(context, query)
            if extractor.analyze(pair) is not None:
                sizes = [regrown(ex.analyze(pair)[0].tree, pair, ex.graph, ex.config.build).node_count
                         for ex in (extractor, uncapped)]
                capped += sizes[0] < sizes[1]
        assert level5_lines > 5000 and capped > 30, (level5_lines, capped)
        assert digest.hexdigest() == RANDOM_FOREST_EXPLANATION_SHA256

    def test_story_pair_text(self, story_extractor):
        assert render_explanation(story_extractor, STORY_CONTEXT, STORY_QUERY) == STORY_EXPLANATION

    @pytest.mark.parametrize("query", [STORY_QUERY, "zwrk"], ids=["grounds", "grounds_nothing"])
    def test_pair_grounded_once(self, story_extractor, monkeypatch, query):
        calls = []
        ground = story_extractor.ground

        def counting(context, query):
            calls.append(query)
            return ground(context, query)

        monkeypatch.setattr(story_extractor, "ground", counting)
        render_explanation(story_extractor, STORY_CONTEXT, query)
        assert calls == [query]

    def test_tree_freed_without_cycle_collection(self, story_extractor, monkeypatch):
        # rendering must not park the tree in a reference cycle: with the
        # cycle collector off, the tree is freed when the call returns
        trees = []
        analyze = story_extractor.analyze

        def spy(pair):
            result = analyze(pair)
            trees.append(weakref.ref(result[0].tree))
            return result

        monkeypatch.setattr(story_extractor, "analyze", spy)
        gc.disable()
        try:
            render_explanation(story_extractor, STORY_CONTEXT, STORY_QUERY)
            assert trees and all(ref() is None for ref in trees)
        finally:
            gc.enable()


def _random_forest_requests():
    """Extractors, contexts and queries of seeded forests of two query
    concepts, each extractor under a cap of 2 to 5."""
    rng = np.random.default_rng(2020)
    for _ in range(100):
        g = random_multigraph(rng, max_nodes=15, max_edges=60)
        try:
            stats = WalkStats.from_graph(g)
        except PathmineError:
            continue
        cap = int(rng.integers(2, 6))
        context = " ".join(g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=30))
        query = " ".join(g.surfaces[int(i)] for i in rng.choice(g.node_count, size=2, replace=False))
        yield Extractor(g, stats, Config(max_children_per_node=cap)), context, query


def dispatch_corpus() -> bytes:
    """Output whose bytes must not depend on the CPU: the ``explain``
    texts of :func:`_random_forest_requests`, then one ``run_batch`` JSONL
    batch on a seeded graph."""
    texts = [render_explanation(*request) for request in _random_forest_requests()]
    rng = np.random.default_rng(2121)
    g = random_multigraph(rng, max_nodes=40, max_edges=240, connected=True)
    extractor = Extractor(g, WalkStats.from_graph(g), Config(max_children_per_node=3))
    lines = [
        json.dumps({
            "id": f"r{i}",
            "context": " ".join(g.surfaces[int(c)] for c in rng.integers(0, g.node_count, size=40)),
            "query": " ".join(g.surfaces[int(c)] for c in rng.integers(0, g.node_count, size=2)),
        })
        for i in range(30)
    ]
    texts += [result.to_json() for result in run_batch(extractor, lines)]
    return "\n".join(texts).encode("utf-8")


# sha256 of the texts of ``test_random_forest_text_is_pinned``, each ended by a NUL
RANDOM_FOREST_EXPLANATION_SHA256 = "5801ee33a44d24b9050a396d72a171c3a01725991f0d65048f7422c50c69bc58"

STORY_EXPLANATION = "\n".join(
    [
        "tree rooted at 'lady' (13 nodes)",
        "lady (root)",
        "  church via AtLocation raw=0.057143 n=0.336493 c=2.836493 [kept]",
        "    house via RelatedTo raw=0.057143 n=1.000000 c=2.500000 [kept]",
        "      child via RelatedTo raw=0.074791 n=1.000000 c=1.500000 [kept]",
        "        daughter via RelatedTo raw=0.028571 n=0.500000 c=0.500000 [kept]",
        "        their via RelatedTo raw=0.028571 n=0.500000 c=0.500000 [kept]",
        "  mother via RelatedTo raw=0.057143 n=0.336493 c=2.836493 [kept]",
        "    daughter via RelatedTo raw=0.028571 n=1.000000 c=2.500000 [kept]",
        "      child via RelatedTo raw=0.074791 n=1.000000 c=1.500000 [kept]",
        "        house via RelatedTo raw=0.057143 n=0.507142 c=0.507142 [kept]",
        "        their via RelatedTo raw=0.028571 n=0.492858 c=0.492858 [kept]",
        "  person via RelatedTo raw=0.028571 n=0.327015 c=1.327015 [dropped]",
        "    lover via RelatedTo raw=0.028571 n=1.000000 c=1.000000 [dropped]",
        "selected paths:",
        "  lady AtLocation church RelatedTo house RelatedTo child RelatedTo daughter",
        "  lady AtLocation church RelatedTo house RelatedTo child RelatedTo their",
        "  lady RelatedTo mother RelatedTo daughter RelatedTo child RelatedTo house",
        "  lady RelatedTo mother RelatedTo daughter RelatedTo child RelatedTo their",
        "  lady AtLocation church",
        "  lady AtLocation church RelatedTo house",
        "  lady AtLocation church RelatedTo house RelatedTo child",
        "  lady RelatedTo mother",
        "  lady RelatedTo mother RelatedTo daughter",
        "  lady RelatedTo mother RelatedTo daughter RelatedTo child",
    ]
)


# build-index and extract at one and two workers on each dump in tmp dir argv[1]
HASH_SEED_RUN = """
import sys
from pathmine.cli import main
root, seed = sys.argv[1:]
for name in ("story", "multiword"):
    index = f"{root}/{name}.{seed}.idx"
    assert main(["build-index", f"{root}/{name}.tsv", "-o", index]) == 0
    for workers in ("1", "2"):
        out = f"{root}/{name}.{seed}.w{workers}.jsonl"
        argv = ["--input", f"{root}/{name}.jsonl", "--output", out, "--workers", workers]
        assert main(["extract", "--graph", index, *argv]) == 0
"""


class TestHashSeed:
    def test_index_and_output_bytes_ignore_the_hash_seed(self, tmp_path):
        # every run draws a fresh PYTHONHASHSEED: bytes that followed the
        # order of a set or dict of strings would differ only sometimes
        rng = np.random.default_rng(808)
        plain, triples = random_triples(rng, max_nodes=30, max_edges=160)
        words = ["red", "apple", "pie", "big", "tree", "old", "house"]
        drawn = ("_".join(rng.choice(words, size=size)) for size in rng.integers(1, 5, size=400))
        label = dict(zip(plain, dict.fromkeys(drawn)))
        assert len(set(label.values())) == len(plain) and any("_" in s for s in label.values())
        dump = "".join(
            f"/a/[{i}]\t/r/{r}\t/c/en/{label[s]}\t/c/en/{label[e]}\t{{}}\n" for i, (s, r, e) in enumerate(triples)
        )
        requests = []
        for i in range(6):
            context = " ".join(label[plain[int(c)]].replace("_", " ") for c in rng.integers(0, len(plain), 40))
            query = " ".join(label[plain[int(c)]].replace("_", " ") for c in rng.integers(0, len(plain), 3))
            requests.append(json.dumps({"id": f"m{i}", "context": context, "query": query}))
        (tmp_path / "story.tsv").write_bytes(story_dump_bytes())
        (tmp_path / "story.jsonl").write_text(
            json.dumps({"context": STORY_CONTEXT, "query": STORY_QUERY}) + "\n"
            + json.dumps({"context": STORY_CONTEXT, "query": "the mother and the church"}) + "\n"
        )
        (tmp_path / "multiword.tsv").write_text(dump)
        (tmp_path / "multiword.jsonl").write_text("\n".join(requests) + "\n")
        for seed in ("0", "1"):
            subprocess.run(
                [sys.executable, "-c", HASH_SEED_RUN, str(tmp_path), seed],
                env={**os.environ, "PYTHONHASHSEED": seed}, check=True, capture_output=True,
            )
        for name in ("story", "multiword"):
            index = {(tmp_path / f"{name}.{seed}.idx").read_bytes() for seed in "01"}
            outputs = {(tmp_path / f"{name}.{seed}.w{w}.jsonl").read_bytes() for seed in "01" for w in "12"}
            assert len(index) == 1 and len(outputs) == 1, name
            results = [json.loads(line) for line in outputs.pop().splitlines()]
            assert sum(r["stats"]["full_paths"] for r in results) > 0, name


class TestCpuDispatch:
    def test_output_bytes_ignore_the_dispatch_group(self):
        # numpy picks the widest instruction group the CPU offers for each
        # of its loops, and ``np.exp`` may round otherwise in another; a
        # child with every available group but the narrowest turned off
        # must write the same bytes (or, where this process runs with
        # groups turned off already, a child with none turned off)
        umath = np._core._multiarray_umath
        groups = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
        env = dict(os.environ)
        if len(groups) >= 2:
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(groups[1:])
        elif not env.pop("NPY_DISABLE_CPU_FEATURES", ""):
            pytest.skip(f"one dispatch group available: {groups}")
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_pipeline_cli import dispatch_corpus\n"
            "sys.stdout.buffer.write(dispatch_corpus())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()[-2000:]
        here, there = dispatch_corpus().split(b"\n"), proc.stdout.split(b"\n")
        assert len(here) == len(there) and len(here) > 5000
        differ = [i for i, (a, b) in enumerate(zip(here, there)) if a != b]
        assert not differ, (len(differ), here[differ[0]], there[differ[0]])


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

    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    def test_damaged_gzipped_dump_is_data_error(self, tmp_path, capsys, damage):
        import gzip

        dump = b"".join(
            b"/a/%d\t/r/RelatedTo\t/c/en/w%d\t/c/en/w%d\t{}\n" % (i, i % 300, (i * 7 + 1) % 300)
            for i in range(5000)
        )
        blob = bytearray(gzip.compress(dump, mtime=0))
        if damage == "truncated":
            del blob[len(blob) // 2 :]
        else:
            blob[12] ^= 0xFF  # inside the first compressed block's header
        path = tmp_path / "dump.tsv.gz"
        path.write_bytes(blob)
        index = tmp_path / "g.idx"
        index.write_bytes(b"previous index")
        code = main(["build-index", str(path), "-o", str(index)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: dump unreadable after 0 lines") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert index.read_bytes() == b"previous index"

    def test_stopword_path_override(self, tmp_path):
        g, _ = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
        custom = tmp_path / "stop.txt"
        custom.write_text("lady\nthe\n")
        ex = Extractor(g, WalkStats.from_graph(g), Config(stopword_path=str(custom)))
        result = ex.extract(ExtractionRequest(context=STORY_CONTEXT, query="the lady"))
        assert result.paths == []  # the lone query concept is now stopworded
        assert result.stats["trees"] == 0
