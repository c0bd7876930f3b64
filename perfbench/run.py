"""pathmine benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload long-context --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``long-context``  one request at a time through ``Extractor.extract``:
  1000-token hub passages, one hub question concept each.
* ``short-batch``   JSONL batches of 32 short passages through ``run_batch``,
  timed at workers=1 and checked byte-identical at workers=2.
* ``build-index``   ``pathmine build-index`` through ``cli.main`` in a child
  process, then the result is loaded.

A run times only whole passes over a fixed, seeded list of inputs, checks
every output, and prints one JSON object as the last line of stdout.  It
exits 1 without timings when a check fails, and 2 when this checkout's
``pathmine`` cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from checkout import CACHE, CheckoutError, import_pathmine

WORKLOADS = ("long-context", "short-batch", "build-index")
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "index_mb": "MB",
}
TAIL_LADDER = (999, 990, 900, 750)  # per mille: p99.9, p99, p90, p75
TAIL_MIN_BEYOND = 10
OVERHEAD_PAIRS = 3
BATCH_SIZE = 32  # JSONL lines per run_batch call on short-batch
# short-batch times run_batch(workers=1); its output is checked against
# an untimed pass at workers=2 (nproc).  workers=2 throughput swings 0.5x-1x
# of workers=1 with the host's thread scheduling (see README.md).
BATCH_WORKERS = 1
CHECK_WORKERS = 2


def tail_latency(samples: list[float]) -> tuple[str, float]:
    """Highest ladder percentile with at least ten samples beyond it.

    Percentiles are nearest-rank.  With fewer than 40 samples no rung has
    ten beyond it; the lowest rung, p75, is reported then, as the one a
    single slow sample moves least.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = -(-q * n // 1000)  # integer ceiling, exact for every n
        if n - rank >= TAIL_MIN_BEYOND:
            break
    return f"p{q / 10:g}", ordered[rank - 1]


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop; shows host speed drift."""
    times = []
    for _ in range(5):
        t = perf_counter()
        x = 0
        for i in range(100_000):
            x += i
        times.append((perf_counter() - t) * 1e3)
    return statistics.median(times)


def sha256_lines(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def timed_passes(run_pass, seconds: float) -> list[tuple[float, object]]:
    """Whole passes, at least one, stopping before one would end past ``seconds``."""
    passes = []
    started = perf_counter()
    while True:
        t = perf_counter()
        out = run_pass(len(passes))
        took = perf_counter() - t
        passes.append((took, out))
        if perf_counter() - started + took > seconds:
            return passes


def setup(pm, index: Path, repeats: int, tracer=None):
    """Index file to an Extractor that served one tiny request, ``repeats`` times."""
    times, extractor = [], None
    for i in range(repeats):
        extractor = None
        gc.collect()  # one graph in memory at a time
        if tracer:
            tracer.unit = f"setup:{i}"
        t = perf_counter()
        graph, stats = pm.kg.load_index(str(index))
        if stats is None:
            stats = pm.kg.WalkStats.from_graph(graph)
        extractor = pm.pipeline.Extractor(graph, stats)
        extractor.extract(pm.pipeline.ExtractionRequest(context="w1 w2", query="w1"))
        times.append(perf_counter() - t)
    if tracer:
        tracer.unit = None
    return extractor, times


def overhead(tracer, hooks, run_unit) -> float:
    """Traced over untraced median time of one unit, minus 1, alternating order."""
    times = {True: [], False: []}
    for i in range(OVERHEAD_PAIRS):
        for traced in (True, False) if i % 2 == 0 else (False, True):
            if traced:
                tracer.install(hooks)
                tracer.unit = "overhead"
            try:
                t = perf_counter()
                run_unit()
                times[traced].append(perf_counter() - t)
            finally:
                tracer.restore()
    return statistics.median(times[True]) / statistics.median(times[False]) - 1


class Outcome:
    """What a run produced: latency samples, check results and metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.notes: list[str] = []

    def result(self) -> dict:
        correct = self.failed == 0 and not self.faults
        return {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics if correct else {},
        }


def end_to_end(setup_times, latencies, wall: float, rss_kb: int, index_bytes: int) -> tuple[dict, str]:
    """Every END_TO_END metric, and the tail rung used."""
    rung, tail = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "throughput_rps": len(latencies) / wall,
        "peak_rss_mb": rss_kb * 1024 / 1e6,
        "index_mb": index_bytes / 1e6,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, rung


def check_passes(out: Outcome, passes, reference, reqs, edges, need_paths: bool) -> str:
    """Count every timed request into attempted and failed; return the output sha256.

    A request fails when its reference result fails the output check or
    when a timed pass's output bytes differ from the reference's.
    """
    from checks import result_faults

    expected = [text for _, text in reference]
    faults = result_faults([res for res, _ in reference], reqs, edges, need_paths)
    differing = 0
    for _, (_, results) in passes:
        texts = [text for _, text in results]
        differ = {i for i in range(len(reqs)) if texts[i:i + 1] != expected[i:i + 1]}
        differing += len(differ)
        out.attempted += len(reqs)
        out.failed += len(set(faults) | differ)
    out.faults.extend(f"{reqs[i].id}: {why}" for i, why in sorted(faults.items())[:5])
    if differing:
        out.faults.append(f"{differing} timed outputs differ from the reference pass's bytes")
    return sha256_lines(expected)


def serve(workload: str, seed: int, seconds: float, trace: bool, scale, pm) -> Outcome:
    """long-context or short-batch: set up, time whole passes, check, report."""
    from inputs import ensure_dump, ensure_index, load_dump_edges, long_context_requests, short_requests

    out = Outcome()
    index = ensure_index(scale)
    edges = load_dump_edges(ensure_dump(scale), scale)
    if workload == "long-context":
        reqs = long_context_requests(scale, seed, edges)
        objs = [pm.pipeline.ExtractionRequest(context=r.context, query=r.query, id=r.id) for r in reqs]
        workers, overhead_unit = 1, 1

        def one_pass(workers, count=len(reqs)):
            latencies, results = [], []
            for i, request in enumerate(objs[:count]):
                t = perf_counter()
                res = extractor.extract(request, request_index=i)
                latencies.append(perf_counter() - t)
                results.append((res, res.to_json()))
            return latencies, results

    else:
        reqs = short_requests(scale, seed, scale.short_requests)
        lines = [r.line() for r in reqs]
        workers, overhead_unit = BATCH_WORKERS, BATCH_SIZE

        def one_pass(workers, count=len(reqs)):
            """Batches of BATCH_SIZE lines; a request's latency runs from its batch's call."""
            latencies, results = [], []
            for lo in range(0, count, BATCH_SIZE):
                t = perf_counter()
                for res in pm.pipeline.run_batch(extractor, lines[lo:min(lo + BATCH_SIZE, count)], workers):
                    latencies.append(perf_counter() - t)
                    results.append((res, res.to_json()))
            return latencies, results

    tracer = None
    if trace:
        from tracer import SERVE_HOOKS, Tracer

        tracer = Tracer()
        tracer.install(SERVE_HOOKS)

    def traced_pass(k):
        if tracer is not None:
            tracer.unit = f"pass:{k}"
        return one_pass(workers)

    try:
        extractor, setup_times = setup(pm, index, scale.setup_repeats, tracer)
        reference = None
        if workload == "short-batch":
            # ROADMAP's determinism contract: any worker count prints the same bytes
            if tracer is not None:
                tracer.unit = "check:0"
            reference = one_pass(CHECK_WORKERS)[1]
        ref_before = host_reference_ms()
        passes = timed_passes(traced_pass, seconds)
        ref_after = host_reference_ms()
        if tracer is not None:
            tracer.unit = None
    finally:
        if tracer is not None:
            tracer.restore()

    reference = reference or passes[0][1][1]
    digest = check_passes(out, passes, reference, reqs, edges, need_paths=workload == "long-context")
    with_paths = sum(1 for res, _ in reference if res.paths)
    if not with_paths:
        out.faults.append("no request produced a path")
    latencies = [x for _, (lat, _) in passes for x in lat]
    wall = sum(took for took, _ in passes)
    out.notes.append(
        f"{workload} seed={seed}: {len(passes)} passes of {len(reqs)} requests (workers={workers}) "
        f"in {wall:.2f} s; {with_paths} requests with paths; output sha256 {digest}; "
        f"host reference loop {ref_before:.2f} ms before, {ref_after:.2f} ms after"
    )
    if tracer is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.metrics, rung = end_to_end(setup_times, latencies, wall, rss_kb, index.stat().st_size)
        out.notes.append(f"tail rung {rung} of {len(latencies)} samples")
        return out

    from tracer import SERVE_HOOKS, CountMismatch, layer_metrics

    cost = overhead(tracer, SERVE_HOOKS, lambda: one_pass(workers, overhead_unit))
    tracer.write(CACHE / f"spans-{workload}.jsonl")
    try:
        out.metrics = layer_metrics(tracer.spans, cost)
    except CountMismatch as exc:
        out.faults.append(str(exc))
    return out


def _index_faults(graph, edges, pm) -> list[str]:
    """The built index holds exactly the dump's edges, mirror images folded."""
    faults = []
    if graph.node_count != edges.concepts:
        faults.append(f"index has {graph.node_count} concepts, dump names {edges.concepts}")
    number = np.asarray([int(s[1:]) for s in graph.surfaces], np.int64)
    rel = np.asarray([edges.relations.index(n) for n in graph.relation_names], np.int64)
    keys = edges.key(number[graph.edge_start], number[graph.edge_end], rel[graph.edge_rel])
    if not edges.contains(keys).all():
        faults.append("index holds edges that are not in the dump")
    n_rel = len(edges.relations)
    r = edges.keys % n_rel
    start, end = divmod(edges.keys // n_rel, edges.bound)
    symmetric = np.isin(np.asarray(edges.relations)[r], list(pm.kg.SYMMETRIC_RELATIONS))
    folded = np.unique((np.minimum(start, end) * edges.bound + np.maximum(start, end))[symmetric] * n_rel
                       + r[symmetric])
    expected = int((~symmetric).sum()) + folded.size
    if graph.edge_count != expected:
        faults.append(f"index has {graph.edge_count} edges, the dump {expected}")
    return faults


def build_index(seed: int, seconds: float, trace: bool, scale, pm) -> Outcome:
    from checks import result_faults
    from inputs import ensure_dump, load_dump_edges, run_child, short_requests

    out = Outcome()
    dump_dir = ensure_dump(scale)
    edges = load_dump_edges(dump_dir, scale)
    work = CACHE / f"tmp-{os.getpid()}-build"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    try:
        builds = []  # (seconds, report, sha256 of the index)

        def one_build(k, spans=None):
            target = work / f"graph{k}.idx"
            args = ["build", str(dump_dir / "dump.tsv"), str(target)] + ([str(spans)] if spans else [])
            t = perf_counter()
            report = run_child(*args)
            took = perf_counter() - t
            digest = hashlib.sha256(target.read_bytes()).hexdigest() if report["exit"] == 0 else None
            builds.append((took, report, digest))
            return target

        ref_before = host_reference_ms()
        if trace:
            # one traced and one untraced build, the seed picks which goes first
            traced_first = seed % 2 == 0
            spans = work / "spans.jsonl"
            index = one_build(0, spans if traced_first else None)
            index = one_build(1, None if traced_first else spans)
            traced, plain = (builds[0], builds[1]) if traced_first else (builds[1], builds[0])
            cost = traced[0] / plain[0] - 1
        else:
            index = timed_passes(one_build, seconds)[-1][1]
        ref_after = host_reference_ms()

        out.attempted = len(builds)
        digests = {d for _, _, d in builds}
        if None in digests:
            out.faults.append("build-index exited with an error")
        elif len(digests) != 1:
            out.faults.append("repeated builds wrote different index bytes")

        if trace:
            from tracer import SERVE_HOOKS, Tracer

            tracer = Tracer()
            tracer.add_spans(spans, "build:0")
            tracer.install(SERVE_HOOKS)
        try:
            extractor, setup_times = setup(pm, index, scale.setup_repeats, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        out.faults.extend(_index_faults(extractor.graph, edges, pm))
        reqs = short_requests(scale, seed, scale.check_requests)
        results = [extractor.extract(pm.pipeline.ExtractionRequest(context=r.context, query=r.query, id=r.id))
                   for r in reqs]
        out.faults.extend(result_faults(results, reqs, edges, need_paths=False).values())
        out.failed = out.attempted if out.faults else 0
        index_bytes = index.stat().st_size
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = [took for took, _, _ in builds]
    out.notes.append(
        f"build-index seed={seed}: {len(builds)} builds, "
        + ", ".join(f"{t:.2f} s" for t in times)
        + f"; index sha256 {builds[0][2]}; host reference loop {ref_before:.2f} ms before, "
        f"{ref_after:.2f} ms after"
    )
    if tracer is not None:
        from tracer import CountMismatch, layer_metrics

        tracer.write(CACHE / "spans-build-index.jsonl")
        try:
            out.metrics = layer_metrics(tracer.spans, cost)
        except CountMismatch as exc:
            out.faults.append(str(exc))
        return out
    rss_kb = max(report["peak_rss_kb"] for _, report, _ in builds)
    out.metrics, rung = end_to_end(setup_times, times, sum(times), rss_kb, index_bytes)
    out.notes.append(f"tail rung {rung} of {len(times)} samples")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, scale) -> Outcome:
    pm = import_pathmine()
    if workload == "build-index":
        return build_index(seed, seconds, trace, scale, pm)
    return serve(workload, seed, seconds, trace, scale, pm)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from inputs import CRITERION7

    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), CRITERION7)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for note in out.notes:
        print(f"perfbench: {note}")
    for fault in out.faults:
        print(f"perfbench: check failed: {fault}", file=sys.stderr)
    result = out.result()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
