"""Self-checks of the benchmark at smoke size (a tiny graph, seconds of load).

    python3 perfbench/selfcheck.py

Prints one PASS line per check and exits 1 at the first failure.  The
checks cover what the benchmark's numbers rest on: every metric of
BENCHMARK.json is emitted with its unit, the tail-ladder rule, self-time
arithmetic, exact counts across two traced runs of one seed, the output
check rejecting bad paths, the tracer restoring every hook and failing
loudly on a missing one, an untraced run never loading the tracer, the
cache key following src/, and the refusal to run without this
checkout's pathmine.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from checkout import BENCH_DIR, CACHE, ROOT, import_pathmine, tree_digest

import_pathmine()

import run  # noqa: E402
from checks import path_fault, result_faults  # noqa: E402
from inputs import SMOKE, Request, ensure_dump, load_dump_edges  # noqa: E402
from tracer import SERVE_HOOKS, BUILD_HOOKS, HookMissing, Hook, Span, Tracer, self_times  # noqa: E402

SEED = 1
SECONDS = 0.5


class CheckFailed(AssertionError):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_metrics_match_benchmark_json() -> str:
    spec = _benchmark_json()
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workloads differ")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            result = run.run(workload, SEED, SECONDS, trace, SMOKE).result()
            check(result["correct"], f"{workload} trace={trace} failed its output check")
            check(result["attempted"] >= 1 and result["failed"] == 0, f"{workload} counts {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if not trace:
                zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
                check(not zero, f"{workload}: end-to-end metrics {zero} are not positive")
    return "every BENCHMARK.json metric emitted with its unit, by every workload"


def check_tail_ladder() -> str:
    check(run.tail_latency([float(i) for i in range(1, 40)]) == ("p75", 30.0), "39 samples: p75 fallback")
    check(run.tail_latency([5.0]) == ("p75", 5.0), "one sample: itself")
    check(run.tail_latency([float(i) for i in range(1, 41)]) == ("p75", 30.0), "40 samples: p75")
    check(run.tail_latency([float(i) for i in range(1, 101)]) == ("p90", 90.0), "100 samples: p90")
    check(run.tail_latency([float(i) for i in range(1, 1001)]) == ("p99", 990.0), "1000: p99")
    check(run.tail_latency([float(i) for i in range(1, 10001)]) == ("p99.9", 9990.0), "10000: p99.9")
    return "tail ladder picks the highest rung with ten samples beyond it"


def check_self_times() -> str:
    def span(i, parent, start, end, done=None, begin=None):
        return Span(i, "x", parent, None, None, start if begin is None else begin, start, end,
                    end if done is None else done)

    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 3.0, 3.5, 0.5),  # bookkeeping around a call is no one's self time
        span(3, 1, 3.0, 6.0),  # overlaps its sibling's counting: counted once
        span(4, 3, 4.0, 5.0),
        span(5, 1, 9.0, 12.0),  # runs past its parent: clipped
    ]
    got = self_times(spans)
    want = {1: 10.0 - (6.0 - 0.5) - (10.0 - 9.0), 2: 2.0, 3: 2.0, 4: 1.0, 5: 3.0}
    check(all(abs(got[k] - v) < 1e-12 for k, v in want.items()), f"self times {got} != {want}")
    return "self time is duration minus the union of child spans and their bookkeeping"


def check_counts_repeat() -> str:
    for workload in run.WORKLOADS:
        a, b = (run.run(workload, SEED, SECONDS, True, SMOKE).result()["metrics"] for _ in range(2))
        counts = [n for n, m in a.items() if m["unit"] == "count"]
        check(counts and all(a[n]["value"] == b[n]["value"] for n in counts),
              f"{workload}: counts differ between two traced runs")
        check(all(isinstance(a[n]["value"], int) for n in counts), f"{workload}: counts not integers")
    return "counts repeat exactly across two traced runs of one seed"


def check_output_check_rejects() -> str:
    edges = load_dump_edges(ensure_dump(SMOKE), SMOKE)
    r = edges.relations
    n_rel = len(r)
    start, end = divmod(int(edges.keys[0]) // n_rel, edges.bound)
    rel = r[int(edges.keys[0]) % n_rel]
    req = Request("q", "", "", frozenset({start}), frozenset({end, start + 1}))
    good = [f"w{start}", rel, f"w{end}"]
    check(path_fault(good, req, edges) is None, f"a true edge was rejected: {good}")
    check(path_fault([f"w{end}", rel, f"w{start}"], req, edges) is not None, "wrong start accepted")
    check(path_fault([f"w{start}", rel, f"w{start + 1}"], req, edges) is not None, "non-edge accepted")
    other = r[(r.index(rel) + 1) % n_rel]
    if edges.key(start, end, r.index(other)) not in edges.keys:
        check(path_fault([f"w{start}", other, f"w{end}"], req, edges) is not None, "wrong relation accepted")
    outside = Request("q", "", "", frozenset({start}), frozenset())
    check(path_fault(good, outside, edges) is not None, "level-2 concept outside the passage accepted")
    check(path_fault(good + [rel, f"w{start}"], req, edges) is not None, "repeated concept accepted")
    res = SimpleNamespace(id="q", error="ValueError: boom", paths=[])
    check(result_faults([res], [req], edges, need_paths=False), "an error result was accepted")
    return "output check rejects wrong starts, non-edges, ungrounded levels, repeats, errors"


def check_tracer_hooks() -> str:
    hooks = SERVE_HOOKS + BUILD_HOOKS
    before = [inspect.getattr_static(h.owner(), h.attr) for h in hooks]
    tracer = Tracer()
    tracer.install(hooks)
    check(all(inspect.getattr_static(h.owner(), h.attr) is not b for h, b in zip(hooks, before)),
          "a hook was not installed")
    tracer.restore()
    check(all(inspect.getattr_static(h.owner(), h.attr) is b for h, b in zip(hooks, before)),
          "a hook was not restored")
    bogus = hooks[:3] + (Hook("pathmine.kernels", "no_such_kernel", "kernels.none"),)
    try:
        tracer.install(bogus)
    except HookMissing:
        pass
    else:
        raise CheckFailed("a missing hook did not raise")
    check(all(inspect.getattr_static(h.owner(), h.attr) is b for h, b in zip(hooks, before)),
          "a failed install left hooks in place")
    return "tracer restores every hook and fails loudly on a missing one"


def check_untraced_loads_no_tracer() -> str:
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run, inputs; "
        "assert run.run('long-context', 1, 0.2, False, inputs.SMOKE).result()['correct']; "
        "sys.exit(1 if 'tracer' in sys.modules else 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR)], capture_output=True, text=True)
    check(proc.returncode == 0, f"untraced run loaded the tracer: {proc.stderr[-500:]}")
    return "an untraced run never imports the tracer"


def check_cache_key_follows_src() -> str:
    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        d = Path(tmp) / "src"
        d.mkdir()
        (d / "a.py").write_text("x = 1\n")
        first = tree_digest(d)
        (d / "__pycache__").mkdir()
        (d / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"junk")
        check(tree_digest(d) == first, "bytecode changed the cache key")
        (d / "a.py").write_text("x = 2\n")
        check(tree_digest(d) != first, "a source edit kept the cache key")
    return "the cache key changes with every source edit, not with bytecode"


def check_refuses_without_pathmine() -> str:
    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "long-context", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"ran without src/: {proc.returncode} {proc.stdout[-300:]}")
    code = (
        "import sys, types; sys.path.insert(0, sys.argv[1]); "
        "fake = types.ModuleType('pathmine'); fake.__file__ = '/elsewhere/pathmine/__init__.py'; "
        "sys.modules['pathmine'] = fake; import checkout\n"
        "try:\n    checkout.import_pathmine()\nexcept checkout.CheckoutError:\n    sys.exit(0)\nsys.exit(1)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR)], capture_output=True, text=True)
    check(proc.returncode == 0, f"accepted a pathmine from elsewhere: {proc.stderr[-300:]}")
    return "refuses to run without this checkout's pathmine"


CHECKS = (
    check_tail_ladder,
    check_self_times,
    check_tracer_hooks,
    check_cache_key_follows_src,
    check_output_check_rejects,
    check_metrics_match_benchmark_json,
    check_counts_repeat,
    check_untraced_loads_no_tracer,
    check_refuses_without_pathmine,
)


def main() -> int:
    CACHE.mkdir(parents=True, exist_ok=True)
    for fn in CHECKS:
        try:
            what = fn()
        except CheckFailed as exc:
            print(f"FAIL {fn.__name__}: {exc}")
            return 1
        print(f"PASS {fn.__name__}: {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
