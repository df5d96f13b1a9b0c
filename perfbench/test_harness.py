"""Tests of the benchmark's own logic: spans, checks, absent names, the cache.

    python3 -m pytest -q perfbench
"""

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import cis  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cis import montecarlo  # noqa: E402


def test_self_time_subtracts_covered_child_time():
    parent = tracing.Span(1, None, "p", start=0, end=100)
    kids = [
        tracing.Span(2, 1, "a", start=10, end=30),
        tracing.Span(3, 1, "b", start=20, end=40),   # overlaps a: union 10..40
        tracing.Span(4, 1, "c", start=90, end=120),  # runs past the parent's end
        tracing.Span(5, 2, "grandchild", start=12, end=14),
    ]
    children = tracing.children_of([parent, *kids])
    assert tracing.self_ns(parent, children) == 100 - 30 - 10
    assert tracing.self_ns(kids[0], children) == 20 - 2


def test_nested_wrapped_calls_link_parents_and_restore():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original = ns.outer
    tracer = tracing.Tracer()
    assert tracer.wrap(ns, "inner", "inner", lambda a, r: {"x": a["x"], "r": r})
    assert tracer.wrap(ns, "outer", "outer")
    assert ns.outer(3) == 8
    tracer.uninstall()
    assert ns.outer is original
    inner, outer = tracer.take()
    assert inner.parent == outer.id and outer.parent is None
    assert inner.attrs == {"x": 3, "r": 4}
    children = tracing.children_of([inner, outer])
    assert tracing.self_ns(outer, children) == outer.ns - inner.ns


def test_pool_threads_count_under_the_calling_span(monkeypatch):
    monkeypatch.setenv("CIS_THREADS", "2")
    tracer = tracing.Tracer()
    layers.install(tracer, cis)
    try:
        montecarlo.estimate_l1(2, 5, 600, seed=1)
    finally:
        tracer.uninstall()
    values = layers.measure(tracer.take(), tracer.wrapped)
    assert values["rng.substream.calls"] == 600
    assert values["montecarlo.workers"] == 2
    assert 0 < values["rng.substream.share"] < 1
    assert values["montecarlo.estimate_l1.us_per_trial"] > 0


def test_missing_wrapped_name_gives_absent_metric(monkeypatch):
    monkeypatch.delattr(montecarlo, "estimate_lis")
    tracer = tracing.Tracer()
    layers.install(tracer, cis)
    tracer.uninstall()
    assert "montecarlo.estimate_lis" not in tracer.wrapped
    values = layers.measure([], tracer.wrapped)
    assert "montecarlo.estimate_lis.us_per_trial" not in values
    assert values["montecarlo.estimate_l1.us_per_trial"] == 0.0


def _short_mc_long(monkeypatch):
    monkeypatch.setattr(workloads.McLong, "LMAX", 2)  # keeps a round well under a second
    return workloads.McLong(seed=3)


def test_forced_failing_check_raises_fail_ratio(monkeypatch):
    w = _short_mc_long(monkeypatch)
    assert run.summarize([w.round()])["fail_ratio"] == 0
    w.queries[2].call = lambda: montecarlo.estimate_lis(1, 100, 8, 5)  # mean near 16, not 200
    summary = run.summarize([w.round()])
    assert summary["fail_ratio"] > 0
    assert summary["failed_checks"] == ["lis(1,1e4) within 10% of 2 sqrt(n)"]


def test_raising_query_counts_as_failed(monkeypatch):
    w = _short_mc_long(monkeypatch)
    w.queries[2].call = lambda: montecarlo.estimate_lis(1, 100, 1, 5)  # trials < 2
    r = w.round()
    assert r.errors == 1 and r.results[2] is None
    assert run.summarize([r])["failed"] == 2  # the query and the check that needed it


def test_exact_cold_pass_uses_a_fresh_cache_only(tmp_path, monkeypatch):
    repo_cache = tmp_path / ".cis-cache"
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CIS_CACHE_DIR", raising=False)
    argvs = [["l1-exact", "--m", "1"], ["l1-closed", "--m", "1"],
             ["prob-complete", "--m", "2", "--n", "2", "--engine", "gf"]]
    w = workloads.Exact(seed=1, scratch=tmp_path / "scratch", argvs=argvs)
    first, second = w.round(), w.round()
    for r in (first, second):
        cold = r.results[:len(argvs)]
        assert all(rec["meta"]["cached"] is False for rec in cold)
        assert r.failed_checks == [] and r.errors == 0
        assert r.extra["cache_hits"] == len(argvs)
    assert first.digest == second.digest
    assert not repo_cache.exists()
    assert list((tmp_path / "scratch").iterdir()) == []
    assert "CIS_CACHE_DIR" not in os.environ


def test_cold_pass_into_a_filled_cache_fails(tmp_path, monkeypatch):
    cache = tmp_path / "kept-cache"

    def same_dir_every_round(**kw):
        cache.mkdir(exist_ok=True)
        return str(cache)

    monkeypatch.setattr(workloads.tempfile, "mkdtemp", same_dir_every_round)
    monkeypatch.setattr(workloads.shutil, "rmtree", lambda *a, **kw: None)  # keeps its entries
    w = workloads.Exact(seed=1, scratch=tmp_path, argvs=[["l1-exact", "--m", "1"]])
    assert w.round().failed_checks == []
    assert w.round().failed_checks == ["cold pass misses the cache: l1-exact --m 1"]


def test_min_distance_is_the_pairwise_minimum():
    assert workloads.min_distance([(1, 1, 1), (1, 2, 2), (2, 2, 1)]) == 2
    assert workloads.min_distance([(i, 0) for i in range(300)]) == 1
