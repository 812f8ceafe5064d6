"""Pipeline tests: staging, caching, batch compilation, equivalence.

Covers the acceptance criteria of the pipeline refactor:

* cache hit/miss behaviour, verified by stage-invocation counts;
* compiling the corpus suite twice shows zero recompiles the second time;
* the on-disk cache round-trips across toolchain instances;
* ``compile_many`` isolates a ``CompileError`` unit without aborting the
  batch, and parallel workers produce byte-identical wire and BRISC
  artifacts to the serial path;
* pipeline outputs equal the old direct-call path on the corpus suite.

BRISC-stage assertions use small units (the greedy builder is minutes on
the large corpus members); the large members exercise every cheaper stage.
"""

import re

import pytest

from repro.cfront import CompileError, compile_to_ast
from repro.codegen import ABLATION_VARIANTS, generate_program
from repro.corpus import suite_names, suite_source
from repro.ir import dump_module, lower_unit
from repro.pipeline import (
    MemoryCache, STAGE_NAMES, Toolchain, resolve_stages,
    vm_code_bytes,
)
from repro.wire import encode_module

SMALL = """
int sq(int x) { return x * x; }
int main(void) { print_int(sq(7)); putchar('\\n'); return 0; }
"""

OTHER = """
int cube(int x) { return x * x * x; }
int main(void) { print_int(cube(3)); return 0; }
"""

BAD = "int main(void) { return undeclared; }"


def nested_parens(depth):
    return f"int main(void) {{ return {'(' * depth}1{')' * depth}; }}"


def summed_ones(terms):
    return f"int main(void) {{ return {'+'.join(['1'] * terms)}; }}"


#: Sources nested past a parser limit, or past Python's recursion limit
#: in a later stage (the 340-term chain, in sema).
TOO_DEEP = {
    "parens-64": nested_parens(64),
    "blocks-600": f"int main(void) {{ {'{' * 600}{'}' * 600} return 0; }}",
    "ifs-600": "int main(void) { int x; x = 0; " + " else ".join(
        f"if (x == {i}) x = {i + 1};" for i in range(600)) + " return x; }",
    "terms-340": summed_ones(340),
}

CHEAP_STAGES = ("codegen", "wire", "deflate")


def total_runs(toolchain):
    return sum(s["runs"] for s in toolchain.stats()["stages"].values())


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------


def test_cache_hit_then_miss_counts():
    tc = Toolchain()
    first = tc.compile(SMALL, name="u")
    assert not any(a.from_cache for a in first.artifacts.values())
    second = tc.compile(SMALL, name="u")
    assert all(a.from_cache for a in second.artifacts.values())
    stages = tc.stats()["stages"]
    assert all(s["runs"] == 1 for s in stages.values())
    assert all(s["cache_hits"] == 1 for s in stages.values())
    # Different source -> misses again.
    tc.compile(OTHER, name="u")
    assert all(s["runs"] == 2 for s in tc.stats()["stages"].values())


def test_corpus_suite_twice_zero_recompiles():
    """Acceptance: recompiling the whole corpus is pure cache hits."""
    tc = Toolchain()
    for name in suite_names():
        tc.compile(suite_source(name), name=name, stages=CHEAP_STAGES)
    runs_after_first = total_runs(tc)
    assert runs_after_first > 0
    for name in suite_names():
        res = tc.compile(suite_source(name), name=name, stages=CHEAP_STAGES)
        assert all(a.from_cache for a in res.artifacts.values())
    assert total_runs(tc) == runs_after_first  # zero recompiles


def test_config_changes_invalidate_downstream_only():
    tc = Toolchain()
    tc.compile(SMALL, name="u", stages=("brisc",))
    base_runs = {n: s["runs"] for n, s in tc.stats()["stages"].items()}
    config = tc.config.with_brisc(k=5)
    tc.compile(SMALL, name="u", stages=("brisc",), config=config)
    stages = tc.stats()["stages"]
    # parse/lower/codegen keys are unchanged -> served from cache...
    for name in ("parse", "lower", "codegen"):
        assert stages[name]["runs"] == base_runs[name]
    # ...but the brisc stage re-ran under the new knobs.
    assert stages["brisc"]["runs"] == base_runs["brisc"] + 1


#: Cache keys of the wc suite unit under the default configuration.  Any
#: change to them invalidates every warm cache, so it must be deliberate
#: and update these literals.
WC_DEFAULT_KEYS = {
    "parse": "cce7e6230712bdf53da441fbe8b4b471939e251ac2f4dd8228e1c4a761db0730",
    "lower": "4585ee98d5cfff736dd0842d312f78c40ddfa21d1a58f7d9f1583de005ed585e",
    "codegen": "6f10268a3634a9505ac194ec5a246578a8d4655f5a15a671590fca97e15714eb",
    "wire": "0801c7895c7358d984056ac96a9a2f3be4e3a5e3d3642de0681a38b87d34d058",
    "brisc": "3f9907a3b0a9211aa6ef3679dff848e3aa3a8c23a13231928d178a60aa579df2",
    "deflate": "a39438ed3395ec137c62ebeda2321b3362c24e58afe80a43eba91aaf90b18c8d",
}

#: The journaling config re-keys brisc only (``;journal=1``).
WC_JOURNAL_KEYS = dict(
    WC_DEFAULT_KEYS,
    brisc="eb91c5b0c1d044f778b7f82eca8250dba507c6942b825b9bc49dbefa555694a9",
)

#: Table 3's "minus both" machine re-keys codegen and what it feeds;
#: parse, lower and wire (which reads the lowered IR) keep their keys.
WC_MINUS_BOTH_KEYS = dict(
    WC_DEFAULT_KEYS,
    codegen="6c3112fe239a6deb8a591e71743f07419112ee2b6471994e71558f8aca03abbb",
    brisc="064f2376a8cbc8d0142c0820f791ce7be8297a6354881978766ddc9f37cf5b91",
    deflate="b492fb1b7fbb3d4ac450e12f1b496a22259ced0b45103e3f1e38653b76802a68",
)


def test_default_stage_keys_are_pinned():
    tc = Toolchain()
    source = suite_source("wc")
    assert tc.stage_keys(source, "wc") == WC_DEFAULT_KEYS
    assert tc.stage_keys(source, "wc",
                         config=tc.config.with_journal()) == WC_JOURNAL_KEYS
    minus_both = tc.config.with_isa(ABLATION_VARIANTS[3])
    assert tc.stage_keys(source, "wc", config=minus_both) == WC_MINUS_BOTH_KEYS


def test_brisc_meta_records_builder_pass_stats():
    tc = Toolchain()
    res = tc.compile(SMALL, name="u", stages=("brisc",))
    meta = res.artifact("brisc").meta
    assert meta["builder_seconds"] >= 0
    passes = meta["builder_passes"]
    assert len(passes) == res.brisc.build.passes
    assert all(set(p) == {"candidates", "admitted", "seconds"}
               for p in passes)


def test_toolchain_aggregates_builder_stats():
    tc = Toolchain()
    tc.compile(SMALL, name="u", stages=("brisc",))
    builder = tc.stats()["brisc_builder"]
    assert builder["builds"] == 1
    assert builder["passes"] >= 1
    # A cache hit must not double-count the build.
    tc.compile(SMALL, name="u", stages=("brisc",))
    assert tc.stats()["brisc_builder"]["builds"] == 1


def test_unit_name_is_part_of_the_key():
    tc = Toolchain()
    tc.compile(SMALL, name="a", stages=("lower",))
    res = tc.compile(SMALL, name="b", stages=("lower",))
    assert not any(a.from_cache for a in res.artifacts.values())
    assert res.module.name == "b"


def test_memory_cache_lru_eviction():
    cache = MemoryCache(capacity=2)
    tc = Toolchain(cache=cache)
    tc.compile(SMALL, name="u", stages=("lower",))  # parse + lower cached
    tc.compile(OTHER, name="v", stages=("parse",))  # evicts u's parse
    res = tc.compile(SMALL, name="u", stages=("lower",))
    assert not res.artifact("parse").from_cache


def test_disk_cache_roundtrip(tmp_path):
    tc = Toolchain(cache_dir=tmp_path)
    tc.compile(SMALL, name="u")
    fresh = Toolchain(cache_dir=tmp_path)
    res = fresh.compile(SMALL, name="u")
    assert all(a.from_cache for a in res.artifacts.values())
    assert total_runs(fresh) == 0
    # The artifacts decode to working payloads, not just equal metadata.
    assert vm_code_bytes(res.program)
    assert res.wire_blob[:4] == b"WIR2"


@pytest.mark.parametrize("garbage", [b"not a pickle", b"garbage\n", b""])
def test_disk_cache_survives_corrupt_entries(tmp_path, garbage):
    tc = Toolchain(cache_dir=tmp_path)
    tc.compile(SMALL, name="u")
    for pkl in tmp_path.rglob("*.pkl"):
        pkl.write_bytes(garbage)
    fresh = Toolchain(cache_dir=tmp_path)
    res = fresh.compile(SMALL, name="u")  # recompiles, no crash
    assert not any(a.from_cache for a in res.artifacts.values())


# ---------------------------------------------------------------------------
# stage selection
# ---------------------------------------------------------------------------


def test_resolve_stages_pulls_upstreams():
    assert [s.name for s in resolve_stages(("wire",))] == \
        ["parse", "lower", "wire"]
    assert [s.name for s in resolve_stages(("brisc",))] == \
        ["parse", "lower", "codegen", "brisc"]
    assert [s.name for s in resolve_stages(None)] == list(STAGE_NAMES)
    with pytest.raises(KeyError):
        resolve_stages(("nonesuch",))


def test_partial_compile_has_only_requested_closure():
    res = Toolchain().compile(SMALL, name="u", stages=("codegen",))
    assert set(res.artifacts) == {"parse", "lower", "codegen"}
    with pytest.raises(KeyError):
        res.artifact("brisc")


# ---------------------------------------------------------------------------
# batch compilation
# ---------------------------------------------------------------------------


def test_batch_serial_error_isolation():
    tc = Toolchain()
    items = tc.compile_many(
        [("a", SMALL), ("bad", BAD), ("b", OTHER),
         ("deep", TOO_DEEP["parens-64"])],
        stages=CHEAP_STAGES)
    assert [it.unit for it in items] == ["a", "bad", "b", "deep"]
    assert items[0].ok and items[2].ok
    assert not items[1].ok
    assert items[1].error_type == "CompileError"
    assert "undeclared" in items[1].error
    assert items[3].error_type == "CompileError"
    assert "nests too deeply" in items[3].error


def test_batch_parallel_error_isolation_and_order():
    tc = Toolchain()
    items = tc.compile_many(
        [("a", SMALL), ("bad", BAD), ("b", OTHER),
         ("deep", TOO_DEEP["parens-64"])],
        workers=2)
    assert [it.index for it in items] == [0, 1, 2, 3]
    assert items[0].ok and items[2].ok and not items[1].ok
    assert items[1].error_type == "CompileError"
    assert items[3].error_type == "CompileError"


def test_batch_parallel_matches_serial_bytes():
    """Acceptance: workers>1 yields byte-identical wire and BRISC output."""
    units = [("wc", suite_source("wc")), ("small", SMALL), ("other", OTHER)]
    serial = Toolchain().compile_many(units)
    parallel = Toolchain().compile_many(units, workers=2)
    for s, p in zip(serial, parallel):
        assert s.unit == p.unit
        assert s.result.wire_blob == p.result.wire_blob
        assert s.result.brisc.image.blob == p.result.brisc.image.blob
        assert vm_code_bytes(s.result.program) == \
            vm_code_bytes(p.result.program)


def test_batch_parallel_corpus_cheap_stages_match_serial():
    """The large corpus members agree serial-vs-parallel on wire/deflate."""
    units = [(n, suite_source(n)) for n in suite_names()]
    serial = Toolchain().compile_many(units, stages=CHEAP_STAGES)
    parallel = Toolchain().compile_many(units, workers=2,
                                        stages=CHEAP_STAGES)
    for s, p in zip(serial, parallel):
        assert s.result.wire_blob == p.result.wire_blob
        assert s.result.deflated == p.result.deflated


def test_batch_results_populate_parent_cache():
    tc = Toolchain()
    tc.compile_many([("a", SMALL)], workers=2, stages=CHEAP_STAGES)
    res = tc.compile(SMALL, name="a", stages=CHEAP_STAGES)
    assert all(a.from_cache for a in res.artifacts.values())


# ---------------------------------------------------------------------------
# equivalence with the old direct-call path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["wc", "lcc", "gcc"])
def test_pipeline_matches_direct_path_on_corpus(name):
    source = suite_source(name)
    module = lower_unit(compile_to_ast(source, name), name)
    program = generate_program(module)
    res = Toolchain().compile(source, name=name, stages=CHEAP_STAGES)
    assert dump_module(res.module) == dump_module(module)
    assert vm_code_bytes(res.program) == vm_code_bytes(program)
    assert res.wire_blob == encode_module(module)


def test_pipeline_brisc_matches_direct_path():
    from repro.brisc import compress

    source = suite_source("wc")
    program = generate_program(lower_unit(compile_to_ast(source, "wc"), "wc"))
    direct = compress(program)
    res = Toolchain().compile(source, name="wc", stages=("brisc",))
    assert res.brisc.image.blob == direct.image.blob
    assert res.brisc.image.pattern_count == direct.image.pattern_count


# ---------------------------------------------------------------------------
# artifacts and stats
# ---------------------------------------------------------------------------


def test_artifact_metadata_and_sizes():
    res = Toolchain().compile(SMALL, name="u")
    sizes = res.sizes()
    assert sizes["vm"] > 0 and sizes["wire"] > 0 and sizes["brisc"] > 0
    wire = res.artifact("wire")
    assert wire.meta["code_size"] <= wire.size
    assert res.artifact("deflate").meta["raw_bytes"] == \
        len(res.vm_code_bytes)
    rows = res.stage_rows()
    assert [r["stage"] for r in rows] == list(STAGE_NAMES)
    assert all(r["seconds"] >= 0 for r in rows)


def test_vm_code_bytes_is_the_pipeline_artifact():
    """The old buried-import helper is now the pipeline's (re-exported)."""
    from repro.bench import measure

    assert measure.vm_code_bytes is vm_code_bytes


def test_compile_error_propagates_from_compile():
    with pytest.raises(CompileError):
        Toolchain().compile(BAD, name="bad")


@pytest.mark.parametrize("label", sorted(TOO_DEEP))
def test_over_deep_source_raises_compile_error(label):
    with pytest.raises(CompileError, match="nests too deeply") as exc_info:
        Toolchain().compile(TOO_DEEP[label], name=label)
    assert exc_info.value.__cause__ is None
    # The parser's limits report unit:line:col; a later stage's
    # recursion limit reports the unit only.
    assert re.match(rf"{label}(:\d+:\d+)?: ", str(exc_info.value))


@pytest.mark.parametrize("source", [
    nested_parens(53), nested_parens(63), summed_ones(320),
    f"int main(void) {{ {'{' * 127}{'}' * 127} return 0; }}",
], ids=["parens-53", "parens-63", "terms-320", "blocks-127"])
def test_deep_sources_below_the_limit_still_compile(source):
    # A fresh thread starts from an empty stack, as a service worker
    # does, so the test runner's own frames do not eat into the limit.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        res = pool.submit(Toolchain().compile, source, name="deep",
                          stages=("codegen",)).result()
    assert res.program.functions



def test_cold_compile_reports_nonzero_runs_for_every_stage():
    """Regression: a cold full compile must never report a stage it
    executed as ``0 runs, 0.000s``."""
    tc = Toolchain()
    tc.compile(SMALL, name="u")  # every stage
    stages = tc.stats()["stages"]
    for name in STAGE_NAMES:
        assert stages[name]["runs"] == 1, name
        assert stages[name]["seconds"] > 0, name


def test_brisc_cache_hit_not_charged_build_seconds():
    """A brisc cache hit adds one cache hit and nothing else: no run, no
    seconds."""
    tc = Toolchain()
    tc.compile(SMALL, name="u", stages=("brisc",))
    before = tc.stats()["stages"]["brisc"]
    tc.compile(SMALL, name="u", stages=("brisc",))
    after = tc.stats()["stages"]["brisc"]
    assert after["runs"] == before["runs"]
    assert after["seconds"] == before["seconds"]
    assert after["cache_hits"] == before["cache_hits"] + 1
    assert after["hit_rate"] > before["hit_rate"]


def test_fold_outcome_keeps_worker_cache_hits():
    """Worker stats folded into the parent toolchain must preserve
    cache hits, not just runs/seconds/bytes."""
    worker = Toolchain()
    worker.compile(SMALL, name="u", stages=("wire",))
    result = worker.compile(SMALL, name="u", stages=("wire",))
    parent = Toolchain()
    items = [None]
    parent._fold_outcome(
        0, "u", ("ok", result, worker.stats()["stages"], 0.01), items)
    stages = parent.stats()["stages"]
    assert stages["parse"]["runs"] == 1
    assert stages["parse"]["cache_hits"] == 1
    assert items[0].result is result


def test_stats_dict_shape():
    tc = Toolchain()
    tc.compile(SMALL, name="u", stages=("codegen",))
    stats = tc.stats()
    assert set(stats) == {"stages", "cache", "brisc_builder", "totals"}
    assert set(stats["stages"]) == set(STAGE_NAMES)
    assert stats["cache"]["misses"] >= 3
    assert set(stats["totals"]) == {
        "runs", "cache_hits", "replays", "seconds", "hit_rate"}
    assert stats["totals"]["runs"] >= 3
    assert stats["totals"]["replays"] == 0
    # No BRISC stage ran, so the builder section is all zeros.
    assert stats["brisc_builder"] == {
        "builds": 0, "passes": 0, "candidates": 0, "admitted": 0,
        "seconds": 0.0,
    }
    tc.reset_stats()
    assert total_runs(tc) == 0


# ---------------------------------------------------------------------------
# batch resilience: timeouts, worker death, degradation
# ---------------------------------------------------------------------------

from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

from repro.pipeline import toolchain as toolchain_mod


class _FakeFuture:
    def __init__(self, behaviour):
        self._behaviour = behaviour

    def result(self, timeout=None):
        if isinstance(self._behaviour, Exception):
            raise self._behaviour
        return self._behaviour


def _install_fake_pool(monkeypatch, scripts):
    """Replace the process pool with scripted per-future behaviours.

    ``scripts`` is one list per pool generation; each entry is either an
    outcome tuple (returned from ``Future.result``) or an exception
    instance (raised from it).
    """
    pools = []

    class FakePool:
        def __init__(self, max_workers=None):
            if not scripts:
                raise AssertionError("unexpected extra pool generation")
            self._script = list(scripts.pop(0))
            self._submitted = 0
            self.shutdowns = []
            pools.append(self)

        def submit(self, fn, *args):
            behaviour = self._script[self._submitted]
            self._submitted += 1
            return _FakeFuture(behaviour)

        def shutdown(self, wait=True, cancel_futures=False):
            self.shutdowns.append((wait, cancel_futures))

    monkeypatch.setattr(toolchain_mod, "ProcessPoolExecutor", FakePool)
    return pools


def _error_outcome(msg="boom"):
    return ("error", "CompileError", msg, 0.01)


def test_batch_timeout_isolates_unit_and_retries_rest(monkeypatch):
    pools = _install_fake_pool(monkeypatch, [
        [FutureTimeout(), _error_outcome("never read")],
        [_error_outcome("b compiled in pool 2")],
    ])
    tc = Toolchain()
    items = tc.compile_many([("a", SMALL), ("b", OTHER)], workers=2,
                            timeout=0.5)
    assert [it.unit for it in items] == ["a", "b"]
    assert items[0].error_type == "Timeout"
    assert "0.5" in items[0].error
    assert items[1].error == "b compiled in pool 2"
    assert len(pools) == 2  # the overdue pool was abandoned, a fresh one ran


def test_batch_survives_one_pool_death(monkeypatch):
    pools = _install_fake_pool(monkeypatch, [
        [BrokenProcessPool("worker killed"), _error_outcome()],
        [_error_outcome("a retried"), _error_outcome("b retried")],
    ])
    tc = Toolchain()
    items = tc.compile_many([("a", SMALL), ("b", OTHER)], workers=2)
    assert [it.error for it in items] == ["a retried", "b retried"]
    assert len(pools) == 2


def test_batch_degrades_to_serial_after_repeated_pool_death(monkeypatch):
    pools = _install_fake_pool(monkeypatch, [
        [BrokenProcessPool("gone"), BrokenProcessPool("gone")],
        [BrokenProcessPool("gone again"), BrokenProcessPool("gone again")],
    ])
    tc = Toolchain()
    items = tc.compile_many([("a", SMALL), ("b", OTHER)], workers=2,
                            stages=CHEAP_STAGES)
    # The serial path produced *real* results despite two dead pools.
    assert len(pools) == 2
    assert all(it.ok for it in items)
    assert items[0].result.wire_blob[:4] == b"WIR2"


def test_batch_falls_back_when_pool_cannot_start(monkeypatch):
    class NoPool:
        def __init__(self, max_workers=None):
            raise OSError("no semaphores in this sandbox")

    monkeypatch.setattr(toolchain_mod, "ProcessPoolExecutor", NoPool)
    tc = Toolchain()
    items = tc.compile_many([("a", SMALL)], workers=4, stages=("lower",))
    assert items[0].ok


# ---------------------------------------------------------------------------
# disk cache: corrupt entries are misses, not crashes
# ---------------------------------------------------------------------------

import pickle

from repro.errors import CorruptStreamError
from repro.pipeline.cache import DiskCache


def _raise_corrupt():
    raise CorruptStreamError("cached container failed its CRC")


class _DecodeBomb:
    """Pickles fine; raises a typed DecodeError while materializing."""

    def __reduce__(self):
        return (_raise_corrupt, ())


def test_disk_cache_decode_error_is_miss_and_removed(tmp_path):
    cache = DiskCache(tmp_path)
    tc = Toolchain(cache=cache)
    tc.compile(SMALL, name="u", stages=("parse",))
    pkls = list(tmp_path.rglob("*.pkl"))
    assert pkls
    for pkl in pkls:
        pkl.write_bytes(pickle.dumps(_DecodeBomb()))
    fresh = Toolchain(cache=DiskCache(tmp_path))
    res = fresh.compile(SMALL, name="u", stages=("parse",))  # no crash
    assert not res.artifact("parse").from_cache


def test_disk_cache_drops_decode_error_entry_file(tmp_path):
    from repro.pipeline.artifacts import Artifact

    cache = DiskCache(tmp_path)
    art = Artifact(stage="parse", unit="u", key="k" * 64, payload=b"x",
                   size=1, seconds=0.0, meta={})
    cache.put(art.key, art)
    path = cache._path(art.key)
    path.write_bytes(pickle.dumps(_DecodeBomb()))
    assert cache.get(art.key) is None
    assert not path.exists()  # poisoned entry removed for good
    assert cache.misses == 1


def test_disk_cache_rejects_non_artifact_pickles(tmp_path):
    cache = DiskCache(tmp_path)
    key = "a" * 64
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({"not": "an artifact"}))
    assert cache.get(key) is None
    assert not path.exists()


# ---------------------------------------------------------------------------
# tiered-cache degraded paths, disk bounds, thread safety
# ---------------------------------------------------------------------------

import os
import threading

from repro.pipeline import TieredCache


def _tiered(tmp_path, capacity=64):
    return TieredCache(MemoryCache(capacity), DiskCache(tmp_path))


def test_tiered_corrupt_disk_entry_is_miss_removed_and_recompiled(tmp_path):
    tc = Toolchain(cache=_tiered(tmp_path))
    tc.compile(SMALL, name="u", stages=("parse",))
    pkls = list(tmp_path.rglob("*.pkl"))
    assert pkls
    for pkl in pkls:
        pkl.write_bytes(b"\x00garbage, not a pickle at all")
    # Fresh memory tier: every lookup falls through to the corrupt disk.
    fresh = Toolchain(cache=_tiered(tmp_path))
    res = fresh.compile(SMALL, name="u", stages=("parse",))
    assert not res.artifact("parse").from_cache  # recompiled, no crash
    # The poisoned entries were dropped and replaced with good ones...
    third = Toolchain(cache=_tiered(tmp_path))
    res = third.compile(SMALL, name="u", stages=("parse",))
    assert res.artifact("parse").from_cache  # ...so the next reader hits


def test_put_into_unwritable_cache_dir_never_fails_a_compile(tmp_path):
    # A regular *file* where the cache root should be: every mkdir/write
    # under it fails with OSError, which DiskCache.put must swallow.
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory")
    cache = _tiered(tmp_path / "blocked")
    tc = Toolchain(cache=cache)
    res = tc.compile(SMALL, name="u", stages=("parse",))  # must not raise
    assert res.artifact("parse").payload is not None
    # Disk writes went nowhere; lookups are misses, not errors.
    assert cache.disk.get(res.artifact("parse").key) is None
    assert cache.disk.usage() == {"entries": 0, "bytes": 0}


def test_disk_cache_prune_evicts_oldest_mtime_first(tmp_path):
    from repro.pipeline.artifacts import Artifact

    cache = DiskCache(tmp_path)
    keys = [f"{i:02x}" + "a" * 62 for i in range(4)]
    for i, key in enumerate(keys):
        cache.put(key, Artifact(stage="parse", unit=f"u{i}", key=key,
                                payload=b"x" * 100, size=100))
        os.utime(cache._path(key), (1000 + i, 1000 + i))
    total = cache.usage()["bytes"]
    per_entry = total // 4
    # Keep room for roughly two entries: the two oldest must go.
    result = cache.prune(per_entry * 2 + 1)
    assert result["removed_entries"] == 2
    assert cache.get(keys[0]) is None and cache.get(keys[1]) is None
    assert cache.get(keys[2]) is not None and cache.get(keys[3]) is not None
    assert cache.usage()["entries"] == 2


def test_disk_cache_prune_to_zero_and_validation(tmp_path):
    from repro.pipeline.artifacts import Artifact

    cache = DiskCache(tmp_path)
    cache.put("b" * 64, Artifact(stage="parse", unit="u", key="b" * 64,
                                 payload=b"x", size=1))
    with pytest.raises(ValueError):
        cache.prune(-1)
    result = cache.prune(0)
    assert result["removed_entries"] == 1 and result["kept_entries"] == 0
    assert cache.usage() == {"entries": 0, "bytes": 0}
    assert cache.prune(0)["removed_entries"] == 0  # idempotent


def test_memory_cache_is_thread_safe_under_contention():
    from repro.pipeline.artifacts import Artifact

    cache = MemoryCache(capacity=16)
    gets_per_thread = 300
    threads = 8
    errors = []

    def hammer(tid):
        try:
            for i in range(gets_per_thread):
                key = f"k{(tid * 7 + i) % 40}"
                if cache.get(key) is None:
                    cache.put(key, Artifact(stage="parse", unit=key,
                                            key=key, payload=i))
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append(exc)

    workers = [threading.Thread(target=hammer, args=(t,))
               for t in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert not errors
    assert len(cache) <= 16  # LRU bound held under contention
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == threads * gets_per_thread


def test_toolchain_shared_across_threads_compiles_consistently():
    tc = Toolchain()
    results = {}
    errors = []

    def compile_unit(tag, source):
        try:
            res = tc.compile(source, name=tag, stages=("codegen",))
            results[tag] = vm_code_bytes(res.program)
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append(exc)

    workers = []
    for round_no in range(3):
        for tag, source in (("small", SMALL), ("other", OTHER)):
            workers.append(threading.Thread(
                target=compile_unit, args=(f"{tag}", source)))
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert not errors
    # Same artifacts as a serial compile, and the stats ledger is sane.
    serial = Toolchain()
    for tag, source in (("small", SMALL), ("other", OTHER)):
        expect = vm_code_bytes(
            serial.compile(source, name=tag, stages=("codegen",)).program)
        assert results[tag] == expect
    stats = tc.stats()["stages"]
    for stage in ("parse", "lower", "codegen"):
        assert stats[stage]["runs"] + stats[stage]["cache_hits"] == 6


def test_compile_cancel_hook_raises_typed_error():
    from repro.errors import CancelledWorkError

    tc = Toolchain()
    with pytest.raises(CancelledWorkError):
        tc.compile(SMALL, name="u", cancel=lambda: True)
    # A cancel that never fires changes nothing.
    res = tc.compile(SMALL, name="u", stages=("parse",),
                     cancel=lambda: False)
    assert res.artifact("parse").payload is not None


def test_compile_cancel_mid_pipeline_keeps_finished_stages(tmp_path):
    tc = Toolchain()
    fired = {"calls": 0}

    def cancel_after_two():
        fired["calls"] += 1
        return fired["calls"] > 2  # parse and lower run, codegen does not

    from repro.errors import CancelledWorkError

    with pytest.raises(CancelledWorkError):
        tc.compile(SMALL, name="u", stages=("codegen",),
                   cancel=cancel_after_two)
    # The finished prefix stayed cached: the retry hits it.
    res = tc.compile(SMALL, name="u", stages=("codegen",))
    assert res.artifact("parse").from_cache
    assert res.artifact("lower").from_cache
    assert not res.artifact("codegen").from_cache
