"""Function-grained incremental recompilation.

Covers the acceptance criteria of the incremental-compilation change:

* ``split_unit`` carves a translation unit into an environment digest
  plus per-function digests, bailing (``None``) on anything it cannot
  prove it understood;
* ``reusable_functions`` admits exactly the functions whose tokens,
  environment, and string-literal label bindings are unchanged;
* ``Toolchain.compile(prev=...)`` on an edited unit is **byte-identical**
  to a cold compile of the new source across every binary artifact
  (wire, deflate, BRISC image, VM encoding), while re-deriving the
  unchanged functions instead of re-running the stages;
* the BRISC journal replay path reproduces the cold image exactly, and
  journaled builds are byte-identical to plain ones;
* delta reuse is refused across configuration changes and missing
  journals (conservative cold fallback, never a wrong artifact);
* stage statistics account replays and cache hits separately, and a
  cache-hit compile is not charged a second build's runs or seconds.
"""

from repro.pipeline import Toolchain
from repro.pipeline.incremental import (
    DeltaCompiler, function_strings, reusable_functions, split_unit,
)
from repro.cfront import compile_to_ast

BASE = """
int add(int a, int b) { return a + b; }
int twice(int x) { return add(x, x); }
int main(void) { print_int(twice(21)); putchar('\\n'); return 0; }
"""

#: ``twice`` edited (new constant), everything else untouched.
EDITED = BASE.replace("add(x, x)", "add(x, x + 0)")

#: Repetitive bodies so the greedy BRISC builder does real work and the
#: journal replay has passes to replay.
BIG = "\n".join(
    f"int f{i}(int a, int b) {{ return a * {i} + b; }}" for i in range(40)
) + "\nint main(void) { return f1(1, 2); }"

BIG_EDIT = BIG.replace("int f7(int a, int b) { return a * 7 + b; }",
                       "int f7(int a, int b) { return a * 9 + b; }")

def binary_artifacts(result):
    out = {s: result.artifacts[s].payload for s in ("wire", "deflate")}
    out["brisc"] = result.brisc.image.blob
    out["vm"] = result.vm_code_bytes
    return out


def assert_byte_identical(a, b):
    fa, fb = binary_artifacts(a), binary_artifacts(b)
    assert fa.keys() == fb.keys()
    for stage in fa:
        assert fa[stage] == fb[stage], f"{stage} artifact diverged"


# ---------------------------------------------------------------------------
# unit shape
# ---------------------------------------------------------------------------


class TestSplitUnit:
    def test_finds_every_function(self):
        shape = split_unit(BASE)
        assert shape is not None
        assert shape.order == ("add", "twice", "main")
        assert set(shape.fn_digests) == {"add", "twice", "main"}

    def test_body_edit_changes_only_that_function(self):
        before, after = split_unit(BASE), split_unit(EDITED)
        assert before.env_digest == after.env_digest
        assert before.fn_digests["add"] == after.fn_digests["add"]
        assert before.fn_digests["main"] == after.fn_digests["main"]
        assert before.fn_digests["twice"] != after.fn_digests["twice"]

    def test_globals_and_prototypes_go_to_env(self):
        a = split_unit("int g; int f(void);\nint main(void) { return g; }")
        b = split_unit("int g; int h(void);\nint main(void) { return g; }")
        assert a is not None and b is not None
        assert a.order == b.order == ("main",)
        assert a.env_digest != b.env_digest

    def test_whitespace_is_not_significant(self):
        spaced = BASE.replace("return a + b;", "return  a  +  b ;")
        assert split_unit(BASE).fn_digests == split_unit(spaced).fn_digests

    def test_duplicate_definition_bails(self):
        dup = BASE + "\nint add(int a, int b) { return a - b; }"
        assert split_unit(dup) is None

    def test_unparsable_source_bails(self):
        assert split_unit("int main(void) { return 0;") is None
        assert split_unit("@#$") is None


class TestReusableFunctions:
    def test_only_edited_function_dropped(self):
        old = compile_to_ast(BASE, "u")
        new = compile_to_ast(EDITED, "u")
        names = reusable_functions(BASE, old, EDITED, new)
        assert names == frozenset({"add", "main"})

    def test_signature_change_invalidates_whole_unit(self):
        changed = BASE.replace("int twice(int x)", "long twice(int x)")
        old = compile_to_ast(BASE, "u")
        new = compile_to_ast(changed, "u")
        assert reusable_functions(BASE, old, changed, new) == frozenset()

    def test_new_string_literal_invalidates_sharers(self):
        """sema labels string literals unit-wide in first-appearance
        order; an edit that shifts the numbering must drop every function
        whose bindings moved."""
        old_src = ('int a(void) { puts("x"); return 0; }\n'
                   'int main(void) { puts("y"); return a(); }')
        new_src = ('int a(void) { puts("w"); puts("x"); return 0; }\n'
                   'int main(void) { puts("y"); return a(); }')
        old = compile_to_ast(old_src, "u")
        new = compile_to_ast(new_src, "u")
        names = reusable_functions(old_src, old, new_src, new)
        assert "a" not in names
        assert names <= frozenset({"main"})
        strings = function_strings(new)
        assert set(strings["a"]) == {"w", "x"}


# ---------------------------------------------------------------------------
# delta compile end-to-end
# ---------------------------------------------------------------------------


class TestDeltaCompile:
    def test_byte_identical_to_cold_compile(self):
        tc = Toolchain()
        config = tc.config.with_journal().with_brisc(k=6)
        cold = tc.compile(BIG, name="u", config=config)
        delta = tc.compile(BIG_EDIT, name="u", config=config, prev=cold)
        fresh = Toolchain().compile(BIG_EDIT, name="u", config=config)
        assert_byte_identical(delta, fresh)

    def test_unchanged_functions_are_spliced_not_rebuilt(self):
        tc = Toolchain()
        config = tc.config.with_journal().with_brisc(k=6)
        cold = tc.compile(BIG, name="u", config=config)
        delta = tc.compile(BIG_EDIT, name="u", config=config, prev=cold)
        lower = delta.artifacts["lower"].meta
        assert lower.get("derived") is True
        assert lower["reused_functions"] == len(delta.module.functions) - 1
        codegen = delta.artifacts["codegen"].meta
        assert codegen.get("derived") is True
        brisc = delta.artifacts["brisc"].meta
        assert brisc.get("replayed") is True
        assert brisc["changed_functions"] == 1

    def test_replays_counted_separately_from_runs(self):
        tc = Toolchain()
        config = tc.config.with_journal().with_brisc(k=6)
        cold = tc.compile(BIG, name="u", config=config)
        tc.compile(BIG_EDIT, name="u", config=config, prev=cold)
        stages = tc.stats()["stages"]
        assert stages["lower"]["replays"] == 1
        assert stages["codegen"]["replays"] == 1
        assert stages["brisc"]["replays"] == 1
        totals = tc.stats()["totals"]
        assert totals["replays"] >= 3
        assert 0.0 <= totals["hit_rate"] <= 1.0

    def test_identical_source_is_a_plain_cache_hit(self):
        tc = Toolchain()
        cold = tc.compile(BASE, name="u")
        again = tc.compile(BASE, name="u", prev=cold)
        assert all(a.from_cache for a in again.artifacts.values())
        assert all(s["replays"] == 0
                   for s in tc.stats()["stages"].values())

    def test_config_change_disables_delta_for_affected_stages(self):
        """Changing k rewrites only the brisc stage's config fragment, so
        lower/codegen may still derive but the brisc build must go cold
        (the k=6 journal cannot prove anything about a k=8 build)."""
        tc = Toolchain()
        config = tc.config.with_journal().with_brisc(k=6)
        cold = tc.compile(BIG, name="u", config=config)
        other = config.with_brisc(k=8)
        delta = tc.compile(BIG_EDIT, name="u", config=other, prev=cold)
        assert delta.artifacts["brisc"].meta.get("replayed") is not True
        fresh = Toolchain().compile(BIG_EDIT, name="u", config=other)
        assert_byte_identical(delta, fresh)

    def test_prev_without_config_disables_delta(self):
        tc = Toolchain()
        cold = tc.compile(BIG, name="u")
        cold.config = None  # a result predating the field
        delta = tc.compile(BIG_EDIT, name="u", prev=cold)
        assert not any(a.meta.get("derived") or a.meta.get("replayed")
                       for a in delta.artifacts.values())

    def test_no_journal_falls_back_cold_on_brisc(self):
        tc = Toolchain()
        config = tc.config.with_brisc(k=6)  # journal off
        cold = tc.compile(BIG, name="u", config=config)
        delta = tc.compile(BIG_EDIT, name="u", config=config, prev=cold)
        assert delta.artifacts["brisc"].meta.get("replayed") is not True
        fresh = Toolchain().compile(BIG_EDIT, name="u", config=config)
        assert_byte_identical(delta, fresh)

    def test_chained_edits_stay_byte_identical(self):
        tc = Toolchain()
        config = tc.config.with_journal().with_brisc(k=6)
        first = tc.compile(BIG, name="u", config=config)
        second = tc.compile(BIG_EDIT, name="u", config=config, prev=first)
        third_src = BIG_EDIT.replace("a * 3 + b", "a * 5 + b")
        third = tc.compile(third_src, name="u", config=config, prev=second)
        fresh = Toolchain().compile(third_src, name="u", config=config)
        assert_byte_identical(third, fresh)

    def test_compile_many_prev_map(self):
        tc = Toolchain()
        config = tc.config.with_journal().with_brisc(k=6)
        units = [("a", BIG), ("b", BASE)]
        prev = {item.unit: item.result
                for item in tc.compile_many(units, config=config)}
        edited = [("a", BIG_EDIT), ("b", BASE)]
        items = tc.compile_many(edited, config=config, prev=prev)
        assert all(item.ok for item in items)
        by_name = {item.unit: item.result for item in items}
        assert by_name["a"].artifacts["brisc"].meta.get("replayed") is True
        assert all(a.from_cache for a in by_name["b"].artifacts.values())
        fresh = Toolchain().compile(BIG_EDIT, name="a", config=config)
        assert_byte_identical(by_name["a"], fresh)


# ---------------------------------------------------------------------------
# journal record/replay
# ---------------------------------------------------------------------------


class TestJournal:
    def test_journaled_build_matches_plain_build(self):
        config = Toolchain().config.with_brisc(k=6)
        plain = Toolchain().compile(BIG, name="u", config=config)
        journaled = Toolchain().compile(
            BIG, name="u", config=config.with_journal())
        assert plain.brisc.image.blob == journaled.brisc.image.blob

    def test_journal_is_attached_only_when_requested(self):
        config = Toolchain().config.with_brisc(k=6)
        plain = Toolchain().compile(BIG, name="u", config=config)
        journaled = Toolchain().compile(
            BIG, name="u", config=config.with_journal())
        assert plain.brisc.build.journal is None
        assert journaled.brisc.build.journal is not None
        assert journaled.brisc.build.journal.passes

    def test_unpickled_journal_replays_byte_identically(self):
        """A journal pickled with its build (as the disk cache stores
        it) keeps every candidate id, so it still replays an edit."""
        import pickle

        from repro import compile_c
        from repro.brisc import compress
        from repro.brisc.journal import incremental_compress

        old, new = compile_c(BIG), compile_c(BIG_EDIT)
        build = compress(old, k=6, journal=True).build
        restored = pickle.loads(pickle.dumps(build))
        before, after = build.journal.interned, restored.journal.interned
        for name in type(before).__slots__:
            assert getattr(after, name) == getattr(before, name), name
        replayed = incremental_compress(new, old, restored, k=6)
        assert replayed is not None
        assert replayed.image.blob == compress(new, k=6).image.blob

    def test_journal_without_intern_state_builds_cold(self):
        """A journal unpickled from before the intern state existed
        carries no ``interned``: replay declines it."""
        from repro import compile_c
        from repro.brisc import compress
        from repro.brisc.journal import incremental_compress

        old, new = compile_c(BIG), compile_c(BIG_EDIT)
        build = compress(old, k=6, journal=True).build
        del build.journal.interned
        assert incremental_compress(new, old, build, k=6) is None


# ---------------------------------------------------------------------------
# DeltaCompiler internals
# ---------------------------------------------------------------------------


class TestDeltaCompiler:
    def test_compatible_requires_equal_fragments(self):
        tc = Toolchain()
        config = tc.config.with_brisc(k=6)
        prev = tc.compile(BASE, name="u", config=config)
        delta = DeltaCompiler(prev, EDITED, config)
        assert delta._compatible("brisc")
        assert not DeltaCompiler(
            prev, EDITED, config.with_brisc(k=9))._compatible("brisc")

    def test_lower_not_derived_when_nothing_reusable(self):
        tc = Toolchain()
        rewrite = BASE.replace("int add", "long add")
        prev = tc.compile(BASE, name="u")
        delta = tc.compile(rewrite, name="u", prev=prev)
        assert delta.artifacts["lower"].meta.get("derived") is not True
        fresh = Toolchain().compile(rewrite, name="u")
        assert_byte_identical(delta, fresh)
