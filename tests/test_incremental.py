"""Function-grained incremental recompilation.

Covers the acceptance criteria of the incremental-compilation change:

* ``Toolchain.compile(prev=...)`` on an edited unit is **byte-identical**
  to a cold compile of the new source across every binary artifact
  (wire, deflate, BRISC image, VM encoding) — for body, global,
  signature, string-literal and rename edits — while sharing every
  function whose lowered IR is unchanged instead of re-running the
  stages after lower;
* an edited compile lexes the source once;
* the BRISC journal replay path reproduces the cold image and the cold
  build's counters exactly, and journaled builds are byte-identical to
  plain ones;
* delta reuse is refused across configuration changes and missing
  journals (conservative cold fallback, never a wrong artifact);
* stage statistics account replays and cache hits separately, and a
  cache-hit compile is not charged a second build's runs or seconds.
"""

import dataclasses
import re

import pytest

from repro.cfront import lexer
from repro.cfront.ctypes import CType, StructType
from repro.corpus.generator import generate_program_source
from repro.ir.lower import ModuleLowerer
from repro.pipeline import Toolchain
from repro.pipeline.incremental import DeltaCompiler, _same_ir

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

#: ``f7`` divides: the unit's only ``div.i``, so the edit (and its
#: reverse) changes which base patterns seed the dictionary.
BIG_DIV = BIG.replace("a * 7 + b", "a / 9 + b")

#: Sema numbers ``<strN>`` labels unit-wide in first-appearance order, so
#: the literal inserted into ``a`` renumbers the label ``main`` refers to.
STRINGS = """
int a(void) { print_str("x"); return 0; }
int b(int v) { return v * 3; }
int main(void) { print_str("y"); return a() + b(2); }
"""

#: The opening line of a generated unit's first function definition.
_FIRST_FN = re.compile(r"^int (\w+)\(.*\) \{$", re.M)


def _generated_edits(seed):
    """(source, edited, re-lowered function names) cases on a seeded
    generated unit; ``None`` where the edit does not fix the set."""
    src = generate_program_source(functions=6, seed=seed)
    head = _FIRST_FN.search(src)
    first, at = head.group(1), head.end()

    def into_first(stmt):
        return src[:at] + f"\n    {stmt}" + src[at:]

    edits = {
        "literal": (src.replace("acc * 31", "acc * 37", 1), {"main"}),
        "statement": (into_first("putchar(48);"), {first}),
        "global": (src.replace("\nint ", "\nint edit_global;\nint ", 1),
                   set()),
        "string": (into_first('print_str("edit");'), {first}),
        "rename": (src.replace(first, first + "_renamed"), None),
    }
    return [pytest.param(src, edited, relowered, id=f"gen{seed}-{name}")
            for name, (edited, relowered) in edits.items()]


EDIT_CASES = [
    *_generated_edits(1),
    *_generated_edits(2),
    pytest.param(BASE, BASE.replace("int add", "long add"), set(),
                 id="signature"),
    pytest.param(STRINGS, STRINGS.replace('{ print_str("x");',
                                          '{ print_str("w"); print_str("x");'),
                 {"a", "main"}, id="string-renumbering"),
    pytest.param(BIG, BIG_DIV, {"f7"}, id="base-pattern-added"),
    pytest.param(BIG_DIV, BIG, {"f7"}, id="base-pattern-removed"),
]


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
# delta compile end-to-end
# ---------------------------------------------------------------------------


def builder_counters(result):
    """The BRISC build's candidates tested, passes, and each pass's
    ``(candidates, admitted)``, as the brisc artifact's meta reports
    them."""
    meta = result.artifacts["brisc"].meta
    return (meta["candidates_tested"], meta["passes"],
            [(p["candidates"], p["admitted"]) for p in meta["builder_passes"]])


def edit_matches_cold(source, edited, config):
    """Compile ``source`` cold, then ``edited`` with ``prev=``; assert the
    delta result equals a cold compile of ``edited`` byte for byte and in
    its BRISC builder counters (a replayed build reports the cold
    build's), and return ``(cold, delta)``."""
    tc = Toolchain()
    cold = tc.compile(source, name="u", config=config)
    delta = tc.compile(edited, name="u", config=config, prev=cold)
    fresh = Toolchain().compile(edited, name="u", config=config)
    assert_byte_identical(delta, fresh)
    assert builder_counters(delta) == builder_counters(fresh)
    return cold, delta


def assert_relowered(cold, delta, relowered):
    """Exactly the functions named in ``relowered`` were lowered afresh;
    every other one is the previous build's object."""
    before = {fn.name: fn for fn in cold.module.functions}
    functions = delta.module.functions
    assert {fn.name for fn in functions
            if before.get(fn.name) is not fn} == relowered
    assert (delta.artifacts["lower"].meta.get("reused_functions", 0)
            == len(functions) - len(relowered))


class TestDeltaCompile:
    def test_byte_identical_to_cold_compile(self):
        config = Toolchain().config.with_journal().with_brisc(k=6)
        edit_matches_cold(BIG, BIG_EDIT, config)

    @pytest.mark.parametrize("source, edited, relowered", EDIT_CASES)
    def test_edit_matches_cold_compile(self, source, edited, relowered):
        assert edited != source
        cold, delta = edit_matches_cold(source, edited,
                                        Toolchain().config.with_journal())
        if relowered is not None:
            assert_relowered(cold, delta, relowered)

    @pytest.mark.parametrize("k", [4, 6])
    @pytest.mark.parametrize("source, edited",
                             [(BIG, BIG_DIV), (BIG_DIV, BIG)],
                             ids=["added", "removed"])
    def test_base_pattern_edit_replays(self, source, edited, k):
        """Adding or removing the unit's only ``div.i`` changes the
        seeded dictionary, yet the build still replays, with the cold
        build's counters."""
        config = Toolchain().config.with_journal().with_brisc(k=k)
        _, delta = edit_matches_cold(source, edited, config)
        assert delta.artifacts["brisc"].meta.get("replayed") is True

    def test_negative_zero_edit_is_a_changed_function(self):
        """``==`` equates ``-0.0`` with ``0.0``; the replay must not."""
        source = ("double g; int f(void) { g = 0.0; return 1; } "
                  "int main(void) { f(); print_double(g); putchar('\\n'); "
                  "return 0; }")
        edited = source.replace("g = 0.0;", "g = -0.0;")
        _, delta = edit_matches_cold(source, edited,
                                     Toolchain().config.with_journal())
        brisc = delta.artifacts["brisc"].meta
        assert brisc.get("replayed") is True
        assert brisc["changed_functions"] == 1

    def test_edited_compile_lexes_once(self, monkeypatch):
        tc = Toolchain()
        config = tc.config.with_journal()
        cold = tc.compile(BASE, name="u", config=config)
        calls = []
        tokens = lexer.Lexer.tokens

        def counting(self):
            calls.append(self)
            return tokens(self)

        monkeypatch.setattr(lexer.Lexer, "tokens", counting)
        delta = tc.compile(EDITED, name="u", config=config, prev=cold)
        assert delta.artifacts["lower"].meta.get("derived") is True
        assert len(calls) == 1

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


# ---------------------------------------------------------------------------
# function-grained front end: which edits re-parse one definition
# ---------------------------------------------------------------------------


def _shape(value):
    """``value`` as nested tuples, for comparing ASTs built by different
    parses: struct types by tag (a ``StructType`` equals only itself),
    every other node and symbol field by field, locations included."""
    if isinstance(value, StructType):
        return ("struct", value.tag)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _shape(getattr(value, f.name))
            for f in dataclasses.fields(value) if f.compare)
    if isinstance(value, (list, tuple)):
        return tuple(_shape(v) for v in value)
    if isinstance(value, CType):
        return str(value)
    return value


def _same_width_edit(source):
    """``source`` with the first three-digit literal after its first
    function body opens bumped by one: a same-width edit inside a body,
    as the edit-loop benchmark makes."""
    body = _FIRST_FN.search(source).end()
    site = re.compile(r"\b[1-8]\d\d\b").search(source, body)
    return (source[:site.start()] + str(int(site.group()) + 1)
            + source[site.end():])


#: ``f`` uses a typedef and a struct declared before it; one of each
#: follows it, so the parser's scope at ``f`` is a strict prefix of its
#: final one.
SCOPED = """
typedef int T0;
struct P { int x; int y; };
int f(struct P *p, T0 k) { return p->x * 7 + k; }
typedef int T1;
struct Q { int z; };
int main(void) { struct P p; T1 t = 3; p.x = 2; return f(&p, t); }
"""

FAST_EDITS = [
    pytest.param(BIG, BIG_EDIT, id="big-literal"),
    pytest.param(BIG, BIG.replace("a * 12 + b", "a * 120000 + b"),
                 id="big-wider-literal"),
    pytest.param(SCOPED, SCOPED.replace("p->x * 7", "p->x * 8"),
                 id="scope-prefix"),
    *[pytest.param(generate_program_source(functions=6, seed=seed),
                   generate_program_source(functions=6, seed=seed)
                   .replace("acc * 31", "acc * 37", 1), id=f"gen{seed}-main")
      for seed in (1, 2)],
    *[pytest.param(src, _same_width_edit(src), id=f"units-{seed}-same-width")
      for seed, src in ((11, generate_program_source(functions=20, seed=11)),
                        (7919, generate_program_source(functions=20,
                                                       seed=7919)))],
]


def assert_one_definition_reparsed(cold, delta):
    """The delta build re-parsed and re-lowered exactly one definition;
    every other one, and its IR, is the previous build's object; and its
    AST and IR equal a cold build's."""
    assert delta.artifacts["parse"].meta == {"derived": True,
                                             "reparsed_functions": 1}
    assert delta.artifacts["lower"].meta["relowered_functions"] == 1
    before, after = cold.ast.functions, delta.ast.functions
    assert len(before) == len(after)
    assert sum(a is not b for a, b in zip(before, after)) == 1
    assert all(a is b for a, b in zip(cold.ast.globals, delta.ast.globals))
    fresh = Toolchain().compile(delta.source, name="u",
                                config=delta.config)
    assert _shape(delta.ast) == _shape(fresh.ast)
    old_ir = {id(fn) for fn in cold.module.functions}
    assert sum(id(fn) not in old_ir for fn in delta.module.functions) <= 1
    assert delta.module.globals == fresh.module.globals
    for ours, theirs in zip(delta.module.functions, fresh.module.functions):
        assert ours.name == theirs.name and _same_ir(ours, theirs)
    assert (delta.artifacts["lower"].meta["nodes"]
            == fresh.artifacts["lower"].meta["nodes"])


def assert_keeps_pieces(result, kept):
    """``result`` holds the front-end record and every function's wire
    trees and VM bytes when ``kept``, and none of them otherwise."""
    assert (result.ast.record is not None) is kept
    assert all((fn.wire_streams is not None) is kept
               for fn in result.module.functions)
    assert all((fn.code_bytes is not None) is kept
               for fn in result.program.functions)


class TestFunctionGrainedFrontEnd:
    @pytest.mark.parametrize("source, edited", FAST_EDITS)
    def test_edit_reparses_one_definition(self, source, edited):
        assert edited != source
        cold, delta = edit_matches_cold(source, edited,
                                        Toolchain().config.with_journal())
        assert_one_definition_reparsed(cold, delta)

    def test_chained_edits_reparse_one_definition_each(self):
        config = Toolchain().config.with_journal()
        tc = Toolchain()
        first = tc.compile(BIG, name="u", config=config)
        second = tc.compile(BIG_EDIT, name="u", config=config, prev=first)
        third_src = BIG_EDIT.replace("a * 3 + b", "a * 5 + b")
        third = tc.compile(third_src, name="u", config=config, prev=second)
        assert_one_definition_reparsed(second, third)
        assert_byte_identical(
            third, Toolchain().compile(third_src, name="u", config=config))

    def test_only_the_edited_function_is_patternized_and_encoded(
            self, monkeypatch):
        from repro.pipeline import stages
        from repro.wire import format as wire_format

        tc = Toolchain()
        config = tc.config.with_journal().with_brisc(k=6)
        cold = tc.compile(BIG, name="u", config=config)
        trees, encoded = [], []
        patternize, encode = (wire_format.patternize_tree,
                              stages.encode_function)
        monkeypatch.setattr(wire_format, "patternize_tree",
                            lambda tree: trees.append(tree)
                            or patternize(tree))
        monkeypatch.setattr(stages, "encode_function",
                            lambda fn, ids: encoded.append(fn.name)
                            or encode(fn, ids))
        delta = tc.compile(BIG_EDIT, name="u", config=config, prev=cold)
        monkeypatch.undo()
        assert encoded == ["f7"]
        assert len(trees) == len(delta.module.function("f7").forest)
        assert_byte_identical(
            delta, Toolchain().compile(BIG_EDIT, name="u", config=config))

    def test_default_builds_keep_no_pieces(self):
        assert_keeps_pieces(Toolchain().compile(BIG, name="u"), False)

    @pytest.mark.parametrize("journaled_first", [False, True],
                             ids=["default-first", "journaled-first"])
    def test_configs_in_one_toolchain_share_no_payload(self,
                                                       journaled_first):
        """A default and a journaled build of one unit in one toolchain
        key apart: the default build keeps no record or pieces, and the
        journaled build keeps them, so its edit re-parses one
        definition."""
        tc = Toolchain()
        configs = [tc.config, tc.config.with_journal()]
        if journaled_first:
            configs.reverse()
        built = {config.brisc_journal: tc.compile(BIG, name="u",
                                                  config=config)
                 for config in configs}
        default, cold = built[False], built[True]
        assert_keeps_pieces(default, False)
        assert_keeps_pieces(cold, True)
        delta = tc.compile(BIG_EDIT, name="u", config=cold.config,
                           prev=cold)
        assert_one_definition_reparsed(cold, delta)
        assert_keeps_pieces(default, False)


#: Edits the front end must hand to the cold parse: each equals a cold
#: compile, or raises the cold compile's error.
FALLBACK_EDITS = [
    pytest.param(BIG, BIG.replace("{ return a * 7 + b; }",
                                  "{\n    return a * 7 + b; }"),
                 id="line-added"),
    pytest.param(BASE.replace("int add", "int g = 4;\nint add"),
                 BASE.replace("int add", "int g = 5;\nint add"),
                 id="global-initializer"),
    pytest.param(BASE, BASE.replace("int twice(int x)",
                                    "int twice(unsigned x)"),
                 id="signature"),
    pytest.param(BASE, BASE.replace("twice", "thrice"), id="rename"),
    pytest.param(BIG, BIG.replace("a * 7 + b; }\nint f8(int a, int b) "
                                  "{ return a * 8",
                                  "a * 9 + b; }\nint f8(int a, int b) "
                                  "{ return a * 6"),
                 id="two-definitions"),
    pytest.param(STRINGS, STRINGS.replace("return v * 3;",
                                          'print_str("z"); return v * 3;'),
                 id="new-string"),
    pytest.param(STRINGS, STRINGS.replace("return v * 3;",
                                          'print_str("y"); return v * 3;'),
                 id="string-first-met-later"),
    pytest.param(BIG, BIG.replace("{ return a * 7 + b; }",
                                  "{ static int n = 7; return a * n + b; }"),
                 id="static-local"),
    pytest.param(BIG, BIG.replace("{ return a * 7 + b; }",
                                  "{ struct L { int v; } l; l.v = a; "
                                  "return l.v * 7 + b; }"),
                 id="struct-inside"),
    pytest.param(BIG, BIG.replace("{ return a * 7 + b; }",
                                  "{ enum { SEVEN = 7 }; "
                                  "return a * SEVEN + b; }"),
                 id="enum-inside"),
    pytest.param(SCOPED, SCOPED.replace("return p->x * 7 + k;",
                                        "T1 j = k; return p->x * 7 + j;"),
                 id="typedef-declared-after"),
    pytest.param(SCOPED, SCOPED.replace("return p->x * 7 + k;",
                                        "struct Q *q = 0; return p->x + k;"),
                 id="tag-declared-after"),
    pytest.param(BASE, BASE.replace("return add(x, x);",
                                    "return add(x, x) +;"),
                 id="syntax-error"),
    pytest.param(BASE, BASE.replace("return add(x, x);",
                                    "return add(x, &x);"),
                 id="type-error"),
    pytest.param(BASE, BASE.replace("return add(x, x);",
                                    "return helper(x);"),
                 id="implicit-declaration"),
    pytest.param(BASE, BASE.replace("return add(x, x);",
                                    'return add(x, x); /* } */'),
                 id="comment"),
]


def _outcome(compile_):
    """The artifacts of ``compile_()``, or its error's type, message and
    location."""
    try:
        result = compile_()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc), getattr(exc, "location", None)
    return binary_artifacts(result), builder_counters(result)


class TestFrontEndFallback:
    @pytest.mark.parametrize("source, edited", FALLBACK_EDITS)
    def test_edit_matches_cold_outcome(self, source, edited):
        assert edited != source
        config = Toolchain().config.with_journal()
        tc = Toolchain()
        prev = tc.compile(source, name="u", config=config)
        delta = _outcome(lambda: tc.compile(edited, name="u", config=config,
                                            prev=prev))
        cold = _outcome(lambda: Toolchain().compile(edited, name="u",
                                                    config=config))
        assert delta == cold


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
            if name == "patterns":  # built on first use, not pickled
                assert not after.patterns
                continue
            assert getattr(after, name) == getattr(before, name), name
        assert all(after.pattern(cid) == before.pattern(cid)
                   for cid in range(len(before.keys)))
        replayed = incremental_compress(new, old, restored, k=6)
        assert replayed is not None
        assert replayed.image.blob == compress(new, k=6).image.blob

    def test_journal_in_the_older_pickle_layout_is_a_disk_miss(
            self, monkeypatch, tmp_path):
        """Older releases pickled the intern state as ``(patterns,
        parts, floors)``.  A disk-cached BRISC artifact holding such a
        journal fails to unpickle, so the disk cache reports a miss and
        the stage is rebuilt cold into the same image."""
        import pickle

        from repro.brisc.builder import _InternState

        config = Toolchain().config.with_brisc(k=6).with_journal()
        first = Toolchain(cache_dir=tmp_path).compile(
            BIG, name="u", config=config)
        interned = first.brisc.build.journal.interned
        assert interned.keys
        monkeypatch.setattr(_InternState, "__getstate__", lambda self: (
            [self.pattern(cid) for cid in range(len(self.keys))],
            self.parts, self.floors))
        tc = Toolchain(cache_dir=tmp_path)
        disk = tc.cache.disk
        key = tc.stage_keys(BIG, name="u", config=config)["brisc"]
        disk.put(key, first.artifact("brisc"))
        monkeypatch.undo()
        with pytest.raises(TypeError):
            with open(disk._path(key), "rb") as f:
                pickle.load(f)
        misses = disk.misses
        second = tc.compile(BIG, name="u", config=config)
        assert disk.misses == misses + 1
        assert not second.artifact("brisc").from_cache
        assert second.brisc.image.blob == first.brisc.image.blob
        assert second.brisc.build.journal.interned.keys == interned.keys

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
        delta = DeltaCompiler(prev, config)
        assert delta._compatible("brisc")
        assert not DeltaCompiler(
            prev, config.with_brisc(k=9))._compatible("brisc")

    def test_lower_not_derived_when_nothing_reusable(self, monkeypatch):
        """Every function's IR changes: nothing is shared, and the module
        delta mode lowered is the artifact (no second, cold lowering)."""
        tc = Toolchain()
        rewrite = (BASE.replace("a + b", "a - b")
                   .replace("add(x, x)", "add(x, 1)")
                   .replace("twice(21)", "twice(22)"))
        prev = tc.compile(BASE, name="u")
        lowerings = []
        run = ModuleLowerer.run

        def counting(self):
            lowerings.append(self)
            return run(self)

        monkeypatch.setattr(ModuleLowerer, "run", counting)
        delta = tc.compile(rewrite, name="u", prev=prev)
        assert len(lowerings) == 1
        assert delta.artifacts["lower"].meta.get("derived") is not True
        assert delta.artifacts["codegen"].meta.get("derived") is not True
        fresh = Toolchain().compile(rewrite, name="u")
        assert_byte_identical(delta, fresh)
