"""Greedy BRISC dictionary construction tests, including the paper's
worked cost-benefit example."""

import time

import pytest

import repro
from repro.brisc import builder as builder_module
from repro.brisc.builder import BriscBuilder, build_dictionary
from repro.brisc.cost import CostModel, representative_instr
from repro.brisc.pattern import DictPattern, pattern_of_instr
from repro.brisc.slots import build_slots
from repro.corpus import generate_program_source
from repro.native.targets import PPCLike, PentiumLike
from repro.vm.asm import parse_function
from repro.vm.instr import Instr, VMProgram
from repro.vm.isa import REG_SP


class TestCostModel:
    def test_w_averages_pentium_and_ppc(self):
        model = CostModel()
        enter = pattern_of_instr(Instr("enter", (REG_SP, REG_SP, 24)))
        w = model.working_set_cost(DictPattern((enter,)))
        assert w > 0

    def test_abundant_memory_zeroes_w(self):
        model = CostModel(abundant_memory=True)
        enter = pattern_of_instr(Instr("enter", (REG_SP, REG_SP, 24)))
        assert model.working_set_cost(DictPattern((enter,))) == 0

    def test_paper_example_small_program_rejects_candidates(self):
        """The paper's worked example: for the tiny `salt` program, "Because
        of their code-generation/interpretation table cost, W, none of the
        candidate instructions are suitable, and the program, as given,
        remains."  A one-occurrence specialization must have negative B."""
        model = CostModel()
        enter = Instr("enter", (REG_SP, REG_SP, 24))
        p = pattern_of_instr(enter).specializations(enter)[0]
        cand = DictPattern((p,))
        # One occurrence saving at most a couple of bytes.
        assert model.benefit(cand, bytes_saved=2) < 0

    def test_many_occurrences_make_benefit_positive(self):
        model = CostModel()
        ld = Instr("ld.iw", (0, 4, REG_SP))
        p = pattern_of_instr(ld).specializations(ld)[2]  # burn base reg
        cand = DictPattern((p,))
        # Hundreds of occurrences, one byte each.
        assert model.benefit(cand, bytes_saved=300) > 0

    def test_representative_instr_uses_burned_values(self):
        enter = Instr("enter", (REG_SP, REG_SP, 24))
        p = pattern_of_instr(enter).specializations(enter)[2]  # burn imm
        rep = representative_instr(p)
        assert rep.operands[2] == 24

    @staticmethod
    def _whole_pattern_w(pattern):
        """W as the whole entry's average: each target's template bytes
        summed over the parts, then the two sums averaged."""
        pentium, ppc = PentiumLike(), PPCLike()
        reps = [representative_instr(part) for part in pattern.parts]
        return (sum(pentium.instr_size(r) for r in reps)
                + sum(ppc.instr_size(r) for r in reps) + 1) // 2

    def test_per_part_w_equals_whole_pattern_reference(self):
        from repro.corpus.samples import SAMPLES

        for program in (repro.compile_c(SAMPLES["wc"], "wc"),
                        repro.compile_c(TestPruningDeterminism.REPETITIVE)):
            builder = BriscBuilder(program, k=6)
            builder.run()
            interned = builder._tables.interned
            candidates = [interned.pattern(cid)
                          for cid in range(len(interned.keys))]
            assert any(len(p.parts) > 1 for p in candidates)
            model = CostModel()
            abundant = CostModel(abundant_memory=True)
            for p in candidates:
                assert model.working_set_cost(p) == self._whole_pattern_w(p)
                assert abundant.working_set_cost(p) == 0


class TestBuildSlots:
    def _program(self, body):
        fn = parse_function(body, "main")
        return VMProgram("t", functions=[fn])

    def test_one_slot_per_instruction(self):
        prog = self._program("li n0,1\nli n0,2\nhlt")
        slots = build_slots(prog)
        assert slots.slot_count() == 3

    def test_entry_is_block_start(self):
        slots = build_slots(self._program("hlt"))
        assert slots.functions[0].slots[0].is_block_start

    def test_labels_are_block_starts(self):
        slots = build_slots(self._program("jmp $end\n$end:\nhlt"))
        assert slots.functions[0].slots[1].is_block_start
        assert slots.functions[0].slots[1].labels == ("end",)

    def test_post_call_is_block_start(self):
        callee = parse_function("rjr ra", "f")
        main = parse_function("call f\nhlt", "main")
        prog = VMProgram("t", functions=[main, callee])
        slots = build_slots(prog)
        assert slots.functions[0].slots[1].is_block_start


class TestGreedyConstruction:
    def _compile(self, src):
        return repro.compile_c(src)

    def test_repetitive_program_learns_patterns(self):
        # Many functions with identical shape: specializations and
        # combinations must be admitted.
        fns = "\n".join(
            f"int f{i}(int a, int b) {{ return a * {i} + b; }}"
            for i in range(40)
        )
        prog = self._compile(fns + "\nint main(void) { return f1(1, 2); }")
        result = build_dictionary(prog, k=8)
        assert result.dictionary_size > result.base_patterns
        assert result.candidates_tested > 100

    def test_learned_patterns_shrink_encoding(self):
        fns = "\n".join(
            f"int f{i}(int a, int b) {{ return a * {i} + b; }}"
            for i in range(40)
        )
        prog = self._compile(fns + "\nint main(void) { return f1(1, 2); }")
        before = build_slots(prog).encoded_code_size()
        result = build_dictionary(prog, k=8)
        assert result.slots.encoded_code_size() < before

    def test_combination_merges_slots(self):
        fns = "\n".join(
            f"int f{i}(int a) {{ return a + {i}; }}" for i in range(30)
        )
        prog = self._compile(fns + "\nint main(void) { return f1(1); }")
        result = build_dictionary(prog, k=8)
        merged = any(
            len(slot.insns) > 1
            for fn in result.slots.functions
            for slot in fn.slots
        )
        assert merged

    def test_combined_slots_never_span_block_starts(self):
        prog = self._compile(
            "int main(void) { int s = 0;"
            " for (int i = 0; i < 9; i++) s += i; return s; }"
        )
        result = build_dictionary(prog, k=8)
        for fn in result.slots.functions:
            for slot in fn.slots[1:]:
                # A block-start slot exists as its own slot (it was never
                # merged into its predecessor).
                assert slot.insns  # structural sanity
        # And every slot's pattern still matches its instructions.
        for fn in result.slots.functions:
            for slot in fn.slots:
                assert slot.pattern.matches(slot.insns)

    def test_abundant_memory_learns_at_least_as_many(self):
        fns = "\n".join(
            f"int f{i}(int a, int b) {{ return (a ^ {i}) + b; }}"
            for i in range(25)
        )
        prog = self._compile(fns + "\nint main(void) { return f1(1, 2); }")
        constrained = build_dictionary(prog, k=6)
        abundant = build_dictionary(prog, k=6, abundant_memory=True)
        assert abundant.dictionary_size >= constrained.dictionary_size

    def test_tiny_program_keeps_base_patterns_only(self):
        """The paper: small programs afford no useful candidates."""
        prog = self._compile("int main(void) { return 3; }")
        result = build_dictionary(prog, k=20)
        assert result.dictionary_size == result.base_patterns

    def test_max_passes_bounds_work(self):
        prog = self._compile("int main(void) { return 3; }")
        result = build_dictionary(prog, k=20, max_passes=1)
        assert result.passes == 1


class TestPruningDeterminism:
    """Incremental rescanning and exact candidate pruning must reproduce
    the re-score-everything reference builder (``prune=False``) exactly:
    same dictionary, same slots, same per-pass counters."""

    #: Repetitive bodies so the greedy builder runs several passes at k=6.
    REPETITIVE = "\n".join(
        f"int f{i}(int a, int b) {{ return a * {i} + b; }}" for i in range(40)
    ) + "\nint main(void) { return f1(1, 2); }"

    #: The generated unit the ``gen24`` golden pins.
    GENERATED = generate_program_source(functions=24, seed=3)

    @staticmethod
    def _fingerprint(result):
        slots = [
            [(str(s.pattern), s.insns) for s in fn.slots]
            for fn in result.slots.functions
        ]
        return ([str(p) for p in result.dictionary], slots,
                result.candidates_tested, result.passes,
                result.base_patterns,
                [(p.candidates, p.admitted) for p in result.pass_stats])

    def test_pruned_build_matches_unpruned_reference(self):
        for source, k in ((self.REPETITIVE, 6), (self.GENERATED, 20)):
            pruned = build_dictionary(repro.compile_c(source), k=k)
            reference = build_dictionary(repro.compile_c(source), k=k,
                                         prune=False)
            assert pruned.passes > 1  # multi-pass, or it proves nothing
            assert self._fingerprint(pruned) == self._fingerprint(reference)
            for result in (pruned, reference):
                assert result.seconds == sum(p.seconds
                                             for p in result.pass_stats)

    def test_pass_stats_cover_every_pass(self):
        from repro.corpus.samples import SAMPLES

        prog = repro.compile_c(SAMPLES["wc"], "wc")
        result = build_dictionary(prog)
        assert len(result.pass_stats) == result.passes
        assert all(p.seconds >= 0 for p in result.pass_stats)
        # Pass counters reconcile with the build totals.
        assert sum(p.candidates for p in result.pass_stats) \
            == result.candidates_tested
        admitted = sum(p.admitted for p in result.pass_stats)
        assert admitted == result.dictionary_size - result.base_patterns
        assert result.seconds == sum(p.seconds for p in result.pass_stats)

    def test_cold_build_seconds_include_setup(self, monkeypatch):
        """Slotting and base seeding run before the first pass; the cold
        builder charges them to it, as the journal replay does, so
        ``BuildResult.seconds`` is wall time."""
        real = builder_module.build_slots

        def slow_build_slots(program):
            time.sleep(0.05)
            return real(program)

        monkeypatch.setattr(builder_module, "build_slots", slow_build_slots)
        result = build_dictionary(
            repro.compile_c("int main(void) { return 3; }"))
        assert result.pass_stats[0].seconds >= 0.05
        assert result.seconds >= 0.05


#: ``-0.0`` and ``0.0`` operands in the same instruction shape: ``==``
#: equates them, so a table keyed by values would give ``g`` the rows of
#: ``f``'s ``li.d f1,0.0``.
SIGNED_ZEROS = """
double f(double x) { return x * 0.0; }
double g(double x) { return x * -0.0; }
int main(void) { print_double(f(1.0)); print_double(g(1.0)); return 0; }
"""

SCAN_PROGRAMS = ["wc", "repetitive", "generated", "signed_zeros"]


def _scan_programs():
    from repro.corpus.samples import SAMPLES

    return {
        "wc": SAMPLES["wc"],
        "repetitive": TestPruningDeterminism.REPETITIVE,
        "generated": TestPruningDeterminism.GENERATED,
        "signed_zeros": SIGNED_ZEROS,
    }


def _fn_savings(builder):
    """Each function's raw savings (cid → bytes) as of the last scan:
    the sum of the rows its row keys name."""
    return [builder._tables.delta([], keys) for keys in builder._row_keys]


class TestScanReference:
    """The scan prices and interns candidates by part ids.  ``prune=False``
    shares that scan, so the reference here rebuilds each function's raw
    savings the way the scan once did: a fresh ``DictPattern`` per
    candidate, priced by ``is_control_ok()`` and ``encoded_size()``."""

    @staticmethod
    def _augmented_set(slot):
        out = [slot.pattern]
        parts = slot.pattern.parts
        for pi, (part, instr) in enumerate(zip(parts, slot.insns)):
            for spec in part.specializations(instr):
                new_parts = list(parts)
                new_parts[pi] = spec
                out.append(DictPattern(tuple(new_parts)))
        return out

    @classmethod
    def _raw_savings(cls, slots):
        savings = {}
        for i, slot in enumerate(slots):
            aug = cls._augmented_set(slot)
            for cand in aug[1:]:
                saved = slot.pattern.encoded_size() - cand.encoded_size()
                if saved > 0:
                    savings[cand] = savings.get(cand, 0) + saved
            if i + 1 >= len(slots):
                continue
            nxt = slots[i + 1]
            if nxt.is_block_start or len(slot.insns) + len(nxt.insns) > 4:
                continue
            pair_size = slot.pattern.encoded_size() + nxt.pattern.encoded_size()
            for a in aug:
                for b in cls._augmented_set(nxt):
                    cand = DictPattern(a.parts + b.parts)
                    if not cand.is_control_ok():
                        continue
                    saved = pair_size - cand.encoded_size()
                    if saved > 0:
                        savings[cand] = savings.get(cand, 0) + saved
        return savings

    @staticmethod
    def _by_pattern(builder, fn_savings):
        pattern = builder._tables.interned.pattern
        out = {pattern(cid): value for cid, value in fn_savings.items()}
        assert len(out) == len(fn_savings)  # one cid per pattern
        return out

    @pytest.mark.parametrize("name", SCAN_PROGRAMS)
    def test_first_pass_matches_pattern_pricing(self, name):
        program = repro.compile_c(_scan_programs()[name])
        builder = BriscBuilder(program, max_passes=1)
        builder.run()
        reference = build_slots(program).functions
        savings = _fn_savings(builder)
        assert len(savings) == len(reference)
        for fn_savings, fn in zip(savings, reference):
            assert (self._by_pattern(builder, fn_savings)
                    == self._raw_savings(fn.slots))

    @pytest.mark.parametrize("name", SCAN_PROGRAMS)
    def test_every_pass_matches_pattern_pricing(self, name):
        """Checked after every pass's merge, before admission: each
        function's savings against the reference over the slots just
        scanned, and the merged map against their sum."""
        builder = BriscBuilder(repro.compile_c(_scan_programs()[name]), k=6)
        refresh = builder._refresh_savings
        checked = []

        def refresh_and_check():
            refresh()
            merged = {}
            for fn_savings, fn in zip(_fn_savings(builder),
                                      builder.slots.functions):
                by_pattern = self._by_pattern(builder, fn_savings)
                assert by_pattern == self._raw_savings(fn.slots)
                for cid, value in fn_savings.items():
                    merged[cid] = merged.get(cid, 0) + value
            assert builder._savings == merged
            checked.append(builder.passes)

        builder._refresh_savings = refresh_and_check
        builder.run()
        assert checked == list(range(1, builder.passes + 1))

    def test_rescan_of_combined_slots_matches_pattern_pricing(self):
        """The last pass of this build admits nothing, so its scan saw the
        final slots — multi-part slots included."""
        builder = BriscBuilder(
            repro.compile_c(_scan_programs()["generated"]))
        result = builder.run()
        assert result.passes > 1 and result.pass_stats[-1].admitted == 0
        assert any(len(s.insns) > 1
                   for fn in result.slots.functions for s in fn.slots)
        for fn_savings, fn in zip(_fn_savings(builder),
                                  result.slots.functions):
            assert (self._by_pattern(builder, fn_savings)
                    == self._raw_savings(fn.slots))

    @pytest.mark.parametrize("abundant", [False, True])
    @pytest.mark.parametrize("name", SCAN_PROGRAMS)
    def test_floors_and_liveness_are_exact(self, name, abundant):
        """Checked after every pass's merge, before admission: each cid's
        dictionary bytes, and liveness against a fresh ``CostModel``.  The
        reference patterns are built here from the cids' keys, so the
        builder's own patterns stay lazily built."""
        builder = BriscBuilder(repro.compile_c(_scan_programs()[name]),
                               k=6, abundant_memory=abundant)
        interned = builder._tables.interned
        cost = CostModel(abundant_memory=abundant)
        refresh = builder._refresh_savings
        checked = []

        def refresh_and_check():
            refresh()
            for cid, key in enumerate(interned.keys):
                pattern = DictPattern(tuple(interned.parts[p] for p in key))
                assert interned.dict_bytes[cid] == pattern.dictionary_size()
                if cid in builder._dict_ids:
                    assert cid not in builder._live
                    continue
                floor = (pattern.dictionary_size()
                         + cost.working_set_cost(pattern))
                savings = builder._savings.get(cid, 0)
                assert (cid in builder._live) == (savings > floor)
                if cid in interned.floors:
                    assert interned.floors[cid] == floor
            checked.append(len(builder._live))

        builder._refresh_savings = refresh_and_check
        builder.run()
        assert len(checked) == builder.passes
        # W is priced only for candidates whose savings got past their
        # dictionary bytes, not for every candidate; a candidate's
        # pattern is built only when something uses it.
        assert len(interned.floors) < len(interned.keys)
        assert len(interned.patterns) < len(interned.keys)
