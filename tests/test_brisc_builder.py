"""Greedy BRISC dictionary construction tests, including the paper's
worked cost-benefit example."""


import repro
from repro.brisc.builder import BriscBuilder, build_dictionary
from repro.brisc.cost import CostModel, representative_instr
from repro.brisc.pattern import DictPattern, pattern_of_instr
from repro.brisc.slots import build_slots
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
            candidates = builder._tables.patterns
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
        pruned = build_dictionary(repro.compile_c(self.REPETITIVE), k=6)
        reference = build_dictionary(repro.compile_c(self.REPETITIVE), k=6,
                                     prune=False)
        assert pruned.passes > 1  # multi-pass, or the test proves nothing
        assert self._fingerprint(pruned) == self._fingerprint(reference)
        for result in (pruned, reference):
            assert result.seconds == sum(p.seconds for p in result.pass_stats)

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
