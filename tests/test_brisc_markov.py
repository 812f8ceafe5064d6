"""Markov model tests, including context splitting.

"If more than 256 instructions can follow I, the compressor splits I into
two instruction patterns."  Real corpus inputs rarely trigger this, so the
split path is exercised with a synthetic slot program engineered to give
one pattern more than 255 distinct successors.
"""


from repro.brisc.markov import CTX_BB, CTX_ENTRY, build_markov
from repro.brisc.pattern import DictPattern, pattern_of_instr
from repro.brisc.slots import Slot, SlotFunction, SlotProgram
from repro.vm.instr import Instr


def _slot(instr, block_start=False):
    return Slot(insns=(instr,),
                pattern=DictPattern((pattern_of_instr(instr),)),
                is_block_start=block_start)


def _make_program(slots):
    fn = SlotFunction("f", slots=slots)
    fn.slots[0].is_block_start = True
    return SlotProgram("t", functions=[fn])


class TestBasics:
    def test_single_function_contexts(self):
        slots = [
            _slot(Instr("li", (0, 1))),
            _slot(Instr("mov.i", (1, 0))),
            _slot(Instr("hlt", ())),
        ]
        model, fn_ids = build_markov(_make_program(slots))
        assert CTX_ENTRY in model.tables
        # mov follows li, hlt follows mov.
        li_id = fn_ids[0][0]
        mov_id = fn_ids[0][1]
        assert model.tables[li_id] == [mov_id]

    def test_block_start_uses_bb_context(self):
        slots = [
            _slot(Instr("li", (0, 1))),
            _slot(Instr("mov.i", (1, 0)), block_start=True),
            _slot(Instr("hlt", ())),
        ]
        model, fn_ids = build_markov(_make_program(slots))
        li_id = fn_ids[0][0]
        mov_id = fn_ids[0][1]
        assert CTX_BB in model.tables
        assert mov_id in model.tables[CTX_BB]
        # li's own successor table must NOT contain mov (the bb context
        # absorbed the transition).
        assert mov_id not in model.tables.get(li_id, [])

    def test_no_splits_on_small_input(self):
        slots = [_slot(Instr("li", (0, i))) for i in range(10)]
        slots.append(_slot(Instr("hlt", ())))
        model, _ = build_markov(_make_program(slots))
        assert model.splits == 0


class TestSplitting:
    def _overflow_program(self, successors=300):
        """One 'hub' pattern followed by `successors` distinct patterns."""
        hub = Instr("mov.i", (0, 0))
        slots = []
        for i in range(successors):
            slots.append(_slot(hub))
            # Distinct successor: li with a distinct large immediate burned
            # into a fully-specialized pattern, making each unique.
            target = Instr("li", (1, 1000 + i))
            p = pattern_of_instr(target)
            for _ in range(2):
                p = p.specializations(target)[0]
            slots.append(Slot(insns=(target,), pattern=DictPattern((p,))))
        slots.append(_slot(Instr("hlt", ())))
        return _make_program(slots)

    def test_overflowing_context_is_split(self):
        program = self._overflow_program(300)
        model, fn_ids = build_markov(program)
        assert model.splits >= 1
        # Every pattern context now fits the byte limit.
        for ctx, table in model.tables.items():
            if ctx >= 0:
                assert len(table) <= 255

    def test_split_preserves_pattern_semantics(self):
        program = self._overflow_program(300)
        model, fn_ids = build_markov(program)
        # The clone points at the same DictPattern object contents.
        ids = fn_ids[0]
        hub_ids = {ids[i] for i in range(0, len(ids) - 1, 2)}
        assert len(hub_ids) >= 2  # original + clone(s) in use
        patterns = {model.patterns[i] for i in hub_ids}
        assert len(patterns) == 1  # same semantics

    def test_under_limit_not_split(self):
        program = self._overflow_program(200)
        model, _ = build_markov(program)
        assert model.splits == 0


class TestPatternIds:
    def _program(self):
        slots = [
            _slot(Instr("li", (0, 1))),
            _slot(Instr("mov.i", (1, 0))),
            _slot(Instr("li", (0, 1))),
            _slot(Instr("hlt", ())),
        ]
        return _make_program(slots)

    def test_pattern_id_matches_build_assignment(self):
        """Ids are assigned in first-use order, and each slot's id indexes
        its pattern in ``model.patterns``."""
        program = self._program()
        model, fn_ids = build_markov(program)
        assert fn_ids[0] == [0, 1, 0, 2]
        for fi, fn in enumerate(program.functions):
            for i, slot in enumerate(fn.slots):
                assert model.patterns[fn_ids[fi][i]] == slot.pattern

    def test_split_clone_maps_to_original_id(self):
        """A split clone aliases its original pattern: the clone's id
        holds the very pattern the hub's first-use id holds."""
        hub = Instr("mov.i", (0, 0))
        slots = []
        for i in range(300):
            slots.append(_slot(hub))
            target = Instr("li", (1, 1000 + i))
            p = pattern_of_instr(target)
            for _ in range(2):
                p = p.specializations(target)[0]
            slots.append(Slot(insns=(target,), pattern=DictPattern((p,))))
        slots.append(_slot(Instr("hlt", ())))
        program = _make_program(slots)
        model, fn_ids = build_markov(program)
        assert model.splits >= 1
        hub_ids = {fn_ids[0][i] for i in range(0, len(fn_ids[0]) - 1, 2)}
        # The hub is the first pattern used, so its canonical id is 0; the
        # clones relabel some of its occurrences.
        assert min(hub_ids) == 0 and len(hub_ids) >= 2
        for pid in hub_ids:
            assert model.patterns[pid] is model.patterns[0]
        assert model.patterns[0] == program.functions[0].slots[0].pattern
