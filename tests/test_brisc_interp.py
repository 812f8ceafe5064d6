"""In-place BRISC interpretation tests: execution equivalence."""

import pytest

import repro
from repro.brisc import BriscInterpreter, compress, run_image
from repro.corpus.samples import SAMPLES
from repro.vm import run_program


def compile_sample(name):
    return repro.compile_c(SAMPLES[name], name)


_EXPECTED = {
    "wc": "4 30 156\n",
    "calc": "7\n21\n16\n20\n182\n",
    "strings": "noisserpmoc edoc\n10\n-1\n16\n",
    "hashtab": "235 -1\n",
}


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(_EXPECTED))
    def test_cached_interpretation_matches_vm(self, name):
        prog = compile_sample(name)
        base = run_program(prog)
        assert base.output == _EXPECTED[name]
        cp = compress(prog)
        r = run_image(cp.image.blob, cache_decoded=True)
        assert (r.exit_code, r.output) == (base.exit_code, base.output)

    @pytest.mark.parametrize("name", ["wc", "strings"])
    def test_uncached_interpretation_matches_vm(self, name):
        """True in-place mode: every visit re-decodes the slot."""
        prog = compile_sample(name)
        base = run_program(prog)
        cp = compress(prog)
        r = run_image(cp.image.blob, cache_decoded=False)
        assert (r.exit_code, r.output) == (base.exit_code, base.output)

    def test_step_counts_match_plain_vm(self):
        """BRISC executes the same dynamic instruction sequence."""
        prog = compile_sample("wc")
        base = run_program(prog)
        cp = compress(prog)
        r = run_image(cp.image.blob)
        assert r.steps == base.steps

    def test_uncached_decodes_more_slots(self):
        prog = compile_sample("wc")
        cp = compress(prog)
        cached = BriscInterpreter(cp.image.blob, cache_decoded=True)
        cached.run()
        uncached = BriscInterpreter(cp.image.blob, cache_decoded=False)
        uncached.run()
        assert uncached.slots_decoded > cached.slots_decoded

    def test_compression_with_learning_still_equivalent(self):
        # Force real dictionary growth, then check semantics survive
        # specialization + combination + Markov encoding.
        fns = "\n".join(
            f"int f{i}(int a, int b) {{ return a * {i + 1} + b; }}"
            for i in range(30)
        )
        src = fns + """
            int main(void) {
                int acc = 0;
                acc += f0(1, 2); acc += f7(3, 4); acc += f29(5, 6);
                print_int(acc);
                return 0;
            }
        """
        prog = repro.compile_c(src)
        base = run_program(prog)
        cp = compress(prog, k=8)
        assert cp.build.dictionary_size > cp.build.base_patterns  # learned
        r = run_image(cp.image.blob)
        assert (r.exit_code, r.output) == (base.exit_code, base.output)

    def test_entry_args_forwarded(self):
        prog = repro.compile_c("""
            int main(void) { return 0; }
            int square(int x) { return x * x; }
        """)
        cp = compress(prog)
        interp = BriscInterpreter(cp.image.blob)
        result = interp.run("square", args=(9,))
        assert result.exit_code == 81

    def test_jump_into_mid_block_rejected(self):
        """A jump lands on a slot that is no block start, so no context
        decodes it: ``jmp L0; mov.i; hlt`` with the label forged to hlt's
        offset, 5."""
        from repro.brisc.encode import parse_image, slot_context
        from repro.vm.instr import Instr
        from repro.vm.interp import VMError
        from .test_brisc_encode import single_function_image, with_code

        blob = single_function_image(Instr("jmp", ("L0",)),
                                     Instr("mov.i", (1, 2)), Instr("hlt", ()))
        forged = with_code(blob, bytes.fromhex("00" "0500" "0012" "00"))
        fn = parse_image(forged).functions[0]
        assert 5 not in fn.bb_offsets
        assert slot_context(fn, 5, None) is None  # reached by a jump
        for cached in (True, False):
            with pytest.raises(VMError, match="jump into mid-block offset 5"):
                run_image(forged, cache_decoded=cached)


class TestStepAccounting:
    """Both interpreters count steps exactly as ``Interpreter._exec``
    does, and every slot decode goes through the ``decode_slot`` name
    that the benchmark's tracer wraps."""

    def test_overrun_counts_the_step_that_overran(self):
        from repro.vm.interp import Interpreter, VMError

        prog = repro.compile_c("int main(void) { for (;;) ; return 0; }")
        blob = compress(prog).image.blob
        interps = [Interpreter(prog, max_steps=1000)] + [
            BriscInterpreter(blob, max_steps=1000, cache_decoded=cached)
            for cached in (True, False)]
        for interp in interps:
            with pytest.raises(VMError, match="^exceeded 1000 steps$"):
                interp.run()
            assert interp.steps == 1001

    def test_decodes_counted_through_the_traced_name(self, monkeypatch):
        import repro.brisc.interp

        real = repro.brisc.interp.decode_slot
        calls = []

        def counting(*args):
            calls.append((args[1].name, args[2]))  # (function, offset)
            return real(*args)

        monkeypatch.setattr(repro.brisc.interp, "decode_slot", counting)
        blob = compress(compile_sample("wc")).image.blob
        visited = {}
        for cached in (False, True):
            calls.clear()
            interp = BriscInterpreter(blob, cache_decoded=cached)
            assert interp.run().output == _EXPECTED["wc"]
            assert len(calls) == interp.slots_decoded
            visited[cached] = set(calls)
        assert interp.slots_decoded == len(visited[True])  # once per slot
        assert visited[True] == visited[False]


class TestNonfiniteConversion:
    """C leaves converting an infinity or a NaN to an integer undefined:
    every interpreter raises the typed ``VMError``, not Python's own
    ``OverflowError``/``ValueError``."""

    @pytest.mark.parametrize("make", ["x=x*10.0;", "x=x*10.0; x=x-x;"],
                             ids=["inf", "nan"])
    def test_raises_vm_error_everywhere(self, make):
        from repro.vm.interp import VMError

        prog = repro.compile_c(
            "int main(void){double x=1e308; int i; " + make +
            " i=(int)x; print_int(i); return 0;}")
        with pytest.raises(VMError, match="cannot convert"):
            run_program(prog)
        image = compress(prog).image.blob
        for cached in (True, False):
            with pytest.raises(VMError, match="cannot convert"):
                run_image(image, cache_decoded=cached)
