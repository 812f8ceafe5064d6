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
        from repro.brisc.encode import slot_context
        from repro.vm.interp import VMError

        prog = compile_sample("wc")
        cp = compress(prog)
        interp = BriscInterpreter(cp.image.blob)
        fn = interp._image.functions[0]
        assert 1 not in fn.bb_offsets
        assert slot_context(fn, 1, None) is None  # offset 1 is mid-slot
        with pytest.raises(VMError):
            interp._fetch_slot(0, 1, None)  # reached by a jump


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
