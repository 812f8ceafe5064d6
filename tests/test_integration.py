"""Whole-pipeline integration tests.

For each corpus sample: C source -> tree IR -> wire round-trip -> VM code
-> BRISC round-trip -> execution equivalence across every representation.
"""

import pytest

import repro
from repro.brisc import compress, decompress, run_image
from repro.cfront import compile_to_ast
from repro.codegen import generate_program
from repro.corpus.samples import SAMPLES
from repro.ir import lower_unit
from repro.jit import jit_compile
from repro.vm import run_program
from repro.wire import decode_module, encode_module

FAST_SAMPLES = ["wc", "calc", "hashtab", "strings", "sort", "matrix"]

#: ``-0.0`` beside ``0.0``: equal under ``==`` but encoded differently, so
#: a value-keyed table in any representation prints ``0 0``.
NEGATIVE_ZERO = """
double a;
double b;
int f(void) { a = 0.0; b = -0.0; return 1; }
int g(void) { a = 0.0; return 2; }
int h(void) { a = 0.0; return 3; }
int main(void) {
    f(); g(); h();
    print_double(a); putchar(' '); print_double(b); putchar('\\n');
    return 0;
}
"""

#: A ``switch`` whose arms all end in ``break``: each arm jumps to one
#: label, so a pattern with that label burned in once paid for itself and
#: was admitted, and no reader could decode the image.
SWITCH_BREAKS = """
int f(int x) {
    int r;
    switch (x) {
    case 0: r = 10; break;
    case 1: r = 20; break;
    case 2: r = 30; break;
    case 3: r = 40; break;
    case 4: r = 50; break;
    case 5: r = 60; break;
    default: r = 0; break;
    }
    return r;
}
int main(void) {
    int i;
    for (i = 0; i < 8; i = i + 1) { print_int(f(i)); putchar(' '); }
    putchar('\\n');
    return 0;
}
"""

PIPELINE_INPUTS = [(name, SAMPLES[name]) for name in FAST_SAMPLES]
PIPELINE_INPUTS.append(("negative_zero", NEGATIVE_ZERO))
PIPELINE_INPUTS.append(("switch_breaks", SWITCH_BREAKS))


@pytest.mark.parametrize("name, src", PIPELINE_INPUTS,
                         ids=[name for name, _ in PIPELINE_INPUTS])
def test_full_pipeline(name, src):
    module = lower_unit(compile_to_ast(src, name), name)

    # Reference execution.
    program = generate_program(module)
    base = run_program(program, max_steps=20_000_000)
    assert base.exit_code == 0

    # Wire: encode, decode, regenerate, re-run.
    wired = decode_module(encode_module(module))
    rewired = run_program(generate_program(wired), max_steps=20_000_000)
    assert (rewired.exit_code, rewired.output) == \
        (base.exit_code, base.output)

    # BRISC: compress, interpret in place, decompress and re-run.
    cp = compress(program)
    for cache_decoded in (True, False):
        inplace = run_image(cp.image.blob, max_steps=20_000_000,
                            cache_decoded=cache_decoded)
        assert (inplace.exit_code, inplace.output) == \
            (base.exit_code, base.output)
    redecoded = run_program(decompress(cp.image.blob), max_steps=20_000_000)
    assert (redecoded.exit_code, redecoded.output) == \
        (base.exit_code, base.output)

    # JIT: compiles without error and emits code for every function.
    jit = jit_compile(cp.image.blob)
    assert jit.output_bytes > 0


def test_sizes_are_ordered_sensibly():
    """Across the pipeline on a mid-size program: wire < BRISC code segment
    < uncompressed VM encoding < SPARC-like native."""
    from repro.native import SparcLike
    from repro.vm import program_size
    from repro.wire import wire_size

    src = "\n".join(
        SAMPLES[n].replace("int main(void)", f"int m_{n}(void)")
        for n in FAST_SAMPLES
    ) + "\nint main(void) { return m_wc(); }"
    module = lower_unit(compile_to_ast(src, "linked"), "linked")
    program = generate_program(module)

    wire = wire_size(module)
    vm = program_size(program)
    native = SparcLike().program_size(program)
    brisc = compress(program).image.code_segment_size

    assert wire < vm < native
    assert brisc < native


def test_pipeline_through_public_api():
    program = repro.compile_c(SAMPLES["wc"], "wc")
    assert repro.run(program).output == "4 30 156\n"
