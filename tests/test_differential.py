"""Seeded differential harness: every representation runs a program the
way the plain VM does.

Each unit is ``generate_program_source(10, seed)`` plus a signed-zero
probe (``0.0`` and ``-0.0`` stored into two globals and printed), the
literal pair a value-keyed table anywhere in the pipeline would merge.
Against the plain VM's exit code and output, the harness checks the
wire round trip with its streams deflated and stored, BRISC in place
with and without the decode cache, BRISC decompressed, the image
repacked as a multi-chunk BRI3 container, a journal-replayed build after
a seeded one-literal edit, and each ISA variant of the ablation study.

Tier-1 runs the seeds in ``SEEDS``; a wider sweep selects its own with
``--harness-seeds`` (see ``tests/conftest.py``), for example
``python -m pytest tests/test_differential.py --harness-seeds 1-100``.
"""

import random
import re
from dataclasses import replace

import pytest

from repro.brisc import decompress, run_image
from repro.brisc.encode import (
    container_index, decode_function, parse_image, repack_v3,
)
from repro.codegen import ABLATION_VARIANTS, generate_program
from repro.corpus.generator import generate_program_source
from repro.jit import jit_compile
from repro.pipeline import Toolchain
from repro.vm import run_program
from repro.wire import decode_module

#: The tier-1 seeds.
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
FUNCTIONS = 10
MAX_STEPS = 5_000_000

PROBE = """
double zero_pos;
double zero_neg;
int signed_zero_probe(void) {
    zero_pos = 0.0;
    zero_neg = -0.0;
    print_double(zero_pos);
    putchar(' ');
    print_double(zero_neg);
    putchar('\\n');
    return 0;
}

int main(void) {
    signed_zero_probe();
"""

#: An integer literal in an expression, loop bound or argument: not part
#: of a float literal or a name, not a case label (an edit could repeat
#: one) and not an index mask (an edit could index out of bounds).
_LITERAL = re.compile(r"(?<![\w.])(?<!case )(?<!& )\d+(?![\w.])")


def harness_source(seed):
    source = generate_program_source(FUNCTIONS, seed)
    assert source.count("\nint main(void) {\n") == 1
    return source.replace("\nint main(void) {\n", PROBE)


def edit_one_literal(source, seed):
    """Add one to an integer literal inside a function body, chosen by
    ``seed``."""
    lines = source.split("\n")
    sites = [(i, m.start(), m.end())
             for i, line in enumerate(lines) if line.startswith("    ")
             for m in _LITERAL.finditer(line)]
    i, start, end = random.Random(seed).choice(sites)
    line = lines[i]
    lines[i] = f"{line[:start]}{int(line[start:end]) + 1}{line[end:]}"
    return "\n".join(lines)


def outcome(result):
    return result.exit_code, result.output


def binary_artifacts(result):
    return {"wire": result.wire_blob,
            "deflate": result.artifact("deflate").payload,
            "brisc": result.brisc.image.blob}


def pytest_generate_tests(metafunc):
    if "unit" not in metafunc.fixturenames:
        return
    spec = metafunc.config.getoption("harness_seeds")
    if spec is None:
        seeds = list(SEEDS)
    elif "-" in spec:
        low, high = spec.split("-")
        seeds = list(range(int(low), int(high) + 1))
    else:
        seeds = [int(s) for s in spec.split(",")]
    metafunc.parametrize("unit", seeds, indirect=True, scope="module",
                         ids=[f"seed{s}" for s in seeds])


class Unit:
    """One seed's source, its journaled build and the VM's run of it."""

    def __init__(self, seed):
        self.seed = seed
        self.source = harness_source(seed)
        self.toolchain = Toolchain()
        self.config = self.toolchain.config.with_journal()
        self.result = self.toolchain.compile(self.source, name=f"gen{seed}",
                                             config=self.config)
        self.blob = self.result.brisc.image.blob
        self.expected = outcome(run_program(self.result.program,
                                            max_steps=MAX_STEPS))


@pytest.fixture(scope="module")
def unit(request):
    return Unit(request.param)


def test_vm_reference_prints_both_zeros(unit):
    exit_code, output = unit.expected
    assert exit_code == 0
    assert output.startswith("0 -0\n")


@pytest.mark.parametrize("compress", [True, False],
                         ids=["deflate", "stored"])
def test_wire_round_trip(unit, compress):
    blob = unit.toolchain.compile(
        unit.source, name=f"gen{unit.seed}", stages=["wire"],
        config=replace(unit.config, wire_compress=compress)).wire_blob
    program = generate_program(decode_module(blob))
    assert outcome(run_program(program, max_steps=MAX_STEPS)) == \
        unit.expected


@pytest.mark.parametrize("cache_decoded", [True, False],
                         ids=["cached", "uncached"])
def test_brisc_in_place(unit, cache_decoded):
    result = run_image(unit.blob, max_steps=MAX_STEPS,
                       cache_decoded=cache_decoded)
    assert outcome(result) == unit.expected


def test_brisc_decompressed(unit):
    program = decompress(unit.blob)
    assert outcome(run_program(program, max_steps=MAX_STEPS)) == \
        unit.expected


def test_bri3_repack(unit):
    whole = parse_image(unit.blob)
    code_bytes = sum(len(fn.code) for fn in whole.functions)
    v3 = repack_v3(unit.blob, chunk_bytes=max(1, code_bytes // 4))
    assert len(container_index(v3).chunks) > 1
    assert outcome(run_image(v3, max_steps=MAX_STEPS)) == unit.expected
    for fn in whole.functions:
        assert decode_function(v3, fn.name) == fn
    assert jit_compile(v3).native_code == jit_compile(unit.blob).native_code


def test_journal_replay_after_literal_edit(unit):
    edited = edit_one_literal(unit.source, unit.seed)
    assert edited != unit.source
    name = f"gen{unit.seed}"
    delta = unit.toolchain.compile(edited, name=name, config=unit.config,
                                   prev=unit.result)
    cold = Toolchain().compile(edited, name=name, config=unit.config)
    assert binary_artifacts(delta) == binary_artifacts(cold)
    expected = outcome(run_program(cold.program, max_steps=MAX_STEPS))
    assert outcome(run_image(delta.brisc.image.blob,
                             max_steps=MAX_STEPS)) == expected


@pytest.mark.parametrize("isa", ABLATION_VARIANTS,
                         ids=[isa.name.replace(" ", "-")
                              for isa in ABLATION_VARIANTS])
def test_ablation_variant(unit, isa):
    result = unit.toolchain.compile(
        unit.source, name=f"gen{unit.seed}", stages=["brisc"],
        config=unit.config.with_isa(isa))
    assert outcome(run_program(result.program, max_steps=MAX_STEPS)) == \
        unit.expected
    assert outcome(run_image(result.brisc.image.blob,
                             max_steps=MAX_STEPS)) == unit.expected
