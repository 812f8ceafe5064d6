"""repro — a reproduction of "Code Compression" (PLDI 1997).

The paper's two compressors and everything they stand on, from scratch:

* :mod:`repro.cfront` — a C-subset compiler front end (the lcc stand-in);
* :mod:`repro.ir` — lcc-style tree IR and AST lowering;
* :mod:`repro.vm` — a RISC virtual machine (the OmniVM stand-in) with
  binary encoding, assembler, and interpreter;
* :mod:`repro.codegen` — IR-to-VM code generation, including the de-tuned
  abstract machines of the paper's ablation;
* :mod:`repro.compress` — MTF, canonical Huffman, LZ77, a deflate-like
  container, and an arithmetic coder, all from scratch;
* :mod:`repro.wire` — the wire format (patternize + split streams + MTF +
  Huffman + LZ);
* :mod:`repro.brisc` — BRISC: operand specialization, opcode combination,
  the B = P − W greedy dictionary builder, the order-1 Markov opcode
  model, and in-place interpretation of the compressed code;
* :mod:`repro.jit` — the template-splicing BRISC-to-native JIT;
* :mod:`repro.native` — synthetic Pentium/PowerPC/SPARC-like targets;
* :mod:`repro.pipeline` — the staged toolchain: typed artifacts,
  content-addressed caching, and parallel batch compilation;
* :mod:`repro.corpus` — benchmark programs and a synthetic generator;
* :mod:`repro.system` — delivery-latency and paging scenario models;
* :mod:`repro.bench` — the measurement runners behind every table;
* :mod:`repro.errors` — the one error root, its decode, compile, run
  and service families, and the resource limits every container decoder
  enforces;
* :mod:`repro.faults` — the deterministic fault-injection harness behind
  ``python -m repro fuzz``.

Quick start::

    import repro

    program = repro.compile_c("int main(void){ print_int(6*7); return 0; }")
    print(repro.run(program).output)            # 42

    compressed = repro.brisc.compress(program)
    print(repro.brisc.run_image(compressed.image.blob).output)  # 42
"""

from . import (
    bench, brisc, cfront, codegen, compress, corpus, errors, faults, ir,
    jit, native, pipeline, system, vm, wire,
)
from .cfront import compile_to_ast
from .codegen import generate_program
from .errors import (
    CorruptStreamError, DecodeError, ReproError, ResourceLimitError,
    ResourceLimits, TruncatedStreamError, UnsupportedFormatError,
)
from .ir import lower_unit
from .pipeline import Toolchain, default_toolchain
from .vm import run_program as run
from .vm.instr import VMProgram

__version__ = "1.0.0"

__all__ = [
    "CorruptStreamError", "DecodeError", "ReproError", "ResourceLimitError",
    "ResourceLimits", "Toolchain", "TruncatedStreamError",
    "UnsupportedFormatError", "VMProgram", "bench", "brisc", "cfront",
    "codegen", "compile_c", "compress", "corpus", "default_toolchain",
    "errors", "faults", "ir", "jit", "native", "pipeline", "run", "system",
    "vm", "wire",
]


def compile_c(source: str, name: str = "<input>") -> VMProgram:
    """Compile C source all the way to a linked VM program.

    Routed through the shared pipeline toolchain, so repeated compiles of
    the same source are served from the artifact cache.
    """
    return default_toolchain().compile(source, name=name,
                                       stages=("codegen",)).program
