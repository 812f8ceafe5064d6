"""Shared measurement runners behind every table and figure.

Each function computes one experiment's numbers; ``benchmarks/`` and
``examples/`` call these so the reported rows come from a single code
path.  Heavyweight artifacts (suite compilation, BRISC compression) come
from the shared :func:`repro.pipeline.default_toolchain`, whose
content-addressed cache keeps pytest-benchmark's many repeated calls
from recompiling anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

from ..brisc import CompressedProgram, run_image
from ..codegen import ABLATION_VARIANTS
from ..compress import deflate
from ..corpus import build_input, suite_source
from ..jit import jit_compile
from ..native import PentiumLike, SparcLike
from ..pipeline import default_toolchain, vm_code_bytes
from ..vm import run_program

__all__ = [
    "WireRow", "BriscRow", "AblationRow", "wire_row", "brisc_row",
    "ablation_rows", "vm_code_bytes", "compressed_suite", "interp_overhead",
]


# ---------------------------------------------------------------------------
# Table 1: wire-format sizes
# ---------------------------------------------------------------------------


@dataclass
class WireRow:
    """One row of the paper's wire-code table."""

    name: str
    conventional: int      # SPARC-like native code bytes (uncompressed)
    gzipped: int           # deflate of the conventional code
    wire: int              # our wire format

    @property
    def wire_factor(self) -> float:
        """Conventional / wire — the paper reports up to 4.9 for gcc."""
        return self.conventional / self.wire if self.wire else 0.0


def wire_row(name: str) -> WireRow:
    """Compute one Table-1 row for a suite input."""
    inp = build_input(name)
    conventional = SparcLike().program_size(inp.program)
    sparc_bytes = b"".join(
        SparcLike().encode_function(fn) for fn in inp.program.functions
    )
    gzipped = len(deflate.compress(sparc_bytes))
    # Code segments only, as the paper measures (the baseline carries no
    # symbol table or data image either).  The wire artifact's meta carries
    # that metric; parse/lower hit the cache ``build_input`` warmed.
    res = default_toolchain().compile(inp.source, name=name,
                                      stages=("wire",))
    wire = res.artifact("wire").meta["code_size"]
    return WireRow(name, conventional, gzipped, wire)


# ---------------------------------------------------------------------------
# Table 2: BRISC sizes, JIT throughput, runtime ratios
# ---------------------------------------------------------------------------


def compressed_suite(name: str) -> CompressedProgram:
    """Compress a suite input at the default K=20 (the expensive step).

    Routed through the shared toolchain, whose content-addressed cache
    holds one BRISC artifact per source and configuration, so benchmarks,
    tests, and the CLI all reuse one compression.
    """
    return default_toolchain().compile(
        suite_source(name), name=name, stages=("brisc",)).brisc


@dataclass
class BriscRow:
    """One row of the paper's BRISC results table (K=20).

    Sizes are normalized to the Pentium-like native encoding, as the paper
    normalizes to Visual C++ output.  ``jit_runtime_ratio`` uses the
    analytic model (JIT output runs at native speed; compilation cost is
    amortized over the run); ``interp_ratio`` is measured wall-clock of
    in-place BRISC interpretation against the plain VM interpreter.
    """

    name: str
    native_bytes: int
    brisc_rel: float
    gzip_rel: float
    jit_mb_per_s: float
    jit_runtime_ratio: float
    interp_ratio: float


def interp_overhead(
    name: str, max_steps: int = 200_000_000
) -> Tuple[float, float, float]:
    """(vm_seconds, brisc_seconds, ratio) on the suite input's workload.

    The BRISC side interprets the compressed image in place with slot
    caching disabled — every execution of an instruction re-decodes it,
    which is the configuration whose overhead the paper's 12x figure
    describes.
    """
    inp = build_input(name)
    cp = compressed_suite(name)
    t0 = time.perf_counter()
    base = run_program(inp.program, max_steps=max_steps)
    t1 = time.perf_counter()
    r = run_image(cp.image.blob, cache_decoded=False, max_steps=max_steps)
    t2 = time.perf_counter()
    if (r.exit_code, r.output) != (base.exit_code, base.output):
        raise AssertionError(f"BRISC run diverged on {name}")
    vm_s = t1 - t0
    brisc_s = t2 - t1
    return vm_s, brisc_s, brisc_s / vm_s if vm_s > 0 else float("inf")


def brisc_row(name: str, measure_interp: bool = True) -> BriscRow:
    """Compute one Table-2 row."""
    inp = build_input(name)
    cp = compressed_suite(name)
    target = PentiumLike()
    native = target.program_size(inp.program)
    gzip_rel = len(deflate.compress(vm_code_bytes(inp.program))) / native
    brisc_rel = cp.image.code_segment_size / native

    jit = jit_compile(cp.image.blob, target)
    # Analytic runtime model: the JIT's output is the same native code the
    # static compiler would emit (template splicing, no re-optimization),
    # so steady-state speed is 1.0x; the visible cost is compiling once.
    # Amortize compile time over a nominal 1-second run, as the paper's
    # benchmarks (whole-program runs) do.
    nominal_run_seconds = 1.0
    jit_ratio = (nominal_run_seconds + jit.compile_seconds) / nominal_run_seconds

    if measure_interp:
        _, _, interp_ratio = interp_overhead(name)
    else:
        interp_ratio = float("nan")
    return BriscRow(
        name=name,
        native_bytes=native,
        brisc_rel=brisc_rel,
        gzip_rel=gzip_rel,
        jit_mb_per_s=jit.mb_per_second,
        jit_runtime_ratio=jit_ratio,
        interp_ratio=interp_ratio,
    )


# ---------------------------------------------------------------------------
# Table 3: the abstract-machine ablation
# ---------------------------------------------------------------------------


@dataclass
class AblationRow:
    """One row of the de-tuned abstract machine table."""

    variant: str
    native_size: int
    compressed_size: int

    @property
    def ratio(self) -> float:
        """compressed/native — the paper's 0.54 / 0.56 / 0.57 / 0.59."""
        return self.compressed_size / self.native_size


def ablation_rows(name: str = "lcc") -> List[AblationRow]:
    """Compress the same input under each abstract-machine variant.

    ``native_size`` is the Pentium-like size of the *full-feature* machine's
    code, held constant across rows (the paper normalizes each variant's
    compressed size against native code, which does not change when the
    abstract machine is de-tuned).
    """
    toolchain = default_toolchain()
    baseline = build_input(name, ABLATION_VARIANTS[0])
    native = PentiumLike().program_size(baseline.program)
    rows: List[AblationRow] = []
    for isa in ABLATION_VARIANTS:
        inp = build_input(name, isa)
        config = toolchain.config.with_isa(isa)
        cp = toolchain.compile(inp.source, name=name, stages=("brisc",),
                               config=config).brisc
        rows.append(AblationRow(isa.name, native, cp.image.code_segment_size))
    return rows
