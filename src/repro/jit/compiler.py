"""The BRISC just-in-time compiler.

"The decompressor for BRISC uses a table of native instruction sequences
for interpretation or native code generation" — compilation is template
splicing: each dictionary entry has a native code template and a splice
plan, one per target chip, kept in that target's table for the life of
the process; compiling a function walks the compressed bytes, resolves
each opcode through the Markov context tables, and splices the entry's
template runs with the slot's operand bytes between them.  No parsing,
no register allocation — which is how the original hit 2.5 MB/s of
produced code on a 120 MHz Pentium.

The emitted bytes are the synthetic native encodings of
:mod:`repro.native`; they are not executable, but their sizes and the
compile throughput are exactly what the paper's Table 2 measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..native.base import NativeTarget
from ..native.targets import PentiumLike
from ..brisc.cost import representative_instr
from ..brisc.encode import (
    DecodedImage, parse_image, resolve_opcode, slot_context, slot_start,
)
from ..brisc.pattern import DictPattern, InsnPattern
from ..errors import TruncatedStreamError
from ..vm.isa import SPEC, Operand

__all__ = ["JITResult", "BriscJIT", "jit_compile"]


@dataclass
class JITResult:
    """Output and throughput of one JIT compilation."""

    native_code: bytes
    compile_seconds: float
    slots_compiled: int
    input_bytes: int

    @property
    def output_bytes(self) -> int:
        return len(self.native_code)

    @property
    def mb_per_second(self) -> float:
        """Megabytes of produced native code per second (the paper's
        headline 2.5 MB/s metric)."""
        if self.compile_seconds <= 0:
            return float("inf")
        return self.output_bytes / self.compile_seconds / 1_000_000


class _Splice(NamedTuple):
    """How the slots of one dictionary entry splice on one target.

    A slot's native bytes are the entry's template with the slot's
    operand bytes copied over the template's operand holes: the template
    runs between the holes, each followed by the operand byte range that
    fills its hole, and then the template's tail.
    """

    operand_bytes: int  # encoded operand size in the BRISC stream
    #: (template run, operand start, operand end) per filled hole.
    runs: Tuple[Tuple[bytes, int, int], ...]
    tail: bytes
    #: Offsets in the slot's native bytes of each 2-byte branch target.
    labels: Tuple[int, ...]


#: Per native target class (targets hold no state, so a target's
#: encodings are its class's), the splice plan of every dictionary entry
#: and the native bytes of every part seen so far.  A plan depends only
#: on the target and the entry's value, so an entry repeated across
#: images is planned once.  Filled on first use and kept for the process,
#: like ``brisc.pattern``'s size caches; bounded by the number of distinct
#: entries and parts seen.  Two threads may plan one entry at once, and
#: either equal plan may stay.  The builder's cost model keeps its own
#: per-build table and never reads this one, so a cold build stays cold.
_TABLES: Dict[type, Tuple[Dict[DictPattern, _Splice],
                          Dict[InsnPattern, bytes]]] = {}


def _splice_plan(target: NativeTarget, natives: Dict[InsnPattern, bytes],
                 pattern: DictPattern) -> _Splice:
    """Build ``pattern``'s template on ``target`` from its parts' native
    bytes (looked up in, or added to, ``natives``) and plan its splice."""
    template = bytearray()
    holes: List[Tuple[int, int]] = []  # (template offset, length) per part
    labels: List[int] = []
    for part in pattern.parts:
        native = natives.get(part)
        if native is None:
            native = natives[part] = target.encode_instr(
                representative_instr(part))
        # The hole is the operand tail of the native instruction (all
        # bytes after the opcode+modrm prefix).
        prefix = min(2, len(native))
        holes.append((len(template) + prefix, len(native) - prefix))
        # Branch targets get patched in a second pass: record where the
        # native relative-offset field lands (the encoding tail).  A label
        # is always a wildcard: the dictionary holds no burned labels.
        if (Operand.LABEL in SPEC[part.name].signature
                and len(native) >= prefix + 2):
            labels.append(len(template) + len(native) - 2)
        template += native
    # The operand bytes fill the holes in order, each hole as far as the
    # operands reach, up to the first empty hole.
    operand_bytes = pattern.operand_bytes()
    runs: List[Tuple[bytes, int, int]] = []
    cut = used = 0
    for at, length in holes:
        if used >= operand_bytes or length == 0:
            break
        take = min(length, operand_bytes - used)
        runs.append((bytes(template[cut:at]), used, used + take))
        used += take
        cut = at + take
    return _Splice(operand_bytes, tuple(runs), bytes(template[cut:]),
                   tuple(labels))


class BriscJIT:
    """Compiles BRISC images to native code by template splicing."""

    def __init__(self, image: bytes, target: Optional[NativeTarget] = None) -> None:
        self.image: DecodedImage = parse_image(image)
        self.target = target or PentiumLike()
        self._input_size = len(image)
        plans, natives = _TABLES.setdefault(type(self.target), ({}, {}))
        self._splices: List[_Splice] = []
        for pattern in self.image.patterns:
            plan = plans.get(pattern)
            if plan is None:
                plan = plans[pattern] = _splice_plan(self.target, natives,
                                                     pattern)
            self._splices.append(plan)

    def compile_function(self, index: int) -> Tuple[bytes, Dict[int, int]]:
        """Compile one function; returns (native bytes, BRISC offset ->
        native offset map, for branch patching).

        Opcodes resolve through the image's slot reader; the operand
        bytes are spliced raw, never unpacked into values.
        """
        image = self.image
        fn = image.functions[index]
        code = fn.code
        splices = self._splices
        out = bytearray()
        offset_map: Dict[int, int] = {}
        patches: List[Tuple[int, int]] = []
        pos = 0
        pid: Optional[int] = None
        n = len(code)
        while pos < n:
            start = offset_map[pos] = len(out)
            pid, pos = resolve_opcode(image, fn, pos,
                                      slot_context(fn, pos, pid))
            operand_bytes, runs, tail, labels = splices[pid]
            end = pos + operand_bytes
            if end > n:
                raise TruncatedStreamError(
                    f"image ends before the operands of a slot in {fn.name}")
            for run, first, last in runs:
                out += run
                out += code[pos + first:pos + last]
            out += tail
            if labels:
                # The label operand is the trailing 2 bytes of the BRISC
                # operand payload (labels encode last among wide fields).
                label = code[end - 2] | code[end - 1] << 8
                for hole in labels:
                    patches.append((start + hole, label))
            pos = end
        # Branch-patching pass: rewrite each branch's native field with the
        # native offset of its BRISC target block.
        for native_pos, brisc_target in patches:
            native_target = slot_start(offset_map, fn, brisc_target) & 0xFFFF
            out[native_pos : native_pos + 2] = native_target.to_bytes(
                2, "little")
        return bytes(out), offset_map

    def compile_program(self) -> JITResult:
        """Compile every function, measuring wall-clock throughput."""
        start = time.perf_counter()
        chunks: List[bytes] = []
        slots = 0
        for i in range(len(self.image.functions)):
            native, offset_map = self.compile_function(i)
            chunks.append(native)
            slots += len(offset_map)
        elapsed = time.perf_counter() - start
        return JITResult(
            native_code=b"".join(chunks),
            compile_seconds=elapsed,
            slots_compiled=slots,
            input_bytes=self._input_size,
        )


def jit_compile(image: bytes, target: Optional[NativeTarget] = None) -> JITResult:
    """One-shot: compile a BRISC image to native code."""
    return BriscJIT(image, target).compile_program()
