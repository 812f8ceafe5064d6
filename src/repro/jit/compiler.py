"""The BRISC just-in-time compiler.

"The decompressor for BRISC uses a table of native instruction sequences
for interpretation or native code generation" — compilation is template
splicing: each dictionary pattern has a precomputed native code template
(one per target chip); compiling a function walks the compressed bytes,
resolves each opcode through the Markov context tables, appends the
pattern's template, and patches the operand bytes into the template's
holes.  No parsing, no register allocation — which is how the original hit
2.5 MB/s of produced code on a 120 MHz Pentium.

The emitted bytes are the synthetic native encodings of
:mod:`repro.native`; they are not executable, but their sizes and the
compile throughput are exactly what the paper's Table 2 measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..native.base import NativeTarget
from ..native.targets import PentiumLike
from ..brisc.cost import representative_instr
from ..brisc.encode import (
    DecodedImage, parse_image, resolve_opcode, slot_context, slot_start,
)
from ..brisc.pattern import DictPattern
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


@dataclass
class _PatternInfo:
    """Precomputed per-pattern compile info."""

    template: bytes
    operand_bytes: int  # encoded operand size in the BRISC stream
    holes: Tuple[Tuple[int, int], ...]  # (template offset, length) per part
    label_holes: Tuple[int, ...]  # template offsets of 2-byte branch targets


class BriscJIT:
    """Compiles BRISC images to native code by template splicing."""

    def __init__(self, image: bytes, target: Optional[NativeTarget] = None) -> None:
        self.image: DecodedImage = parse_image(image)
        self.target = target or PentiumLike()
        self._input_size = len(image)
        self._infos: List[_PatternInfo] = [
            self._build_info(p) for p in self.image.patterns
        ]

    def _build_info(self, pattern: DictPattern) -> _PatternInfo:
        parts_native: List[bytes] = []
        holes: List[Tuple[int, int]] = []
        label_holes: List[int] = []
        offset = 0
        for part in pattern.parts:
            native = self.target.encode_instr(representative_instr(part))
            # The hole is the operand tail of the native instruction (all
            # bytes after the opcode+modrm prefix).
            prefix = min(2, len(native))
            holes.append((offset + prefix, len(native) - prefix))
            # Branch targets get patched in a second pass: record where the
            # native relative-offset field lands (the encoding tail).  A
            # label is always a wildcard: the dictionary holds no burned
            # labels.
            if (Operand.LABEL in SPEC[part.name].signature
                    and len(native) >= prefix + 2):
                label_holes.append(offset + len(native) - 2)
            parts_native.append(native)
            offset += len(native)
        return _PatternInfo(
            template=b"".join(parts_native),
            operand_bytes=pattern.operand_bytes(),
            holes=tuple(holes),
            label_holes=tuple(label_holes),
        )

    def compile_function(self, index: int) -> Tuple[bytes, Dict[int, int]]:
        """Compile one function; returns (native bytes, BRISC offset ->
        native offset map, for branch patching).

        Opcodes resolve through the image's slot reader; the operand
        bytes are spliced raw, never unpacked into values.
        """
        image = self.image
        fn = image.functions[index]
        code = fn.code
        infos = self._infos
        out = bytearray()
        offset_map: Dict[int, int] = {}
        patches: List[Tuple[int, int]] = []
        pos = 0
        pid: Optional[int] = None
        n = len(code)
        while pos < n:
            offset_map[pos] = len(out)
            pid, pos = resolve_opcode(image, fn, pos,
                                      slot_context(fn, pos, pid))
            info = infos[pid]
            start = len(out)
            out += info.template
            # Patch the operand bytes into the template holes.
            end = pos + info.operand_bytes
            if end > n:
                raise TruncatedStreamError(
                    f"image ends before the operands of a slot in {fn.name}")
            operand = code[pos:end]
            pos = end
            oi = 0
            for hole_off, hole_len in info.holes:
                if oi >= len(operand) or hole_len == 0:
                    break
                chunk = operand[oi : oi + hole_len]
                out[start + hole_off : start + hole_off + len(chunk)] = chunk
                oi += len(chunk)
            for hole in info.label_holes:
                # The label operand is the trailing 2 bytes of the BRISC
                # operand payload (labels encode last among wide fields).
                patches.append((start + hole,
                                int.from_bytes(operand[-2:], "little")))
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
