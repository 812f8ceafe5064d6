"""BRISC: the interpretable compressed code of the paper.

Public API::

    result = compress(program, k=20)        # -> CompressedProgram
    result.image.size                       # bytes, incl. dictionary+tables
    run = run_image(result.image.blob)      # interpret in place
    decoded = decompress(result.image.blob) # back to a VMProgram
"""

from __future__ import annotations

from dataclasses import dataclass

from ..vm.instr import VMProgram
from .builder import BuildResult, PassStats, build_dictionary
from .encode import BriscImage, decode_image, encode_image
from .interp import BriscInterpreter, run_image
from .markov import MarkovModel
from .pattern import DictPattern, InsnPattern, pattern_of_instr
from .slots import SlotProgram, build_slots

__all__ = [
    "BriscImage", "BriscInterpreter", "BuildResult", "CompressedProgram",
    "DictPattern", "InsnPattern", "MarkovModel", "PassStats",
    "SlotProgram", "build_dictionary", "build_slots", "compress",
    "decompress", "pattern_of_instr", "run_image",
]


@dataclass
class CompressedProgram:
    """Everything the compressor produced, for measurement and execution."""

    image: BriscImage
    build: BuildResult
    model: MarkovModel

    @property
    def size(self) -> int:
        return self.image.size

    @property
    def dictionary_size(self) -> int:
        """Number of dictionary patterns (the paper reports 981 for lcc,
        1232 for gcc-2.6.3)."""
        return self.image.pattern_count

    @property
    def candidates_tested(self) -> int:
        return self.build.candidates_tested


def compress(
    program: VMProgram,
    k: int = 20,
    abundant_memory: bool = False,
    max_passes: int = 40,
    journal: bool = False,
) -> CompressedProgram:
    """Compress a VM program into BRISC (K best candidates per pass).

    ``journal=True`` records a replay journal on ``result.build`` so a
    later compile of an edited program can replay this build
    (:mod:`repro.brisc.journal`); the image bytes are unaffected.
    """
    build = build_dictionary(program, k=k, abundant_memory=abundant_memory,
                             max_passes=max_passes, journal=journal)
    image, model = encode_image(build.slots, program.globals)
    return CompressedProgram(image=image, build=build, model=model)


def decompress(blob: bytes) -> VMProgram:
    """Decode a BRISC image back to a runnable VM program."""
    return decode_image(blob)
