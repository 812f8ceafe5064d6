"""The pipeline's stages: source → trees → VM code → compressed forms.

Each :class:`Stage` declares its upstream (``requires``), contributes a
configuration fragment to the cache key, and produces one payload plus
size/meta measurements.  The stage graph mirrors the paper's toolchain::

    source ──parse──► AST ──lower──► IR module ──codegen──► VM program
                                         │                     │
                                       wire               brisc, deflate

``vm_code_bytes`` lives here (not in :mod:`repro.bench.measure`) because
the VM code segment is itself a pipeline artifact: the deflate stage
compresses it, and ``python -m repro sizes`` reports it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..cfront import compile_to_ast
from ..codegen import generate_program
from ..compress import deflate
from ..compress.streams import pack_streams, stored_streams, unpack_streams
from ..ir import lower_unit
from ..vm.encode import encode_function
from ..vm.instr import VMProgram
from ..vm import program_size
from ..wire import encode_module
from .config import PipelineConfig

__all__ = [
    "STAGES", "STAGE_NAMES", "Stage", "BriscStage", "CodegenStage",
    "DeflateStage", "LowerStage", "ParseStage", "WireStage",
    "finish_brisc", "resolve_stages", "vm_code_bytes",
]


def vm_code_bytes(program: VMProgram) -> bytes:
    """The program's code segment in the base VM binary encoding."""
    symbol_ids = {fn.name: i for i, fn in enumerate(program.functions)}
    for g in program.globals:
        symbol_ids.setdefault(g.name, len(symbol_ids))
    return b"".join(encode_function(fn, symbol_ids) for fn in program.functions)


class Stage:
    """One pipeline step.

    ``requires`` names the upstream stage whose payload this stage
    consumes (``None`` consumes the raw source text).  ``config_fragment``
    returns the part of the configuration this stage's output depends on;
    it is hashed into the stage's cache key.
    """

    name: str = ""
    requires: Optional[str] = None

    def config_fragment(self, config: PipelineConfig) -> str:
        return ""

    def run(self, value: Any, unit: str,
            config: PipelineConfig) -> Tuple[Any, int, Dict[str, Any]]:
        """Produce ``(payload, size_bytes, meta)`` from the upstream value."""
        raise NotImplementedError


class ParseStage(Stage):
    """C source → typed AST (the full front end: lex, parse, sema)."""

    name = "parse"
    requires = None

    def run(self, value, unit, config):
        source: str = value
        ast = compile_to_ast(source, unit)
        return ast, len(source.encode()), {}


class LowerStage(Stage):
    """AST → lcc-style tree IR module."""

    name = "lower"
    requires = "parse"

    def run(self, value, unit, config):
        module = lower_unit(value, unit)
        trees = sum(len(fn.forest) for fn in module.functions)
        nodes = sum(t.size for fn in module.functions for t in fn.forest)
        meta = {"functions": len(module.functions), "trees": trees,
                "nodes": nodes}
        return module, 0, meta


class CodegenStage(Stage):
    """IR module → linked VM program (size = VM binary encoding)."""

    name = "codegen"
    requires = "lower"

    def config_fragment(self, config):
        isa = config.isa
        return f"isa={isa.name};imm={isa.immediates};regdisp={isa.regdisp}"

    def run(self, value, unit, config):
        program = generate_program(value, config.isa)
        meta = {
            "functions": len(program.functions),
            "instructions": sum(len(fn.code) for fn in program.functions),
        }
        return program, program_size(program), meta


class WireStage(Stage):
    """IR module → wire-format blob.

    ``meta["code_size"]`` is the code-segments-only size (meta and symbol
    streams excluded), the paper's Table-1 metric.
    """

    name = "wire"
    requires = "lower"

    def config_fragment(self, config):
        fragment = "compress=True"
        # Only non-default container settings enter the key, so existing
        # v2 cache entries stay valid.
        if config.wire_container != 2:
            fragment += (f";container={config.wire_container}"
                         f";chunk={config.chunk_target_bytes}")
        return fragment

    def run(self, value, unit, config):
        if config.wire_container == 3:
            from ..wire import container_index, encode_module_v3

            blob = encode_module_v3(value,
                                    chunk_bytes=config.chunk_target_bytes)
            index = container_index(blob)
            return blob, len(blob), {
                "code_size": len(blob) - index.header_bytes,
                "chunks": len(index.chunks),
                "index_bytes": index.header_bytes,
            }
        blob = encode_module(value)
        container = blob[4:]
        # Read the blob back: every CRC checked, every stream decoded.
        streams = unpack_streams(container)
        # The code size frames the code streams' payloads as the blob
        # stores them, without CRCs; nothing is compressed twice.
        code_streams = {k: v for k, v in stored_streams(container).items()
                        if k not in ("meta", "symtab")}
        code_size = 4 + len(pack_streams(code_streams, compress=False))
        return blob, len(blob), {"code_size": code_size,
                                 "streams": len(streams)}


class BriscStage(Stage):
    """VM program → BRISC :class:`repro.brisc.CompressedProgram`."""

    name = "brisc"
    requires = "codegen"

    def config_fragment(self, config):
        # The cost model and pass cap are compress()'s defaults; their
        # text stays in the key so existing cache entries stay valid.
        # Journaling leaves the image bytes untouched but attaches the
        # replay journal to the payload, so it keys separately.
        fragment = f"k={config.brisc_k};abundant=False;passes=40"
        if config.brisc_journal:
            fragment += ";journal=1"
        if config.brisc_container != 2:
            fragment += (f";container={config.brisc_container}"
                         f";chunk={config.chunk_target_bytes}")
        return fragment

    def run(self, value, unit, config):
        from ..brisc import compress  # deferred: brisc is the heaviest import

        cp = compress(value, k=config.brisc_k, journal=config.brisc_journal)
        return finish_brisc(cp, config)


def finish_brisc(cp, config: PipelineConfig) -> Tuple[Any, int, Dict[str, Any]]:
    """Post-process a :class:`repro.brisc.CompressedProgram` into a brisc
    stage result: optional v3 repack plus the artifact meta.  Shared by
    the cold stage and the incremental replay path, so both produce
    identical payloads and meta for identical builds."""
    chunk_meta = {}
    if config.brisc_container == 3:
        from ..brisc.encode import container_index, repack_v3

        blob = repack_v3(cp.image.blob, config.chunk_target_bytes)
        index = container_index(blob)
        cp.image.blob = blob
        # The v3 header re-homes the function/chunk metadata that v2
        # interleaved with the code; report it as index overhead.
        cp.image.breakdown["index"] = (
            index.header_bytes - cp.image.breakdown.get("dictionary", 0)
            - cp.image.breakdown.get("tables", 0)
            - cp.image.breakdown.get("meta", 0))
        chunk_meta = {"chunks": len(index.chunks),
                      "index_bytes": index.header_bytes}
    meta = {
        "code_segment": cp.image.code_segment_size,
        "patterns": cp.image.pattern_count,
        "passes": cp.build.passes,
        "candidates_tested": cp.build.candidates_tested,
        "builder_seconds": round(cp.build.seconds, 6),
        "builder_passes": [
            {"candidates": p.candidates, "admitted": p.admitted,
             "seconds": round(p.seconds, 6)}
            for p in cp.build.pass_stats
        ],
    }
    meta.update(chunk_meta)
    return cp, cp.image.size, meta


class DeflateStage(Stage):
    """VM code segment → deflate blob (the paper's gzip baseline)."""

    name = "deflate"
    requires = "codegen"

    def run(self, value, unit, config):
        code = vm_code_bytes(value)
        blob = deflate.compress(code)
        return blob, len(blob), {"raw_bytes": len(code)}


#: Canonical stage order; dependencies always precede dependents.
STAGES: Tuple[Stage, ...] = (
    ParseStage(), LowerStage(), CodegenStage(), WireStage(), BriscStage(),
    DeflateStage(),
)

STAGE_NAMES: Tuple[str, ...] = tuple(s.name for s in STAGES)

_BY_NAME: Dict[str, Stage] = {s.name: s for s in STAGES}


def resolve_stages(stages=None) -> List[Stage]:
    """The requested stages plus their transitive upstreams, in run order.

    ``None`` selects every stage.
    """
    if stages is None:
        return list(STAGES)
    wanted = set()
    for name in stages:
        stage = _BY_NAME.get(name)
        if stage is None:
            raise KeyError(f"unknown stage {name!r} (have: {STAGE_NAMES})")
        while stage is not None:
            wanted.add(stage.name)
            stage = _BY_NAME.get(stage.requires) if stage.requires else None
    return [s for s in STAGES if s.name in wanted]
