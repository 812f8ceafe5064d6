"""Span tracing from outside the program.

The tracer wraps the public entry points of each layer (module
attributes and class methods named in :func:`layer_points`) for the
duration of a traced run and restores them afterwards; nothing under
``src/`` changes.  A span records name, start, end, parent and the
benchmark op it belongs to.  Spans are kept in memory and written out
once, as Chrome trace-event JSON plus a per-layer self-time table.

Self time of a span is its duration minus the time its child spans
cover.  High-frequency entry points (the cost model, slot decoding,
cache probes) are aggregated only — they take part in self-time
accounting but are not written as individual events.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name of the benchmark's own per-op root span; its self time is
#: the op's unattributed time (benchmark glue and unwrapped program code).
OP_SPAN = "op"


class Tracer:
    """In-memory span recorder; spans are taken only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.events: List[Tuple] = []
        #: span name -> [calls, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, fn: Callable, name: str, emit: bool = True,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so each call while active records a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [name, 0.0, next(tracer._ids)]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                with tracer._lock:
                    agg = tracer.agg.get(name)
                    if agg is None:
                        agg = tracer.agg[name] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[1]
                if emit:
                    tracer.events.append(
                        (name, start, end, frame[2],
                         parent[2] if parent else None,
                         getattr(tracer._local, "op", None),
                         threading.get_ident()))
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def op_span(self, index: int):
        """Context manager for one benchmark op (the root span)."""
        return _OpSpan(self, index)

    # -- patching ----------------------------------------------------------

    def install(self, points) -> None:
        for owner, attr, name, emit, on_result in points:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.span(original, name, emit, on_result))

    def install_counter(self, owner, attr: str, name: str,
                        within: str) -> None:
        """Count calls of ``owner.attr`` made while span ``within`` is the
        innermost open span (no span is recorded)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if tracer.active and tracer.current() == within:
                tracer.count(name)
            return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def self_times(self) -> Dict[str, Dict[str, float]]:
        return {name: {"calls": int(a[0]), "total_s": a[1], "self_s": a[2]}
                for name, a in self.agg.items()}

    def write_chrome(self, path: str, pid: int, label: str) -> None:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
        events = [{"name": "process_name", "ph": "M", "pid": pid,
                   "args": {"name": label}}]
        for name, start, end, sid, parent, op, tid in self.events:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": round((start - self.t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid, "tid": tid,
                "args": {"id": sid, "parent": parent, "op": op},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


class _OpSpan:
    def __init__(self, tracer: Tracer, index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer._local.op = self.index
        stack = self.tracer._stack()
        self._frame = [OP_SPAN, 0.0, next(self.tracer._ids)]
        stack.append(self._frame)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        end = time.perf_counter()
        t._stack().pop()
        duration = end - self._start
        with t._lock:
            agg = t.agg.setdefault(OP_SPAN, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - self._frame[1]
        t.events.append((OP_SPAN, self._start, end, self._frame[2], None,
                         self.index, threading.get_ident()))
        t._local.op = None


def self_time_table(self_times: Dict[str, Dict[str, float]]) -> str:
    """Per-layer self-time table, largest first, with shares of the
    traced op time (of all traced time where no op spans exist, as in the
    service process); the ``op`` row is the unattributed remainder."""
    op_total = (self_times.get(OP_SPAN, {}).get("total_s")
                or sum(row["self_s"] for row in self_times.values()))
    rows = sorted(self_times.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'layer':<22} {'calls':>9} {'self s':>10} {'total s':>10} "
             f"{'share':>7}"]
    for name, row in rows:
        label = "unattributed" if name == OP_SPAN else name
        share = row["self_s"] / op_total if op_total else 0.0
        lines.append(f"{label:<22} {row['calls']:>9} {row['self_s']:>10.4f} "
                     f"{row['total_s']:>10.4f} {share:>7.1%}")
    modules: Dict[str, float] = {}
    for name, row in self_times.items():
        if name != OP_SPAN:
            key = name.split(".")[0]
            modules[key] = modules.get(key, 0.0) + row["self_s"]
    lines.append("")
    lines.append("by module (self s, share of op time):")
    for key, secs in sorted(modules.items(), key=lambda kv: -kv[1]):
        share = secs / op_total if op_total else 0.0
        lines.append(f"  {key:<20} {secs:>10.4f} {share:>7.1%}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The layer boundaries
# ---------------------------------------------------------------------------


def _count_source(tracer, args, result):
    tracer.count("cfront.bytes", len(args[0].encode()))


def _count_nodes(tracer, args, module):
    tracer.count("ir.nodes", sum(t.size for fn in module.functions
                                 for t in fn.forest))


def _count_instructions(tracer, args, program):
    tracer.count("codegen.instructions",
                 sum(len(fn.code) for fn in program.functions))


def _count_wire_bytes(tracer, args, blob):
    tracer.count("wire.bytes", len(blob))


def _count_build(tracer, args, build):
    tracer.count("brisc.build.passes", len(build.pass_stats))
    tracer.count("brisc.build.candidates",
                 sum(p.candidates for p in build.pass_stats))
    tracer.count("brisc.build.admitted",
                 sum(p.admitted for p in build.pass_stats))


def _count_brisc_bytes(tracer, args, result):
    image, _model = result
    tracer.count("brisc.bytes", image.size)


def _count_derive(tracer, args, derived):
    tracer.count("pipeline.delta.attempts")
    if derived is not None:
        tracer.count("pipeline.delta.derived")


def _count_cache(tracer, args, artifact):
    tracer.count("pipeline.cache.gets")
    if artifact is not None:
        tracer.count("pipeline.cache.hits")


def _count_vm_steps(tracer, args, result):
    tracer.count("vm.steps", result.steps)


def _count_interp_steps(tracer, args, result):
    tracer.count("brisc.interp.steps", result.steps)


def _count_decode_slot(tracer, args, result):
    tracer.count("brisc.decode_slot.calls")


def _count_jit(tracer, args, result):
    tracer.count("jit.bytes", result.output_bytes)


def layer_points(repro) -> List[Tuple[Any, str, str, bool, Optional[Callable]]]:
    """``(owner, attribute, span name, emit, on_result)`` for every layer
    entry point the benchmark traces.  Where a module binds a function
    at import (``from x import f``), the binding it calls through is
    patched, so the span covers calls from inside the program too."""
    import repro.brisc.builder
    import repro.brisc.cost
    import repro.brisc.encode
    import repro.brisc.interp
    import repro.brisc.journal
    import repro.compress.deflate
    import repro.compress.huffman
    import repro.pipeline.cache
    import repro.pipeline.incremental
    import repro.pipeline.stages
    import repro.pipeline.toolchain
    import repro.service.client
    import repro.wire.format

    stages = repro.pipeline.stages
    fmt = repro.wire.format
    return [
        (stages, "compile_to_ast", "cfront", True, _count_source),
        (stages, "lower_unit", "ir", True, _count_nodes),
        (repro.ir, "lower_unit", "ir", True, _count_nodes),
        (stages, "generate_program", "codegen", True, _count_instructions),
        (repro.codegen, "generate_program", "codegen", True,
         _count_instructions),
        (stages, "encode_module", "wire.encode", True, _count_wire_bytes),
        (repro.wire, "encode_module_v3", "wire.encode", True,
         _count_wire_bytes),
        (repro.wire, "decode_module", "wire.decode", True, None),
        (repro.wire, "decode_function", "wire.decode", True, None),
        (fmt, "mtf_encode", "compress.mtf", False, None),
        (fmt, "mtf_decode", "compress.mtf", False, None),
        (repro.compress.huffman, "encode_symbols", "compress.huffman", False,
         None),
        (repro.compress.huffman, "decode_symbols", "compress.huffman", False,
         None),
        (fmt, "pack_streams", "compress.streams", True, None),
        (fmt, "unpack_streams", "compress.streams", True, None),
        (stages, "pack_streams", "compress.streams", True, None),
        (stages, "unpack_streams", "compress.streams", True, None),
        (repro.compress.deflate, "compress", "compress.deflate", False, None),
        (repro.compress.deflate, "decompress", "compress.deflate", False,
         None),
        (repro.brisc.builder, "build_slots", "brisc.slots", True, None),
        (repro.brisc, "build_dictionary", "brisc.build", True, _count_build),
        (repro.brisc.cost.CostModel, "working_set_cost", "brisc.cost", False,
         None),
        (repro.brisc, "encode_image", "brisc.encode", True,
         _count_brisc_bytes),
        (repro.brisc.encode, "encode_image", "brisc.encode", True,
         _count_brisc_bytes),
        (repro.brisc.journal, "incremental_compress", "brisc.journal", True,
         None),
        (repro.pipeline.incremental.DeltaCompiler, "derive",
         "pipeline.delta", True, _count_derive),
        (repro.pipeline.toolchain.Toolchain, "compile", "pipeline.compile",
         True, None),
        (repro.pipeline.cache.MemoryCache, "get", "pipeline.cache", False,
         _count_cache),
        (repro.pipeline.cache.MemoryCache, "put", "pipeline.cache", False,
         None),
        (repro.service.client.ServiceClient, "request", "service.client",
         True, None),
        (repro.vm, "run_program", "vm", True, _count_vm_steps),
        (repro.brisc, "run_image", "brisc.interp", True, _count_interp_steps),
        (repro.brisc.interp, "decode_slot", "brisc.decode", False,
         _count_decode_slot),
        (repro.brisc, "decompress", "brisc.decode", True, None),
        (repro.jit, "jit_compile", "jit", True, _count_jit),
    ]


def install_layers(tracer: Tracer, repro) -> None:
    """Wrap every layer entry point, plus the native-size call counter
    that sits under the cost model."""
    import repro.native.base

    tracer.install(layer_points(repro))
    tracer.install_counter(repro.native.base.NativeTarget, "instr_size",
                           "native.calls", within="brisc.cost")
