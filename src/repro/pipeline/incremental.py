"""Function-grained incremental recompilation (the delta compiler).

``Toolchain.compile(prev=...)`` routes cache misses through a
:class:`DeltaCompiler` built from the previous build of the same unit.
The front end still parses, type-checks and lowers the whole unit (sema
is unit-global: string interning, struct layouts, enum values); the
delta compiler decides what the stages after it may reuse:

* **lower** swaps in the previous build's :class:`repro.ir.IRFunction`
  for every function whose lowered IR is exactly unchanged.  An edit's
  reach is read off the code the compressors see: a new global, or a
  string literal that renumbers sema's ``<strN>`` labels, changes the
  IR of exactly the functions it affects.
* **codegen** reuses the previous :class:`repro.vm.instr.VMFunction`
  for every IR function the lower derivation shared (identity check),
  running :func:`repro.codegen.riscgen.generate_function` only for the
  rest.
* **brisc** replays the previous build's journal
  (:mod:`repro.brisc.journal`), re-scanning only changed functions.

Every derivation is **byte-identical** to the cold stage it replaces —
the same content-addressed cache keys are used, so derived artifacts
are interchangeable with cold ones.  Whenever a precondition fails
(config change, function rename, journal mismatch) the derivation
returns ``None`` and the toolchain falls back to the cold stage; delta
mode can be slower than cold, never wrong.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..compress.bitio import literal_key
from ..ir.tree import IRFunction, Tree
from .config import PipelineConfig
from .stages import Stage, finish_brisc, resolve_stages

__all__ = ["DeltaCompiler"]


def _forest_identity(trees: Sequence[Tree], out: List) -> List:
    """Append each node's operator name and, when it has one, its
    literal's :func:`~repro.compress.bitio.literal_key`, in prefix order.
    Operators have fixed arity, so equal lists mean equal forests."""
    for tree in trees:
        out.append(tree.op.name)
        if tree.value is not None:
            out.append(literal_key(tree.value))
        if tree.kids:
            _forest_identity(tree.kids, out)
    return out


def _same_ir(a: IRFunction, b: IRFunction) -> bool:
    """True when codegen and the wire encoder cannot tell ``a`` from
    ``b``: they read only the forest, ``frame_size``, ``param_sizes``
    and ``ret_suffix`` of an IR function."""
    return (a.frame_size == b.frame_size and a.param_sizes == b.param_sizes
            and a.ret_suffix == b.ret_suffix
            and len(a.forest) == len(b.forest)
            and (_forest_identity(a.forest, [])
                 == _forest_identity(b.forest, [])))


class DeltaCompiler:
    """Derives stage outputs from a previous build of the same unit.

    One instance lives for one ``Toolchain.compile(prev=...)`` call.
    Each ``derive`` returns ``(payload, size, meta)`` exactly as the
    stage's ``run`` would — byte-identical by construction — or ``None``
    to fall back to the cold stage.
    """

    def __init__(self, prev, config: PipelineConfig) -> None:
        self.prev = prev
        self.config = config

    # -- guards -----------------------------------------------------------

    def _compatible(self, stage_name: str) -> bool:
        """True when the previous build's configuration matches ours for
        ``stage_name`` and its upstream chain (fragment equality — the
        exact property the cache keys hash)."""
        prev_config = getattr(self.prev, "config", None)
        if prev_config is None:
            return False
        return all(
            stage.config_fragment(self.config)
            == stage.config_fragment(prev_config)
            for stage in resolve_stages((stage_name,))
        )

    def _prev_payload(self, stage_name: str) -> Optional[Any]:
        artifact = self.prev.artifacts.get(stage_name)
        return None if artifact is None else artifact.payload

    # -- dispatch ---------------------------------------------------------

    def derive(self, stage: Stage, upstream: Any, unit: str,
               config: PipelineConfig):
        """Derive ``stage``'s output from ``upstream`` and the previous
        build, or ``None`` when the cold stage must run."""
        method = getattr(self, f"_derive_{stage.name}", None)
        if method is None or not self._compatible(stage.name):
            return None
        return method(upstream, unit, config)

    # -- per-stage derivations --------------------------------------------

    def _derive_lower(self, ast, unit, config):
        from ..ir import lower_unit

        prev_module = self._prev_payload("lower")
        if prev_module is None:
            return None
        module = lower_unit(ast, unit)
        prev_fns = {fn.name: fn for fn in prev_module.functions}
        reused = 0
        for i, fn in enumerate(module.functions):
            old = prev_fns.get(fn.name)
            if old is not None and _same_ir(old, fn):
                module.functions[i] = old  # codegen reuses it by identity
                reused += 1
        trees = sum(len(fn.forest) for fn in module.functions)
        nodes = sum(t.size for fn in module.functions for t in fn.forest)
        meta = {"functions": len(module.functions), "trees": trees,
                "nodes": nodes}
        if reused:
            meta.update(derived=True, reused_functions=reused)
        # Returned even when nothing matched, so the unit is never
        # lowered a second time by the cold stage.
        return module, 0, meta

    def _derive_codegen(self, module, unit, config):
        from ..codegen.riscgen import generate_function
        from ..vm import program_size
        from ..vm.instr import VMProgram

        prev_module = self._prev_payload("lower")
        prev_program = self._prev_payload("codegen")
        if prev_module is None or prev_program is None:
            return None
        # An IR function the lower derivation shared is the *same object*
        # as in the previous module; its previous VM function is valid
        # verbatim (generate_function is deterministic per IR function).
        # Every other function is generated cold.
        prev_ir = {id(fn): fn.name for fn in prev_module.functions}
        prev_vm = {fn.name: fn for fn in prev_program.functions}
        reused = 0
        program = VMProgram(module.name, entry="main")
        program.globals = list(module.globals)
        for fn in module.functions:
            name = prev_ir.get(id(fn))
            vm = prev_vm.get(name) if name == fn.name else None
            if vm is not None:
                program.functions.append(vm)
                reused += 1
            else:
                program.functions.append(
                    generate_function(fn, config.isa, True))
        if not reused:
            return None  # nothing carried over; cold codegen is as fast
        meta = {
            "functions": len(program.functions),
            "instructions": sum(len(fn.code) for fn in program.functions),
            "derived": True, "reused_functions": reused,
        }
        return program, program_size(program), meta

    def _derive_brisc(self, program, unit, config):
        from ..brisc.journal import changed_functions, incremental_compress

        prev_program = self._prev_payload("codegen")
        prev_cp = self._prev_payload("brisc")
        if prev_program is None or prev_cp is None:
            return None
        changed = changed_functions(prev_program, program)
        if changed is None:
            return None  # function list changed shape: cold build
        cp = incremental_compress(
            program, prev_program, prev_cp.build,
            k=config.brisc_k,
            abundant_memory=config.brisc_abundant_memory,
            max_passes=config.brisc_max_passes,
            journal=config.brisc_journal)
        if cp is None:
            return None  # journal missing/mismatched: cold build
        payload, size, meta = finish_brisc(cp, config)
        meta["replayed"] = True
        meta["changed_functions"] = len(changed)
        return payload, size, meta
