"""Function-grained incremental recompilation (the delta compiler).

``Toolchain.compile(prev=...)`` routes cache misses through a
:class:`DeltaCompiler` built from the previous build of the same unit,
which decides what each stage may reuse:

* **parse** finds the one span of the source the edit replaced and,
  when it moves no line, has
  :func:`repro.cfront.frontend.recompile_definition` re-lex, re-parse
  and re-check only the function definition whose body holds it,
  spliced into a new unit that shares every other declaration with the
  previous AST (DESIGN.md, "Function-grained edits", lists the guards);
  anything else, and every ``CompileError``, runs the cold front end.
* **lower** takes the previous :class:`repro.ir.IRFunction` of every
  definition the parse shared by identity and lowers only the others;
  any of those whose lowered IR is exactly unchanged is swapped for the
  previous one too.  An edit's reach is read off the code the
  compressors see: a new global, or a string literal that renumbers
  sema's ``<strN>`` labels, changes the IR of exactly the functions it
  affects.
* **codegen** reuses the previous :class:`repro.vm.instr.VMFunction`
  for every IR function the lower derivation shared (identity check),
  generating only the rest, and links the program through
  :func:`repro.codegen.generate_program` as a cold build does.
* **wire** and **deflate** run cold, but a journaled build keeps each
  shared function's patternized trees and VM bytes on the function
  objects themselves, so only the edited function is patternized and
  encoded again; MTF, Huffman, LZ and deflate still see the whole unit.
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

from ..cfront import CompileError
from ..cfront.frontend import recompile_definition
from ..compress.bitio import literal_key
from ..ir.tree import IRFunction, Tree
from .config import PipelineConfig
from .stages import Stage, finish_brisc, resolve_stages

__all__ = ["DeltaCompiler"]


def _common_prefix(a: str, b: str, limit: int) -> int:
    """Length of the longest common prefix of ``a`` and ``b``, at most
    ``limit``; by bisection, so the comparing runs in C."""
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


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

    def _derive_parse(self, source, unit, config):
        prev_ast = self._prev_payload("parse")
        old = self.prev.source
        if prev_ast is None or self.prev.unit != unit:
            return None
        # The edit, as the one span [first, last) of ``old`` that
        # ``source`` replaces: text before and after it is unchanged.
        first = _common_prefix(old, source, min(len(old), len(source)))
        last = len(old) - _common_prefix(
            old[::-1], source[::-1], min(len(old), len(source)) - first)
        if old.count("\n", first, last) != source.count(
                "\n", first, last + len(source) - len(old)):
            return None  # lines below the edit would move
        try:
            ast = recompile_definition(prev_ast, old, source, unit, first,
                                       last)
        except (CompileError, RecursionError):
            return None  # the cold front end decides, and reports
        if ast is None:
            return None
        return ast, len(source.encode()), {"derived": True,
                                           "reparsed_functions": 1}

    def _derive_lower(self, ast, unit, config):
        from ..ir import lower_unit

        prev_module = self._prev_payload("lower")
        prev_ast = self._prev_payload("parse")
        if prev_module is None or prev_ast is None:
            return None
        prev_nodes = self.prev.artifacts["lower"].meta["nodes"]
        # Every definition the parse shared is the *same object* as in
        # the previous AST; its previous IR function is valid verbatim.
        bodies = [fn for fn in prev_ast.functions if fn.body is not None]
        lowered = {id(fn): ir for fn, ir in zip(bodies, prev_module.functions)}
        module = lower_unit(ast, unit, lowered)
        prev_fns = {fn.name: fn for fn in prev_module.functions}
        shared = set(map(id, prev_module.functions))
        reused = relowered = 0
        for i, fn in enumerate(module.functions):
            if id(fn) not in shared:
                relowered += 1
                old = prev_fns.get(fn.name)
                if old is None or not _same_ir(old, fn):
                    continue
                module.functions[i] = old  # codegen reuses it by identity
            reused += 1
        # The node count moves by the functions that came and went.
        kept = set(map(id, module.functions))
        nodes = (prev_nodes
                 + sum(fn.node_count() for fn in module.functions
                       if id(fn) not in shared)
                 - sum(fn.node_count() for fn in prev_module.functions
                       if id(fn) not in kept))
        trees = sum(len(fn.forest) for fn in module.functions)
        meta = {"functions": len(module.functions), "trees": trees,
                "nodes": nodes, "relowered_functions": relowered}
        if reused:
            meta.update(derived=True, reused_functions=reused)
        # Returned even when nothing matched, so the unit is never
        # lowered a second time by the cold stage.
        return module, 0, meta

    def _derive_codegen(self, module, unit, config):
        from ..codegen import generate_program
        from ..vm import program_size

        prev_module = self._prev_payload("lower")
        prev_program = self._prev_payload("codegen")
        if prev_module is None or prev_program is None:
            return None
        # An IR function the lower derivation shared is the *same object*
        # as in the previous module; its previous VM function is valid
        # verbatim (generate_function is deterministic per IR function).
        # Every other function is generated cold, and the program is
        # linked as a cold build links it.
        reuse = {id(ir): vm for ir, vm in zip(prev_module.functions,
                                              prev_program.functions)}
        reused = sum(id(fn) in reuse for fn in module.functions)
        if not reused:
            return None  # nothing carried over; cold codegen is as fast
        program = generate_program(module, config.isa, reuse=reuse)
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
        cp = incremental_compress(program, prev_program, prev_cp.build,
                                  k=config.brisc_k,
                                  journal=config.brisc_journal)
        if cp is None:
            return None  # journal missing/mismatched: cold build
        payload, size, meta = finish_brisc(cp)
        meta["replayed"] = True
        meta["changed_functions"] = len(changed)
        return payload, size, meta
