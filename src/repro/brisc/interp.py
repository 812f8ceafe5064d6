"""Direct interpretation of BRISC images — no decompression pass.

The interpreter fetches at byte offsets inside the compressed code
through the image's slot reader (:func:`repro.brisc.encode.decode_slot`,
which resolves the opcode byte through its Markov context and reads the
operand bytes through the pattern's decode plan), and executes each
pattern part through the plain VM's instruction semantics
(:data:`repro.vm.interp.SEMANTICS`).  Its loop takes a step exactly as
:meth:`repro.vm.interp.Interpreter._exec` does, inlined: count the step,
enforce ``max_steps``, call the mnemonic's handler.

Two modes:

* ``cache_decoded=False`` — true interpretation in place: every visit to a
  slot re-decodes it.  This is the configuration whose overhead the paper's
  "BRISC interpreted" column measures (they saw ~12x against native code).
* ``cache_decoded=True`` — memoize decoded slots, amortizing decode cost
  (closer to a threaded interpreter; used by tests for speed).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..vm.instr import VMFunction, VMProgram
from ..vm.interp import SEMANTICS, Interpreter, VMError
from .encode import decode_slot, parse_image, slot_context

__all__ = ["BriscInterpreter", "run_image"]

_Group = Tuple[Tuple[str, tuple], ...]


class BriscInterpreter(Interpreter):
    """Executes a BRISC image in place."""

    def __init__(
        self,
        image: bytes,
        memory_size: int = 1 << 20,
        max_steps: int = 50_000_000,
        stdin: str = "",
        cache_decoded: bool = True,
    ) -> None:
        decoded = parse_image(image)
        self._image = decoded
        shell = VMProgram("brisc", entry=decoded.entry)
        shell.globals = list(decoded.globals)
        for fn in decoded.functions:
            shell.functions.append(
                VMFunction(fn.name, frame_size=fn.frame_size,
                           param_bytes=fn.param_bytes)
            )
        self._cache_decoded = cache_decoded
        self._slot_cache: Dict[Tuple[int, int], Tuple[_Group, int, int]] = {}
        self.slots_decoded = 0
        super().__init__(shell, memory_size=memory_size, max_steps=max_steps,
                         stdin=stdin)
        # The image's symbol table, resolved once: every name in it is a
        # function or a global the shell program has just laid out.
        self._symbol_table = [
            ("func", self._func_index[name]) if name in self._func_index
            else ("data", self.symbols[name])
            for name in decoded.symbol_table()[0]
        ]

    def _resolve_function(self, fn: VMFunction):
        return []  # execution decodes from the image instead

    def _loop(self, func: int, pc: int) -> int:
        if self.exit_code is not None:
            return self.exit_code
        image = self._image
        fn = image.functions[func]
        cache = self._slot_cache if self._cache_decoded else None
        prev_pid: Optional[int] = None
        while True:
            if pc >= len(fn.code):
                raise VMError(f"fell off the end of {fn.name}")
            slot = None if cache is None else cache.get((func, pc))
            if slot is None:
                # Fall-through decodes in the previous slot's context; a
                # control transfer must land on a block start, which has
                # its own.
                ctx = slot_context(fn, pc, prev_pid)
                if ctx is None:
                    raise VMError(f"jump into mid-block offset {pc}")
                pid, group, next_pc = decode_slot(image, fn, pc, ctx,
                                                  self._symbol_table)
                self.slots_decoded += 1
                slot = (group, next_pc, pid)
                if cache is not None:
                    cache[(func, pc)] = slot
            group, next_pc, pid = slot
            start_func = func
            pc = next_pc
            for name, ops in group:
                self.steps += 1
                if self.steps > self.max_steps:
                    raise VMError(f"exceeded {self.max_steps} steps")
                moved = SEMANTICS[name](self, ops, func, pc)
                if moved is not None:
                    func, pc, halt = moved
                    if halt is not None:
                        return halt
            if func == start_func and pc == next_pc:
                prev_pid = pid
            else:
                prev_pid = None
                fn = image.functions[func]


def run_image(
    image: bytes,
    entry: Optional[str] = None,
    args: Tuple[int, ...] = (),
    max_steps: int = 50_000_000,
    stdin: str = "",
    cache_decoded: bool = True,
):
    """Interpret a BRISC image to completion."""
    interp = BriscInterpreter(image, max_steps=max_steps, stdin=stdin,
                              cache_decoded=cache_decoded)
    return interp.run(entry, args)
