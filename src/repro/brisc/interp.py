"""Direct interpretation of BRISC images — no decompression pass.

The interpreter fetches at byte offsets inside the compressed code
through the image's slot reader (:func:`repro.brisc.encode.decode_slot`,
which resolves the opcode byte through its Markov context and unpacks the
operand bytes), and executes the pattern's parts through the same
instruction semantics as the plain VM interpreter
(:meth:`repro.vm.interp.Interpreter._exec`).

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
from ..vm.interp import Interpreter, VMError
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
        count_opcodes: bool = False,
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
                         stdin=stdin, count_opcodes=count_opcodes)
        # The image's symbol table, resolved once: every name in it is a
        # function or a global the shell program has just laid out.
        self._symbol_table = [
            ("func", self._func_index[name]) if name in self._func_index
            else ("data", self.symbols[name])
            for name in decoded.symbol_table()[0]
        ]

    def _resolve_function(self, fn: VMFunction):
        return []  # execution decodes from the image instead

    # -- fetch/decode --------------------------------------------------------

    def _fetch_slot(self, func: int, offset: int,
                    prev_pid: Optional[int]) -> Tuple[_Group, int, int]:
        """Decode the slot at ``offset``, reached from a slot of pattern
        ``prev_pid`` (``None`` after a control transfer): (group,
        next_offset, pattern_id)."""
        if self._cache_decoded:
            cached = self._slot_cache.get((func, offset))
            if cached is not None:
                return cached
        fn = self._image.functions[func]
        ctx = slot_context(fn, offset, prev_pid)
        if ctx is None:
            raise VMError(f"jump into mid-block offset {offset}")
        pid, group, next_offset = decode_slot(self._image, fn, offset, ctx,
                                              self._symbol_table)
        self.slots_decoded += 1
        result = (group, next_offset, pid)
        if self._cache_decoded:
            self._slot_cache[(func, offset)] = result
        return result

    # -- execution -----------------------------------------------------------

    def _loop(self, func: int, pc: int) -> int:
        prev_pid: Optional[int] = None
        while True:
            if self.exit_code is not None:
                return self.exit_code
            fn = self._image.functions[func]
            if pc >= len(fn.code):
                raise VMError(f"fell off the end of {fn.name}")
            group, next_pc, pid = self._fetch_slot(func, pc, prev_pid)
            start_func = func
            pc = next_pc
            for name, ops in group:
                func, pc, halt = self._exec(name, ops, func, pc)
                if halt is not None:
                    return halt
            # Fall-through decodes in this slot's context; a control
            # transfer lands on a block start, which has its own.
            prev_pid = pid if (func == start_func and pc == next_pc) else None


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
