"""Golden pin of every VM instruction's semantics.

Each mnemonic of :data:`repro.vm.isa.SPEC` runs through
:meth:`repro.vm.interp.Interpreter._exec`, the one entry that the plain VM
and BRISC in place both execute through, on a fixed grid of canonical
operands.  A case records the registers it changed (a double by its
:func:`~repro.compress.bitio.literal_key`), the memory it touched, its
output and heap, and either the returned ``(func, pc, halt)`` or the
:class:`VMError` message.  ``tests/golden/vm_semantics.txt`` holds one
sha256 of those records per mnemonic; it was generated from the
interpreter's ``if``/``elif`` dispatch at commit e5dd36c, and the
per-mnemonic table that replaced the chain reproduces it unchanged.
Only ``blkcpy``'s line has changed since: a negative length (−1 or
INT_MIN on the grid) now faults as out of range instead of copying
nothing.

Regenerate it only for an intended change of semantics::

    PYTHONPATH=src python tests/test_vm_semantics.py
"""

import hashlib
import itertools
import math
import pathlib
import struct

from repro.brisc.interp import BriscInterpreter
from repro.compress.bitio import literal_key
from repro.ir.tree import GlobalData
from repro.vm.asm import parse_function
from repro.vm.instr import VMProgram
from repro.vm.interp import (
    FUNC_ADDR_BASE, GLOBAL_BASE, HALT_ADDR, RET_ADDR_BASE, SEMANTICS,
    Interpreter, VMError,
)
from repro.vm.isa import REG_RA, REG_SP, SPEC, SYSCALLS, Operand

GOLDEN = pathlib.Path(__file__).parent / "golden" / "vm_semantics.txt"

INT_MAX, INT_MIN = 0x7FFF_FFFF, -0x8000_0000
INTS = (0, 1, -1, 31, 32, 33, 0x7F, 0x80, 0xFF, 0x8000, 0xFFFF,
        INT_MAX, INT_MIN)
DOUBLES = (0.0, -0.0, 1.5, -1.5, 3e9, -3e9)
NONFINITE = (math.inf, -math.inf, math.nan)
#: Code addresses a control transfer reads from a register: the first and
#: last function, one past the last, a return into function 2 at pc 5,
#: one past the return range, and the halt address.
ADDRESSES = (FUNC_ADDR_BASE, FUNC_ADDR_BASE + 2, FUNC_ADDR_BASE + 3,
             RET_ADDR_BASE | (2 << 16) | 5, RET_ADDR_BASE + 0x0FFF_0000,
             HALT_ADDR)
SYMBOLS = (("func", 0), ("func", 2), ("data", GLOBAL_BASE), ("data", 0x8000))
LABEL = 7
FUNC, PC = 1, 3
MEMORY = 1 << 17
SP = 0x1_0000
#: The baseline register file every case starts from.
IREGS = [1000 + 17 * k for k in range(16)]
IREGS[REG_SP] = SP
FREGS = [k + 0.25 for k in range(8)]


def _pattern(size):
    """Memory contents with high-bit bytes but no 8-byte window that
    reads as an infinity or a NaN."""
    out = bytearray((i * 37 + 11) & 0xFF for i in range(size))
    for i, b in enumerate(out):
        if b & 0x7F == 0x7F:
            out[i] = b ^ 1
    return bytes(out)


PRISTINE = _pattern(MEMORY)


def _interpreter():
    fns = [parse_function("hlt", name) for name in ("f0", "f1", "f2")]
    globals_ = [GlobalData("g0", 8, 8), GlobalData("g1", 4, 4)]
    program = VMProgram("semantics", functions=fns, globals=globals_,
                        entry="f0")
    interp = Interpreter(program, memory_size=MEMORY, max_steps=10,
                         stdin="Z")
    interp.memory[:] = PRISTINE
    return interp


def _dkey(value):
    if isinstance(value, float) and value != value:
        return "nan"  # a NaN's payload and sign are the host's choice
    key = literal_key(value)
    return key.hex() if isinstance(key, bytes) else repr(key)


FKEYS = [_dkey(v) for v in FREGS]


def _dims(name, aliased):
    """(operand plan, value grids) for ``name``.  Each operand of the plan
    is ``(bank, register, dim)``: an integer (``"i"``) or double (``"f"``)
    register holding grid dimension ``dim``'s value, or a literal
    (``"lit"``) that is that value.  Distinct operands use registers 1-3
    of their bank; ``aliased`` puts every integer operand in ``ra`` and
    every double operand in ``f1``, so one value feeds them all."""
    spec = SPEC[name]
    fresh = {"i": iter((1, 2, 3)), "f": iter((1, 2, 3))}
    plan, grids, reg_dim = [], [], {}
    for kind in spec.signature:
        if kind in (Operand.REG, Operand.FREG):
            bank = "i" if kind is Operand.REG else "f"
            reg = ((REG_RA if bank == "i" else 1) if aliased
                   else next(fresh[bank]))
            if (bank, reg) not in reg_dim:
                reg_dim[bank, reg] = len(grids)
                if bank == "i":
                    grids.append(INTS + (ADDRESSES if spec.group == "flow"
                                         else ()))
                else:
                    grids.append(DOUBLES + (() if name.startswith("cvt.")
                                            else NONFINITE))
            plan.append((bank, reg, reg_dim[bank, reg]))
        else:
            plan.append(("lit", None, len(grids)))
            grids.append({
                Operand.IMM: (tuple(range(-1, len(SYSCALLS) + 1))
                              if name == "sys" else INTS),
                Operand.DIMM: DOUBLES + NONFINITE,
                Operand.LABEL: (LABEL,),
                Operand.SYM: SYMBOLS,
            }[kind])
    if name == "sys":
        grids.append(INTS + DOUBLES)  # the word or double below sp
    return plan, grids


def _touched(memory, before, chunk=4096):
    """The byte range ``[lo, hi)`` from the first to the last byte that
    differs."""
    lo, hi = 0, len(memory)
    while memory[lo:lo + chunk] == before[lo:lo + chunk]:
        lo += chunk
    while memory[hi - chunk:hi] == before[hi - chunk:hi]:
        hi -= chunk
    while memory[lo] == before[lo]:
        lo += 1
    while memory[hi - 1] == before[hi - 1]:
        hi -= 1
    return lo, hi


def _run_case(interp, name, plan, values, overrun):
    regs, fregs = interp.iregs, interp.fregs
    regs[:] = IREGS
    fregs[:] = FREGS
    ops = []
    for bank, reg, dim in plan:
        if bank == "i":
            regs[reg] = values[dim]
            ops.append(reg)
        elif bank == "f":
            fregs[reg] = values[dim]
            ops.append(reg)
        else:
            ops.append(values[dim])
    before = PRISTINE
    if name == "sys":
        arg = values[-1]
        if isinstance(arg, float):
            interp.memory[SP - 8:SP] = struct.pack("<d", arg)
        else:
            interp.memory[SP - 4:SP] = (arg & 0xFFFF_FFFF).to_bytes(4, "little")
        before = bytes(interp.memory)
    interp.steps = interp.max_steps if overrun else 0
    interp.output.clear()
    interp.exit_code = None
    interp.heap_ptr = interp.heap_base
    interp._stdin_pos = 0
    try:
        outcome = repr(interp._exec(name, tuple(ops), FUNC, PC))
    except VMError as exc:
        outcome = f"VMError({exc})"
    record = [f"{tuple(ops)!r} -> {outcome} steps={interp.steps}"]
    record += [f"n{k}={v!r}" for k, v in enumerate(regs) if v != IREGS[k]
               or type(v) is not int]
    record += [f"f{k}={_dkey(v)}" for k, v in enumerate(fregs)
               if v is not FREGS[k] and _dkey(v) != FKEYS[k]]
    memory = interp.memory
    if memory != before:
        lo, hi = _touched(memory, before)
        record.append(f"mem[{lo:#x}]={bytes(memory[lo:hi]).hex()}")
        memory[:] = PRISTINE
    elif before is not PRISTINE:
        memory[:] = PRISTINE
    record.append(f"out={''.join(interp.output)!r} exit={interp.exit_code} "
                  f"heap={interp.heap_ptr - interp.heap_base} "
                  f"stdin={interp._stdin_pos}")
    return " ".join(record)


def semantics_records(name):
    """Every grid case of ``name``, one record string each."""
    interp = _interpreter()
    for aliased in (False, True):
        plan, grids = _dims(name, aliased)
        for values in itertools.product(*grids):
            yield _run_case(interp, name, plan, values, overrun=False)
    plan, grids = _dims(name, False)
    yield _run_case(interp, name, plan, [g[0] for g in grids], overrun=True)


def semantics_digests():
    out = {}
    for name in SPEC:
        digest = hashlib.sha256()
        count = 0
        for record in semantics_records(name):
            digest.update(record.encode() + b"\n")
            count += 1
        out[name] = f"{count} {digest.hexdigest()}"
    return out


def _read_golden():
    lines = GOLDEN.read_text().splitlines()
    return dict(line.split(" ", 1) for line in lines)


def test_every_mnemonic_matches_the_golden_semantics():
    golden = _read_golden()
    assert set(golden) == set(SPEC)
    got = semantics_digests()
    changed = sorted(name for name in SPEC if got[name] != golden[name])
    assert not changed, f"semantics changed for {changed}"


def test_one_table_defines_every_mnemonic_for_both_interpreters():
    assert set(SEMANTICS) == set(SPEC)
    assert BriscInterpreter._exec is Interpreter._exec


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{name} {line}\n"
                              for name, line in semantics_digests().items()))
