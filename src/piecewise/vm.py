"""Deterministic reference interpreter over a loaded process image.

Execution only moves control and addresses around: values are function
references, vtable references, global-cell references or null.  The trace
it produces is the ground truth for debloating soundness (a removed
function must never be entered) and for points-to soundness (observed
indirect targets must be inside the solved sets).

One machine replays every workload of an image, its ``loader.entry_points``
(the functions retention roots).  A loaded module is opened when replay
first runs one of its functions: its IR is indexed then, once
(``LoadedModule.ir_index``, which checks that every function has a defined
symbol and every defined symbol a function), and its globals' cells join
the state.  This is exact, because only a module's own code names its
globals or takes their addresses; a library that no workload enters is
never indexed, so a module-level fault in its IR does not stop replay.
Each function is parsed, checked against its code bytes and decoded on its
first entry; the parsed body is kept on the loaded module, so the pristine
and debloated machines share it.  Decoding turns it into a tuple of small
op tuples: call, address and vtable targets are already resolved to
``(module, function)`` keys by ``ProcessImage.target``, the rule retention
follows too, every variable is already bound to its global cell or to the
frame, a ``new T`` holds the value of its module's ``vtable T``, found
through the module's scope and built at decode (so only instantiated tables
are built), and in debloated mode whether the function may be entered (nx
page, trap byte) is decided once, before its body is parsed or its module
opened.  The dispatch loop then does no lookups.  The
state is one cell table keyed by ``(module, global)`` and a cell pointer is
its key, so the state is hashable plain data.  Bodies come only from
``ir.parse_body``, so every statement is a ``STATEMENTS`` kind and the
decoder has no unknown-kind case.  A fault (null or non-function indirect
target, bad vtable slot) still surfaces only when its statement executes,
and a malformed body, including ``new`` of a type without a vtable, only
when its function is entered.  An unbound name cannot reach the machine:
``entry_points`` refuses an image that ``resolve`` has not bound, and
``resolve`` binds every import of the image or raises.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import TRAP_BYTE
from .loader import PAGE_NX, ProcessImage, entry_points

COMPLETED = "completed"
TRAPPED = "trapped"
LIMIT_EXCEEDED = "limit_exceeded"
FAULT = "fault"

# value tags: ("func", key), ("cell", (module, global)), ("vtable", keys)
_FUNC = "func"
_CELL = "cell"
_VTABLE = "vtable"

# decoded op kinds; a variable operand is (cells, (module, global)) for a
# global or (None, name) for a local of the current frame
_END = 0     # (_END,)                  past the last statement; pops, costs no step
_CONST = 1   # (_CONST, dst, value)     addr_of, new_object
_COPY = 2    # (_COPY, dst, src)
_CALL = 3    # (_CALL, key)
_ICALL = 4   # (_ICALL, var, site, null fault)
_RET = 5     # (_RET,)
_NOP = 6     # (_NOP,)                  syscall, spadj
_LOAD = 7    # (_LOAD, dst, ptr)
_STORE = 8   # (_STORE, ptr, src)
_VCALL = 9   # (_VCALL, var, site, null fault, slot, slot fault)
_IJMP = 10   # (_IJMP, var, site, null fault)

_END_OP = (_END,)
_RET_OP = (_RET,)
_NOP_OP = (_NOP,)


@dataclass(frozen=True)
class Trace:
    entered: tuple[tuple[str, str], ...]
    indirect_targets: tuple[tuple[tuple[str, str, int], tuple[str, str]], ...]
    outcome: tuple

    @property
    def completed(self) -> bool:
        return self.outcome[0] == COMPLETED


class _Machine:
    def __init__(self, image: ProcessImage, debloated: bool, step_limit: int):
        self.image = image
        self.debloated = debloated
        self.step_limit = step_limit
        # keyed by (module, name) like _code; decoded ops hold the cell table,
        # which run() resets from the initial values.  A module is opened
        # (indexed, its cells added to both) on its first entry: only its own
        # code names its globals.
        self._initial = {}
        self.cells = {}
        self._opened = set()
        self._code = {}  # key -> (ops, None) or (None, trap outcome)

    def _trap(self, module: str, func: str, sym):
        """None if the debloated image lets the function be entered, else a trap outcome."""
        if sym.size == 0:
            return None
        if self.image.page_state[module][sym.value // self.image.page_size] == PAGE_NX:
            return (TRAPPED, module, func, "nx")
        if self.image.memory[module][sym.value] == TRAP_BYTE:
            return (TRAPPED, module, func, "trap")
        return None

    def _decode(self, key: tuple[str, str]):
        """Decode a function on its first entry; memoised per machine."""
        module, func = key
        mod = self.image.module(module)
        trap = self._trap(module, func, mod.symbol(func)) if self.debloated else None
        ops = None
        if trap is None:
            cells = self.cells
            if module not in self._opened:
                initial = {(module, g.name): None if g.initializer is None
                           else (_FUNC, self.image.target(module, g.initializer))
                           for g in mod.ir_index.globals}
                self._initial.update(initial)
                cells.update(initial)
                self._opened.add(module)

            def var(name):
                cell = (module, name)
                return (cells, cell) if cell in cells else (None, name)
            ops = tuple(self._decode_statement(module, func, pc, st, var)
                        for pc, st in enumerate(mod.function(func).body)) + (_END_OP,)
        decoded = self._code[key] = (ops, trap)
        return decoded

    def _decode_statement(self, module: str, func: str, pc: int, st, var):
        kind = st.kind
        if kind == "ret":
            return _RET_OP
        if kind in ("syscall", "spadj"):
            return _NOP_OP
        if kind == "addr_of":  # of a global's cell, else of a function or import
            cells, ref = var(st.b)
            return (_CONST, var(st.a), (_CELL, ref) if cells is not None
                    else (_FUNC, self.image.target(module, ref)))
        if kind == "copy":
            return (_COPY, var(st.a), var(st.b))
        if kind == "load":
            return (_LOAD, var(st.a), var(st.b))
        if kind == "store":
            return (_STORE, var(st.a), var(st.b))
        if kind == "new_object":
            index = self.image.module(module).ir_index
            vtable = index.vtables[index.scope.types[st.b]]
            return (_CONST, var(st.a),
                    (_VTABLE, tuple(self.image.target(module, e) for e in vtable.entries)))
        if kind == "call":
            return (_CALL, self.image.target(module, st.a))
        site = (module, func, pc)
        null = (FAULT, "NullIndirectCall", module, func, pc)
        if kind == "icall":
            return (_ICALL, var(st.a), site, null)
        if kind == "ijmp":
            return (_IJMP, var(st.a), site, null)
        # vcall: ir.parse_body yields no other kind
        return (_VCALL, var(st.a), site, null, st.b, (FAULT, "BadVTableSlot", module, func, pc))

    def run(self, entry_module: str, entry_func: str) -> Trace:
        self.cells.update(self._initial)
        entered, indirect = [], []
        outcome = self._run((entry_module, entry_func), entered, indirect)
        return Trace(tuple(entered), tuple(indirect), outcome)

    def _run(self, key: tuple[str, str], entered: list, indirect: list) -> tuple:
        code = self._code
        decode = self._decode
        cells = self.cells

        entered.append(key)
        ops, trap = code.get(key) or decode(key)
        if trap is not None:
            return trap
        pc = 0
        env: dict[str, object] = {}
        callers: list[tuple] = []  # (ops, pc, env) of each suspended frame
        steps_left = self.step_limit
        while True:
            op = ops[pc]
            kind = op[0]
            if kind == _END:
                if not callers:
                    return (COMPLETED,)
                ops, pc, env = callers.pop()
                continue
            if not steps_left:
                return (LIMIT_EXCEEDED,)
            steps_left -= 1
            pc += 1
            if kind == _CONST:
                (dcells, dname), value = op[1], op[2]
                (dcells or env)[dname] = value
                continue
            if kind == _COPY:
                (dcells, dname), (scells, sname) = op[1], op[2]
                (dcells or env)[dname] = (scells or env).get(sname)
                continue
            if kind == _CALL:
                key = op[1]
            elif kind == _ICALL or kind == _IJMP:
                vcells, vname = op[1]
                value = (vcells or env).get(vname)
                if value is None or value[0] != _FUNC:
                    return op[3]
                key = value[1]
                indirect.append((op[2], key))
            elif kind == _RET:
                if not callers:
                    return (COMPLETED,)
                ops, pc, env = callers.pop()
                continue
            elif kind == _NOP:
                continue
            elif kind == _LOAD:
                (dcells, dname), (pcells, pname) = op[1], op[2]
                ptr = (pcells or env).get(pname)
                (dcells or env)[dname] = \
                    cells[ptr[1]] if ptr is not None and ptr[0] == _CELL else None
                continue
            elif kind == _STORE:
                (pcells, pname), (scells, sname) = op[1], op[2]
                ptr = (pcells or env).get(pname)
                if ptr is not None and ptr[0] == _CELL:
                    cells[ptr[1]] = (scells or env).get(sname)
                continue
            else:  # _VCALL
                vcells, vname = op[1]
                value = (vcells or env).get(vname)
                if value is None or value[0] != _VTABLE:
                    return op[3]
                keys = value[1]
                slot = op[4]
                if slot >= len(keys):
                    return op[5]
                key = keys[slot]
                indirect.append((op[2], key))
            # enter `key`: a call suspends this frame, an ijmp replaces it
            entered.append(key)
            callee, trap = code.get(key) or decode(key)
            if trap is not None:
                return trap
            if kind != _IJMP:
                callers.append((ops, pc, env))
            ops = callee
            pc = 0
            env = {}


def run_workloads(image: ProcessImage, debloated: bool = False,
                  step_limit: int = 100_000) -> dict[str, Trace]:
    """One trace per entry point of the image (``loader.entry_points``),
    all replayed on one machine."""
    if step_limit < 0:
        raise ValueError(f"step limit must be non-negative, got {step_limit}")
    points = entry_points(image)
    if not points:
        return {}  # nothing to run, so the image needs no IR
    machine = _Machine(image, debloated, step_limit)
    return {name: machine.run(*key) for name, key in points.items()}
