"""CFA specialization: the compiled step protocol and the load-time pass.

The generic CEE interpreter pays, on every transition: a firmware table
probe (``program_for``), a virtual ``program.step`` dispatch, dict traffic
through ``ctx.results``, and one frozen-dataclass micro-op allocation.
None of that is architectural — the paper's CEE is microcoded, and
Diba-style engines compile operator logic at (firmware) load time rather
than interpreting it per event.  This module is that load-time pass and
the protocol its output speaks.

``compile_firmware`` walks a :class:`~repro.core.cfa.FirmwareImage` and
produces one :class:`CompiledStep` per registered ``(type_code, op-table)``
pair:

* **Closure tier** — each built-in lookup CFA (linked list, hash table,
  skip list, binary tree, trie, hash-of-lists, B+-tree) is *defined* once,
  as a flat closure next to its class in :mod:`repro.core.programs` /
  :mod:`repro.core.programs_ext`, and handed over by
  :meth:`~repro.core.cfa.CfaProgram.compiled`.  Per-query state lives in a
  slot-indexed register list (``ctx.scratch`` is rebound to it), states
  are small ints, and each step returns a plain tuple micro-op —
  ``(K_MEMREAD, vaddr, length, slot)`` and friends — that the
  accelerator's fast driver executes inline with zero dataclass
  allocation.  The interpreter's :class:`~repro.core.cfa.StepOutcome`
  form (``program.step``) is derived from the same closure, so the
  generic and compiled paths cannot drift apart.
* **Prebound tier** — mutation programs and any program that writes its
  own ``step`` (a built-in lookup's subclass that overrides ``step``
  included: its ``compiled()`` is None) get a thin wrapper that captures ``program.step`` once and
  converts its :class:`StepOutcome` into the tuple protocol (``K_ACTION``
  delegates timed write-path micro-ops back to the generic issue path).
  They skip the per-step firmware probe and ride the batched drain, but
  keep their dict-based context.

Terminal tuples do not update ``ctx.state`` — after a terminal the context
is dead to the driver.  ``tests/test_golden_stats.py`` pins the compiled
and generic drivers to identical output end to end, and
``tests/test_specialize_properties.py`` checks step-for-step agreement on
randomized structures.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from .cfa import CfaProgram, Done, Fault, FirmwareImage, OP_INSERT, QueryContext

#: Tuple micro-op kinds.  The timed kinds (executed inline by the fast
#: driver, producing a ready-at cycle) are all <= K_ALU; the driver relies
#: on that ordering for its dispatch.
K_MEMREAD = 0
K_MEMREAD_OPT = 1
K_COMPARE = 2
K_HASH = 3
K_ALU = 4
K_DONE = 5
K_FAULT = 6
K_WAIT = 7
K_ACTION = 8

_WAIT = (K_WAIT,)


class CompiledStep:
    """One compiled ``(program, op)`` entry in the accelerator's table."""

    __slots__ = ("step", "nregs", "prebound", "name")

    def __init__(
        self,
        step: Callable[[QueryContext], tuple],
        nregs: int,
        prebound: bool,
        name: str,
    ) -> None:
        self.step = step
        self.nregs = nregs
        self.prebound = prebound
        self.name = name


def _prebound(program: CfaProgram) -> CompiledStep:
    """The prebound tier: capture ``step`` once, translate outcomes."""
    step = program.step

    def fn(ctx: QueryContext) -> tuple:
        outcome = step(ctx)
        ctx.state = outcome.next_state
        action = outcome.action
        if action is None:
            return _WAIT
        if isinstance(action, Done):
            return (K_DONE, action.value)
        if isinstance(action, Fault):
            return (K_FAULT, action.code, action.detail)
        return (K_ACTION, action)

    return CompiledStep(fn, 0, True, program.NAME)


def compile_firmware(
    firmware: FirmwareImage,
) -> Tuple[Dict[int, CompiledStep], Dict[int, CompiledStep]]:
    """Compile every registered program: the firmware-load-time pass.

    Returns ``(lookup_table, mutation_table)`` keyed by type code.  Called
    lazily by the accelerator whenever ``firmware.epoch`` moves (initial
    load, runtime ``register``, hot-swap ``adopt``).
    """
    lookups = {}
    for tc in firmware.types():
        program = firmware.program_for(tc)
        lookups[tc] = program.compiled() or _prebound(program)
    mutators = {
        tc: _prebound(firmware.program_for(tc, op=OP_INSERT))
        for tc in firmware.mutation_types()
    }
    return lookups, mutators
