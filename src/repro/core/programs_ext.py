"""Extension firmware: CFA programs beyond the factory image.

These programs demonstrate the paper's firmware-update story (Sec. IV-B) on
structures the accelerator did not ship with.  Register them at runtime::

    system.firmware.register(BPlusTreeCfa())

Like the built-ins in :mod:`repro.core.programs`, each program is written
once, as a compiled closure; registration hands that closure to the
accelerator's load-time pass (:mod:`repro.core.specialize`), and the
generic interpreter runs the ``step`` derived from it.  Loaded firmware
therefore pays no interpreter penalty relative to the factory image.
"""

from __future__ import annotations

from .header import StructureType
from .programs import _U64, _StandardProgram
from .specialize import CompiledStep, K_COMPARE, K_DONE, K_MEMREAD


class BPlusTreeCfa(_StandardProgram):
    """B+-tree index lookup: descend separators, scan the leaf.

    Per level: fetch the node header, then compare separators one at a
    time (the comparator provides ordered results, so the walk follows the
    first separator greater than the key).  At the leaf, compare stored
    keys for an exact match and read the aligned value slot.
    """

    TYPE_CODE = int(StructureType.BPLUS_TREE)
    NAME = "bplus-tree"
    #: subtype = fanout; a tree needs at least two children per node.
    SUBTYPE_MIN = 2
    SUBTYPE_MAX = 64
    STATES = _StandardProgram.PRELUDE_STATES + (
        "FETCH_NODE",
        "SEPARATOR",
        "SEPARATOR_CHECK",
        "LEAF_KEY",
        "LEAF_CHECK",
        "READ_CHILD",
        "READ_VALUE",
    )

    def _compile(self) -> CompiledStep:
        up = _U64
        S_NODE, S_CMP, S_CHILD, S_VALUE = 2, 3, 4, 5
        R_KLEN, R_COUNT, R_KEYS, R_SLOTS, R_INDEX = 6, 7, 8, 9, 10

        def separator_step(ctx):
            regs = ctx.scratch
            index = regs[R_INDEX]
            if index >= regs[R_COUNT]:
                return read_child(ctx, regs[R_COUNT])  # rightmost child
            ctx.state = 4
            return (
                K_COMPARE, regs[R_KEYS] + index * regs[R_KLEN], regs[R_KLEN], S_CMP
            )

        def leaf_step(ctx):
            regs = ctx.scratch
            index = regs[R_INDEX]
            if index >= regs[R_COUNT]:
                return (K_DONE, None)
            ctx.state = 5
            return (
                K_COMPARE, regs[R_KEYS] + index * regs[R_KLEN], regs[R_KLEN], S_CMP
            )

        def read_child(ctx, index):
            ctx.state = 6
            return (K_MEMREAD, ctx.scratch[R_SLOTS] + 8 * index, 8, S_CHILD)

        def after_parse(ctx):
            regs = ctx.scratch
            regs[R_KLEN] = ctx.header.key_length
            root = ctx.header.root_ptr
            if not root:
                return (K_DONE, None)
            ctx.state = 3
            return (K_MEMREAD, root, 40, S_NODE)

        def dispatch(ctx):
            regs = ctx.scratch
            state = ctx.state
            if state == 3:  # FETCH_NODE: 40-byte node header staged
                node = regs[S_NODE]
                flags = up(node, 0)[0]
                regs[R_COUNT] = up(node, 8)[0]
                regs[R_KEYS] = up(node, 24)[0]
                regs[R_SLOTS] = up(node, 32)[0]
                regs[R_INDEX] = 0
                if flags & 0x1:  # leaf
                    return leaf_step(ctx)
                return separator_step(ctx)
            if state == 4:  # SEPARATOR_CHECK
                if regs[S_CMP] > 0:  # separator > key: take this child
                    return read_child(ctx, regs[R_INDEX])
                regs[R_INDEX] += 1
                return separator_step(ctx)
            if state == 5:  # LEAF_CHECK
                if regs[S_CMP] == 0:
                    ctx.state = 7
                    return (K_MEMREAD, regs[R_SLOTS] + 8 * regs[R_INDEX], 8, S_VALUE)
                regs[R_INDEX] += 1
                return leaf_step(ctx)
            if state == 6:  # READ_CHILD
                child = up(regs[S_CHILD], 0)[0]
                ctx.state = 3
                return (K_MEMREAD, child, 40, S_NODE)
            # READ_VALUE
            return (K_DONE, up(regs[S_VALUE], 0)[0])

        return self._prelude(11, dispatch, after_parse)
