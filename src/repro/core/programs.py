"""Built-in CFA programs: the firmware shipped with QEI.

One program per data-structure type (Sec. III-A): linked list, cuckoo hash
table, skip list, binary tree, trie (with Aho-Corasick scan and
longest-prefix-match subtypes), and — registered at runtime as the
firmware-update example — hash-of-lists.

Each CFA is written once, as the compiled closure its class builds in
``_compile`` (the tuple protocol of :mod:`repro.core.specialize`): states
are small ints, per-query state lives in slot-indexed registers, and every
step returns one tuple micro-op.  The class around it carries the
firmware metadata (type code, name, declared states, subtype/size rules,
:meth:`~repro.core.cfa.CfaProgram.validate_header`), and
:meth:`_StandardProgram.step` derives the generic interpreter's
:class:`~repro.core.cfa.StepOutcome` form from the closure, so the
accelerator's compiled and reference paths run the same definition.

Programs never touch simulated memory directly: they see only bytes the
engine staged into their registers after memory micro-ops, and
comparator/hash-unit outputs.  Pointer arithmetic is charged via ALU
transitions.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from ..datastructs.hashing import secondary_hash, signature_of
from ..errors import FirmwareError
from .abort import AbortCode
from .cfa import (
    AluOp,
    CfaProgram,
    Compare,
    Done,
    Fault,
    HashOp,
    MemRead,
    QueryContext,
    FirmwareImage,
    StepOutcome,
    STATE_DONE,
    STATE_EXCEPTION,
    STATE_START,
)
from .header import FLAG_RESIZING, DataStructureHeader, StructureType
from .specialize import (
    CompiledStep,
    K_ALU,
    K_COMPARE,
    K_DONE,
    K_FAULT,
    K_HASH,
    K_MEMREAD,
    K_MEMREAD_OPT,
)

_U64 = struct.Struct("<Q").unpack_from

#: Shared register slots every program uses (the prelude).
_S_HEADER = 0
_S_KEY = 1


class _StandardProgram(CfaProgram):
    """Shared prelude (fetch the header, parse it, fetch the key) and the
    interpreter adapter.

    Subclasses define their CFA in :meth:`_compile`, wrapping their
    type-specific ``dispatch`` and ``after_parse`` closures with
    :meth:`_prelude`.  Subclasses inherit the parent's closure and may
    override :meth:`validate_header`, which the prelude calls at PARSE.
    A subclass that overrides :meth:`step` runs that step in both drivers
    (the accelerator's prebound tier), not the inherited closure.
    """

    PRELUDE_STATES = (STATE_START, "PARSE", "READ_KEY", STATE_DONE, STATE_EXCEPTION)

    _compiled_step: Optional[CompiledStep] = None

    def compiled(self) -> Optional[CompiledStep]:
        if type(self).step is not _StandardProgram.step:
            return None
        return self._closure()

    def validate(self, max_states: int) -> None:
        super().validate(max_states)
        cls = type(self)
        no_closure = cls._compile is _StandardProgram._compile
        if no_closure and cls.step is _StandardProgram.step:
            raise FirmwareError(
                f"program {self.NAME!r} defines no CFA: build its closure in "
                "_compile (or write its own step)"
            )

    def _closure(self) -> CompiledStep:
        if self._compiled_step is None:
            self._compiled_step = self._compile()
        return self._compiled_step

    def _compile(self) -> CompiledStep:
        raise NotImplementedError

    def _prelude(
        self,
        nregs: int,
        dispatch: Callable[[QueryContext], tuple],
        after_parse: Callable[[QueryContext], tuple],
        key_fetch: Optional[Callable[[DataStructureHeader], int]] = None,
    ) -> CompiledStep:
        """Wrap a program's dispatch with the shared prelude.

        States 0/1/2 are START/PARSE/READ_KEY; program states start at 3.
        ``key_fetch`` overrides the key-fetch length (the trie streams long
        inputs by the cacheline).
        """
        validate = self.validate_header

        def step(ctx: QueryContext) -> tuple:
            state = ctx.state
            if state >= 3:
                return dispatch(ctx)
            regs = ctx.scratch
            if state == 0:  # START
                ctx.state = 1
                return (K_MEMREAD, ctx.header_addr, 64, _S_HEADER)
            if state == 1:  # PARSE
                raw = regs[_S_HEADER]
                header = DataStructureHeader.decode(raw)
                code = validate(header, raw=raw)
                if code is not AbortCode.NONE:
                    return (K_FAULT, int(code), f"header rejected: {code.name}")
                ctx.header = header
                ctx.state = 2
                kfl = header.key_length if key_fetch is None else key_fetch(header)
                return (K_MEMREAD, ctx.key_addr, kfl, _S_KEY)
            # READ_KEY: the fetched key is exactly the requested length.
            ctx.key = regs[_S_KEY]
            return after_parse(ctx)

        return CompiledStep(step, nregs, False, self.NAME)

    def step(self, ctx: QueryContext) -> StepOutcome:
        """The interpreter's form of this CFA, derived from the closure.

        At START ``ctx.scratch`` is rebound to the closure's registers;
        before each later step the comparator and hash-unit outputs the
        engine left in ``ctx.results`` move into their registers.  Each
        tuple micro-op becomes its dataclass form, addressed by register
        slot, so the engine stages fetched bytes straight into registers.
        """
        compiled = self._closure()
        if ctx.state == STATE_START:
            ctx.scratch = [0] * compiled.nregs  # type: ignore[assignment]
            ctx.state = 0  # type: ignore[assignment]
        elif ctx.results:
            regs = ctx.scratch
            for slot, value in ctx.results.items():
                regs[slot] = value  # type: ignore[index]
            ctx.results.clear()
        act = compiled.step(ctx)
        kind = act[0]
        if kind == K_DONE:
            return StepOutcome(STATE_DONE, Done(act[1]))
        if kind == K_FAULT:
            return StepOutcome(STATE_EXCEPTION, Fault(code=act[1], detail=act[2]))
        if kind == K_MEMREAD:
            action = MemRead(act[1], act[2], act[3])
        elif kind == K_MEMREAD_OPT:
            action = MemRead(act[1], act[2], act[3], optional_after=act[4])
        elif kind == K_COMPARE:
            action = Compare(act[1], ctx.key_addr, act[2], act[3])
        elif kind == K_HASH:
            action = HashOp(act[1], act[2])
        else:
            action = AluOp(act[1])
        return StepOutcome(ctx.state, action)


class LinkedListCfa(_StandardProgram):
    """Fig. 3's CFA: fetch node, compare key, follow next until match/NULL."""

    TYPE_CODE = int(StructureType.LINKED_LIST)
    NAME = "linked-list"
    STATES = _StandardProgram.PRELUDE_STATES + ("FETCH_NODE", "COMPARE", "CHECK")
    SUBTYPE_MAX = 0

    def _compile(self) -> CompiledStep:
        up = _U64
        S_NODE, S_CMP, R_KLEN = 2, 3, 4
        NULL_PTR = int(AbortCode.NULL_POINTER)

        def after_parse(ctx):
            regs = ctx.scratch
            regs[R_KLEN] = ctx.header.key_length
            root = ctx.header.root_ptr
            if not root:
                return (K_DONE, None)
            ctx.state = 3
            return (K_MEMREAD, root, 24, S_NODE)

        def dispatch(ctx):
            regs = ctx.scratch
            node = regs[S_NODE]
            if ctx.state == 4:  # CHECK
                if regs[S_CMP] == 0:
                    return (K_DONE, up(node, 8)[0])
                nxt = up(node, 16)[0]
                if not nxt:
                    return (K_DONE, None)
                ctx.state = 3
                return (K_MEMREAD, nxt, 24, S_NODE)
            # COMPARE
            key_ptr = up(node, 0)[0]
            if not key_ptr:
                return (K_FAULT, NULL_PTR, "null key pointer")
            ctx.state = 4
            return (K_COMPARE, key_ptr, regs[R_KLEN], S_CMP)

        return self._prelude(5, dispatch, after_parse)


class HashTableCfa(_StandardProgram):
    """Cuckoo hash lookup: hash, scan candidate buckets, compare keys."""

    TYPE_CODE = int(StructureType.HASH_TABLE)
    NAME = "hash-table"
    STATES = _StandardProgram.PRELUDE_STATES + (
        "READ_DESC",
        "HASH",
        "BUCKET_ADDR",
        "READ_LINE",
        "SCAN",
        "COMPARE",
        "CHECK",
        "READ_VALUE",
    )
    #: subtype = entries per bucket; a zero bucket width makes no progress.
    SUBTYPE_MIN = 1
    SUBTYPE_MAX = 128
    REQUIRES_SIZE = True

    def _compile(self) -> CompiledStep:
        up = _U64
        S_DESC, S_HASH, S_LINE, S_CMP, S_VALUE = 2, 3, 4, 5, 6
        R_KLEN, R_BB, R_SIZE, R_SIG = 7, 8, 9, 10
        R_B0, R_B1, R_B0ROOT, R_B1ROOT = 11, 12, 13, 14
        R_WHICH, R_LINE, R_SLOT, R_KV = 15, 16, 17, 18
        R_NEWROOT, R_NEWBUCKETS, R_WM, R_RESIZE = 19, 20, 21, 22
        BAD_AUX = int(AbortCode.BAD_AUX)

        def read_line(ctx):
            regs = ctx.scratch
            if regs[R_WHICH] == 0:
                bucket, broot = regs[R_B0], regs[R_B0ROOT]
            else:
                bucket, broot = regs[R_B1], regs[R_B1ROOT]
            bucket_bytes = regs[R_BB]
            offset = regs[R_LINE] * 64
            remaining = bucket_bytes - offset
            if remaining <= 0:
                return next_bucket(ctx)
            regs[R_SLOT] = 0
            ctx.state = 6
            return (
                K_MEMREAD,
                broot + bucket * bucket_bytes + offset,
                64 if remaining > 64 else remaining,
                S_LINE,
            )

        def scan_line(ctx):
            """Signature pre-filter over the staged line (local DPU compare)."""
            regs = ctx.scratch
            line = regs[S_LINE]
            slots_in_line = len(line) // 16
            slot = regs[R_SLOT]
            want = regs[R_SIG]
            while slot < slots_in_line:
                base = slot * 16
                sig = up(line, base)[0]
                kv = up(line, base + 8)[0]
                slot += 1
                if sig == want and kv:
                    regs[R_SLOT] = slot
                    regs[R_KV] = kv
                    ctx.state = 7
                    return (K_COMPARE, kv + 8, regs[R_KLEN], S_CMP)
            regs[R_SLOT] = slot
            regs[R_LINE] += 1
            if regs[R_LINE] * 64 >= regs[R_BB]:
                return next_bucket(ctx)
            return read_line(ctx)

        def next_bucket(ctx):
            regs = ctx.scratch
            if regs[R_WHICH] == 0:
                regs[R_WHICH] = 1
                regs[R_LINE] = 0
                return read_line(ctx)
            return (K_DONE, None)

        def after_parse(ctx):
            regs = ctx.scratch
            header = ctx.header
            regs[R_KLEN] = header.key_length
            regs[R_BB] = header.subtype * 16
            regs[R_SIZE] = header.size
            regs[R_RESIZE] = 0
            if header.flags & FLAG_RESIZING:
                # An online resize is in flight: fetch the out-of-line resize
                # descriptor {new_root, new_buckets, watermark} so candidate
                # buckets can route old-vs-new (docs/mutations.md).
                if not header.aux:
                    return (
                        K_FAULT,
                        BAD_AUX,
                        "RESIZING header without a descriptor pointer",
                    )
                ctx.state = 3
                return (K_MEMREAD, header.aux, 24, S_DESC)
            ctx.state = 4
            return (K_HASH, _S_KEY, S_HASH)

        def dispatch(ctx):
            regs = ctx.scratch
            state = ctx.state
            if state == 6:  # SCAN
                return scan_line(ctx)
            if state == 7:  # CHECK
                if regs[S_CMP] == 0:
                    ctx.state = 8
                    return (K_MEMREAD, regs[R_KV], 8, S_VALUE)
                return scan_line(ctx)  # keep scanning after a sig collision
            if state == 8:  # READ_VALUE
                return (K_DONE, up(regs[S_VALUE], 0)[0])
            if state == 5:  # BUCKET_ADDR
                return read_line(ctx)
            if state == 4:  # HASH
                # The hash unit produced the primary hash; derive the
                # signature and both candidate buckets with one ALU step.
                h1 = regs[S_HASH]
                key = ctx.key
                h2 = secondary_hash(key)
                regs[R_SIG] = signature_of(key) or 1
                num_buckets = regs[R_SIZE]
                root = ctx.header.root_ptr
                if regs[R_RESIZE]:
                    # Route per candidate: old buckets below the migration
                    # watermark have moved to the doubled table, where the
                    # same hash indexes bucket (h % 2N) = b or b + N.
                    watermark = regs[R_WM]
                    new_buckets = regs[R_NEWBUCKETS]
                    new_root = regs[R_NEWROOT]
                    b0 = h1 % num_buckets
                    if b0 < watermark:
                        regs[R_B0] = h1 % new_buckets
                        regs[R_B0ROOT] = new_root
                    else:
                        regs[R_B0] = b0
                        regs[R_B0ROOT] = root
                    b1 = h2 % num_buckets
                    if b1 < watermark:
                        regs[R_B1] = h2 % new_buckets
                        regs[R_B1ROOT] = new_root
                    else:
                        regs[R_B1] = b1
                        regs[R_B1ROOT] = root
                else:
                    regs[R_B0] = h1 % num_buckets
                    regs[R_B1] = h2 % num_buckets
                    regs[R_B0ROOT] = regs[R_B1ROOT] = root
                regs[R_WHICH] = 0
                regs[R_LINE] = 0
                ctx.state = 5
                return (K_ALU, 1)
            # READ_DESC
            desc = regs[S_DESC]
            new_root = up(desc, 0)[0]
            new_buckets = up(desc, 8)[0]
            watermark = up(desc, 16)[0]
            if not new_root or new_buckets != 2 * regs[R_SIZE]:
                return (K_FAULT, BAD_AUX, "malformed resize descriptor")
            regs[R_NEWROOT] = new_root
            regs[R_NEWBUCKETS] = new_buckets
            regs[R_WM] = watermark if watermark < regs[R_SIZE] else regs[R_SIZE]
            regs[R_RESIZE] = 1
            ctx.state = 4
            return (K_HASH, _S_KEY, S_HASH)

        return self._prelude(23, dispatch, after_parse)


class SkipListCfa(_StandardProgram):
    """Skip-list seek: descend levels, advancing while next.key < key.

    Node fetches are cacheline-granular, so the header *and* the first five
    forward pointers of a node arrive together; the CFA serves level
    pointers from the staged line and only issues a fresh memory micro-op
    when the wanted pointer lies beyond it (tall towers).
    """

    TYPE_CODE = int(StructureType.SKIP_LIST)
    NAME = "skip-list"
    STATES = _StandardProgram.PRELUDE_STATES + (
        "NEXT_PTR",
        "CHECK_PTR",
        "FETCH_NEXT",
        "CHECK_CMP",
    )

    #: Bytes of a node staged per fetch (one cacheline).
    NODE_FETCH = 64
    SUBTYPE_MAX = 0
    #: Architectural bound on the tower height encoded in the aux field.
    MAX_LEVELS = 64

    def validate_header(self, header, raw: bytes = b"") -> AbortCode:
        code = super().validate_header(header, raw=raw)
        if code is not AbortCode.NONE:
            return code
        if not 1 <= header.aux <= self.MAX_LEVELS:
            return AbortCode.BAD_AUX
        return AbortCode.NONE

    def _compile(self) -> CompiledStep:
        up = _U64
        S_NODE, S_PTR, S_NEXT, S_CMP = 2, 3, 4, 5
        R_KLEN, R_NODE, R_LEVEL, R_STAGED, R_NEXT = 6, 7, 8, 9, 10
        NULL_PTR = int(AbortCode.NULL_POINTER)
        node_fetch = self.NODE_FETCH

        def read_ptr(ctx):
            """Obtain next[level] of the current node, reusing the staged line."""
            regs = ctx.scratch
            node = regs[R_NODE]
            offset = 24 + 8 * regs[R_LEVEL]
            if regs[R_STAGED] == node and offset + 8 <= len(regs[S_NODE]):
                # Serve the pointer from the staged cacheline: ALU-only step.
                regs[S_PTR] = regs[S_NODE][offset : offset + 8]
                ctx.state = 3
                return (K_ALU, 1)
            ctx.state = 3
            return (K_MEMREAD, node + offset, 8, S_PTR)

        def after_parse(ctx):
            regs = ctx.scratch
            header = ctx.header
            regs[R_KLEN] = header.key_length
            root = header.root_ptr
            regs[R_NODE] = root
            regs[R_LEVEL] = header.aux - 1  # aux = max_level
            regs[R_STAGED] = 0  # node address currently staged in S_NODE
            if not root:
                return (K_DONE, None)
            return read_ptr(ctx)

        def dispatch(ctx):
            regs = ctx.scratch
            state = ctx.state
            if state == 3:  # CHECK_PTR
                nxt = up(regs[S_PTR], 0)[0]
                if not nxt:
                    if regs[R_LEVEL] == 0:
                        return (K_DONE, None)
                    regs[R_LEVEL] -= 1
                    return read_ptr(ctx)
                regs[R_NEXT] = nxt
                ctx.state = 4
                return (K_MEMREAD_OPT, nxt, node_fetch, S_NEXT, 24)
            if state == 4:  # FETCH_NEXT
                key_ptr = up(regs[S_NEXT], 0)[0]
                if not key_ptr:
                    return (K_FAULT, NULL_PTR, "null key pointer")
                ctx.state = 5
                return (K_COMPARE, key_ptr, regs[R_KLEN], S_CMP)
            # CHECK_CMP
            cmp_result = regs[S_CMP]
            if cmp_result < 0:  # next.key < key: advance along this level
                nxt = regs[R_NEXT]
                regs[R_NODE] = nxt
                regs[R_STAGED] = nxt
                regs[S_NODE] = regs[S_NEXT]
                return read_ptr(ctx)
            if regs[R_LEVEL] > 0:
                regs[R_LEVEL] -= 1
                return read_ptr(ctx)
            if cmp_result == 0:
                return (K_DONE, up(regs[S_NEXT], 8)[0])
            return (K_DONE, None)

        return self._prelude(11, dispatch, after_parse)


class BinaryTreeCfa(_StandardProgram):
    """BST descent with three-way compares choosing the child pointer."""

    TYPE_CODE = int(StructureType.BINARY_TREE)
    NAME = "binary-tree"
    STATES = _StandardProgram.PRELUDE_STATES + ("FETCH_NODE", "COMPARE", "CHECK")
    SUBTYPE_MAX = 0

    def _compile(self) -> CompiledStep:
        up = _U64
        S_NODE, S_CMP, R_KLEN = 2, 3, 4
        NULL_PTR = int(AbortCode.NULL_POINTER)

        def after_parse(ctx):
            regs = ctx.scratch
            regs[R_KLEN] = ctx.header.key_length
            root = ctx.header.root_ptr
            if not root:
                return (K_DONE, None)
            ctx.state = 3
            return (K_MEMREAD, root, 32, S_NODE)

        def dispatch(ctx):
            regs = ctx.scratch
            node = regs[S_NODE]
            if ctx.state == 4:  # CHECK
                cmp_result = regs[S_CMP]
                if cmp_result == 0:
                    return (K_DONE, up(node, 8)[0])
                # Compare() is (stored <=> key): stored < key means go right.
                child = up(node, 16 if cmp_result > 0 else 24)[0]
                if not child:
                    return (K_DONE, None)
                ctx.state = 3
                return (K_MEMREAD, child, 32, S_NODE)
            # COMPARE
            key_ptr = up(node, 0)[0]
            if not key_ptr:
                return (K_FAULT, NULL_PTR, "null key pointer")
            ctx.state = 4
            return (K_COMPARE, key_ptr, regs[R_KLEN], S_CMP)

        return self._prelude(5, dispatch, after_parse)


class TrieCfa(_StandardProgram):
    """Byte-trie walk with an index-table search state per node.

    subtype 0 — exact-match lookup of the whole key.
    subtype 1 — Aho-Corasick scan: the "key" is an input text; the query
    returns the number of keyword matches (the Snort use case).
    subtype 2 — longest-prefix match: the walk remembers the deepest node
    with an output and returns it when the walk ends (the routing-table
    use case, Sec. II-A).
    """

    TYPE_CODE = int(StructureType.TRIE)
    NAME = "trie"
    STATES = _StandardProgram.PRELUDE_STATES + (
        "FETCH_NODE",
        "READ_EDGE_LINE",
        "SEARCH_TABLE",
        "FOLLOW_FAIL",
        "ADVANCE",
    )
    #: subtypes 0 (exact), 1 (Aho-Corasick scan), 2 (longest-prefix match).
    SUBTYPE_MAX = 2

    def _compile(self) -> CompiledStep:
        up = _U64
        S_NODE, S_EDGES = 2, 3
        R_KLEN, R_NODE, R_ROOT, R_POS, R_MATCH, R_CHUNK = 4, 5, 6, 7, 8, 9
        R_AC, R_LPM, R_BEST, R_EDGELINE, R_CHILD, R_FAIL, R_CO = (
            10, 11, 12, 13, 14, 15, 16,
        )

        def stream_chunk(ctx):
            # Long inputs (AC text) stream in by the cacheline.
            regs = ctx.scratch
            chunk = regs[R_POS] // 64
            regs[R_CHUNK] = chunk
            base = chunk * 64
            remaining = regs[R_KLEN] - base
            ctx.state = 3
            return (
                K_MEMREAD,
                ctx.key_addr + base,
                64 if remaining > 64 else remaining,
                _S_KEY,
            )

        def finish(ctx):
            regs = ctx.scratch
            if regs[R_AC]:
                return (K_DONE, regs[R_MATCH])
            output = up(regs[S_NODE], 8)[0]
            if regs[R_LPM]:
                best = output or regs[R_BEST]
                return (K_DONE, best - 1 if best else None)
            return (K_DONE, output - 1 if output else None)

        def read_edge_line(ctx):
            # Edges are fetched a cacheline (four 16-byte edges) at a time.
            regs = ctx.scratch
            node = regs[S_NODE]
            count = up(node, 16)[0]
            edges_ptr = up(node, 24)[0]
            start = regs[R_EDGELINE] * 4
            if start >= count or not edges_ptr:
                return edge_miss(ctx)
            n = count - start
            ctx.state = 4
            return (
                K_MEMREAD, edges_ptr + start * 16, (4 if n > 4 else n) * 16, S_EDGES
            )

        def search_table(ctx):
            regs = ctx.scratch
            pos = regs[R_POS]
            if pos >= regs[R_KLEN]:
                byte = None
            else:
                chunk, offset = divmod(pos, 64)
                byte = None if chunk != regs[R_CHUNK] else ctx.key[offset]
            edges = regs[S_EDGES]
            for i in range(len(edges) // 16):
                base = i * 16
                stored = up(edges, base)[0]
                if stored == byte:
                    child = up(edges, base + 8)[0]
                    regs[R_CHILD] = child
                    ctx.state = 6
                    return (K_MEMREAD, child, 32, S_NODE)
                if stored > byte:
                    return edge_miss(ctx)
            regs[R_EDGELINE] += 1
            return read_edge_line(ctx)

        def edge_miss(ctx):
            regs = ctx.scratch
            if regs[R_LPM]:
                best = regs[R_BEST]
                return (K_DONE, best - 1 if best else None)
            if not regs[R_AC]:
                return (K_DONE, None)
            if regs[R_NODE] == regs[R_ROOT]:
                regs[R_POS] += 1
                if regs[R_POS] >= regs[R_KLEN]:
                    return finish(ctx)
                regs[R_EDGELINE] = 0
                if regs[R_POS] // 64 != regs[R_CHUNK]:
                    return stream_chunk(ctx)
                return read_edge_line(ctx)
            fail = up(regs[S_NODE], 0)[0]
            regs[R_FAIL] = fail
            ctx.state = 5
            return (K_MEMREAD, fail, 32, S_NODE)

        def fetch_node(ctx):
            regs = ctx.scratch
            node = regs[S_NODE]
            if regs[R_AC] and regs[R_CO]:
                # Node staged; in AC mode count an output hit, then continue.
                regs[R_CO] = 0
                if up(node, 8)[0]:
                    regs[R_MATCH] += 1
            if regs[R_LPM]:
                output = up(node, 8)[0]
                if output:
                    regs[R_BEST] = output  # deepest prefix seen so far
            if regs[R_POS] >= regs[R_KLEN]:
                return finish(ctx)
            if regs[R_POS] // 64 != regs[R_CHUNK]:
                return stream_chunk(ctx)
            ctx.key = regs[_S_KEY]
            regs[R_EDGELINE] = 0
            return read_edge_line(ctx)

        def after_parse(ctx):
            regs = ctx.scratch
            header = ctx.header
            regs[R_KLEN] = header.key_length
            root = header.root_ptr
            regs[R_NODE] = root
            regs[R_ROOT] = root
            regs[R_POS] = 0
            regs[R_MATCH] = 0
            regs[R_CHUNK] = 0
            regs[R_AC] = 1 if header.subtype == 1 else 0
            regs[R_LPM] = 1 if header.subtype == 2 else 0
            regs[R_BEST] = 0
            regs[R_CO] = 0
            if not root:
                return (K_DONE, None)
            ctx.state = 3
            return (K_MEMREAD, root, 32, S_NODE)

        def dispatch(ctx):
            regs = ctx.scratch
            state = ctx.state
            if state == 3:  # FETCH_NODE
                return fetch_node(ctx)
            if state == 4:  # SEARCH_TABLE
                return search_table(ctx)
            if state == 6:  # ADVANCE (child node already staged)
                regs[R_NODE] = regs[R_CHILD]
                regs[R_POS] += 1
                if regs[R_AC]:
                    regs[R_CO] = 1
                return fetch_node(ctx)
            # FOLLOW_FAIL: fail node staged; retry the edge search there.
            regs[R_NODE] = regs[R_FAIL]
            regs[R_EDGELINE] = 0
            return read_edge_line(ctx)

        return self._prelude(
            17,
            dispatch,
            after_parse,
            key_fetch=lambda header: min(header.key_length, 64),
        )


class HashOfListsCfa(_StandardProgram):
    """Combined-structure firmware (Sec. III-A): hash, then chain walk.

    Not part of the default image — tests/examples register it at runtime to
    exercise the firmware-update path.
    """

    TYPE_CODE = int(StructureType.HASH_OF_LISTS)
    NAME = "hash-of-lists"
    STATES = _StandardProgram.PRELUDE_STATES + (
        "HASH",
        "READ_SLOT",
        "COMPARE",
        "CHECK",
    )
    SUBTYPE_MAX = 0
    REQUIRES_SIZE = True

    def _compile(self) -> CompiledStep:
        up = _U64
        S_HASH, S_SLOT, S_NODE, S_CMP, R_KLEN = 2, 3, 4, 5, 6
        NULL_PTR = int(AbortCode.NULL_POINTER)

        def after_parse(ctx):
            ctx.scratch[R_KLEN] = ctx.header.key_length
            ctx.state = 3
            return (K_HASH, _S_KEY, S_HASH)

        def dispatch(ctx):
            regs = ctx.scratch
            state = ctx.state
            if state == 6:  # CHECK
                node = regs[S_NODE]
                if regs[S_CMP] == 0:
                    return (K_DONE, up(node, 8)[0])
                nxt = up(node, 16)[0]
                if not nxt:
                    return (K_DONE, None)
                ctx.state = 5
                return (K_MEMREAD, nxt, 24, S_NODE)
            if state == 5:  # COMPARE
                key_ptr = up(regs[S_NODE], 0)[0]
                if not key_ptr:
                    return (K_FAULT, NULL_PTR, "null key pointer")
                ctx.state = 6
                return (K_COMPARE, key_ptr, regs[R_KLEN], S_CMP)
            if state == 4:  # READ_SLOT
                node = up(regs[S_SLOT], 0)[0]
                if not node:
                    return (K_DONE, None)
                ctx.state = 5
                return (K_MEMREAD, node, 24, S_NODE)
            # HASH
            header = ctx.header
            bucket = regs[S_HASH] % header.size
            ctx.state = 4
            return (K_MEMREAD, header.root_ptr + bucket * 8, 8, S_SLOT)

        return self._prelude(7, dispatch, after_parse)


def default_firmware(*, max_states: int = 256) -> FirmwareImage:
    """The factory-shipped firmware image: programs for the five built-ins."""
    image = FirmwareImage(max_states=max_states)
    for program in (
        LinkedListCfa(),
        HashTableCfa(),
        SkipListCfa(),
        BinaryTreeCfa(),
        TrieCfa(),
    ):
        image.register(program)
    return image
