"""Property tests: compiled step closures agree with the interpreter.

For every registered program, the compiled step function (the closure each
built-in lookup is defined by, prebound tier for mutation CFAs) must
reproduce the generic ``program.step`` *exactly*: the same normalized
micro-op trace
(read addresses and usable lengths, compare operands and outcomes, hash
inputs, ALU/delay cycles, write segments, CAS operands), the same terminal
(Done value / Fault code + detail), and the same raised exceptions, on
randomized structures and probe keys.  For the lookups, whose ``step`` is
derived from the closure, this pins the adapter between the two forms;
the software ``structure.lookup`` stays the functional oracle.

The two walkers run outside the accelerator: micro-ops are applied
*functionally* (reads/writes/compares really happen against the simulated
address space; timing is ignored — golden-stats pins timing end to end).
Lookups share one memory image since they never write; mutation CFAs run
against twin identically-built systems because both walkers publish their
stores.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import small_config
from repro.core.abort import AbortCode
from repro.core.accelerator import QueryRequest
from repro.core.cfa import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    AluOp,
    Compare,
    Delay,
    Done,
    Fault,
    HashOp,
    HeaderCas,
    MemRead,
    MemWrite,
    QueryContext,
)
from repro.core.header import VERSION_OFFSET
from repro.core.programs import (
    BinaryTreeCfa,
    HashOfListsCfa,
    HashTableCfa,
    LinkedListCfa,
    SkipListCfa,
    TrieCfa,
)
from repro.core.programs_ext import BPlusTreeCfa
from repro.core.specialize import (
    K_ACTION,
    K_ALU,
    K_COMPARE,
    K_DONE,
    K_FAULT,
    K_HASH,
    K_MEMREAD,
    K_MEMREAD_OPT,
    K_WAIT,
    compile_firmware,
)
from repro.datastructs import (
    AhoCorasickTrie,
    BinarySearchTree,
    BPlusTree,
    CuckooHashTable,
    HashOfLists,
    LinkedList,
    LpmTrie,
    ProcessMemory,
    SkipList,
    Trie,
)
from repro.datastructs.hashing import fnv1a64
from repro.system import System

KEY_LENGTH = 16
MAX_STEPS = 100_000

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _key(i: int) -> bytes:
    return (b"%013d" % (i % 10**13)).ljust(KEY_LENGTH, b"_")


# --------------------------------------------------------------------- #
# Normalized-trace walkers
# --------------------------------------------------------------------- #


def _usable_length(space, vaddr, length, optional_after):
    # Mirror of QeiAccelerator._usable_length: truncate a speculative
    # cacheline fetch at the first unmapped page past the required bytes.
    if optional_after is None:
        return length
    page = space.page_bytes
    usable = optional_after
    while usable < length:
        if not space.is_mapped(vaddr + usable):
            break
        step = page - (vaddr + usable) % page
        usable = min(length, usable + step)
    return usable


def _apply_generic(action, ctx, space, trace):
    """Apply one dataclass micro-op functionally, recording its trace."""
    if isinstance(action, MemRead):
        for vaddr, length, tag in action.segments():
            length = _usable_length(space, vaddr, length, action.optional_after)
            data = space.read(vaddr, length)
            ctx.scratch[tag] = data
            trace.append(("mem", vaddr, length, bytes(data)))
    elif isinstance(action, Compare):
        stored = space.read(action.mem_vaddr, action.length)
        key = space.read(action.key_vaddr, action.length)
        result = (stored > key) - (stored < key)
        ctx.results[action.tag] = result
        trace.append(
            ("cmp", action.mem_vaddr, action.key_vaddr, action.length, result)
        )
    elif isinstance(action, HashOp):
        data = ctx.scratch[action.key_tag]
        digest = fnv1a64(data)
        ctx.results[action.tag] = digest
        trace.append(("hash", bytes(data), digest))
    elif isinstance(action, AluOp):
        trace.append(("alu", action.cycles))
    elif isinstance(action, MemWrite):
        for vaddr, data in action.segments():
            space.write(vaddr, data)
            trace.append(("write", vaddr, bytes(data)))
    elif isinstance(action, HeaderCas):
        current = space.read_u64(action.vaddr)
        won = 1 if current == action.expect else 0
        if won:
            space.write_u64(action.vaddr, action.new)
        ctx.results[action.tag] = won
        trace.append(("cas", action.vaddr, action.expect, action.new, won))
    elif isinstance(action, Delay):
        trace.append(("delay", action.cycles))
    else:  # pragma: no cover - new micro-op kinds must be added here
        raise AssertionError(f"unhandled micro-op {action!r}")


def run_generic(program, ctx, space):
    """Walk ``program.step`` to termination, returning the normalized trace."""
    trace = []
    for _ in range(MAX_STEPS):
        try:
            # The generic driver re-peeks the type byte on every step
            # (program_for dispatch); reproduce its fault point.
            space.read_u8(ctx.header_addr + 8)
            outcome = program.step(ctx)
            ctx.state = outcome.next_state
            action = outcome.action
            if action is None:
                trace.append(("wait",))
                continue
            if isinstance(action, Done):
                trace.append(("done", action.value))
                return trace
            if isinstance(action, Fault):
                trace.append(("fault", int(action.code), action.detail))
                return trace
            _apply_generic(action, ctx, space, trace)
        except Exception as exc:  # noqa: BLE001 - drivers turn these into faults
            trace.append(("exc", type(exc).__name__, str(exc)))
            return trace
    raise AssertionError("generic walker exceeded MAX_STEPS")


def run_compiled(compiled, ctx, space):
    """Walk a :class:`CompiledStep` to termination, same normalization."""
    if not compiled.prebound:
        ctx.scratch = [0] * compiled.nregs
        ctx.state = 0
    trace = []
    step = compiled.step
    for _ in range(MAX_STEPS):
        try:
            if ctx.header is None:
                # The fast driver's pre-PARSE type-byte peek.
                space.read_u8(ctx.header_addr + 8)
            act = step(ctx)
            kind = act[0]
            if kind == K_MEMREAD:
                _, vaddr, length, slot = act
                data = space.read(vaddr, length)
                ctx.scratch[slot] = data
                trace.append(("mem", vaddr, length, bytes(data)))
            elif kind == K_MEMREAD_OPT:
                _, vaddr, length, slot, after = act
                length = _usable_length(space, vaddr, length, after)
                data = space.read(vaddr, length)
                ctx.scratch[slot] = data
                trace.append(("mem", vaddr, length, bytes(data)))
            elif kind == K_COMPARE:
                _, mem_vaddr, length, slot = act
                stored = space.read(mem_vaddr, length)
                key = space.read(ctx.key_addr, length)
                result = (stored > key) - (stored < key)
                ctx.scratch[slot] = result
                trace.append(("cmp", mem_vaddr, ctx.key_addr, length, result))
            elif kind == K_HASH:
                data = ctx.scratch[act[1]]
                digest = fnv1a64(data)
                ctx.scratch[act[2]] = digest
                trace.append(("hash", bytes(data), digest))
            elif kind == K_ALU:
                trace.append(("alu", act[1]))
            elif kind == K_DONE:
                trace.append(("done", act[1]))
                return trace
            elif kind == K_FAULT:
                trace.append(("fault", int(act[1]), act[2]))
                return trace
            elif kind == K_WAIT:
                trace.append(("wait",))
            elif kind == K_ACTION:
                _apply_generic(act[1], ctx, space, trace)
            else:  # pragma: no cover
                raise AssertionError(f"unknown tuple kind {act!r}")
        except Exception as exc:  # noqa: BLE001
            trace.append(("exc", type(exc).__name__, str(exc)))
            return trace
    raise AssertionError("compiled walker exceeded MAX_STEPS")


def assert_agree(program, compiled, header_addr, key_addr, space, op=0, operand=0):
    ctx_g = QueryContext(
        header_addr=header_addr, key_addr=key_addr, op=op, operand=operand
    )
    trace_g = run_generic(program, ctx_g, space)
    ctx_c = QueryContext(
        header_addr=header_addr, key_addr=key_addr, op=op, operand=operand
    )
    trace_c = run_compiled(compiled, ctx_c, space)
    assert trace_c == trace_g, (
        f"{compiled.name}: traces diverge at index "
        f"{next(i for i, (a, b) in enumerate(zip(trace_c, trace_g)) if a != b) if trace_c != trace_g and any(a != b for a, b in zip(trace_c, trace_g)) else min(len(trace_c), len(trace_g))}"
    )
    return trace_g


# --------------------------------------------------------------------- #
# Lookup programs (closure tier), read-only: one shared memory image
# --------------------------------------------------------------------- #


def _build_linked_list(mem, items):
    s = LinkedList(mem, key_length=KEY_LENGTH)
    for k, v in items:
        s.insert(k, v)
    return s, LinkedListCfa()


def _build_bst(mem, items):
    s = BinarySearchTree(mem, key_length=KEY_LENGTH)
    for k, v in items:
        s.insert(k, v)
    return s, BinaryTreeCfa()


def _build_skiplist(mem, items):
    s = SkipList(mem, key_length=KEY_LENGTH)
    for k, v in items:
        s.insert(k, v)
    return s, SkipListCfa()


def _build_cuckoo(mem, items):
    s = CuckooHashTable(
        mem, key_length=KEY_LENGTH, num_buckets=16, entries_per_bucket=4
    )
    for k, v in items:
        s.insert(k, v)
    return s, HashTableCfa()


def _build_hash_of_lists(mem, items):
    # Few buckets so chains actually form.
    s = HashOfLists(mem, key_length=KEY_LENGTH, num_buckets=4)
    for k, v in items:
        s.insert(k, v)
    return s, HashOfListsCfa()


def _build_btree(mem, items):
    s = BPlusTree(mem, key_length=KEY_LENGTH, fanout=4)
    s.bulk_load(sorted(items))
    return s, BPlusTreeCfa()


LOOKUP_BUILDERS = {
    "linked-list": _build_linked_list,
    "bst": _build_bst,
    "skiplist": _build_skiplist,
    "cuckoo": _build_cuckoo,
    "hash-of-lists": _build_hash_of_lists,
    "bplus-tree": _build_btree,
}


@pytest.mark.parametrize("kind", sorted(LOOKUP_BUILDERS))
@settings(max_examples=25, **COMMON_SETTINGS)
@given(data=st.data())
def test_lookup_specialization_agrees(kind, data):
    stored = data.draw(
        st.lists(st.integers(0, 2**32), min_size=1, max_size=24, unique=True),
        label="stored",
    )
    items = [(_key(i), 1000 + n) for n, i in enumerate(stored)]
    probe_int = data.draw(
        st.one_of(st.sampled_from(stored), st.integers(0, 2**32)), label="probe"
    )
    probe = _key(probe_int)

    mem = ProcessMemory()
    structure, program = LOOKUP_BUILDERS[kind](mem, items)
    compiled = program.compiled()
    assert not compiled.prebound, f"{kind} should compile to its closure"

    key_addr = structure.store_key(probe)
    trace = assert_agree(
        program, compiled, structure.header_addr, key_addr, mem.space
    )
    # Functional oracle: the agreed-on Done value matches the structure.
    assert trace[-1] == ("done", structure.lookup(probe))


@settings(max_examples=20, **COMMON_SETTINGS)
@given(data=st.data())
def test_lookup_specialization_agrees_mid_resize(data):
    # The hash-table CFA's resize-descriptor path (READ_DESC state,
    # watermark routing between old and new tables).
    stored = data.draw(
        st.lists(st.integers(0, 2**32), min_size=4, max_size=24, unique=True),
        label="stored",
    )
    items = [(_key(i), 1000 + n) for n, i in enumerate(stored)]
    probe = _key(data.draw(st.sampled_from(stored), label="probe"))
    migrated = data.draw(st.integers(0, 16), label="migrated")

    mem = ProcessMemory()
    table = CuckooHashTable(
        mem, key_length=KEY_LENGTH, num_buckets=16, entries_per_bucket=4
    )
    for k, v in items:
        table.insert(k, v)
    table.begin_resize()
    table.migrate_chunk(migrated)

    program = HashTableCfa()
    compiled = program.compiled()
    key_addr = table.store_key(probe)
    trace = assert_agree(program, compiled, table.header_addr, key_addr, mem.space)
    assert trace[-1] == ("done", table.lookup(probe))


TRIE_TEXT_LENGTH = 80  # > 64 so the AC scan streams the key by cachelines


@pytest.mark.parametrize("subtype", ["exact", "aho-corasick", "lpm"])
@settings(max_examples=25, **COMMON_SETTINGS)
@given(data=st.data())
def test_trie_specialization_agrees(subtype, data):
    mem = ProcessMemory()
    # A tiny alphabet so random probes share prefixes with stored keys.
    alphabet = st.integers(0, 3)
    if subtype == "exact":
        trie = Trie(mem, key_length=KEY_LENGTH)
        words = data.draw(
            st.lists(
                st.binary(min_size=1, max_size=KEY_LENGTH).map(
                    lambda b: bytes(x & 3 for x in b)
                ),
                min_size=1,
                max_size=12,
            ),
            label="words",
        )
        for n, w in enumerate(words):
            trie.insert(w, n)
        probe = bytes(
            data.draw(
                st.lists(alphabet, min_size=KEY_LENGTH, max_size=KEY_LENGTH),
                label="probe",
            )
        )
    elif subtype == "aho-corasick":
        trie = AhoCorasickTrie(mem, key_length=TRIE_TEXT_LENGTH)
        words = data.draw(
            st.lists(
                st.binary(min_size=1, max_size=6).map(
                    lambda b: bytes(x & 3 for x in b)
                ),
                min_size=1,
                max_size=8,
            ),
            label="keywords",
        )
        for n, w in enumerate(words):
            trie.insert(w, n)
        probe = bytes(
            data.draw(
                st.lists(
                    alphabet, min_size=TRIE_TEXT_LENGTH, max_size=TRIE_TEXT_LENGTH
                ),
                label="text",
            )
        )
    else:
        trie = LpmTrie(mem, key_length=4)
        prefixes = data.draw(
            st.lists(
                st.binary(min_size=1, max_size=4).map(
                    lambda b: bytes(x & 3 for x in b)
                ),
                min_size=1,
                max_size=8,
                unique=True,
            ),
            label="prefixes",
        )
        for n, p in enumerate(prefixes):
            trie.insert_prefix(p, n)
        probe = bytes(data.draw(st.lists(alphabet, min_size=4, max_size=4)))
    trie.seal()

    program = TrieCfa()
    compiled = program.compiled()
    key_addr = trie.store_key(probe)
    assert_agree(program, compiled, trie.header_addr, key_addr, mem.space)


# --------------------------------------------------------------------- #
# Mutation programs (prebound tier): twin systems, both walkers write
# --------------------------------------------------------------------- #


def _twin(build, items):
    """Build one (system, structure, mutator) twin deterministically."""
    system = System(small_config())
    system.enable_mutations()
    structure = build(system, items)
    from repro.core.mutations import make_mutator

    return system, structure, make_mutator(system, structure)


def _build_mut_hash(system, items):
    s = CuckooHashTable(system.mem, key_length=KEY_LENGTH, num_buckets=32)
    for k, v in items:
        s.insert(k, v)
    return s


def _build_mut_skiplist(system, items):
    s = SkipList(system.mem, key_length=KEY_LENGTH)
    for k, v in items:
        s.insert(k, v)
    return s


def _build_mut_btree(system, items):
    ticket = system.update_firmware([BPlusTreeCfa()])
    system.engine.run()
    assert ticket.done
    s = BPlusTree(system.mem, key_length=KEY_LENGTH, fanout=8)
    s.bulk_load(sorted(items))
    return s


MUT_BUILDERS = {
    "hash": _build_mut_hash,
    "skiplist": _build_mut_skiplist,
    "btree": _build_mut_btree,
}

MUT_OPS = {"update": OP_UPDATE, "delete": OP_DELETE, "insert": OP_INSERT}


@pytest.mark.parametrize("kind", sorted(MUT_BUILDERS))
@settings(max_examples=8, **COMMON_SETTINGS)
@given(data=st.data())
def test_mutation_prebound_agrees(kind, data):
    stored = data.draw(
        st.lists(st.integers(0, 2**32), min_size=2, max_size=12, unique=True),
        label="stored",
    )
    items = [(_key(i), 1000 + n) for n, i in enumerate(stored)]
    op_name = data.draw(st.sampled_from(sorted(MUT_OPS)), label="op")
    op = MUT_OPS[op_name]
    if op == OP_INSERT:
        target_int = data.draw(
            st.integers(0, 2**32).filter(lambda i: i not in stored), label="target"
        )
    else:
        # Present or absent target: both the hit and miss paths.
        target_int = data.draw(
            st.one_of(st.sampled_from(stored), st.integers(0, 2**32)),
            label="target",
        )
    target = _key(target_int)
    value = data.draw(st.integers(0, 2**20), label="value")
    conflict = data.draw(st.booleans(), label="conflict")

    traces = []
    for _ in range(2):  # generic twin, compiled twin
        system, structure, mutator = _twin(MUT_BUILDERS[kind], items)
        space = system.mem.space
        type_code = space.read_u8(structure.header_addr + 8)
        program = system.firmware.program_for(type_code, op=OP_INSERT)
        operand = mutator.stage(op, target, value)
        key_addr = structure.store_key(target)
        if conflict:
            # Hold the seqlock (odd version): the writer must back off
            # MAX_LOCK_ATTEMPTS times and fault identically on both tiers.
            space.write_u64(
                structure.header_addr + VERSION_OFFSET,
                space.read_u64(structure.header_addr + VERSION_OFFSET) | 1,
            )
        traces.append((system, program, structure, key_addr, operand))

    sys_g, program, struct_g, key_g, operand_g = traces[0]
    sys_c, _, struct_c, key_c, operand_c = traces[1]
    # Twin determinism: identical layout means identical addresses.
    assert key_g == key_c and operand_g == operand_c
    assert struct_g.header_addr == struct_c.header_addr

    ctx_g = QueryContext(
        header_addr=struct_g.header_addr, key_addr=key_g, op=op, operand=operand_g
    )
    trace_g = run_generic(program, ctx_g, sys_g.mem.space)

    compiled = compile_firmware(sys_c.firmware)[1][
        sys_c.mem.space.read_u8(struct_c.header_addr + 8)
    ]
    assert compiled.prebound, "mutation CFAs ride the prebound tier"
    ctx_c = QueryContext(
        header_addr=struct_c.header_addr, key_addr=key_c, op=op, operand=operand_c
    )
    trace_c = run_compiled(compiled, ctx_c, sys_c.mem.space)

    assert trace_c == trace_g
    if conflict:
        assert trace_g[-1][0] == "fault", "held seqlock must end in a fault"
    # Both twins' memories must have converged to the same structure state.
    for k, _ in items:
        assert struct_g.lookup(k) == struct_c.lookup(k)
    assert struct_g.lookup(target) == struct_c.lookup(target)


# --------------------------------------------------------------------- #
# Compiler-shape invariants (cheap, non-Hypothesis)
# --------------------------------------------------------------------- #


def test_every_builtin_lookup_is_specialized():
    for program in (
        LinkedListCfa(),
        HashTableCfa(),
        SkipListCfa(),
        BinaryTreeCfa(),
        TrieCfa(),
        HashOfListsCfa(),
        BPlusTreeCfa(),
    ):
        compiled = program.compiled()
        assert not compiled.prebound
        assert compiled.nregs >= 2
        assert compiled.name == program.NAME
        assert program.compiled() is compiled, "compiled once per instance"


def test_subclassed_program_reuses_parent_closure():
    class Strict(LinkedListCfa):
        """Adds a header rule; the walk itself is the parent's closure."""

        def validate_header(self, header, raw=b""):
            code = super().validate_header(header, raw=raw)
            if code is AbortCode.NONE and header.key_length != 2 * KEY_LENGTH:
                return AbortCode.BAD_KEY_LENGTH
            return code

    mem = ProcessMemory()
    structure, _ = _build_linked_list(mem, [(_key(1), 1001), (_key(2), 1002)])
    key_addr = structure.store_key(_key(2))
    program = Strict()
    compiled = program.compiled()
    assert not compiled.prebound
    assert compiled.nregs == LinkedListCfa().compiled().nregs
    system = System(small_config())
    system.firmware.register(program, replace=True)
    assert compile_firmware(system.firmware)[0][program.TYPE_CODE] is compiled

    # Both forms honour the override: the header is rejected at PARSE.
    trace = assert_agree(
        program, compiled, structure.header_addr, key_addr, mem.space
    )
    rejected = int(AbortCode.BAD_KEY_LENGTH)
    assert trace[-1] == ("fault", rejected, "header rejected: BAD_KEY_LENGTH")
    # The parent, unchanged, still finds the key.
    parent = LinkedListCfa()
    trace = assert_agree(
        parent, parent.compiled(), structure.header_addr, key_addr, mem.space
    )
    assert trace[-1] == ("done", 1002)

    # A subclass that writes its own step runs that step, not the inherited
    # closure: it lands on the prebound tier in the default config too.
    class Counted(LinkedListCfa):
        def __init__(self):
            self.steps = 0

        def step(self, ctx):
            self.steps += 1
            return super().step(ctx)

    counted = Counted()
    assert counted.compiled() is None
    system = System(small_config())
    structure, _ = _build_linked_list(
        system.mem, [(_key(1), 1001), (_key(2), 1002)]
    )
    system.firmware.register(counted, replace=True)
    assert compile_firmware(system.firmware)[0][counted.TYPE_CODE].prebound
    handle = system.accelerator.submit(
        QueryRequest(
            header_addr=structure.header_addr,
            key_addr=structure.store_key(_key(2)),
        ),
        system.engine.now,
    )
    system.accelerator.wait_for(handle)
    assert handle.value == 1002
    assert counted.steps > 0, "the override ran"


def test_compile_firmware_covers_registered_tables():
    system = System(small_config())
    system.enable_mutations()
    lookups, mutators = compile_firmware(system.firmware)
    assert set(mutators) == set(system.firmware.mutation_types())
    assert lookups, "factory firmware registers lookup programs"
