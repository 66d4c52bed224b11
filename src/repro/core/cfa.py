"""The configurable-finite-automaton (CFA) model (paper Sec. III).

A CFA has *fixed transition rules but configurable parameters*: each
data-structure type maps to one :class:`CfaProgram` whose states are driven
by the CFA Execution Engine.  Every step either performs an internal
transition (one CEE cycle) or issues exactly one micro-operation to the Data
Processing Unit / memory system:

* :class:`MemRead` — cacheline-granular memory fetch into QST scratch;
* :class:`Compare` — (possibly remote, near-LLC) key comparison;
* :class:`HashOp` — the DPU hashing unit;
* :class:`AluOp` — arithmetic/logic on intermediate data;
* :class:`Done` / :class:`Fault` — terminal transitions.

Programs are registered in a :class:`FirmwareImage`; new data structures are
supported by registering new programs at runtime — the paper's
firmware-update path (Sec. IV-B).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import FirmwareError
from .abort import AbortCode
from .header import DataStructureHeader

if TYPE_CHECKING:
    from .specialize import CompiledStep

#: Architectural states shared by every program (Sec. IV-C / IV-D).
STATE_IDLE = "IDLE"
STATE_START = "START"
STATE_DONE = "DONE"
STATE_EXCEPTION = "EXCEPTION"

#: Result encodings written for non-blocking queries.
RESULT_PENDING = 0
RESULT_FOUND = 1
RESULT_NOT_FOUND = 2
RESULT_FAULT = 3
RESULT_ABORTED = 4

#: Query operation codes carried by a request (docs/mutations.md).  LOOKUP
#: is the read path every pre-mutation caller uses; the write ops dispatch
#: to the mutation program table registered for the structure type.
OP_LOOKUP = 0
OP_INSERT = 1
OP_DELETE = 2
OP_UPDATE = 3
OP_NAMES = {
    OP_LOOKUP: "lookup",
    OP_INSERT: "insert",
    OP_DELETE: "delete",
    OP_UPDATE: "update",
}
WRITE_OPS = (OP_INSERT, OP_DELETE, OP_UPDATE)


# --------------------------------------------------------------------- #
# Micro-operation vocabulary
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class MemRead:
    """Fetch ``length`` bytes at ``vaddr`` into scratch slot ``tag``.

    Multiple segments may be fetched concurrently (the paper's CFA issues
    the key and starting-node reads in parallel, Fig. 3 step 1): pass extra
    ``(vaddr, length, tag)`` tuples in ``also``.

    ``optional_after`` marks speculative tail bytes: fetches are cacheline
    granular, so a program may ask for a whole line knowing only the first
    N bytes are architecturally required; the engine truncates the fetch at
    an unmapped page instead of faulting, provided at least
    ``optional_after`` bytes were read.
    """

    vaddr: int
    length: int
    tag: str
    also: Tuple[Tuple[int, int, str], ...] = ()
    optional_after: Optional[int] = None

    def segments(self) -> Iterable[Tuple[int, int, str]]:
        yield self.vaddr, self.length, self.tag
        yield from self.also


@dataclass(frozen=True)
class Compare:
    """Compare ``length`` bytes at ``mem_vaddr`` against ``key_vaddr``.

    Executed by a DPU comparator.  In distributed schemes the comparator
    lives in the data's home CHA and reads straight from the LLC slice; in
    device schemes the lines travel to the device's local comparators.
    The three-way outcome (<, =, >) lands in ``ctx.results[tag]``.
    """

    mem_vaddr: int
    key_vaddr: int
    length: int
    tag: str


@dataclass(frozen=True)
class HashOp:
    """Hash ``length`` bytes already staged in scratch slot ``key_tag``."""

    key_tag: str
    tag: str
    kind: str = "fnv1a"


@dataclass(frozen=True)
class AluOp:
    """Arithmetic on intermediate data (address math, masks)."""

    cycles: int = 1


@dataclass(frozen=True)
class MemWrite:
    """Store ``data`` at ``vaddr`` through the DPU's store path.

    The write-path counterpart of :class:`MemRead`: mutation CFAs publish
    slot contents, new-node links and header fields with it.  Writes are
    only architecturally visible once the engine executes the action, so a
    program that faults before its MemWrite leaves memory untouched.
    """

    vaddr: int
    data: bytes
    tag: str = "write"
    also: Tuple[Tuple[int, bytes], ...] = ()

    def segments(self) -> Iterable[Tuple[int, bytes]]:
        yield self.vaddr, self.data
        yield from self.also


@dataclass(frozen=True)
class HeaderCas:
    """Compare-and-swap a u64 at ``vaddr``: the seqlock acquire primitive.

    The engine atomically (the CEE serialises micro-ops) compares the word
    against ``expect`` and, on match, stores ``new``.  The outcome (1 won,
    0 lost) lands in ``ctx.results[tag]`` so the program can back off.
    """

    vaddr: int
    expect: int
    new: int
    tag: str = "cas"


@dataclass(frozen=True)
class Delay:
    """Stall this query ``cycles`` without occupying a DPU unit.

    Deterministic writer backoff: a mutation program that lost a header CAS
    waits a fixed, attempt-scaled number of cycles before retrying, instead
    of spinning on the ALU pool.
    """

    cycles: int = 1


@dataclass(frozen=True)
class Done:
    """Terminal: query finished with ``value`` (None = not found)."""

    value: Optional[int]


@dataclass(frozen=True)
class Fault:
    """Terminal: architectural exception with a result code."""

    code: int = RESULT_FAULT
    detail: str = ""


MicroAction = Union[
    MemRead, Compare, HashOp, AluOp, MemWrite, HeaderCas, Delay, Done, Fault
]


@dataclass
class StepOutcome:
    """What one CEE step did: an optional micro-op and the next state."""

    next_state: str
    action: Optional[MicroAction] = None


# --------------------------------------------------------------------- #
# Per-query context (backs one QST entry)
# --------------------------------------------------------------------- #


@dataclass
class QueryContext:
    """All mutable per-query state a CFA program may touch.

    ``scratch`` models the QST entry's 64B intermediate-data field plus the
    architectural registers a microcoded engine would keep; programs store
    fetched bytes and small integers here.  ``results`` holds comparator
    and hash-unit outputs keyed by tag.
    """

    header_addr: int
    key_addr: int
    state: str = STATE_START
    header: Optional[DataStructureHeader] = None
    key: bytes = b""
    scratch: Dict[str, bytes] = field(default_factory=dict)
    results: Dict[str, int] = field(default_factory=dict)
    vars: Dict[str, int] = field(default_factory=dict)
    #: Operation code (OP_LOOKUP for the read path; WRITE_OPS dispatch to
    #: the mutation program table) and its operand: for UPDATE the new
    #: value, for INSERT the address of the core-staged record to publish.
    op: int = OP_LOOKUP
    operand: int = 0
    #: Filled on termination.
    value: Optional[int] = None
    fault_code: int = 0
    fault_detail: str = ""
    #: scratch_u64 decode cache, keyed by tag.  Each value pairs the bytes
    #: object it was decoded from with the decoded aligned words; programs
    #: overwrite scratch tags by assignment (never in place), so an ``is``
    #: check on the bytes object is a complete staleness test.
    _u64c: Dict[str, Tuple[bytes, Tuple[int, ...]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def scratch_u64(self, tag: str, offset: int = 0) -> int:
        data = self.scratch[tag]
        cached = self._u64c.get(tag)
        if cached is None or cached[0] is not data:
            words = struct.unpack_from(f"<{len(data) // 8}Q", data)
            self._u64c[tag] = cached = (data, words)
        if offset & 7 == 0 and offset + 8 <= len(data):
            return cached[1][offset >> 3]
        return int.from_bytes(data[offset : offset + 8], "little")


# --------------------------------------------------------------------- #
# Programs and firmware
# --------------------------------------------------------------------- #


class CfaProgram:
    """Base class for one data structure's query CFA.

    Subclasses set :attr:`TYPE_CODE`, :attr:`NAME` and :attr:`STATES`, and
    implement :meth:`step`, which is invoked by the CEE each time the query's
    QST entry is selected.  ``step`` inspects ``ctx.state`` (and scratch
    contents filled by completed micro-ops) and returns a
    :class:`StepOutcome`.  A program may instead define its CFA as a
    compiled closure (:meth:`compiled`) and derive ``step`` from it, as the
    built-in lookups in :mod:`repro.core.programs` do.
    """

    TYPE_CODE: int = 0
    NAME: str = "abstract"
    STATES: Tuple[str, ...] = ()
    #: Inclusive range of subtype values the program understands.
    SUBTYPE_MIN: int = 0
    SUBTYPE_MAX: int = 255
    #: True when the header's size field must be a positive count
    #: (static structures such as hash-table bucket arrays).
    REQUIRES_SIZE: bool = False

    def step(self, ctx: QueryContext) -> StepOutcome:
        raise NotImplementedError

    def compiled(self) -> Optional["CompiledStep"]:
        """The program's compiled step closure; None runs it prebound.

        See :mod:`repro.core.specialize` for the closure protocol.
        """
        return None

    def validate_header(
        self, header: DataStructureHeader, raw: bytes = b""
    ) -> AbortCode:
        """Decode-time header checks run in the PARSE state (Sec. IV-D).

        Chains the generic field checks with the program's own parameter
        ranges; subclasses override to add structure-specific rules (e.g.
        the skip-list's max-level bound) and should call ``super()`` first.
        """
        code = header.validate(expected_type=self.TYPE_CODE, raw=raw)
        if code is not AbortCode.NONE:
            return code
        if not self.SUBTYPE_MIN <= header.subtype <= self.SUBTYPE_MAX:
            return AbortCode.BAD_SUBTYPE
        if self.REQUIRES_SIZE and header.size <= 0:
            return AbortCode.BAD_SIZE
        return AbortCode.NONE

    def validate(self, max_states: int) -> None:
        """Check the program fits the QST's state-field encoding."""
        if not self.STATES:
            raise FirmwareError(f"program {self.NAME!r} declares no states")
        if len(self.STATES) > max_states:
            raise FirmwareError(
                f"program {self.NAME!r} has {len(self.STATES)} states; the QST "
                f"state field encodes at most {max_states}"
            )
        required = {STATE_START, STATE_DONE}
        missing = required - set(self.STATES)
        if missing:
            raise FirmwareError(
                f"program {self.NAME!r} missing architectural states {missing}"
            )


class FirmwareImage:
    """The CEE's loaded state-transition rules, keyed by structure type.

    The engine is microcoded and configurable: :meth:`register` is the
    firmware-update path for emerging data structures (Sec. IV-B).
    """

    def __init__(self, *, max_states: int = 256) -> None:
        self.max_states = max_states
        self._programs: Dict[int, CfaProgram] = {}
        #: Mutation programs (INSERT/DELETE/UPDATE dispatch), keyed by the
        #: same structure type codes; absent entries mean writes for that
        #: type run entirely on the software path.
        self._mutators: Dict[int, CfaProgram] = {}
        #: Bumped on every table change (register or hot-swap adopt) so the
        #: accelerator's compiled-step table (core/specialize.py) can detect
        #: staleness with one integer compare per query admission.
        self.epoch = 0

    def register(
        self, program: CfaProgram, *, replace: bool = False, mutation: bool = False
    ) -> None:
        table = self._mutators if mutation else self._programs
        program.validate(self.max_states)
        if program.TYPE_CODE in table and not replace:
            raise FirmwareError(
                f"type code {program.TYPE_CODE} already has a program "
                f"({table[program.TYPE_CODE].NAME!r}); "
                "pass replace=True to update firmware"
            )
        table[program.TYPE_CODE] = program
        self.epoch += 1

    def staged_copy(self) -> "FirmwareImage":
        """A candidate image for a live update (same programs and budget).

        Hot-swap protocol: stage a copy, :meth:`register` the new programs
        on it (validation failures leave the live table untouched — that is
        the rollback), then :meth:`adopt` it once the CEE has quiesced.
        """
        staged = FirmwareImage(max_states=self.max_states)
        staged._programs = dict(self._programs)
        staged._mutators = dict(self._mutators)
        return staged

    def adopt(self, staged: "FirmwareImage") -> None:
        """Atomically switch to ``staged``'s program table (hot-swap commit)."""
        self._programs = staged._programs
        self._mutators = staged._mutators
        self.epoch += 1

    def program_for(self, type_code: int, *, op: int = OP_LOOKUP) -> CfaProgram:
        table = self._programs if op == OP_LOOKUP else self._mutators
        try:
            return table[type_code]
        except KeyError as exc:
            kind = "CFA" if op == OP_LOOKUP else "mutation CFA"
            raise FirmwareError(
                f"no {kind} program loaded for structure type {type_code}"
            ) from exc

    def supports(self, type_code: int, *, op: int = OP_LOOKUP) -> bool:
        table = self._programs if op == OP_LOOKUP else self._mutators
        return type_code in table

    def types(self) -> List[int]:
        return sorted(self._programs)

    def mutation_types(self) -> List[int]:
        return sorted(self._mutators)
