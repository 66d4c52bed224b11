"""Jepsen-style operation history recording + per-key linearizability.

The cluster LB records one :class:`_Op` per client request — ``invoke`` at
admission, ``ok``/``fail`` at the terminal outcome — and the checker
verifies, per key, that the completed history is linearizable over a
single register with INSERT/UPDATE/DELETE/LOOKUP semantics
(Wing & Gong-style memoized search, docs/recovery.md).

The subtlety is *indeterminacy*.  The LB is an at-least-once client: a
timed-out attempt may still execute, so

* a **failed** write may have applied (once, several times, or never) at
  any moment from its invocation onwards — it participates as an optional
  effect with no real-time upper bound;
* an **ok** write that needed several attempts is ambiguous about its
  *first* execution's disposition (an earlier attempt may have applied and
  made the final one a duplicate), so it branches apply/no-op;
* an ok write that succeeded on its **first** attempt is exact: its MUT
  result says whether it applied (``result is not None``) or was a miss.

``possible_finals`` is the closure of register values any prefix of
still-undecided failed writes could leave behind — the zero-lost-
acknowledged-writes check requires every replica's converged value to be
in that set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.cfa import OP_DELETE, OP_LOOKUP

#: Per-key search budget: states explored beyond this mark the key
#: *inconclusive* instead of hanging the check; the chaos drills fail on
#: any inconclusive key.
_STATE_BUDGET = 500_000


@dataclass
class _Op:
    """One client operation as the LB observed it."""

    op_id: int
    key_pos: int
    op: int
    value: int
    invoke_cycle: int
    response_cycle: Optional[int] = None
    #: "ok", "fail", or None for an op still open when the run ended
    #: (treated as indeterminate, like "fail").
    status: Optional[str] = None
    #: The ok response's value (MUT_* code for writes, the read answer for
    #: lookups).
    result: Optional[int] = None
    attempts: int = 1

    @property
    def is_read(self) -> bool:
        return self.op == OP_LOOKUP


@dataclass
class HistoryVerdict:
    """The checker's summary over every recorded key."""

    ops: int
    keys: int
    linearizable: bool
    #: Keys whose completed history admits no linearization.
    violations: List[int] = field(default_factory=list)
    #: Keys whose search exceeded the state budget.  They leave
    #: ``linearizable`` untouched but never count as a pass: the chaos
    #: drills fail on any of them.
    inconclusive: List[int] = field(default_factory=list)
    #: Per key, every register value an admissible linearization (plus any
    #: suffix of undecided failed writes) can leave behind.
    possible_finals: Dict[int, FrozenSet[Optional[int]]] = field(
        default_factory=dict
    )


class HistoryRecorder:
    """Records invoke/ok/fail for every client op; checks per key."""

    def __init__(self, baseline: Dict[int, Optional[int]]) -> None:
        #: key position -> the register's value before the run.
        self._baseline = dict(baseline)
        self._ops: List[_Op] = []

    # ------------------------------------------------------------------ #
    # Recording (called by the LB)
    # ------------------------------------------------------------------ #

    def invoke(self, key_pos: int, op: int, value: int, cycle: int) -> int:
        op_id = len(self._ops)
        self._ops.append(
            _Op(
                op_id=op_id,
                key_pos=key_pos,
                op=op,
                value=value,
                invoke_cycle=cycle,
            )
        )
        return op_id

    def ok(
        self, op_id: int, result: Optional[int], cycle: int, attempts: int
    ) -> None:
        record = self._ops[op_id]
        record.status = "ok"
        record.response_cycle = cycle
        record.result = result
        record.attempts = attempts

    def fail(self, op_id: int, cycle: int, attempts: int) -> None:
        record = self._ops[op_id]
        record.status = "fail"
        record.response_cycle = cycle
        record.attempts = attempts

    @property
    def op_count(self) -> int:
        return len(self._ops)

    def written_keys(self) -> List[int]:
        """Key positions that saw at least one write attempt (any status)."""
        return sorted(
            {op.key_pos for op in self._ops if not op.is_read}
        )

    # ------------------------------------------------------------------ #
    # Checking
    # ------------------------------------------------------------------ #

    def check(self) -> HistoryVerdict:
        by_key: Dict[int, List[_Op]] = {}
        for record in self._ops:
            # Failed reads have no effect and assert nothing: drop them.
            if record.is_read and record.status != "ok":
                continue
            by_key.setdefault(record.key_pos, []).append(record)
        verdict = HistoryVerdict(
            ops=len(self._ops), keys=len(by_key), linearizable=True
        )
        for key_pos in sorted(by_key):
            ops = sorted(by_key[key_pos], key=lambda o: o.invoke_cycle)
            outcome, finals = self._check_key(
                ops, self._baseline.get(key_pos)
            )
            if outcome == "violation":
                verdict.linearizable = False
                verdict.violations.append(key_pos)
            elif outcome == "inconclusive":
                verdict.inconclusive.append(key_pos)
            verdict.possible_finals[key_pos] = finals
        return verdict

    def _check_key(
        self, ops: List[_Op], initial: Optional[int]
    ) -> Tuple[str, FrozenSet[Optional[int]]]:
        """Search for a linearization of one key's history.

        Returns ("ok" | "violation" | "inconclusive", possible finals).
        """
        n = len(ops)
        if n == 0:
            return "ok", frozenset({initial})
        # Real-time bounds: an op must linearize before any op invoked
        # after its response; ops without a definite response (failed /
        # never returned) bound nothing.
        responses = [
            op.response_cycle if op.status == "ok" else None for op in ops
        ]
        must_mask = 0  # ops a linearization is required to include
        for i, op in enumerate(ops):
            if op.status == "ok":
                must_mask |= 1 << i
        finals: Set[Optional[int]] = set()
        visited: Set[Tuple[int, Optional[int], bool]] = set()
        budget = _STATE_BUDGET
        success = False

        def outcomes(op: _Op, reg: Optional[int]):
            """Register values linearizing ``op`` here may produce."""
            if op.is_read:
                return [reg] if op.result == reg else []
            applied = None if op.op == OP_DELETE else op.value
            if op.status == "ok" and op.attempts == 1:
                return [applied] if op.result is not None else [reg]
            # Retried ok writes and failed writes: the first execution's
            # disposition is unknowable — both branches stay open.
            results = [applied]
            if reg not in results:
                results.append(reg)
            return results

        stack: List[Tuple[int, Optional[int]]] = [(0, initial)]
        while stack:
            if budget <= 0:
                return "inconclusive", frozenset(finals or {initial})
            mask, reg = stack.pop()
            done = mask & must_mask == must_mask
            key = (mask, reg, done)
            if key in visited:
                continue
            visited.add(key)
            budget -= 1
            if done:
                success = True
                finals.add(reg)
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                op = ops[i]
                # Precedence: some other unlinearized op already responded
                # before this one was invoked => it must go first.
                blocked = False
                for j in range(n):
                    if j == i or mask & (1 << j):
                        continue
                    rj = responses[j]
                    if rj is not None and rj < op.invoke_cycle:
                        blocked = True
                        break
                if blocked:
                    continue
                for new_reg in outcomes(op, reg):
                    stack.append((mask | bit, new_reg))
        if not success:
            return "violation", frozenset({initial})
        return "ok", frozenset(finals)
