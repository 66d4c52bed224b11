"""HistoryRecorder.check against hand-built per-key histories.

The cluster runs only ever feed the checker histories a correct fleet
produced, so these cases pin its verdicts on histories known to be bad
(stale reads, invented values, real-time reorderings) and on the two
indeterminate shapes the at-least-once load balancer creates (a failed
write that may have applied, a retried ok write whose ack was lost).
"""

from __future__ import annotations

from repro.core.cfa import OP_INSERT, OP_LOOKUP, OP_UPDATE
from repro.core.mutations import MUT_INSERTED, MUT_UPDATED
from repro.faults.history import HistoryRecorder

KEY = 0
OLD, NEW, NEWER = 10, 20, 30


def _write(
    rec, value, invoke, response, *, op=OP_UPDATE, attempts=1, result=MUT_UPDATED
):
    op_id = rec.invoke(KEY, op, value, invoke)
    rec.ok(op_id, result, response, attempts)


def _read(rec, answer, invoke, response):
    op_id = rec.invoke(KEY, OP_LOOKUP, 0, invoke)
    rec.ok(op_id, answer, response, 1)


def _recorder(initial=OLD):
    return HistoryRecorder({KEY: initial})


def test_stale_read_after_acknowledged_write_is_a_violation():
    rec = _recorder()
    _write(rec, NEW, 0, 5)
    _read(rec, OLD, 10, 15)
    verdict = rec.check()
    assert not verdict.linearizable
    assert verdict.violations == [KEY]


def test_read_of_never_written_value_is_a_violation():
    rec = _recorder()
    _write(rec, NEW, 0, 5)
    _read(rec, 99, 10, 15)
    verdict = rec.check()
    assert not verdict.linearizable
    assert verdict.violations == [KEY]


def test_real_time_reordering_of_writes_is_a_violation():
    # NEW is acknowledged before NEWER is invoked, so NEWER linearizes
    # last and a read after both must not see NEW.
    rec = _recorder()
    _write(rec, NEW, 0, 5)
    _write(rec, NEWER, 10, 15)
    _read(rec, NEW, 20, 25)
    verdict = rec.check()
    assert not verdict.linearizable
    assert verdict.violations == [KEY]


def test_concurrent_writes_may_linearize_in_either_order():
    # Control for the case above: once the two writes overlap, reading
    # NEW afterwards is admissible (NEWER linearized first).
    rec = _recorder()
    _write(rec, NEW, 0, 15)
    _write(rec, NEWER, 5, 12)
    _read(rec, NEW, 20, 25)
    verdict = rec.check()
    assert verdict.linearizable
    assert verdict.possible_finals[KEY] == frozenset({NEW})


def test_failed_write_may_or_may_not_have_applied():
    rec = _recorder()
    op_id = rec.invoke(KEY, OP_UPDATE, NEW, 0)
    rec.fail(op_id, 50, 3)
    verdict = rec.check()
    assert verdict.linearizable
    assert verdict.violations == [] and verdict.inconclusive == []
    assert verdict.possible_finals[KEY] == frozenset({OLD, NEW})


def test_retried_ok_write_with_lost_ack_passes():
    # The first INSERT attempt applied but its ack was lost; the retry
    # found the key present and reported a miss.  With attempts > 1 the
    # miss is ambiguous, so a later read of NEW is admissible.
    rec = _recorder(initial=None)
    _write(rec, NEW, 0, 40, op=OP_INSERT, attempts=2, result=None)
    _read(rec, NEW, 50, 55)
    verdict = rec.check()
    assert verdict.linearizable
    assert verdict.possible_finals[KEY] == frozenset({NEW})


def test_first_attempt_miss_is_exact():
    # Control for the case above: a single-attempt miss did not apply, so
    # the same read becomes a violation, while a single-attempt insert
    # that reports MUT_INSERTED passes.
    rec = _recorder(initial=None)
    _write(rec, NEW, 0, 40, op=OP_INSERT, result=None)
    _read(rec, NEW, 50, 55)
    assert rec.check().violations == [KEY]

    rec = _recorder(initial=None)
    _write(rec, NEW, 0, 40, op=OP_INSERT, result=MUT_INSERTED)
    _read(rec, NEW, 50, 55)
    assert rec.check().linearizable
