"""The firmware guide's worked program runs as documented.

``docs/firmware-guide.md`` teaches CFA writing by example.  These tests
execute the guide's ``ArrayScanCfa`` code block as written, register it on
a live system, and look keys up in an array of records — in the default
configuration and in the reference one (unfused generic interpreter over
the un-memoized memory walk), which must agree value for value and cycle
for cycle.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import small_config
from repro.core.accelerator import QeiAccelerator, QueryRequest, QueryStatus
from repro.core.cfa import FirmwareImage
from repro.core.header import FLAG_VALID, DataStructureHeader
from repro.core.programs import _StandardProgram
from repro.errors import FirmwareError
from repro.mem.hierarchy import MemoryHierarchy
from repro.system import System

GUIDE = Path(__file__).resolve().parents[1] / "docs" / "firmware-guide.md"
KEY_LENGTH = 16
N_RECORDS = 12


def _guide_program():
    section = GUIDE.read_text().split("## A minimal program", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(GUIDE), "exec"), namespace)
    return namespace["ArrayScanCfa"], namespace["RECORD"]


def _key(i: int) -> bytes:
    return f"rec-{i:04d}".encode().ljust(KEY_LENGTH, b"_")


def _run_lookups(program_cls, record: int) -> list:
    """Build the array on a fresh system and look every probe up."""
    system = System(small_config())
    mem = system.mem
    base = mem.alloc(N_RECORDS * record)
    for i in range(N_RECORDS):
        key_ptr = mem.store_bytes(_key(i))
        entry = key_ptr.to_bytes(8, "little") + (500 + i).to_bytes(8, "little")
        mem.space.write(base + i * record, entry.ljust(record, b"\0"))
    header_addr = mem.alloc_header()
    DataStructureHeader(
        root_ptr=base,
        type_code=program_cls.TYPE_CODE,
        subtype=0,
        key_length=KEY_LENGTH,
        flags=FLAG_VALID,
        size=N_RECORDS,
        aux=0,
    ).store(mem.space, header_addr)
    system.firmware.register(program_cls())

    results = []
    for i in (0, 5, N_RECORDS - 1, N_RECORDS + 3):  # the last one is absent
        handle = system.accelerator.submit(
            QueryRequest(header_addr=header_addr, key_addr=mem.store_bytes(_key(i))),
            system.engine.now,
        )
        system.accelerator.wait_for(handle)
        results.append(
            (handle.status, handle.value, handle.completion_cycle - handle.submit_cycle)
        )
    return results


def test_guide_program_looks_up_in_both_configs(monkeypatch):
    program_cls, record = _guide_program()
    default = _run_lookups(program_cls, record)
    assert [(status, value) for status, value, _ in default] == [
        (QueryStatus.FOUND, 500),
        (QueryStatus.FOUND, 505),
        (QueryStatus.FOUND, 500 + N_RECORDS - 1),
        (QueryStatus.NOT_FOUND, None),
    ]
    monkeypatch.setattr(QeiAccelerator, "_fuse", False)
    monkeypatch.setattr(QeiAccelerator, "_specialize", False)
    monkeypatch.setitem(MemoryHierarchy.__init__.__kwdefaults__, "fastmem", False)
    assert _run_lookups(program_cls, record) == default


def test_program_without_a_closure_is_rejected_at_register():
    class NoCfa(_StandardProgram):
        TYPE_CODE = 43
        NAME = "no-cfa"
        STATES = _StandardProgram.PRELUDE_STATES

    image = FirmwareImage()
    with pytest.raises(FirmwareError, match="defines no CFA"):
        image.register(NoCfa())
    assert 43 not in image.types()
