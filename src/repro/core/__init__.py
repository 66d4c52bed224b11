"""QEI — the paper's primary contribution.

Components (Sec. III–V):

* :mod:`header` — the single-cacheline data-structure metadata header.
* :mod:`cfa` — the configurable-finite-automaton model, micro-operation
  vocabulary, and the firmware registry.
* :mod:`programs` — built-in CFA programs for linked list, hash table,
  skip list, binary tree, trie/Aho-Corasick/LPM, and hash-of-lists, each
  written once as a compiled closure (:mod:`programs_ext`: B+-tree).
* :mod:`specialize` — the compiled step protocol and the firmware-load
  pass that binds each program to its closure (or its prebound ``step``).
* :mod:`qst` — the Query State Table.
* :mod:`dpu` — data processing unit (ALUs, comparators, hash unit).
* :mod:`accelerator` — the CFA Execution Engine tying it all together.
* :mod:`integration` — the five CPU-integration schemes.
* :mod:`isa` — QUERY_B / QUERY_NB architectural semantics + query port.
"""

from .abort import AbortCode
from .accelerator import QeiAccelerator, QueryHandle, QueryStatus
from .cfa import CfaProgram, FirmwareImage, QueryContext
from .header import DataStructureHeader, StructureType
from .integration import build_integration, Integration
from .isa import QueryPort, read_result

__all__ = [
    "AbortCode",
    "CfaProgram",
    "DataStructureHeader",
    "FirmwareImage",
    "Integration",
    "QeiAccelerator",
    "QueryContext",
    "QueryHandle",
    "QueryPort",
    "QueryStatus",
    "StructureType",
    "build_integration",
    "read_result",
]
