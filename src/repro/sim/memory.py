"""Emulator-side memory planning.

Re-exports the shared placement logic and adds the runtime reservation
the emulated runtime system actually makes: communication buffers sized
to the program's largest messages plus a small allocator/bookkeeping
fraction of the node's memory.  MHETA's oracle does not know about this
reservation — that gap is limitation 2 of paper Section 5.4.
"""

from __future__ import annotations

from repro.cluster.node import NodeSpec
from repro.placement import MemoryPlan, VariablePlacement, plan_memory
from repro.program.structure import ProgramStructure

__all__ = [
    "MemoryPlan",
    "VariablePlacement",
    "plan_memory",
    "emulator_policy",
    "runtime_reserved_bytes",
]

#: Fixed runtime footprint: allocator metadata, ghost-row buffers, stack.
RUNTIME_FIXED_BYTES = 2 * 1024 * 1024

#: Communication buffers: double-buffered send + receive.
MESSAGE_BUFFER_COPIES = 4

#: Headroom the runtime demands before pinning a secondary variable in
#: core (the misclassification window of MHETA's out-of-core heuristic).
CONSERVATIVE_BYTES = 1024 * 1024


def runtime_reserved_bytes(node: NodeSpec, program: ProgramStructure) -> float:
    """Memory the emulated runtime reserves on ``node`` for ``program``
    (the same on every node)."""
    max_message = max(
        (s.comm.message_bytes for s in program.sections), default=0.0
    )
    return RUNTIME_FIXED_BYTES + MESSAGE_BUFFER_COPIES * max_message


def emulator_policy(program: ProgramStructure) -> dict:
    """Placement keywords of the emulated runtime, the same on every node.

    Differs from MHETA's oracle in three documented ways (limitation 2 of
    paper Section 5.4): its buffer reservation squeezes the ICLA sizes of
    out-of-core variables, it demands extra headroom before pinning a
    secondary (non-largest) variable in core, and it splits leftover
    memory equally among streamed variables (the oracle assumes
    pro-rata).
    """
    return dict(
        icla_reserved_bytes=runtime_reserved_bytes(None, program),
        conservative_reserved_bytes=CONSERVATIVE_BYTES,
        share_policy="equal",
    )


def emulator_plan(
    node: NodeSpec,
    program: ProgramStructure,
    local_rows: int,
    *,
    forced_out_of_core: bool = False,
) -> MemoryPlan:
    """The emulated runtime's (ground-truth) memory plan for one node."""
    return plan_memory(
        program, local_rows, node.memory_bytes,
        forced_out_of_core=forced_out_of_core, **emulator_policy(program),
    )
