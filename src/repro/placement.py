"""Shared ICLA placement logic: which variables are in core, and how big
their in-core pieces are.

Both the emulator and MHETA's out-of-core oracle answer the same
question — given a node's available memory and the local rows a
distribution assigns, which distributed variables fit entirely in memory
(in core) and what ICLA size do the others stream through? — using the
same greedy rule, so the *only* systematic difference between them is the
amount of memory they believe is available:

* MHETA's heuristic assumes the full application memory is usable
  (paper: "MHETA currently uses a simple heuristic");
* the emulator's runtime reserves buffer/bookkeeping memory, which is
  precisely the misclassification window behind limitation 2 of paper
  Section 5.4.

Rule: replicated variables are resident everywhere.  Distributed
variables are considered smallest-first; each fits in core while memory
remains (keeping at least one block row per remaining variable); the
leftover memory is divided among the out-of-core variables pro rata to
their local sizes, giving each its ICLA.

One vectorised implementation, :func:`plan_memory_arrays`, places
``K`` (rows, memory) pairs at once with elementwise array operations;
:func:`plan_memory` is its one-row case as a :class:`MemoryPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.program.structure import ProgramStructure
from repro.program.variables import Variable

__all__ = [
    "VariablePlacement",
    "MemoryPlan",
    "PlacementArrays",
    "plan_memory",
    "plan_memory_arrays",
]


@dataclass(frozen=True)
class VariablePlacement:
    """Placement of one distributed variable on one node."""

    name: str
    local_rows: int
    local_bytes: float
    in_core: bool
    icla_bytes: float  #: bytes per in-core piece (== local_bytes when in core)
    block_rows: int  #: rows per ICLA piece (== local_rows when in core)
    n_io: int  #: disk passes to stream the whole local array (1 if in core)

    @property
    def ocla_bytes(self) -> float:
        """Out-of-core local array size (0 when in core)."""
        return 0.0 if self.in_core else self.local_bytes


@dataclass(frozen=True)
class MemoryPlan:
    """Complete placement for one node under one distribution."""

    node_name: str
    local_rows: int
    available_bytes: float  #: memory usable for distributed data
    placements: Dict[str, VariablePlacement]

    def __getitem__(self, var: str) -> VariablePlacement:
        return self.placements[var]

    @property
    def any_out_of_core(self) -> bool:
        return any(not p.in_core for p in self.placements.values())

    @property
    def resident_bytes(self) -> float:
        """Bytes of distributed data resident in memory (full in-core
        arrays plus one ICLA per streamed variable)."""
        return sum(
            p.local_bytes if p.in_core else p.icla_bytes
            for p in self.placements.values()
        )


@dataclass(frozen=True)
class PlacementArrays:
    """Placements of ``K`` pairs: ``(K,)`` per-pair arrays and ``(V,
    K)`` per-variable ones (row ``j`` is ``names[j]``); ``order[:, k]``
    is pair ``k``'s consideration order."""

    names: Tuple[str, ...]
    local_rows: np.ndarray
    available: np.ndarray  #: memory usable for distributed data
    order: np.ndarray
    local_bytes: np.ndarray
    in_core: np.ndarray
    icla_bytes: np.ndarray
    block_rows: np.ndarray
    n_io: np.ndarray

    def plans(self) -> List[MemoryPlan]:
        """Every pair as a :class:`MemoryPlan`."""
        fields = [
            a.T.tolist()
            for a in (self.local_bytes, self.in_core, self.icla_bytes,
                      self.block_rows, self.n_io)
        ]
        out = []
        for k, (rows, available, order) in enumerate(zip(
            self.local_rows.tolist(), self.available.tolist(),
            self.order.T.tolist(),
        )):
            row = [f[k] for f in fields]
            out.append(MemoryPlan("", rows, available, {
                self.names[j]: VariablePlacement(
                    self.names[j], rows, *(f[j] for f in row)
                )
                for j in order
            }))
        return out


def plan_memory(
    program: ProgramStructure,
    local_rows: int,
    memory_bytes: float,
    **policy,
) -> MemoryPlan:
    """Compute variable placements for one node: the one-row case of
    :func:`plan_memory_arrays`, which documents the parameters."""
    return plan_memory_arrays(
        program, [local_rows], [memory_bytes], **policy
    ).plans()[0]


def plan_memory_arrays(
    program: ProgramStructure,
    local_rows: Sequence[int],
    memory_bytes: Sequence[float],
    *,
    reserved_bytes: float = 0.0,
    icla_reserved_bytes: float = 0.0,
    conservative_reserved_bytes: float = 0.0,
    forced_out_of_core: bool = False,
    variables: Optional[Sequence[Variable]] = None,
    order_policy: str = "size",
    share_policy: str = "prorata",
) -> PlacementArrays:
    """Compute variable placements for ``K`` (rows, memory) pairs.

    Parameters
    ----------
    program:
        The application structure (provides variables and replicated
        sizes).
    local_rows:
        Rows assigned to each node by the distribution, shape ``(K,)``.
    memory_bytes:
        Each pair's application memory, shape ``(K,)``.
    reserved_bytes:
        Memory subtracted before the in-core determination.  Both the
        model's oracle and the emulated runtime pass 0 here: a local
        array that nominally fits in memory *is* kept in core (the
        runtime swaps buffer space for lazier double buffering rather
        than spilling a fitting array to disk).
    icla_reserved_bytes:
        Memory the runtime's buffers take away from the ICLAs of
        variables that are *already* out of core.  The model's oracle
        passes 0, so its predicted ICLA sizes (and hence ``N_IO``) are
        slightly optimistic — part of limitation 2 of paper Section 5.4.
    conservative_reserved_bytes:
        Extra headroom the runtime demands before keeping a *secondary*
        variable in core (the primary — largest — array's placement is
        never affected: the runtime pins its working set first).  The
        oracle passes 0, so near the boundary it occasionally declares a
        vector in core that the runtime actually streams — the paper's
        "occasionally placing what should be an out-of-core variable in
        the in-core variable set", with the bounded (~10%) cost the
        paper observed because only small variables flip.
    forced_out_of_core:
        Instrumented-iteration mode (paper Section 4.1.1): every
        distributed variable is forced to stream through disk so its I/O
        latencies can be measured, using an ICLA of at most half the
        local array.
    variables:
        Restrict planning to these variables (defaults to all distributed
        variables of the program).
    order_policy:
        Order in which variables are considered for in-core placement:
        ``"size"`` (smallest first, stable — the model heuristic's
        assumption) or ``"declaration"`` (program order — what the
        runtime actually does).  The divergence between the two is part
        of why MHETA's out-of-core heuristic is "not sophisticated"
        (Section 5.4).
    share_policy:
        How leftover memory is split among out-of-core variables:
        ``"prorata"`` to local sizes (model) or ``"equal"`` (runtime).

    Every operation is elementwise over the pair axis, and sums run
    left to right in consideration order, so each row equals the
    single-pair plan bit for bit whatever batch it is planned in.
    """
    rows = np.asarray(local_rows, dtype=np.int64).reshape(-1)
    if rows.size and rows.min() < 0:
        raise SimulationError("local_rows must be non-negative")
    if order_policy not in ("size", "declaration"):
        raise SimulationError(f"unknown order_policy {order_policy!r}")
    if share_policy not in ("prorata", "equal"):
        raise SimulationError(f"unknown share_policy {share_policy!r}")
    if variables is None:
        variables = program.distributed_variables
    variables = tuple(variables)
    V, K = len(variables), len(rows)
    memory = np.asarray(memory_bytes, dtype=np.float64)
    available = np.maximum(
        (memory - program.replicated_bytes) - reserved_bytes, 0.0
    )
    row_bytes = np.array([[v.row_bytes] for v in variables]).reshape(V, 1)
    local = row_bytes * rows
    for j, v in enumerate(variables):
        if not v.distributed:
            local[j] = v.local_bytes(0)
    if order_policy == "size":
        order = np.argsort(local, axis=0, kind="stable")
    else:
        order = np.repeat(np.arange(V)[:, None], K, axis=1)
    pick = order, np.arange(K)
    size_o = local[pick]

    # Greedy in-core pass in consideration order: position ``i`` of
    # every pair at once (rows of ``*_o`` arrays are order positions).
    # Python's ``sum`` adds left to right from an exact 0, and adding or
    # subtracting an exact 0.0 leaves a float unchanged, so these masked
    # updates equal the one-variable-at-a-time rule bit for bit.
    remaining = available
    in_core_o = np.zeros((V, K), dtype=bool)
    if not forced_out_of_core and V:
        # Keep at least one row's worth of memory for every variable
        # still to be placed, so ICLAs never collapse to zero.
        tail_o = np.maximum(row_bytes, 1.0)[order, 0]
        headroom_o = (size_o < local.max(axis=0)) * conservative_reserved_bytes
        for i in range(V):
            budget = (remaining - sum(tail_o[i + 1:])) - headroom_o[i]
            in_core_o[i] = size_o[i] <= budget
            remaining = remaining - in_core_o[i] * size_o[i]

    # Divide what is left among the out-of-core variables (minus the
    # runtime's buffer reservation, which only squeezes ICLA sizes; on
    # very tight nodes the runtime shrinks its buffers rather than
    # letting ICLAs collapse into seek-thrashing slivers, so the
    # reservation never takes more than half of what is left).
    remaining = np.maximum(
        remaining - np.minimum(icla_reserved_bytes, 0.5 * remaining), 0.0
    )
    in_core = np.empty((V, K), dtype=bool)
    in_core[pick] = in_core_o
    if share_policy == "prorata":
        ooc_total = sum(size_o * ~in_core_o)
        spread = ooc_total > 0
        share = np.where(
            spread,
            remaining * (local / np.where(spread, ooc_total, 1.0)),
            remaining,
        )
    else:  # equal split among out-of-core variables
        share = remaining / np.maximum(V - in_core_o.sum(axis=0), 1)
    # No piece exceeds the local array (clamped before the integer cast,
    # so a huge share cannot overflow it).
    block = np.minimum(np.floor_divide(share, np.maximum(row_bytes, 1e-12)), rows)
    block = np.maximum(block.astype(np.int64), 1)
    if forced_out_of_core:
        # At most half the local array per piece => at least 2 passes.
        halves = rows // 2
        block = np.maximum(np.minimum(block, np.where(halves, halves, 1)), 1)
    resident = in_core | (rows == 0) | (local == 0.0)
    block = np.where(resident, np.maximum(rows, 1), block)
    return PlacementArrays(
        names=tuple(v.name for v in variables),
        local_rows=rows,
        available=available,
        order=order,
        local_bytes=local,
        in_core=resident,
        icla_bytes=np.where(resident, local, block * row_bytes),
        block_rows=block,
        n_io=np.where(resident, 1, -(-rows // block)),
    )
