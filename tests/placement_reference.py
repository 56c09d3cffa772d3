"""Scalar reference for the ICLA placement rule.

The library plans placements with one vectorised implementation
(:func:`repro.placement.plan_memory_arrays`).  This module keeps the
original per-variable loop as the test oracle: the differential tests
compare every field of every placement against it, bitwise.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.exceptions import SimulationError
from repro.placement import MemoryPlan, VariablePlacement
from repro.program.structure import ProgramStructure
from repro.program.variables import Variable


def plan_memory_reference(
    program: ProgramStructure,
    local_rows: int,
    memory_bytes: float,
    *,
    reserved_bytes: float = 0.0,
    icla_reserved_bytes: float = 0.0,
    conservative_reserved_bytes: float = 0.0,
    forced_out_of_core: bool = False,
    variables: Optional[Sequence[Variable]] = None,
    order_policy: str = "size",
    share_policy: str = "prorata",
) -> MemoryPlan:
    """The scalar greedy rule, one variable at a time: the reference
    :func:`repro.placement.plan_memory_arrays` must reproduce bit for
    bit (same parameters)."""
    if local_rows < 0:
        raise SimulationError("local_rows must be non-negative")
    if variables is None:
        variables = program.distributed_variables
    available = max(
        0.0, memory_bytes - program.replicated_bytes - reserved_bytes
    )

    locals_: Dict[str, float] = {
        v.name: v.local_bytes(local_rows) for v in variables
    }
    if order_policy == "size":
        order = sorted(variables, key=lambda v: locals_[v.name])
    elif order_policy == "declaration":
        order = list(variables)
    else:
        raise SimulationError(f"unknown order_policy {order_policy!r}")
    if share_policy not in ("prorata", "equal"):
        raise SimulationError(f"unknown share_policy {share_policy!r}")

    in_core: Dict[str, bool] = {}
    remaining = available
    pending = list(order)
    if forced_out_of_core:
        for v in order:
            in_core[v.name] = False
    else:
        largest = max(locals_.values(), default=0.0)
        for i, v in enumerate(order):
            size = locals_[v.name]
            # Keep at least one row's worth of memory for every variable
            # still to be placed, so ICLAs never collapse to zero.
            tail_reserve = sum(
                max(w.row_bytes, 1.0) for w in order[i + 1 :]
            )
            headroom = (
                0.0 if size >= largest else conservative_reserved_bytes
            )
            if size <= remaining - tail_reserve - headroom:
                in_core[v.name] = True
                remaining -= size
            else:
                in_core[v.name] = False
        pending = [v for v in order if not in_core[v.name]]

    # Divide what is left among the out-of-core variables (minus the
    # runtime's buffer reservation, which only squeezes ICLA sizes; on
    # very tight nodes the runtime shrinks its buffers rather than
    # letting ICLAs collapse into seek-thrashing slivers, so the
    # reservation never takes more than half of what is left).
    remaining = max(remaining - min(icla_reserved_bytes, 0.5 * remaining), 0.0)
    ooc_total = sum(locals_[v.name] for v in pending)
    placements: Dict[str, VariablePlacement] = {}
    for v in order:
        size = locals_[v.name]
        if in_core.get(v.name, False) or local_rows == 0 or size == 0.0:
            placements[v.name] = VariablePlacement(
                name=v.name,
                local_rows=local_rows,
                local_bytes=size,
                in_core=True,
                icla_bytes=size,
                block_rows=max(local_rows, 1),
                n_io=1,
            )
            continue
        if share_policy == "prorata":
            share = (
                remaining * (size / ooc_total) if ooc_total > 0 else remaining
            )
        else:  # equal split among out-of-core variables
            share = remaining / max(len(pending), 1)
        block_rows = max(1, int(share // max(v.row_bytes, 1e-12)))
        if forced_out_of_core:
            # At most half the local array per piece => at least 2 passes.
            block_rows = max(1, min(block_rows, local_rows // 2 or 1))
        block_rows = min(block_rows, local_rows)
        n_io = -(-local_rows // block_rows)  # ceil division
        placements[v.name] = VariablePlacement(
            name=v.name,
            local_rows=local_rows,
            local_bytes=size,
            in_core=False,
            icla_bytes=block_rows * v.row_bytes,
            block_rows=block_rows,
            n_io=n_io,
        )
    return MemoryPlan(
        node_name="",
        local_rows=local_rows,
        available_bytes=available,
        placements=placements,
    )
