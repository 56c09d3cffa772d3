"""MHETA's out-of-core heuristic.

"MHETA currently uses a simple heuristic to determine if v is out of
core for a given d'.  MHETA calculates its ICLA based on the memory
capacity of the node and its OCLA size assigned to the node by d'."
(paper Section 4.2.1.)

The heuristic shares the greedy placement rule with the emulator
(:mod:`repro.placement`) but assumes the node's whole application memory
is available — it knows nothing about the runtime's buffer reservations.
That optimism is limitation 2 of Section 5.4: near the in-core boundary
the oracle occasionally declares a variable in core that the real
runtime must stream, and MHETA then under-predicts by the missing I/O.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.placement import MemoryPlan, PlacementArrays, plan_memory_arrays
from repro.program.structure import ProgramStructure
from repro.util.lru import LRUCache

__all__ = ["OutOfCoreOracle"]

#: Bound of the :meth:`OutOfCoreOracle.plan` memo (reports, telemetry);
#: the model's batched table pass reads :meth:`~OutOfCoreOracle.plan_arrays`.
DEFAULT_PLAN_CACHE_ENTRIES = 1024


class OutOfCoreOracle:
    """Model-side ICLA/OCLA/N_IO calculator.

    Parameters
    ----------
    program:
        The application structure.
    memory_bytes:
        Application memory per node (the only hardware knowledge the
        oracle has).
    """

    def __init__(
        self,
        program: ProgramStructure,
        memory_bytes: Sequence[int],
        cache_entries: int = DEFAULT_PLAN_CACHE_ENTRIES,
    ) -> None:
        if len(memory_bytes) == 0:
            raise ModelError("oracle needs at least one node's memory size")
        self._program = program
        self._memory = [int(m) for m in memory_bytes]
        self._memory_array = np.array(self._memory, dtype=np.float64)
        self._cache = LRUCache(cache_entries)

    @property
    def n_nodes(self) -> int:
        return len(self._memory)

    def plan(self, node: int, rows: int) -> MemoryPlan:
        """Placement the model believes node ``node`` uses for ``rows``."""
        if not 0 <= node < self.n_nodes:
            raise ModelError(f"node {node} out of range")
        key = (node, rows)
        plan = self._cache.get(key)
        if plan is None:
            plan = self.plan_arrays(np.array([node]), [rows]).plans()[0]
            self._cache.put(key, plan)
        return plan

    def plan_arrays(
        self, nodes: np.ndarray, rows: Sequence[int]
    ) -> PlacementArrays:
        """Placements for ``K`` (node, rows) pairs in one vectorised
        pass (``nodes`` must be valid node indices)."""
        return plan_memory_arrays(
            self._program, rows, self._memory_array[nodes]
        )

    def is_out_of_core(self, node: int, rows: int, variable: str) -> bool:
        """The heuristic's verdict for one variable."""
        placement = self.plan(node, rows).placements.get(variable)
        if placement is None:
            raise ModelError(f"{variable!r} is not a distributed variable")
        return not placement.in_core
