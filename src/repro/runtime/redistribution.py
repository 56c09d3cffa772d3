"""Cost model for effecting a new data distribution.

When the runtime switches from distribution ``old`` to ``new``, every
global row whose owner changes must move: the old owner reads it (from
disk when the variable is out of core there), sends it, and the new
owner receives and stores it (to disk when out of core there).
GEN_BLOCK blocks are contiguous, so the moving rows form at most a few
contiguous segments and the disk traffic is sequential — the model
charges one seek per (node, variable, direction) plus bandwidth-
proportional transfer, with network transfer overlapping whichever side
is slower (store-and-forward through the wire: the pipe's throughput is
set by its slowest stage).

Which side of a move streams through disk is read from one placement
pass per estimate: a single :func:`~repro.placement.plan_memory_arrays`
call plans every node's rows under ``old`` and under ``new`` (``2P``
pairs) against that node's own memory.

This follows the redistribution-cost treatment of Morris & Lowenthal
[23] (cited by the paper) adapted to the out-of-core setting: disk, not
memory, is often the bottleneck end of the pipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.distribution.genblock import GenBlock
from repro.exceptions import ModelError
from repro.placement import plan_memory_arrays
from repro.program.structure import ProgramStructure

__all__ = ["RedistributionEstimate", "RedistributionModel"]


@dataclass(frozen=True)
class RedistributionEstimate:
    """Predicted cost of one redistribution."""

    seconds: float
    moved_rows: int
    moved_bytes: float
    per_node_out_bytes: Tuple[float, ...]
    per_node_in_bytes: Tuple[float, ...]

    @property
    def is_noop(self) -> bool:
        return self.moved_rows == 0


def _moved_segments(old: GenBlock, new: GenBlock) -> List[Tuple[int, int, int, int]]:
    """Segments ``(start, stop, old_owner, new_owner)`` whose owner
    changes between the two distributions."""
    if old.n_nodes != new.n_nodes or old.n_rows != new.n_rows:
        raise ModelError("distributions must cover the same nodes and rows")
    breaks = np.unique(
        np.concatenate(
            [
                np.asarray(old.starts + (old.n_rows,)),
                np.asarray(new.starts + (new.n_rows,)),
            ]
        )
    )
    old_starts = np.asarray(old.starts + (old.n_rows,))
    new_starts = np.asarray(new.starts + (new.n_rows,))
    segments = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi <= lo:
            continue
        o = int(np.searchsorted(old_starts, lo, side="right") - 1)
        n = int(np.searchsorted(new_starts, lo, side="right") - 1)
        if o != n:
            segments.append((int(lo), int(hi), o, n))
    return segments


class RedistributionModel:
    """Estimate the time to move data from one GEN_BLOCK layout to
    another on a given cluster."""

    def __init__(self, cluster: ClusterSpec, program: ProgramStructure) -> None:
        self.cluster = cluster
        self.program = program

    # -- estimation ------------------------------------------------------------

    def estimate(self, old: GenBlock, new: GenBlock) -> RedistributionEstimate:
        """Predicted redistribution time ``old -> new``.

        Per moving segment and distributed variable, the pipe is
        disk-read (if out of core on the source) -> network -> disk-write
        (if out of core on the destination); its rate is the slowest
        stage's.  Nodes move their segments sequentially; different
        node pairs move in parallel, so the total is the slowest node's
        traffic time plus a per-segment handshake.
        """
        segments = _moved_segments(old, new)
        P = self.cluster.n_nodes
        # One placement pass: pair ``k`` is node ``k`` under ``old``,
        # pair ``P + k`` the same node under ``new``; row ``j`` of
        # ``spilled`` is the program's ``j``-th distributed variable.
        memory = [node.memory_bytes for node in self.cluster.nodes]
        spilled = (~plan_memory_arrays(
            self.program, old.counts + new.counts, memory + memory
        ).in_core).tolist()
        out_bytes = [0.0] * P
        in_bytes = [0.0] * P
        busy = [0.0] * P
        net = self.cluster.network
        moved_rows = 0

        for start, stop, src, dst in segments:
            rows = stop - start
            moved_rows += rows
            for j, variable in enumerate(self.program.distributed_variables):
                nbytes = rows * variable.row_bytes
                if nbytes <= 0:
                    continue
                out_bytes[src] += nbytes
                in_bytes[dst] += nbytes
                src_node = self.cluster[src]
                dst_node = self.cluster[dst]
                rates = [1.0 / max(net.latency_per_byte, 1e-30)]
                overhead = net.send_overhead + net.recv_overhead + net.fixed_latency
                if spilled[j][src]:
                    rates.append(src_node.disk_read_bw)
                    overhead += src_node.disk_read_seek
                if spilled[j][P + dst]:
                    rates.append(dst_node.disk_write_bw)
                    overhead += dst_node.disk_write_seek
                duration = overhead + nbytes / min(rates)
                busy[src] += duration
                busy[dst] += duration

        return RedistributionEstimate(
            seconds=max(busy) if busy else 0.0,
            moved_rows=moved_rows,
            moved_bytes=float(sum(out_bytes)),
            per_node_out_bytes=tuple(out_bytes),
            per_node_in_bytes=tuple(in_bytes),
        )

    def worth_switching(
        self,
        old: GenBlock,
        new: GenBlock,
        per_iteration_savings: float,
        remaining_iterations: int,
        safety_factor: float = 1.2,
    ) -> bool:
        """Amortisation test: switch when the redistribution pays for
        itself over the remaining iterations, with ``safety_factor``
        headroom for estimate error."""
        return self._switch_cost(
            old, new, per_iteration_savings, remaining_iterations,
            safety_factor,
        ) is not None

    def _switch_cost(
        self,
        old: GenBlock,
        new: GenBlock,
        per_iteration_savings: float,
        remaining_iterations: int,
        safety_factor: float,
    ) -> Optional[float]:
        """The redistribution seconds ``old -> new`` when switching
        passes :meth:`worth_switching`'s test, else ``None``: a switch
        decision and the cost it charges read one estimate."""
        if per_iteration_savings <= 0 or remaining_iterations <= 0:
            return None
        cost = self.estimate(old, new).seconds
        if per_iteration_savings * remaining_iterations > cost * safety_factor:
            return cost
        return None
