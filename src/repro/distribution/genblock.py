"""The GEN_BLOCK distribution type and exact-sum rounding.

A GEN_BLOCK distribution (HPF [17]) divides the global rows into
variable-sized contiguous blocks, one per node, in node order.  The paper
uses the owner-computes and Local Placement rules: each node updates the
rows it owns, reading them from (and possibly writing them back to) its
local disk when they do not fit in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.exceptions import DistributionError

__all__ = ["GenBlock", "largest_remainder_round"]


def largest_remainder_round(
    shares: np.ndarray, total: int, minimum: int = 0
) -> np.ndarray:
    """Round non-negative real ``shares`` to integers summing to ``total``.

    Uses the largest-remainder method: floor everything, then hand the
    remaining units to the largest fractional parts.  ``minimum`` enforces
    a per-entry floor (the paper's system uses every processor, so
    distribution factories pass ``minimum=1``).
    """
    shares = np.asarray(shares, dtype=float)
    if (shares < 0).any():
        raise DistributionError("shares must be non-negative")
    n = len(shares)
    if total < minimum * n:
        raise DistributionError(
            f"cannot give {n} nodes at least {minimum} rows out of {total}"
        )
    if shares.sum() <= 0:
        shares = np.ones(n)
    # Scale to the distributable total above the per-node minimum.
    scaled = shares / shares.sum() * (total - minimum * n)
    counts = np.floor(scaled).astype(np.int64) + minimum
    remainder = total - int(counts.sum())
    if remainder > 0:
        fracs = scaled - np.floor(scaled)
        # Stable order: largest fraction first, index breaks ties.
        order = np.lexsort((np.arange(n), -fracs))
        counts[order[:remainder]] += 1
    return counts


@dataclass(frozen=True)
class GenBlock:
    """A variable-block (GEN_BLOCK) distribution of ``n_rows`` global rows.

    ``counts[i]`` rows go to node ``i``; blocks are contiguous and in node
    order, so node ``i`` owns rows ``[starts[i], starts[i] + counts[i])``.
    """

    counts: Tuple[int, ...]

    def __init__(self, counts: Sequence[int]) -> None:
        counts_arr = np.asarray(counts)
        if counts_arr.ndim != 1 or len(counts_arr) == 0:
            raise DistributionError("counts must be a non-empty 1-D sequence")
        if not np.issubdtype(counts_arr.dtype, np.integer):
            rounded = np.rint(counts_arr)
            if not np.allclose(counts_arr, rounded):
                raise DistributionError("counts must be integers")
            counts_arr = rounded.astype(np.int64)
        if (counts_arr < 0).any():
            raise DistributionError("counts must be non-negative")
        mirror = np.asarray(counts_arr, dtype=np.int64)
        if mirror is counts_arr:
            mirror = counts_arr.copy()
        mirror.setflags(write=False)
        self._set_fields(tuple(counts_arr.tolist()), mirror, int(mirror.sum()))

    def _set_fields(
        self, counts: Tuple[int, ...], mirror: np.ndarray, n_rows: int
    ) -> None:
        """Set the validated fields, from :meth:`__init__` and
        :meth:`from_rows` alike.  ``mirror`` is a read-only int64 copy
        of ``counts`` for hot paths that stack whole candidate batches
        (the plan kernel): row-assigning a cached array is ~3x cheaper
        than re-converting the tuple."""
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "counts_np", mirror)
        object.__setattr__(self, "_n_rows", n_rows)

    @classmethod
    def from_rows(cls, grid: np.ndarray, n_rows: int) -> List["GenBlock"]:
        """One distribution per row of the integer ``grid`` ``(K, P)``,
        each of ``n_rows`` rows, validated once for the whole grid
        instead of once per row: equal, field for field, to
        ``[GenBlock(row) for row in grid]``."""
        grid = np.asarray(grid)
        if grid.ndim != 2 or grid.shape[1] == 0:
            raise DistributionError("grid must be 2-D with at least one node")
        if not np.issubdtype(grid.dtype, np.integer):
            raise DistributionError("grid counts must be integers")
        grid = np.array(grid, dtype=np.int64)
        if (grid < 0).any():
            raise DistributionError("counts must be non-negative")
        n_rows = int(n_rows)
        if (grid.sum(axis=1) != n_rows).any():
            raise DistributionError(f"every grid row must sum to {n_rows}")
        grid.setflags(write=False)
        out = []
        for mirror, counts in zip(grid, grid.tolist()):
            dist = object.__new__(cls)
            dist._set_fields(tuple(counts), mirror, n_rows)
            out.append(dist)
        return out

    # -- structure ------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.counts)

    @property
    def n_rows(self) -> int:
        return int(sum(self.counts))

    @property
    def starts(self) -> Tuple[int, ...]:
        out = []
        acc = 0
        for c in self.counts:
            out.append(acc)
            acc += c
        return tuple(out)

    def rows_of(self, node: int) -> Tuple[int, int]:
        """Global row range ``[start, stop)`` owned by ``node``."""
        if not 0 <= node < self.n_nodes:
            raise DistributionError(
                f"node {node} out of range [0, {self.n_nodes})"
            )
        start = self.starts[node]
        return start, start + self.counts[node]

    def owner_of(self, row: int) -> int:
        """Node owning global ``row``."""
        if not 0 <= row < self.n_rows:
            raise DistributionError(f"row {row} out of range")
        for node, (start, count) in enumerate(zip(self.starts, self.counts)):
            if start <= row < start + count:
                return node
        raise DistributionError(f"row {row} not owned (internal error)")

    # -- views ---------------------------------------------------------------

    @property
    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.int64)

    @property
    def fractions(self) -> np.ndarray:
        """Each node's share of the rows, as fractions summing to 1."""
        return self.as_array / max(self.n_rows, 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, node: int) -> int:
        return self.counts[node]

    def __str__(self) -> str:
        return f"GenBlock({list(self.counts)})"

    # -- derived distributions -------------------------------------------------

    def moved(self, src: int, dst: int, rows: int) -> "GenBlock":
        """Return a copy with ``rows`` moved from ``src``'s block to
        ``dst``'s (the basic step of local-search algorithms).  Raises if
        ``src`` has fewer than ``rows``."""
        if rows < 0:
            raise DistributionError("rows must be non-negative")
        counts = list(self.counts)
        if counts[src] < rows:
            raise DistributionError(
                f"node {src} owns {counts[src]} rows, cannot move {rows}"
            )
        counts[src] -= rows
        counts[dst] += rows
        return GenBlock(counts)
