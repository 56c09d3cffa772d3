"""GenBlock2D: variable row and column bands over a processor grid.

A 2-D distribution arranges the P nodes in an R x C grid (R * C == P)
and partitions the global N x M array into R variable-height row bands
and C variable-width column bands; node (i, j) owns the intersection of
row band i and column band j.  This is the natural 2-D generalisation of
HPF's GEN_BLOCK, and the decomposition used by 2-D stencil codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.distribution.genblock import largest_remainder_round
from repro.exceptions import DistributionError

__all__ = ["GenBlock2D", "factor_pairs", "block2d", "balanced2d"]


def factor_pairs(p: int) -> List[Tuple[int, int]]:
    """All (R, C) grid shapes with ``R * C == p``, R and C >= 1."""
    pairs = []
    for r in range(1, p + 1):
        if p % r == 0:
            pairs.append((r, p // r))
    return pairs


@dataclass(frozen=True)
class GenBlock2D:
    """A 2-D block distribution.

    ``row_counts[i]`` rows go to grid row ``i``; ``col_counts[j]``
    columns go to grid column ``j``.  Node rank ``i * C + j`` owns the
    ``row_counts[i] x col_counts[j]`` tile.
    """

    row_counts: Tuple[int, ...]
    col_counts: Tuple[int, ...]

    def __init__(self, row_counts: Sequence[int], col_counts: Sequence[int]):
        rows = tuple(int(x) for x in row_counts)
        cols = tuple(int(x) for x in col_counts)
        if not rows or not cols:
            raise DistributionError("need at least one row and column band")
        if any(x < 0 for x in rows) or any(x < 0 for x in cols):
            raise DistributionError("band sizes must be non-negative")
        object.__setattr__(self, "row_counts", rows)
        object.__setattr__(self, "col_counts", cols)

    # -- structure ------------------------------------------------------------

    @property
    def grid_shape(self) -> Tuple[int, int]:
        return len(self.row_counts), len(self.col_counts)

    @property
    def counts(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Hashable key ``(row_counts, col_counts)``: both tuples, since
        the concatenated bands of a 2x4 and a 4x2 layout can be equal."""
        return self.row_counts, self.col_counts

    @property
    def n_nodes(self) -> int:
        r, c = self.grid_shape
        return r * c

    @property
    def n_rows(self) -> int:
        return int(sum(self.row_counts))

    @property
    def n_cols(self) -> int:
        return int(sum(self.col_counts))

    def coords(self, rank: int) -> Tuple[int, int]:
        """Grid coordinates (i, j) of node ``rank``."""
        r, c = self.grid_shape
        if not 0 <= rank < r * c:
            raise DistributionError(f"rank {rank} outside the {r}x{c} grid")
        return rank // c, rank % c

    def rank(self, i: int, j: int) -> int:
        r, c = self.grid_shape
        if not (0 <= i < r and 0 <= j < c):
            raise DistributionError(f"({i}, {j}) outside the {r}x{c} grid")
        return i * c + j

    def tile(self, rank: int) -> Tuple[int, int]:
        """(rows, cols) of the tile node ``rank`` owns."""
        i, j = self.coords(rank)
        return self.row_counts[i], self.col_counts[j]

    def tile_elements(self, rank: int) -> int:
        rows, cols = self.tile(rank)
        return rows * cols

    def neighbors(self, rank: int) -> List[Tuple[str, int]]:
        """The 4-neighbourhood: (direction, rank) pairs that exist."""
        i, j = self.coords(rank)
        r, c = self.grid_shape
        out = []
        if i > 0:
            out.append(("north", self.rank(i - 1, j)))
        if i < r - 1:
            out.append(("south", self.rank(i + 1, j)))
        if j > 0:
            out.append(("west", self.rank(i, j - 1)))
        if j < c - 1:
            out.append(("east", self.rank(i, j + 1)))
        return out

    def halo_elements(self, rank: int, direction: str) -> int:
        """Elements in the boundary message sent in ``direction``: a row
        of the tile for north/south, a column for east/west."""
        rows, cols = self.tile(rank)
        if direction in ("north", "south"):
            return cols
        if direction in ("east", "west"):
            return rows
        raise DistributionError(f"unknown direction {direction!r}")

    def __str__(self) -> str:
        return (
            f"GenBlock2D(rows={list(self.row_counts)}, "
            f"cols={list(self.col_counts)})"
        )


def block2d(
    n_rows: int, n_cols: int, grid_shape: Tuple[int, int]
) -> GenBlock2D:
    """Even 2-D split over an R x C grid."""
    r, c = grid_shape
    return GenBlock2D(
        largest_remainder_round(np.ones(r), n_rows, minimum=1),
        largest_remainder_round(np.ones(c), n_cols, minimum=1),
    )


def balanced2d(
    cluster: ClusterSpec,
    n_rows: int,
    n_cols: int,
    grid_shape: Tuple[int, int],
) -> GenBlock2D:
    """Load-balance a 2-D split against heterogeneous CPU powers.

    Tile areas should be proportional to node powers, but a rectangular
    grid cannot realise arbitrary area targets: band heights/widths are
    shared along each grid row/column.  We use the separable
    approximation — row band i proportional to the total power of grid
    row i, column band j to the total power of grid column j — which is
    exact whenever the power matrix is rank one (e.g. all heterogeneity
    concentrated along one grid axis).
    """
    r, c = grid_shape
    if r * c != cluster.n_nodes:
        raise DistributionError(
            f"grid {r}x{c} does not cover {cluster.n_nodes} nodes"
        )
    powers = cluster.cpu_powers.reshape(r, c)
    row_weights = powers.sum(axis=1)
    col_weights = powers.sum(axis=0)
    return GenBlock2D(
        largest_remainder_round(row_weights, n_rows, minimum=1),
        largest_remainder_round(col_weights, n_cols, minimum=1),
    )
