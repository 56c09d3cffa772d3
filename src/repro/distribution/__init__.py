"""One-dimensional GEN_BLOCK data distributions (HPF terminology).

The paper searches over variable-sized contiguous block distributions of
the global rows.  This package provides the :class:`GenBlock` type, the
four anchor distributions of paper Figure 8 (``Blk``, ``Bal``, ``I-C``,
``I-C/Bal``) and the interpolated spectrum Blk -> I-C -> I-C/Bal -> Bal
-> Blk that the evaluation sweeps over.
"""

from repro.distribution.genblock import GenBlock, largest_remainder_round
from repro.distribution.factories import (
    ANCHORS,
    anchor_distribution,
    block,
    balanced,
    in_core,
    in_core_balanced,
    in_core_capacity_rows,
)
from repro.distribution.spectrum import SpectrumPoint, spectrum, interpolate
from repro.distribution.ops import (
    redistribution_bytes,
    distribution_distance,
    in_core_flags,
)

__all__ = [
    "GenBlock",
    "largest_remainder_round",
    "ANCHORS",
    "anchor_distribution",
    "block",
    "balanced",
    "in_core",
    "in_core_balanced",
    "in_core_capacity_rows",
    "SpectrumPoint",
    "spectrum",
    "interpolate",
    "redistribution_bytes",
    "distribution_distance",
    "in_core_flags",
]
