"""Whole-program structural description consumed by MHETA and the emulator."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ProgramStructureError
from repro.program.sections import ParallelSection
from repro.program.variables import Variable

__all__ = ["ProgramStructure"]


@dataclass(frozen=True)
class ProgramStructure:
    """Static structure of an iterative application.

    Parameters
    ----------
    name:
        Application name (``"jacobi"``).
    n_rows:
        Global row count of the one-dimensional data distribution; every
        distributed variable is partitioned over these rows.
    variables:
        All program arrays.
    sections:
        Parallel sections executed, in order, once per iteration.
    iterations:
        Number of iterations in a full run (paper: Jacobi 100, CG 10,
        Lanczos 5, RNA 10).
    prefetch:
        When True, out-of-core ICLA reads are issued asynchronously one
        block ahead (the unrolled loop of paper Figure 6).
    row_weights:
        Optional ground-truth relative computation weight per global row
        (length ``n_rows``), normalised to mean 1.0 at validation.  Used
        only by the emulator — MHETA scales computation by row *count*,
        which is exactly why sparse CG defeats it (paper Section 5.4).
    iteration_profile:
        Optional per-iteration computation multipliers (length
        ``iterations``).  Paper Section 3.1: "MHETA can support the case
        where iterations take a nonuniform amount of time; however, in
        this paper we discuss only those whose time is uniform".  We
        implement the support: the profile is part of the program
        structure (an adaptive-timestep solver knows its own schedule),
        the emulator executes it, and the model scales each iteration's
        computation by it.  I/O and message sizes stay constant — only
        the work per element varies.
    """

    name: str
    n_rows: int
    variables: Tuple[Variable, ...]
    sections: Tuple[ParallelSection, ...]
    iterations: int = 1
    prefetch: bool = False
    row_weights: Optional[np.ndarray] = field(default=None, repr=False)
    iteration_profile: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise ProgramStructureError("n_rows must be >= 1")
        if self.iterations < 1:
            raise ProgramStructureError("iterations must be >= 1")
        if not self.sections:
            raise ProgramStructureError("a program needs at least one section")
        if not self.variables:
            raise ProgramStructureError("a program needs at least one variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ProgramStructureError("duplicate variable names")
        section_names = [s.name for s in self.sections]
        if len(set(section_names)) != len(section_names):
            raise ProgramStructureError("duplicate section names")
        known = set(names)
        for section in self.sections:
            for var in section.touched:
                if var not in known:
                    raise ProgramStructureError(
                        f"section {section.name} references unknown "
                        f"variable {var!r}"
                    )
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "sections", tuple(self.sections))
        if self.row_weights is not None:
            weights = np.asarray(self.row_weights, dtype=float)
            if weights.shape != (self.n_rows,):
                raise ProgramStructureError(
                    f"row_weights must have shape ({self.n_rows},), "
                    f"got {weights.shape}"
                )
            if (weights <= 0).any():
                raise ProgramStructureError("row_weights must be positive")
            weights = weights / weights.mean()
            weights.setflags(write=False)
            object.__setattr__(self, "row_weights", weights)
        if self.iteration_profile is not None:
            profile = np.asarray(self.iteration_profile, dtype=float)
            if profile.shape != (self.iterations,):
                raise ProgramStructureError(
                    f"iteration_profile must have shape ({self.iterations},),"
                    f" got {profile.shape}"
                )
            if (profile <= 0).any():
                raise ProgramStructureError(
                    "iteration_profile must be positive"
                )
            profile.setflags(write=False)
            object.__setattr__(self, "iteration_profile", profile)

    # -- lookups -------------------------------------------------------------

    def variable(self, name: str) -> Variable:
        """Look up a variable by name."""
        for v in self.variables:
            if v.name == name:
                return v
        raise ProgramStructureError(f"{self.name}: no variable {name!r}")

    @functools.cached_property
    def variable_map(self) -> Dict[str, Variable]:
        """``name -> Variable``, built once per program (treat it as
        read-only: every caller shares it).  The cache lives in the
        instance ``__dict__``, outside the dataclass fields, so equality,
        hashing and content keys never see it."""
        return {v.name: v for v in self.variables}

    @property
    def distributed_variables(self) -> Tuple[Variable, ...]:
        return tuple(v for v in self.variables if v.distributed)

    @property
    def replicated_variables(self) -> Tuple[Variable, ...]:
        return tuple(v for v in self.variables if not v.distributed)

    # -- sizes ---------------------------------------------------------------

    @property
    def dataset_bytes(self) -> int:
        """Total primary data set size: full distributed arrays plus one
        copy of each replicated array."""
        total = 0.0
        for v in self.variables:
            if v.distributed:
                total += v.local_bytes(self.n_rows)
            else:
                total += v.local_bytes(0)
        return int(total)

    @property
    def replicated_bytes(self) -> int:
        """Memory consumed on *every* node by replicated variables."""
        return int(sum(v.local_bytes(0) for v in self.replicated_variables))

    def distributed_row_bytes(self) -> float:
        """Bytes of distributed data per global row, summed over variables."""
        return float(sum(v.row_bytes for v in self.distributed_variables))

    # -- ground truth helpers (emulator only) --------------------------------

    def weight_of_rows(self, start: int, stop: int) -> float:
        """Ground-truth total compute weight of global rows [start, stop).

        With uniform weights this equals ``stop - start``; with
        ``row_weights`` it is their sum (mean weight is normalised to 1,
        so totals stay comparable to row counts).
        """
        if not 0 <= start <= stop <= self.n_rows:
            raise ProgramStructureError(
                f"row range [{start}, {stop}) outside [0, {self.n_rows})"
            )
        if self.row_weights is None:
            return float(stop - start)
        return float(self.row_weights[start:stop].sum())

    def iteration_multiplier(self, iteration: int) -> float:
        """Computation multiplier for ``iteration`` (1.0 when uniform)."""
        if self.iteration_profile is None:
            return 1.0
        if not 0 <= iteration < self.iterations:
            raise ProgramStructureError(
                f"iteration {iteration} outside [0, {self.iterations})"
            )
        return float(self.iteration_profile[iteration])

    def with_prefetch(self, prefetch: bool = True) -> "ProgramStructure":
        """Return a copy with prefetching switched on or off."""
        import dataclasses

        return dataclasses.replace(self, prefetch=prefetch)

    def with_iterations(self, iterations: int) -> "ProgramStructure":
        """Return a copy running a different number of iterations (any
        non-uniform profile is dropped, since its length would no longer
        match)."""
        import dataclasses

        return dataclasses.replace(
            self, iterations=iterations, iteration_profile=None
        )

    def with_iteration_profile(
        self, profile: np.ndarray
    ) -> "ProgramStructure":
        """Return a copy with per-iteration computation multipliers."""
        import dataclasses

        return dataclasses.replace(
            self, iteration_profile=np.asarray(profile, dtype=float)
        )
