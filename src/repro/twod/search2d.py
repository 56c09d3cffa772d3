"""Searching 2-D layouts at 1-D scale.

The paper's reason for staying one-dimensional is that the 2-D search
space "increases greatly" — every grid shape (R, C) multiplies a row-band
axis by a column-band axis.  With the batched 2-D kernel
(:mod:`repro.twod.plan2d`) an evaluation costs what the 1-D kernel costs,
so the 1-D search layer itself is pointed at 2-D layouts:

* :class:`TwoDGbs` — batched coordinate descent per grid shape
  (steepest-descent single-band moves, scored one population per round
  through ``predict(batch=True)``).  It scores through the 1-D
  :class:`EvaluationCache` and :class:`BudgetedEvaluator`, keyed by
  ``GenBlock2D.counts`` = ``(row_counts, col_counts)``;
* :class:`TwoDLayoutSearch` — any of the five 1-D searcher families run
  over (row bands x column bands) per shape, through a model adapter
  (:class:`_ShapeAdapter`) that encodes a layout as one joint GEN_BLOCK
  over R + C positions and decodes with per-axis repair;
* degenerate ``1 x P`` / ``P x 1`` shapes are *not* searched as 2-D at
  all: they are the 1-D strip layouts the spectrum path already covers,
  so they are scored by enumerating the Figure-8 anchor path along the
  single varying axis (:func:`strip_candidates`) and the 2-D budget is
  spent only on genuinely two-dimensional candidates.

Both searchers share the surface ``Searcher(model, *, knobs...)`` /
``search(budget, *, telemetry=...)`` returning a
:class:`TwoDSearchResult`.  Telemetry rides along under
``span/search/twod`` with the standard ``search/*`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distribution.genblock import GenBlock, largest_remainder_round
from repro.exceptions import SearchError
from repro.obs import Recorder, as_recorder
from repro.program.variables import Access, Variable
from repro.search import SEARCHERS, BudgetedEvaluator, EvaluationCache
from repro.search.base import _BudgetExhausted, _record_search
from repro.twod.distribution2d import (
    GenBlock2D,
    balanced2d,
    block2d,
    factor_pairs,
)
from repro.twod.jacobi2d import TwoDModel

__all__ = [
    "TwoDSearchResult",
    "TwoDGbs",
    "TwoDLayoutSearch",
    "strip_candidates",
    "is_degenerate",
]


def is_degenerate(shape: Tuple[int, int]) -> bool:
    """True for ``1 x P`` / ``P x 1`` grids — the 1-D strip layouts."""
    return shape[0] == 1 or shape[1] == 1


@dataclass
class TwoDSearchResult:
    """Outcome of a 2-D layout search."""

    best: GenBlock2D
    predicted_seconds: float
    evaluations: int  #: distinct 2-D model evaluations spent
    per_shape: Dict[Tuple[int, int], float] = field(default_factory=dict)
    algorithm: str = "twod"
    cache_hits: int = 0

    def __str__(self) -> str:
        r, c = self.best.grid_shape
        return (
            f"{self.algorithm}: {self.predicted_seconds:.3f}s predicted "
            f"with a {r}x{c} grid (rows={list(self.best.row_counts)}, "
            f"cols={list(self.best.col_counts)}) after "
            f"{self.evaluations} evaluations"
        )


# -- degenerate shapes: the 1-D spectrum path ---------------------------------


class _StripProgram:
    """The structural surface the 1-D spectrum machinery reads, for a
    strip decomposition of the 2-D grid: one distributed read-write
    variable whose "row" is a full band along the fixed axis."""

    def __init__(self, name: str, n_rows: int, band_elements: int, esize: int):
        self.name = name
        self.n_rows = n_rows
        self.replicated_bytes = 0
        self.distributed_variables = (
            Variable(
                name="grid2d",
                cols=float(band_elements),
                access=Access.READ_WRITE,
                element_size=esize,
            ),
        )

    def distributed_row_bytes(self) -> float:
        return float(
            sum(v.row_bytes for v in self.distributed_variables)
        )


def strip_candidates(
    model: TwoDModel,
    shape: Tuple[int, int],
    steps_per_leg: int = 8,
) -> List[GenBlock2D]:
    """The Figure-8 spectrum path for a degenerate grid shape.

    A ``P x 1`` grid is a row-strip GEN_BLOCK, a ``1 x P`` grid a
    column-strip one; either way the layout varies along a single axis,
    which is exactly the case the existing 1-D anchor path (Blk, Bal and
    — under memory pressure — I-C, I-C/Bal) was built for.  Returns the
    interpolated path's distributions wrapped back as 2-D strips.
    """
    from repro.distribution.spectrum import spectrum

    if not is_degenerate(shape):
        raise SearchError(f"{shape[0]}x{shape[1]} is not a strip shape")
    R, C = shape
    spec = model.spec
    by_rows = C == 1
    bands = spec.n_rows if by_rows else spec.n_cols
    fixed = spec.n_cols if by_rows else spec.n_rows
    program = _StripProgram(
        name=f"2dstrip:{R}x{C}",
        n_rows=bands,
        band_elements=fixed,
        esize=spec.element_size,
    )
    points = spectrum(model.cluster, program, steps_per_leg)
    out: List[GenBlock2D] = []
    seen = set()
    for point in points:
        counts = tuple(int(x) for x in point.distribution.counts)
        if min(counts) < 1:  # spectrum legs may round a band to zero
            continue
        if counts in seen:
            continue
        seen.add(counts)
        out.append(
            GenBlock2D(counts, (fixed,))
            if by_rows
            else GenBlock2D((fixed,), counts)
        )
    return out


# -- joint encoding: one GEN_BLOCK over R + C positions -----------------------


class _JointCluster:
    """The cluster surface 1-D searchers read, over axis bands instead
    of ranks: position ``i < R`` is grid row i, position ``R + j`` is
    grid column j, each weighted by its power share along its own axis
    (so ``balanced`` decodes to :func:`balanced2d`'s separable split)."""

    def __init__(self, model: TwoDModel, grid_shape: Tuple[int, int]):
        R, C = grid_shape
        powers = np.asarray(model.cluster.cpu_powers, dtype=float)
        grid = powers.reshape(R, C)
        row_w = grid.sum(axis=1)
        col_w = grid.sum(axis=0)
        # Per-axis normalisation: a CPU-homogeneous cluster reads as
        # homogeneous here whatever the grid's aspect ratio.
        self.cpu_powers = np.concatenate(
            [row_w / row_w.sum() * R, col_w / col_w.sum() * C]
        )
        self.n_nodes = R + C
        self.name = f"{model.cluster.name}:joint{R}x{C}"
        self.memory_bytes = np.full(self.n_nodes, np.iinfo(np.int64).max // 2)

    @property
    def is_cpu_homogeneous(self) -> bool:
        return bool(np.allclose(self.cpu_powers, self.cpu_powers[0]))


class _JointProgram:
    """Program surface for the joint encoding.  ``distributed_row_bytes``
    is zero: a joint "row" is an abstract band unit, so the 1-D in-core
    anchor machinery (which reasons about real bytes per row) is
    deliberately switched off — memory pressure is already priced into
    every 2-D evaluation by the kernel itself."""

    def __init__(self, name: str, n_rows: int):
        self.name = name
        self.n_rows = n_rows
        self.replicated_bytes = 0
        self.distributed_variables: Tuple[Variable, ...] = ()

    def distributed_row_bytes(self) -> float:
        return 0.0


@dataclass(frozen=True)
class _JointNodeReport:
    total_seconds: float


@dataclass(frozen=True)
class _JointReport:
    total_seconds: float
    nodes: Tuple[_JointNodeReport, ...]


class _ShapeAdapter:
    """A :class:`TwoDModel` at one grid shape, presented as the 1-D
    model surface the searchers and :class:`BudgetedEvaluator` consume.

    A candidate is one joint GEN_BLOCK over ``R + C`` positions summing
    to ``N + M``: the first R entries are row-band shares, the last C
    column-band shares.  :meth:`decode` repairs each axis back to its
    true total with :func:`largest_remainder_round` (minimum one row and
    one column per band), so *every* joint vector the searchers can emit
    — crossover blends, annealing moves across the axis boundary —
    decodes to a valid layout, deterministically.

    ``predict(joint)`` and ``predict(joints, batch=True)`` score through
    the underlying batched kernel; ``predict(joint, report=True)`` aggregates the per-rank
    clock totals to per-band ones (row band i = the slowest rank in grid
    row i, and symmetrically for columns) so GBS's bottleneck hill climb
    moves band units away from the slowest band.
    """

    def __init__(self, model: TwoDModel, grid_shape: Tuple[int, int]):
        R, C = grid_shape
        if R * C != model.cluster.n_nodes:
            raise SearchError(
                f"grid {R}x{C} does not cover {model.cluster.n_nodes} nodes"
            )
        self.grid_shape = grid_shape
        self._model = model
        self._N = model.spec.n_rows
        self._M = model.spec.n_cols
        self.n_nodes = R + C
        self.cluster = _JointCluster(model, grid_shape)
        self.program = _JointProgram(
            name=f"2d:{model.cluster.name}:{R}x{C}",
            n_rows=self._N + self._M,
        )

    def encode(self, dist: GenBlock2D) -> GenBlock:
        """The joint vector whose :meth:`decode` reproduces ``dist``
        (encodings are repaired on decode, so this is exact only up to
        the per-axis rounding fixpoint — which block/balanced layouts
        sit on)."""
        return GenBlock(tuple(dist.row_counts) + tuple(dist.col_counts))

    def decode(self, joint: GenBlock) -> GenBlock2D:
        R, C = self.grid_shape
        part = np.asarray(joint.counts, dtype=float)
        return GenBlock2D(
            largest_remainder_round(part[:R], self._N, minimum=1),
            largest_remainder_round(part[R:], self._M, minimum=1),
        )

    # -- the model surface -------------------------------------------------

    def predict(
        self,
        joint,
        iterations: Optional[int] = None,
        *,
        batch: bool = False,
        report: bool = False,
        telemetry: Optional[Recorder] = None,
    ):
        if batch:
            return self._model.predict(
                [self.decode(j) for j in joint], iterations, batch=True
            )
        dist = self.decode(joint)
        if not report:
            return self._model.predict(dist, iterations, telemetry=telemetry)
        rep = self._model.predict(dist, iterations, report=True)
        R, C = self.grid_shape
        totals = np.array([n.total_seconds for n in rep.nodes]).reshape(R, C)
        axis_totals = np.concatenate([totals.max(axis=1), totals.max(axis=0)])
        return _JointReport(
            total_seconds=rep.total_seconds,
            nodes=tuple(_JointNodeReport(float(t)) for t in axis_totals),
        )


# -- degenerate shapes, scored outside any budget ---------------------------


def _score_strips(
    model: TwoDModel,
    shape: Tuple[int, int],
    cache: EvaluationCache,
    steps_per_leg: int,
) -> float:
    """Score a degenerate shape's 1-D spectrum path outside the 2-D
    budget: strip enumeration is the fixed, cheap price of covering a
    shape the 1-D path already owns.  The candidates not yet in
    ``cache`` are predicted in one batch and recorded there (so they
    count as evaluations and compete for the best); the shape's best is
    read back with ``cache.value``, which adds no cache hit."""
    candidates = strip_candidates(model, shape, steps_per_leg)
    fresh = [d for d in candidates if d.counts not in cache]
    if fresh:
        cache.put_many(
            [d.counts for d in fresh], model.predict(fresh, batch=True)
        )
    return min(cache.value(d.counts) for d in candidates)


def _best_layout(cache: EvaluationCache) -> Tuple[GenBlock2D, float]:
    """The cache's best ``GenBlock2D`` and its predicted seconds."""
    found = cache.best()
    if found is None:
        raise SearchError("2-D search performed no evaluations")
    (rows, cols), value = found
    return GenBlock2D(rows, cols), value


# -- coordinate-descent GBS (batched) -----------------------------------------


class TwoDGbs:
    """Batched coordinate descent over GenBlock2D layouts.

    One model serves every grid shape: the instrumented calibration is a
    per-element compute rate, which transfers across shapes (the plan
    for each shape is compiled once and cached).  For each shape the
    search starts from the better of the Blk/Bal 2-D anchors and runs
    steepest-descent single-band moves — per round, *all* ``src -> dst``
    unit moves along the active axis are scored in one
    ``predict(batch=True)`` pass, the best is applied, and the move unit
    halves when no move improves (multi-resolution, as in 1-D GBS's
    shrinking hill-climb step).

    Candidates are scored through a :class:`BudgetedEvaluator`, whose
    budget is a hard cap on genuinely 2-D evaluations.  Degenerate strip
    shapes are scored via the 1-D spectrum path
    (:func:`strip_candidates`) without spending that budget.
    """

    name = "twod-gbs"

    def __init__(
        self,
        model: TwoDModel,
        cluster=None,  # accepted for driver uniformity; the model has it
        *,
        rounds: int = 3,
        resolution: int = 16,
        shapes: Optional[Sequence[Tuple[int, int]]] = None,
        steps_per_leg: int = 8,
        batch_size: int = 64,
    ) -> None:
        self.model = model
        self.rounds = rounds
        self.resolution = resolution
        self.shapes = (
            list(shapes)
            if shapes is not None
            else factor_pairs(model.cluster.n_nodes)
        )
        self.steps_per_leg = steps_per_leg
        self.batch_size = batch_size

    # -- axis refinement ---------------------------------------------------

    def _axis_moves(
        self, current: GenBlock2D, axis: str, unit: int
    ) -> List[GenBlock2D]:
        bands = list(
            current.row_counts if axis == "rows" else current.col_counts
        )
        n = len(bands)
        moves = []
        for src in range(n):
            if bands[src] - unit < 1:
                continue
            for dst in range(n):
                if src == dst:
                    continue
                trial = list(bands)
                trial[src] -= unit
                trial[dst] += unit
                moves.append(
                    GenBlock2D(trial, current.col_counts)
                    if axis == "rows"
                    else GenBlock2D(current.row_counts, trial)
                )
        return moves

    def _descend(
        self, evaluate: BudgetedEvaluator, start: GenBlock2D
    ) -> Tuple[GenBlock2D, float]:
        best = start
        best_val = evaluate(start)
        for axis, total in (
            ("rows", start.n_rows),
            ("cols", start.n_cols),
        ) * self.rounds:
            unit = max(total // self.resolution, 1)
            while True:
                moves = self._axis_moves(best, axis, unit)
                if moves:
                    improved = False
                    for lo in range(0, len(moves), self.batch_size):
                        chunk = moves[lo : lo + self.batch_size]
                        values = evaluate.batch(chunk)
                        i = min(
                            range(len(values)), key=values.__getitem__
                        )
                        if values[i] < best_val - 1e-12:
                            best, best_val = chunk[i], values[i]
                            improved = True
                    if improved:
                        continue
                if unit == 1:
                    break
                unit = max(unit // 2, 1)
        return best, best_val

    # -- the search --------------------------------------------------------

    def search(
        self,
        budget: int = 400,
        *,
        telemetry: Optional[Recorder] = None,
    ) -> TwoDSearchResult:
        if budget < 1:
            raise SearchError("budget must be >= 1")
        rec = as_recorder(telemetry)
        cache = EvaluationCache(self.model.predict)
        evaluate = BudgetedEvaluator(
            self.model, cache, budget, [], telemetry=rec
        )
        per_shape: Dict[Tuple[int, int], float] = {}
        with rec.span("search/twod"):
            for shape in self.shapes:
                if is_degenerate(shape):
                    per_shape[shape] = _score_strips(
                        self.model, shape, cache, self.steps_per_leg
                    )
                    continue
                spec = self.model.spec
                starts = [block2d(spec.n_rows, spec.n_cols, shape)]
                if not self.model.cluster.is_cpu_homogeneous:
                    starts.append(
                        balanced2d(
                            self.model.cluster,
                            spec.n_rows,
                            spec.n_cols,
                            shape,
                        )
                    )
                try:
                    values = evaluate.batch(starts)
                    i = min(range(len(values)), key=values.__getitem__)
                    _, value = self._descend(evaluate, starts[i])
                except _BudgetExhausted:
                    value = min(
                        (
                            cache.value(d.counts)
                            for d in starts
                            if d.counts in cache
                        ),
                        default=float("inf"),
                    )
                per_shape[shape] = value
        best, best_value = _best_layout(cache)
        result = TwoDSearchResult(
            best=best,
            predicted_seconds=best_value,
            evaluations=cache.evaluations,
            per_shape=per_shape,
            algorithm=self.name,
            cache_hits=cache.hits,
        )
        _record_twod_search(rec, self.name, budget, result)
        return result


def _record_twod_search(
    rec: Recorder, name: str, budget: int, result: TwoDSearchResult
) -> None:
    if not rec:
        return
    _record_search(rec, name, budget, result)
    for value in result.per_shape.values():
        if np.isfinite(value):
            rec.observe("search/twod/shape_best", value)


# -- all five families over the joint encoding --------------------------------

#: The counters :func:`~repro.search.base._record_search` adds per run.
_SEARCH_TOTALS = ("search/runs", "search/evaluations", "search/cache_hits")


class TwoDLayoutSearch:
    """Run a 1-D searcher family over every grid shape's joint encoding.

    The budget is split evenly across the genuinely 2-D shapes (factor
    pairs with both axes > 1); each shape gets a fresh
    :class:`_ShapeAdapter` and a fresh family instance seeded
    deterministically per shape.  Degenerate strip shapes ride the 1-D
    spectrum path instead (see :func:`strip_candidates`) and do not
    consume the per-shape search budget.

    ``algorithm`` is one of :data:`repro.search.SEARCHERS`; extra keyword
    knobs pass through to the family constructor (e.g. ``population=``
    for the GA, ``steps=`` for annealing).
    """

    name = "twod"

    def __init__(
        self,
        model: TwoDModel,
        cluster=None,  # accepted for driver uniformity; the model has it
        *,
        algorithm: str = "gbs",
        shapes: Optional[Sequence[Tuple[int, int]]] = None,
        steps_per_leg: int = 8,
        batch_size: int = 64,
        seed_label: str = "",
        **knobs,
    ) -> None:
        if algorithm not in SEARCHERS:
            raise SearchError(
                f"unknown 2-D search family {algorithm!r}; choose from "
                f"{sorted(SEARCHERS)}"
            )
        self.model = model
        self.algorithm = algorithm
        self.shapes = (
            list(shapes)
            if shapes is not None
            else factor_pairs(model.cluster.n_nodes)
        )
        self.steps_per_leg = steps_per_leg
        self.batch_size = batch_size
        self._seed_label = seed_label or f"twod-{algorithm}"
        self.knobs = knobs

    def search(
        self,
        budget: int = 200,
        *,
        telemetry: Optional[Recorder] = None,
    ) -> TwoDSearchResult:
        if budget < 1:
            raise SearchError("budget must be >= 1")
        rec = as_recorder(telemetry)
        genuine = [s for s in self.shapes if not is_degenerate(s)]
        strips = [s for s in self.shapes if is_degenerate(s)]
        per_shape: Dict[Tuple[int, int], float] = {}
        best: Optional[GenBlock2D] = None
        best_val = float("inf")
        cache_hits = 0
        with rec.span("search/twod"):
            # Degenerate shapes: the 1-D spectrum path, one batch each.
            cache = EvaluationCache(self.model.predict)
            for shape in strips:
                per_shape[shape] = _score_strips(
                    self.model, shape, cache, self.steps_per_leg
                )
            if strips:
                best, best_val = _best_layout(cache)
            evaluations = cache.evaluations
            # Genuine 2-D shapes: the chosen family per shape.  Each
            # family search counts its own run into the search/* totals;
            # they are put back afterwards, so this search counts as one
            # run with its own evaluations and cache hits.
            totals = {k: rec.counters.get(k, 0) for k in _SEARCH_TOTALS}
            family = SEARCHERS[self.algorithm]
            share = max(budget // max(len(genuine), 1), 1)
            for shape in genuine:
                adapter = _ShapeAdapter(self.model, shape)
                searcher = family(
                    adapter,
                    adapter.cluster,
                    batch_size=self.batch_size,
                    seed_label=f"{self._seed_label}:{shape[0]}x{shape[1]}",
                    **self.knobs,
                )
                res = searcher.search(share, telemetry=telemetry)
                evaluations += res.evaluations
                cache_hits += res.cache_hits
                dist = adapter.decode(res.best)
                value = float(res.predicted_seconds)
                per_shape[shape] = value
                if value < best_val:
                    best, best_val = dist, value
            if rec:
                rec.counters.update(totals)
        if best is None:
            raise SearchError("2-D search performed no evaluations")
        result = TwoDSearchResult(
            best=best,
            predicted_seconds=best_val,
            evaluations=evaluations,
            per_shape=per_shape,
            algorithm=f"{self.name}-{self.algorithm}",
            cache_hits=cache_hits,
        )
        _record_twod_search(rec, self.name, budget, result)
        return result
