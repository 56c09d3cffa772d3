"""Searching 2-D layouts at 1-D scale.

The paper's reason for staying one-dimensional is that the 2-D search
space "increases greatly" — every grid shape (R, C) multiplies a row-band
axis by a column-band axis.  :class:`~repro.twod.jacobi2d.TwoDModel`
scores a whole candidate population in one vectorized pass, so a 2-D
evaluation costs what a 1-D one costs and the 1-D search layer itself is
pointed at 2-D layouts.  :class:`TwoDLayoutSearch` runs one of the
:data:`repro.search.SEARCHERS` families over every grid shape:

* ``gbs`` (the default) — batched coordinate descent per grid shape
  from the better of the Blk/Bal 2-D anchors: steepest-descent
  single-band moves, scored one population per round through one
  :class:`EvaluationCache` and :class:`BudgetedEvaluator` shared by all
  shapes, keyed by ``GenBlock2D.counts`` = ``(row_counts, col_counts)``;
* the other families — run per shape through a model adapter
  (:class:`_ShapeAdapter`) that encodes a layout as one joint GEN_BLOCK
  over R + C positions and decodes with per-axis repair;
* degenerate ``1 x P`` / ``P x 1`` shapes are *not* searched as 2-D at
  all: they are the 1-D strip layouts the spectrum path already covers,
  so they are scored by enumerating the Figure-8 anchor path along the
  single varying axis (:func:`strip_candidates`) and the 2-D budget is
  spent only on genuinely two-dimensional candidates.

``search(budget, *, telemetry=...)`` returns a
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
    the underlying batched kernel.
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
        telemetry: Optional[Recorder] = None,
    ):
        if batch:
            return self._model.predict(
                [self.decode(j) for j in joint], iterations, batch=True
            )
        return self._model.predict(
            self.decode(joint), iterations, telemetry=telemetry
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


# -- the gbs family: coordinate descent (batched) -----------------------------

#: Rounds of (rows, then columns) refinement per grid shape.
_ROUNDS = 3
#: The first move unit of an axis is its total over this (halving to 1).
_RESOLUTION = 16


def _axis_moves(
    current: GenBlock2D, axis: str, unit: int
) -> List[GenBlock2D]:
    """Every ``src -> dst`` move of ``unit`` rows (or columns) between
    two bands of ``axis`` that leaves each band at least one."""
    bands = list(current.row_counts if axis == "rows" else current.col_counts)
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
    evaluate: BudgetedEvaluator,
    cache: EvaluationCache,
    start: GenBlock2D,
    batch_size: int,
) -> float:
    """Steepest descent from ``start``: per round, *all* single-band
    moves along the active axis are scored in batches of
    ``batch_size``, the best is applied, and the move unit halves when
    no move improves (multi-resolution, as in 1-D GBS's shrinking
    hill-climb step).  Returns the best value reached, also when the
    budget runs out inside a batch: the moves that batch evaluated
    before the cut (recorded in ``cache``) count as reached."""
    best = start
    best_val = evaluate(start)
    for axis, total in (
        ("rows", start.n_rows),
        ("cols", start.n_cols),
    ) * _ROUNDS:
        unit = max(total // _RESOLUTION, 1)
        while True:
            moves = _axis_moves(best, axis, unit)
            if moves:
                improved = False
                for lo in range(0, len(moves), batch_size):
                    chunk = moves[lo : lo + batch_size]
                    try:
                        values = evaluate.batch(chunk)
                    except _BudgetExhausted:
                        reached = [
                            cache.value(d.counts)
                            for d in chunk
                            if d.counts in cache
                        ]
                        return min([best_val, *reached])
                    i = min(range(len(values)), key=values.__getitem__)
                    if values[i] < best_val - 1e-12:
                        best, best_val = chunk[i], values[i]
                        improved = True
                if improved:
                    continue
            if unit == 1:
                break
            unit = max(unit // 2, 1)
    return best_val


def _record_twod_search(
    rec: Recorder, name: str, budget: int, result: TwoDSearchResult
) -> None:
    if not rec:
        return
    _record_search(rec, name, budget, result)
    for value in result.per_shape.values():
        if np.isfinite(value):
            rec.observe("search/twod/shape_best", value)


# -- the search over every grid shape -----------------------------------------

#: The counters :func:`~repro.search.base._record_search` adds per run.
_SEARCH_TOTALS = ("search/runs", "search/evaluations", "search/cache_hits")


def _shares(budget: int, n_shapes: int) -> List[int]:
    """Each genuine shape's evaluation budget: an even split, and at
    most ``budget`` in total — below one evaluation per shape the first
    ``budget`` shapes get one each and the rest none."""
    if budget >= n_shapes:
        return [budget // max(n_shapes, 1)] * n_shapes
    return [1] * budget + [0] * (n_shapes - budget)


class TwoDLayoutSearch:
    """Run a searcher family over every grid shape.

    ``algorithm`` is one of :data:`repro.search.SEARCHERS`.  The default,
    ``gbs``, is the coordinate descent (:func:`_descend`): the shapes,
    in order, share one :class:`EvaluationCache` and one
    :class:`BudgetedEvaluator`, so a genuine shape's candidates are
    evaluated only while the cache holds fewer than ``budget``
    evaluations.  Strip shapes are scored inline, outside that cap
    (:func:`_score_strips`); a genuine shape the budget runs out on
    reports the best layout its descent reached, its best start if the
    budget ran out among the starts, or ``inf``.  It takes no knobs.

    Any other family runs per genuine shape (both axes > 1) over the
    joint encoding: each shape gets a fresh :class:`_ShapeAdapter`, a
    fresh family instance seeded deterministically per shape, and an
    even share of the budget (see :func:`_shares`; a shape with no
    share reports ``inf``).  Strip shapes ride the 1-D spectrum path
    (see :func:`strip_candidates`) outside the shares.  Extra keyword
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
        if algorithm == "gbs" and knobs:
            raise SearchError(
                f"the 2-D gbs family takes no knobs, got {sorted(knobs)}"
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
        with rec.span("search/twod"):
            if self.algorithm == "gbs":
                result = self._descent(budget, rec)
            else:
                result = self._per_shape(budget, telemetry, rec)
        _record_twod_search(rec, self.name, budget, result)
        return result

    def _result(self, best, best_val, evaluations, cache_hits, per_shape):
        return TwoDSearchResult(
            best=best,
            predicted_seconds=best_val,
            evaluations=evaluations,
            per_shape=per_shape,
            algorithm=f"{self.name}-{self.algorithm}",
            cache_hits=cache_hits,
        )

    def _descent(self, budget: int, rec: Recorder) -> TwoDSearchResult:
        """The gbs family: every shape, in order, on one budgeted cache."""
        model = self.model
        spec = model.spec
        cache = EvaluationCache(model.predict)
        evaluate = BudgetedEvaluator(model, cache, budget, [], telemetry=rec)
        per_shape: Dict[Tuple[int, int], float] = {}
        for shape in self.shapes:
            if is_degenerate(shape):
                per_shape[shape] = _score_strips(
                    model, shape, cache, self.steps_per_leg
                )
                continue
            starts = [block2d(spec.n_rows, spec.n_cols, shape)]
            if not model.cluster.is_cpu_homogeneous:
                starts.append(
                    balanced2d(model.cluster, spec.n_rows, spec.n_cols, shape)
                )
            try:
                values = evaluate.batch(starts)
                i = min(range(len(values)), key=values.__getitem__)
                value = _descend(evaluate, cache, starts[i], self.batch_size)
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
        best, best_val = _best_layout(cache)
        return self._result(
            best, best_val, cache.evaluations, cache.hits, per_shape
        )

    def _per_shape(
        self, budget: int, telemetry, rec: Recorder
    ) -> TwoDSearchResult:
        """Any other family: strips first, then each genuine shape's own
        family search on its share of the budget."""
        genuine = [s for s in self.shapes if not is_degenerate(s)]
        strips = [s for s in self.shapes if is_degenerate(s)]
        per_shape: Dict[Tuple[int, int], float] = {}
        best: Optional[GenBlock2D] = None
        best_val = float("inf")
        cache_hits = 0
        # Degenerate shapes: the 1-D spectrum path, one batch each.
        cache = EvaluationCache(self.model.predict)
        for shape in strips:
            per_shape[shape] = _score_strips(
                self.model, shape, cache, self.steps_per_leg
            )
        if strips:
            best, best_val = _best_layout(cache)
        evaluations = cache.evaluations
        # Genuine 2-D shapes: the chosen family per shape.  Each family
        # search counts its own run into the search/* totals; they are
        # put back afterwards, so this search counts as one run with its
        # own evaluations and cache hits.
        totals = {k: rec.counters.get(k, 0) for k in _SEARCH_TOTALS}
        family = SEARCHERS[self.algorithm]
        for shape, share in zip(genuine, _shares(budget, len(genuine))):
            if share == 0:
                per_shape[shape] = float("inf")
                continue
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
            value = float(res.predicted_seconds)
            per_shape[shape] = value
            if value < best_val:
                best, best_val = adapter.decode(res.best), value
        if rec:
            rec.counters.update(totals)
        if best is None:
            raise SearchError("2-D search performed no evaluations")
        return self._result(best, best_val, evaluations, cache_hits, per_shape)
