"""Compiled evaluation plans: one-time specialization of the predictor.

The batched numpy kernel still re-derives a lot of structure on every
``predict(batch=True)`` call: per-node ``np.unique`` passes over the
candidate matrix, fresh ``(B, P, P)`` section matrices, generic max-plus
composition, and closure dispatch per section.  All of that depends only
on the *(app structure, cluster shape, kernel options)* triple — not on
the candidate distributions — so :class:`EvaluationPlan` lowers the
triple once into a flat program:

1. **Table store** — plan-resident ``(node, rows) -> row`` storage laid
   out column-wise per section: single-tile sections store their section
   total, nearest-neighbour sections store the three *pre-baked* band
   values (diag / from-left / from-right contributions of that node, the
   exact two-operand add sequence of
   :meth:`SectionTimeline._nn_bands`), pipeline sections store the full
   per-tile table.  A dense ``(P, n_rows + 1)`` index map turns a whole
   ``(B, P)`` candidate matrix into one fancy gather; misses route
   through the model's shared table LRU so warmth is never split across
   tiers.
2. **Lowering** — consecutive sections fold at compile time through a
   small state machine (diagonal / tridiagonal-band / dense-plus-rank-1
   / materialized matrix): diagonal sections fold for free into their
   neighbours, a tridiagonal section folds into a following collective
   with a banded build (no generic ``(B, P, P, P)`` composition), chains
   of tridiagonal sections fold by banded matrix updates, and pipeline
   sections split the fold with a precomputed prefix-scan op.  The
   result is a short list of *builders* (run once per batch) and *walk
   ops* (run once per iteration).
3. **Steady-state walk** — the per-candidate freezing rule of
   :meth:`MhetaModel._steady_walk_batch` (identical tolerances and
   extrapolation arithmetic) runs over preallocated rotating buffers;
   single-matrix programs take a fused walk loop that is JIT-compiled
   with numba when available (``REPRO_PLAN_NUMBA=0`` disables) and
   always has a pure-numpy twin with bit-identical semantics — explicit
   loops replay numpy's elementwise adds and exact max reductions, so
   both modes agree bit-for-bit.

Compiled plans are shared process-wide through a bounded LRU keyed by a
content fingerprint of the triple, beside the per-model table LRU;
:func:`plan_cache_stats` exposes hit/miss/compile counters for
``repro stats`` and benchmark JSON.  The array layout is deliberately
flat and contiguous — ``(B, P)`` clocks, ``(B, P, P)`` matrices, one
gather per batch — so a future GPU backend can adopt the same plan IR.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.obs import Recorder
from repro.program.sections import CommPattern
from repro.util.lru import LRUCache

__all__ = [
    "EvaluationPlan",
    "DEFAULT_PLAN_CACHE_ENTRIES",
    "MAX_STORE_ROWS",
    "get_plan",
    "discard_plan",
    "plan_cache_stats",
    "reset_plan_cache",
    "numba_active",
]

#: Bound of the process-wide compiled-plan LRU.  Plans are small (a few
#: hundred KB of index map dominates); the bound exists so unattended
#: services cycling through many (app, cluster) pairs stay flat.
DEFAULT_PLAN_CACHE_ENTRIES = 32

#: Table-store row bound per plan.  A store row is a handful of floats;
#: when a very long sweep exceeds the bound the store resets rather than
#: grow without limit (the model's table LRU keeps the warmth).
MAX_STORE_ROWS = 1 << 16

#: Dense-index entry bound: above this the (P, n_rows + 1) map would be
#: unreasonably large and a dict index is used instead.
_MAX_DENSE_INDEX = 1 << 25

# Convergence tolerances of the steady-state walk — must match
# MhetaModel._steady_walk_batch exactly.
_ATOL = 1e-12
_RTOL = 1e-9

# Section kinds after classification (see _classify).
_DIAG = 0  # NONE pattern or P == 1: diagonal max-plus matrix
_TRI = 1  # nearest neighbour: tridiagonal matrix, stored as bands
_DENSE = 2  # reduction / allgather: constant base matrix + column add
_PIPE = 3  # pipeline: no clock-independent matrix, prefix-scan replay


# -- numba (optional JIT for the fused single-matrix walk) -------------------
#
# numba is strictly optional: the import is attempted lazily on first
# plan compile, disabled by REPRO_PLAN_NUMBA=0, and any failure (absent
# package, unsupported platform) silently selects the numpy twin.  The
# jitted walk replays the numpy walk loop-for-loop (elementwise adds,
# exact max reductions, identical tolerance arithmetic), so the two
# modes return bit-identical totals.

_numba_walk: Optional[Callable] = None
_numba_tried = False


def _numba_disabled() -> bool:
    return os.environ.get("REPRO_PLAN_NUMBA", "").strip().lower() in (
        "0", "false", "off", "no",
    )


def numba_active() -> bool:
    """Whether compiled plans are currently using the numba walk."""
    return _numba_walk is not None


def _resolve_numba_walk() -> Optional[Callable]:
    """Build (once) the jitted fused walk, or ``None`` when unavailable."""
    global _numba_walk, _numba_tried
    if _numba_tried:
        return _numba_walk
    _numba_tried = True
    if _numba_disabled():
        return None
    try:
        import numba
    except Exception:
        return None
    try:
        @numba.njit(cache=False)
        def _walk_jit(M, n_iter):  # pragma: no cover - exercised when
            # numba is installed (CI matrix leg); semantics pinned by
            # the numpy twin below.
            B = M.shape[0]
            P = M.shape[1]
            cur = np.zeros((B, P))
            nxt = np.empty((B, P))
            last = np.empty((B, P))
            second = np.empty((B, P))
            steady = np.empty((B, P))
            prev_steady = np.empty((B, P))
            totals = np.empty((B, P))
            active = np.ones(B, np.bool_)
            n_active = B
            have_last = False
            have_second = False
            have_prev = False
            simulate = 0
            while simulate < n_iter:
                for b in range(B):
                    for n in range(P):
                        m = -np.inf
                        for j in range(P):
                            v = M[b, n, j] + cur[b, j]
                            if v > m:
                                m = v
                        nxt[b, n] = m
                second, last, cur, nxt = last, nxt, nxt, second
                have_second = have_last
                have_last = True
                simulate += 1
                if have_second:
                    prev_steady, steady = steady, prev_steady
                    for b in range(B):
                        for n in range(P):
                            steady[b, n] = last[b, n] - second[b, n]
                    if have_prev:
                        k = n_iter - simulate
                        for b in range(B):
                            if not active[b]:
                                continue
                            ok = True
                            for n in range(P):
                                tol = _ATOL + _RTOL * abs(prev_steady[b, n])
                                if abs(steady[b, n] - prev_steady[b, n]) > tol:
                                    ok = False
                                    break
                            if ok:
                                for n in range(P):
                                    totals[b, n] = (
                                        last[b, n] + steady[b, n] * k
                                    )
                                active[b] = False
                                n_active -= 1
                        if n_active == 0:
                            return totals
                    have_prev = True
            for b in range(B):
                if active[b]:
                    for n in range(P):
                        totals[b, n] = last[b, n]
            return totals

        # Warm the dispatcher so the first real execute pays no JIT.
        _walk_jit(np.zeros((1, 1, 1)), 3)
        _numba_walk = _walk_jit
    except Exception:
        _numba_walk = None
    return _numba_walk


def _reset_numba_for_tests() -> None:
    """Drop the resolved walk so tests can re-exercise the gate."""
    global _numba_walk, _numba_tried
    _numba_walk = None
    _numba_tried = False


# -- lowering state machine ---------------------------------------------------


class _TriState:
    """A pending tridiagonal max-plus matrix, held as band *expressions*.

    Each band is a list of ``(column, node_offset)`` terms over the
    gathered store columns; the band value at node index ``k`` is the
    ordered sum of ``g[:, k + offset, column]``.  Diagonal sections fold
    in as extra terms (a column add shifts the from-right band by one
    node, a row add shifts the from-left band), so no matrix is built
    until a collective, a second exchange, or the end of the program
    forces one.
    """

    __slots__ = ("dterms", "lterms", "rterms")

    def __init__(self, dcol: int, lcol: int, rcol: int) -> None:
        self.dterms: List[Tuple[int, int]] = [(dcol, 0)]
        self.lterms: List[Tuple[int, int]] = [(lcol, 0)]
        self.rterms: List[Tuple[int, int]] = [(rcol, 1)]

    def fold_inner_diag(self, cols: Sequence[int]) -> None:
        """Compose with ``diag(v)`` applied *before* the exchange
        (column add: entry ``[n, j] += v[j]``)."""
        for c in cols:
            self.dterms.append((c, 0))
            self.lterms.append((c, 0))
            self.rterms.append((c, 1))

    def fold_outer_diag(self, col: int) -> None:
        """Compose with ``diag(v)`` applied *after* the exchange
        (row add: entry ``[n, j] += v[n]``)."""
        self.dterms.append((col, 0))
        self.lterms.append((col, 1))
        self.rterms.append((col, 0))


def _band(g: np.ndarray, terms: Sequence[Tuple[int, int]],
          length: int) -> np.ndarray:
    """Evaluate one band expression over the gathered ``(B, P, C)``
    store rows; returns ``(B, length)``."""
    col, off = terms[0]
    v = g[:, off:off + length, col]
    for col, off in terms[1:]:
        v = v + g[:, off:off + length, col]
    return v


def _colsum(g: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Ordered sum of store columns (the composition of a run of
    diagonal sections); returns ``(B, P)``."""
    v = g[:, :, cols[0]]
    for c in cols[1:]:
        v = v + g[:, :, c]
    return v


class EvaluationPlan:
    """A compiled evaluator for one (app structure, cluster shape,
    kernel options) triple.

    Built once by :func:`get_plan` (or :meth:`MhetaModel.ensure_plan`);
    :meth:`execute` then scores validated ``(B, P)`` candidate-count
    matrices.  Per-candidate results are bit-identical across batch
    sizes (no reduction crosses the candidate axis, and the steady-state
    freeze is per-candidate), so ``execute`` backs both the batched and
    the single-candidate ``kernel="plan"`` paths.

    Plans hold per-batch-size scratch buffers and are **not**
    thread-safe — exactly like the default table LRU.  The serving layer
    runs all model passes on one executor thread, which satisfies this.
    """

    def __init__(self, model) -> None:
        self._model = model
        self._timeline = model.timeline
        self.P = model.n_nodes
        self.n_rows = model.program.n_rows
        self.fingerprint = model.fingerprint
        self.executes = 0
        self.store_resets = 0
        # -- store layout ----------------------------------------------
        sections = model.program.sections
        offsets = model._tile_offsets
        self._col_specs: List[tuple] = []
        col = 0
        kinds: List[int] = []
        for si, section in enumerate(sections):
            pattern = section.comm.pattern
            if self.P == 1 or pattern is CommPattern.NONE:
                kind = _DIAG
                ncols = 1
            elif pattern is CommPattern.PIPELINE:
                kind = _PIPE
                ncols = section.tiles
            elif pattern is CommPattern.NEAREST_NEIGHBOR:
                kind = _TRI
                ncols = 3
            elif pattern in (CommPattern.REDUCTION, CommPattern.ALLGATHER):
                kind = _DENSE
                ncols = 1
            else:
                raise ModelError(
                    f"unknown communication pattern: {pattern}"
                )
            kinds.append(kind)
            self._col_specs.append(
                (kind, si, offsets[si], offsets[si + 1], col)
            )
            col += ncols
        self.n_cols = col
        self._nn_consts = self._bake_nn_constants(sections, kinds)
        # -- store -----------------------------------------------------
        self._nodes = np.arange(self.P)
        index_entries = self.P * (self.n_rows + 1)
        if index_entries <= _MAX_DENSE_INDEX:
            self._index: Optional[np.ndarray] = np.full(
                (self.P, self.n_rows + 1), -1, dtype=np.int32
            )
            self._index_dict: Optional[dict] = None
        else:
            self._index = None
            self._index_dict = {}
        self._data = np.empty((64, self.n_cols))
        self._used = 0
        # -- lowering --------------------------------------------------
        self._buf_factories: List[Callable[[int], object]] = []
        self._ctx_cache: dict = {}
        self._builders: List[Callable] = []
        self._op_makers: List[Callable] = []
        self._matrix_buf: Optional[int] = None
        self._ops_tmp: Optional[int] = None
        self._lower(sections, kinds)
        # Gather memo: store rows are immutable pure functions of
        # ``(node, rows)``, so a repeated candidate batch (steady-state
        # populations, benchmark reps, coalesced serve rounds) reuses
        # its gathered ``(B, P, C)`` block and skips the scattered
        # index/store touches entirely.
        self._g_memo: dict = {}
        # Walk scratch (matrix mode only; ops mode allocates per call).
        if self._matrix_buf is not None:
            P = self.P

            # Clock buffers carry their ``(P, B, 1)`` transposed view so
            # the per-iteration broadcast add never re-derives it.
            def _clock(B: int, P: int = P) -> tuple:
                c = np.empty((B, P))
                return c, c.T[:, :, None]

            self._walk_clocks = [
                self._register_buf(_clock) for _ in range(3)
            ]
            self._walk_bufs = [
                self._register_buf(lambda B, P=P: np.empty((B, P)))
                for _ in range(5)
            ]

            # Transposed scratch: the walk copies the built matrix
            # into ``(P, B, P)`` once per execute so every iteration's
            # broadcast add and max fold run over contiguous slices.
            # The per-``k`` row views ride along.
            def _tmp(B: int, P: int = P) -> tuple:
                t = np.empty((P, B, P))
                return t, tuple(t)

            self._walk_tmp = self._register_buf(_tmp)
            self._walk_mt = self._register_buf(
                lambda B, P=P: np.empty((P, B, P))
            )
            # When the whole build is one fused tri+dense step, swap in
            # its transposed twin: it writes ``_walk_mt`` directly and
            # the walk skips the per-execute transpose copy.
            self._matrix_transposed = False
            if len(self._builders) == 1:
                maker = getattr(
                    self._builders[0], "make_transposed", None
                )
                if maker is not None:
                    self._builders = [maker(self._walk_mt)]
                    self._matrix_transposed = True

    # -- compile-time helpers ------------------------------------------

    def _bake_nn_constants(self, sections, kinds) -> dict:
        """Per nearest-neighbour section: the node-constant vectors of
        :meth:`SectionTimeline._nn_bands`, so store rows carry finished
        band values and the hot path does zero band arithmetic."""
        tl = self._timeline
        micro = self._model.inputs.micro
        out = {}
        for si, section in enumerate(sections):
            if kinds[si] != _TRI:
                continue
            x = tl._transfer(section.comm.message_bytes)
            left_add = np.zeros(self.P)
            left_add[: self.P - 1] = x + tl._nn_or2_tail
            out[si] = {
                "os": micro.send_overhead,
                "post_mult": tl._nn_post_mult,
                "or12": tl._nn_or12,
                "left_add": left_add,
                "right_add": x + micro.recv_overhead,
            }
        return out

    def _register_buf(self, factory: Callable[[int], object]) -> int:
        self._buf_factories.append(factory)
        return len(self._buf_factories) - 1

    def _ctx(self, B: int) -> list:
        ctx = self._ctx_cache.get(B)
        if ctx is None:
            if len(self._ctx_cache) >= 8:
                self._ctx_cache.clear()
            ctx = [f(B) for f in self._buf_factories]
            self._ctx_cache[B] = ctx
        return ctx

    def _neginf_buf(self) -> int:
        P = self.P
        return self._register_buf(
            lambda B, P=P: np.full((B, P, P), -np.inf)
        )

    def _tri_view_buf(self) -> int:
        """A -inf-prefilled matrix buffer plus strided views of its
        three bands (off-band cells are written once, at allocation)."""
        P = self.P

        def make(B: int, P: int = P):
            buf = np.full((B, P, P), -np.inf)
            flat = buf.reshape(B, P * P)
            return (
                buf,
                flat[:, :: P + 1],        # diagonal, P entries
                flat[:, P:: P + 1],       # sub-diagonal  A[k+1, k]
                flat[:, 1:: P + 1],       # super-diagonal A[k, k+1]
            )

        return self._register_buf(make)

    # -- lowering -------------------------------------------------------

    def _lower(self, sections, kinds) -> None:
        """Fold the section chain into builders + walk ops.

        The pending state tracks the max-plus matrix of the sections
        composed so far; every transition either folds the new section
        into the state for free (diagonals, banded builds) or flushes
        the state as a walk op.  The batch kernel composes the same
        chain generically at run time; here the composition order and
        operand pairing are preserved so results stay within rounding
        of that path (and well within the 1e-12 scalar contract).
        """
        state: object = None  # None | list[int] (diag cols) | _TriState
        state_kind = "empty"  # empty | diag | tri | densep | mat
        dense_base: Optional[np.ndarray] = None
        dense_cols: List[int] = []
        dense_rows: List[int] = []
        mat_buf: Optional[int] = None
        tri_fold_bufs: Optional[Tuple[int, int]] = None
        n_matrix_ops = 0
        tl = self._timeline

        def flush() -> None:
            nonlocal state, state_kind, dense_base, dense_cols, dense_rows
            nonlocal mat_buf, n_matrix_ops
            if state_kind == "empty":
                return
            if state_kind == "diag":
                cols = tuple(state)
                vbuf = self._register_buf(
                    lambda B, P=self.P: np.empty((B, P))
                )

                def build_vec(g, ctx, cols=cols, vbuf=vbuf):
                    ctx[vbuf][:] = _colsum(g, cols)

                self._builders.append(build_vec)
                self._op_makers.append(
                    lambda g, ctx, vbuf=vbuf:
                        (lambda clocks, v=ctx[vbuf]: clocks + v)
                )
            elif state_kind == "tri":
                buf = self._tri_view_buf()
                self._builders.append(self._make_tri_materialize(state, buf))
                self._emit_matrix_op(buf)
                n_matrix_ops += 1
                mat_buf = buf
            elif state_kind == "densep":
                buf = self._neginf_buf()
                self._builders.append(
                    self._make_dense_materialize(
                        dense_base, tuple(dense_cols), tuple(dense_rows), buf
                    )
                )
                self._emit_matrix_op(buf)
                n_matrix_ops += 1
                mat_buf = buf
            elif state_kind == "mat":
                self._emit_matrix_op(state)
                n_matrix_ops += 1
                mat_buf = state
            state = None
            state_kind = "empty"
            dense_base = None
            dense_cols = []
            dense_rows = []

        for si, section in enumerate(sections):
            kind = kinds[si]
            spec = self._col_specs[si]
            c0 = spec[4]
            if kind == _DIAG:
                if state_kind == "empty":
                    state = [c0]
                    state_kind = "diag"
                elif state_kind == "diag":
                    state.append(c0)
                elif state_kind == "tri":
                    state.fold_outer_diag(c0)
                elif state_kind == "densep":
                    dense_rows.append(c0)
                else:  # mat
                    buf = state

                    def fold_diag(g, ctx, buf=buf, c0=c0):
                        M = ctx[buf][0] if isinstance(ctx[buf], tuple) \
                            else ctx[buf]
                        M += g[:, :, c0][:, :, None]

                    self._builders.append(fold_diag)
            elif kind == _TRI:
                tri = _TriState(c0, c0 + 1, c0 + 2)
                if state_kind == "empty":
                    state = tri
                    state_kind = "tri"
                elif state_kind == "diag":
                    tri.fold_inner_diag(state)
                    state = tri
                    state_kind = "tri"
                elif state_kind == "tri":
                    # Materialize the pending exchange, then fold this
                    # one onto it with banded row updates.
                    buf = self._tri_view_buf()
                    self._builders.append(
                        self._make_tri_materialize(state, buf)
                    )
                    if tri_fold_bufs is None:
                        tri_fold_bufs = (
                            self._neginf_buf(), self._neginf_buf()
                        )
                    self._builders.append(
                        self._make_tri_fold(tri, buf, tri_fold_bufs)
                    )
                    state = buf
                    state_kind = "mat"
                elif state_kind == "mat":
                    if tri_fold_bufs is None:
                        tri_fold_bufs = (
                            self._neginf_buf(), self._neginf_buf()
                        )
                    self._builders.append(
                        self._make_tri_fold(tri, state, tri_fold_bufs)
                    )
                else:  # densep: no cheap banded fold onto a pending
                    # dense column structure — flush and restart.
                    flush()
                    state = tri
                    state_kind = "tri"
            elif kind == _DENSE:
                base = tl._maxplus_matrix(
                    section.comm.pattern, section.comm.message_bytes
                )
                if state_kind == "empty":
                    dense_base = base
                    dense_cols = [c0]
                    state_kind = "densep"
                elif state_kind == "diag":
                    dense_base = base
                    dense_cols = [c0] + list(state)
                    state = None
                    state_kind = "densep"
                elif state_kind == "tri":
                    buf = self._neginf_buf()
                    self._builders.append(
                        self._make_tri_dense_fuse(state, base, c0, buf)
                    )
                    state = buf
                    state_kind = "mat"
                else:  # densep or mat
                    flush()
                    dense_base = base
                    dense_cols = [c0]
                    state_kind = "densep"
            else:  # _PIPE
                flush()
                self._emit_pipe_op(section, spec)
        flush()
        if n_matrix_ops == 1 and len(self._op_makers) == 1:
            self._matrix_buf = mat_buf

    def _emit_matrix_op(self, buf: int) -> None:
        P = self.P
        if self._ops_tmp is None:
            # One (P, B, P) scratch shared by every matrix op: ops run
            # sequentially and each finishes with the scratch before
            # the next starts.
            self._ops_tmp = self._register_buf(
                lambda B, P=P: np.empty((P, B, P))
            )
        tmp_buf = self._ops_tmp
        # Each matrix op keeps its own transposed copy alive across
        # the whole walk (the shared scratch is overwritten per op).
        mt_buf = self._register_buf(lambda B, P=P: np.empty((P, B, P)))

        def make(g, ctx, buf=buf):
            entry = ctx[buf]
            M = entry[0] if isinstance(entry, tuple) else entry

            if P == 1:
                return lambda clocks: (M + clocks[:, None, :]).max(axis=2)

            # ``MT[k, b, n] = M[b, n, k]``: one strided copy per
            # execute; every iteration then adds and folds over
            # contiguous slices (see _walk_fused).
            MT = ctx[mt_buf]
            np.copyto(MT, M.transpose(2, 0, 1))
            tmp = ctx[tmp_buf]
            tviews = [tmp[k] for k in range(P)]

            def op(clocks):
                np.add(MT, clocks.T[:, :, None], out=tmp)
                # Unrolled k-axis max: identical fold order to
                # ``.max(axis=2)`` at a fraction of the dispatch cost.
                out = np.maximum(tviews[0], tviews[1])
                for k in range(2, P):
                    np.maximum(out, tviews[k], out=out)
                return out

            return op

        self._op_makers.append(make)

    def _emit_pipe_op(self, section, spec) -> None:
        """A pipeline walk op with the clock-independent prefix sums
        hoisted into the builder (the arithmetic replays
        :meth:`SectionTimeline._pipeline_arrays_batch` exactly)."""
        _, _, lo, hi, c0 = spec
        tiles = hi - lo
        P = self.P
        micro = self._model.inputs.micro
        os_ = micro.send_overhead
        or_ = micro.recv_overhead
        x = self._timeline._transfer(section.comm.message_bytes)
        pre_buf = self._register_buf(
            lambda B, P=P, tiles=tiles: np.empty((P, B, tiles))
        )
        off_buf = self._register_buf(
            lambda B, P=P, tiles=tiles: np.empty((P, B, tiles))
        )

        def build_prefix(g, ctx, c0=c0, tiles=tiles):
            prefix = ctx[pre_buf]
            offsets = ctx[off_buf]
            for n in range(P):
                cost = g[:, n, c0:c0 + tiles].astype(np.float64, copy=True)
                if n < P - 1:
                    cost += os_
                if n > 0:
                    cost += or_
                np.cumsum(cost, axis=1, out=prefix[n])
                offsets[n, :, 0] = 0.0
                offsets[n, :, 1:] = prefix[n, :, :-1]

        self._builders.append(build_prefix)

        def make_op(g, ctx):
            prefix = ctx[pre_buf]
            offsets = ctx[off_buf]

            def pipe(clocks):
                B = clocks.shape[0]
                end = np.empty((B, P))
                upstream = None
                for n in range(P):
                    if upstream is None:
                        now = clocks[:, n, None] + prefix[n]
                    else:
                        frontier = np.maximum.accumulate(
                            upstream - offsets[n], axis=1
                        )
                        now = prefix[n] + np.maximum(
                            clocks[:, n, None], frontier
                        )
                    if n < P - 1:
                        upstream = now + x
                    end[:, n] = now[:, -1]
                return end

            return pipe

        self._op_makers.append(make_op)

    def _make_tri_materialize(self, tri: _TriState, buf: int) -> Callable:
        P = self.P
        dterms = tuple(tri.dterms)
        lterms = tuple(tri.lterms)
        rterms = tuple(tri.rterms)

        def build(g, ctx):
            M, diag_v, sub_v, sup_v = ctx[buf]
            # Later folds mutate M in place, so the off-band cells must
            # be re-cleared on every build, not just at allocation.
            M.fill(-np.inf)
            diag_v[:] = _band(g, dterms, P)
            sub_v[:] = _band(g, lterms, P - 1)
            sup_v[:] = _band(g, rterms, P - 1)

        return build

    def _make_tri_fold(
        self, tri: _TriState, mbuf: int, scratch: Tuple[int, int]
    ) -> Callable:
        """Fold a tridiagonal section *onto* a materialized matrix:
        ``new[n, j] = max(D[n] + M[n, j], L[n-1] + M[n-1, j],
        R[n] + M[n+1, j])`` via three banded row updates (edge rows of
        the scratch buffers stay -inf from allocation)."""
        P = self.P
        dterms = tuple(tri.dterms)
        lterms = tuple(tri.lterms)
        rterms = tuple(tri.rterms)
        s1, s2 = scratch

        def build(g, ctx):
            entry = ctx[mbuf]
            M = entry[0] if isinstance(entry, tuple) else entry
            D = _band(g, dterms, P)
            L = _band(g, lterms, P - 1)
            R = _band(g, rterms, P - 1)
            t1 = ctx[s1]
            t2 = ctx[s2]
            np.add(M[:, :-1, :], L[:, :, None], out=t1[:, 1:, :])
            np.add(M[:, 1:, :], R[:, :, None], out=t2[:, :-1, :])
            np.add(M, D[:, :, None], out=M)
            np.maximum(M, t1, out=M)
            np.maximum(M, t2, out=M)

        return build

    def _make_tri_dense_fuse(
        self, tri: _TriState, base: np.ndarray, ts_col: int, buf: int
    ) -> Callable:
        """The fused collective-after-exchange build (e.g. Jacobi's
        reduction after its boundary exchange): the composed matrix's
        column ``j`` only sees the exchange matrix's three band values
        of node ``j``, so the ``(B, P, P, P)`` generic composition
        collapses to three broadcast adds and two maxima."""
        P = self.P
        dterms = tuple(tri.dterms)
        lterms = tuple(tri.lterms)
        rterms = tuple(tri.rterms)
        # Constant-fold the three base alignments into contiguous
        # copies, and pre-register the band work buffers with both
        # broadcast views (row-major and transposed): the hot build is
        # then six out= ufunc calls.
        base3 = np.ascontiguousarray(base[None, :, :])
        base_sup = np.ascontiguousarray(base[None, :, 1:])
        base_sub = np.ascontiguousarray(base[None, :, : P - 1])

        def _wband(width: int) -> int:
            def f(B: int, width: int = width) -> tuple:
                w = np.empty((B, width))
                return w, w[:, None, :], w.T[:, :, None]

            return self._register_buf(f)

        w0buf = _wband(P)
        w1wbuf = _wband(P - 1)
        w2wbuf = _wband(P - 1)

        def _sup(B: int, P: int = P) -> tuple:
            t = np.full((B, P, P), -np.inf)
            return t, t[:, :, : P - 1]

        def _sub(B: int, P: int = P) -> tuple:
            t = np.full((B, P, P), -np.inf)
            return t, t[:, :, 1:]

        w1buf = self._register_buf(_sup)
        w2buf = self._register_buf(_sub)

        def build(g, ctx):
            M = ctx[buf]
            t1, t1s = ctx[w1buf]
            t2, t2s = ctx[w2buf]
            w0 = ctx[w0buf]
            w1 = ctx[w1wbuf]
            w2 = ctx[w2wbuf]
            ts = g[:, :, ts_col]
            np.add(ts, _band(g, dterms, P), out=w0[0])
            np.add(ts[:, 1:], _band(g, lterms, P - 1), out=w1[0])
            np.add(ts[:, : P - 1], _band(g, rterms, P - 1), out=w2[0])
            np.add(base3, w0[1], out=M)
            np.add(base_sup, w1[1], out=t1s)
            np.add(base_sub, w2[1], out=t2s)
            np.maximum(M, t1, out=M)
            np.maximum(M, t2, out=M)

        def make_transposed(mt_buf: int) -> Callable:
            """Specialized variant writing the walk's ``(P, B, P)``
            transposed matrix directly — every output of the six ufunc
            calls is contiguous and the walk skips its transpose copy.
            Values are identical element for element (the same three
            pairwise maxima of the same sums), only the layout differs.
            """
            baseT3 = np.ascontiguousarray(base.T[:, None, :])
            base_supT = np.ascontiguousarray(base.T[1:, None, :])
            base_subT = np.ascontiguousarray(base.T[: P - 1, None, :])

            def _edge(drop_last: bool):
                def f(B: int, P: int = P, drop_last: bool = drop_last
                      ) -> tuple:
                    t = np.full((P, B, P), -np.inf)
                    return t, (t[: P - 1] if drop_last else t[1:])

                return self._register_buf(f)

            t1tbuf = _edge(True)
            t2tbuf = _edge(False)

            def build_t(g, ctx):
                MT = ctx[mt_buf]
                t1, t1s = ctx[t1tbuf]
                t2, t2s = ctx[t2tbuf]
                w0 = ctx[w0buf]
                w1 = ctx[w1wbuf]
                w2 = ctx[w2wbuf]
                ts = g[:, :, ts_col]
                np.add(ts, _band(g, dterms, P), out=w0[0])
                np.add(ts[:, 1:], _band(g, lterms, P - 1), out=w1[0])
                np.add(ts[:, : P - 1], _band(g, rterms, P - 1), out=w2[0])
                np.add(baseT3, w0[2], out=MT)
                np.add(base_supT, w1[2], out=t1s)
                np.add(base_subT, w2[2], out=t2s)
                np.maximum(MT, t1, out=MT)
                np.maximum(MT, t2, out=MT)

            return build_t

        build.make_transposed = make_transposed
        return build

    def _make_dense_materialize(
        self,
        base: np.ndarray,
        cols: Tuple[int, ...],
        rows: Tuple[int, ...],
        buf: int,
    ) -> Callable:
        def build(g, ctx):
            M = ctx[buf]
            np.add(base[None, :, :], _colsum(g, cols)[:, None, :], out=M)
            if rows:
                M += _colsum(g, rows)[:, :, None]

        return build

    # -- table store ----------------------------------------------------

    def _lookup(self, counts: np.ndarray) -> np.ndarray:
        if self._index is not None:
            return self._index[self._nodes, counts]
        idx = np.empty(counts.shape, dtype=np.int64)
        get = self._index_dict.get
        B, P = counts.shape
        for b in range(B):
            row = counts[b]
            for n in range(P):
                idx[b, n] = get((n, int(row[n])), -1)
        return idx

    def _fill_missing(self, counts: np.ndarray, idx: np.ndarray) -> None:
        """Insert every store row the batch lacks: distinct missing
        ``(node, rows)`` pairs come from the model's table LRU, and its
        misses are built in one batched table pass."""
        b, n = np.nonzero(idx < 0)
        pairs = sorted(set(zip(n.tolist(), counts[b, n].tolist())))
        model = self._model
        flat = model._tables(*zip(*pairs), model._tables_cache)
        T = model._total_tiles
        for (n, r), entry in zip(pairs, flat):
            self._insert(n, r, entry[:T], entry[2 * T:])

    def _insert(self, n: int, rows: int, totals, source) -> None:
        if self._used >= MAX_STORE_ROWS:
            # Reset rather than grow without bound; the model's table
            # LRU keeps the expensive closed-form work warm.
            if self._index is not None:
                self._index.fill(-1)
            else:
                self._index_dict.clear()
            self._used = 0
            self.store_resets += 1
        if self._used == self._data.shape[0]:
            grown = np.empty(
                (min(self._data.shape[0] * 2, MAX_STORE_ROWS), self.n_cols)
            )
            grown[: self._used] = self._data[: self._used]
            self._data = grown
        vec = self._data[self._used]
        for kind, si, lo, hi, c0 in self._col_specs:
            if kind == _TRI:
                consts = self._nn_consts[si]
                ts = totals[lo]
                post = source[si] + consts["os"]
                local = ts + consts["post_mult"][n] * post
                vec[c0] = local + consts["or12"][n]
                vec[c0 + 1] = local + consts["left_add"][n]
                vec[c0 + 2] = (ts + post) + consts["right_add"]
            elif kind == _PIPE:
                vec[c0:c0 + (hi - lo)] = totals[lo:hi]
            elif hi - lo == 1:
                vec[c0] = totals[lo]
            else:
                # P == 1 pipeline folded to a diagonal: section total is
                # the tile sum, matching the batch kernel's axis sum.
                vec[c0] = totals[lo:hi].sum()
        if self._index is not None:
            self._index[n, rows] = self._used
        else:
            self._index_dict[(n, rows)] = self._used
        self._used += 1

    # -- execution ------------------------------------------------------

    def execute(self, counts: np.ndarray, n_iter: int) -> np.ndarray:
        """Score a validated ``(B, P)`` int64 candidate matrix; returns
        the ``(B,)`` predicted totals (slowest node per candidate)."""
        B = counts.shape[0]
        self.executes += 1
        key = counts.tobytes()
        g = self._g_memo.get(key)
        if g is None:
            idx = self._lookup(counts)
            if idx.min() < 0:
                self._fill_missing(counts, idx)
                idx = self._lookup(counts)
            # ``mode="clip"`` skips bounds checks — every index is
            # valid after the fill above.
            g = self._data.take(idx, axis=0, mode="clip")
            if B <= 64:  # bound the memo's footprint
                if len(self._g_memo) >= 8:
                    self._g_memo.pop(next(iter(self._g_memo)))
                self._g_memo[key] = g
        ctx = self._ctx(B)
        for builder in self._builders:
            builder(g, ctx)
        if self._matrix_buf is not None:
            if self._matrix_transposed:
                M = None
            else:
                entry = ctx[self._matrix_buf]
                M = entry[0] if isinstance(entry, tuple) else entry
            walk = _numba_walk
            if walk is not None:
                try:
                    # The jitted walk wants ``(B, n, k)`` indexing; the
                    # transposed build hands it a strided view.
                    nM = (ctx[self._walk_mt].transpose(1, 2, 0)
                          if M is None else M)
                    totals = walk(nM, n_iter)
                except Exception:
                    totals = self._walk_fused(M, n_iter, ctx)
            else:
                totals = self._walk_fused(M, n_iter, ctx)
        else:
            ops = [make(g, ctx) for make in self._op_makers]
            totals = self._walk_ops(ops, n_iter, B)
        P = self.P
        if P == 1:
            return totals[:, 0].copy()
        # Pairwise-halving max over nodes (totals is walk scratch).
        m = P
        while m > 2:
            h = m // 2
            np.maximum(
                totals[:, : m - h], totals[:, h:m], out=totals[:, : m - h]
            )
            m -= h
        return np.maximum(totals[:, 0], totals[:, 1])

    def _walk_fused(self, M: np.ndarray, n_iter: int, ctx: list
                    ) -> np.ndarray:
        """Single-matrix steady-state walk over rotating buffers.

        Per-candidate freezing replays
        :meth:`MhetaModel._steady_walk_batch` term for term: the same
        tolerance expression, the same ``last + steady * k``
        extrapolation, the same final fallback.
        """
        wb = self._walk_bufs
        cbufs = tuple(ctx[i] for i in self._walk_clocks)
        s0, s1 = ctx[wb[0]], ctx[wb[1]]
        absb, diffb, tolb = ctx[wb[2]], ctx[wb[3]], ctx[wb[4]]
        # ``MT[k, b, n] = M[b, n, k]``: one strided copy per execute
        # buys contiguous reads for every iteration's add and fold.
        # ``M is None`` means the transposed build already wrote it.
        MT = ctx[self._walk_mt]
        if M is not None:
            np.copyto(MT, M.transpose(2, 0, 1))
        P, B = MT.shape[0], MT.shape[1]
        tmp, tviews = ctx[self._walk_tmp]
        totals = np.empty((B, P))
        cur, curT = cbufs[0]
        cur.fill(0.0)
        last = None
        second_last = None
        steady_now = None
        prev_steady = None
        active: Optional[np.ndarray] = None
        ci = 0
        si = 0
        simulate = 0
        while simulate < n_iter:
            ci = (ci + 1) % 3
            nxt, nxtT = cbufs[ci]
            np.add(MT, curT, out=tmp)
            # Pairwise-halving k-axis max: numpy's reduce machinery
            # costs ~4x more than explicit maxima on these tiny
            # arrays, and halving folds P slabs in ceil(log2 P) calls
            # (max is exact, so any association is bit-identical).
            # Matrix mode implies P >= 2 (P == 1 lowers every section
            # to a diagonal column, never to a matrix).
            m = P
            while m > 2:
                h = m // 2
                np.maximum(tmp[: m - h], tmp[h:m], out=tmp[: m - h])
                m -= h
            np.maximum(tviews[0], tviews[1], out=nxt)
            second_last, last = last, nxt
            cur, curT = nxt, nxtT
            simulate += 1
            if second_last is None:
                continue
            steady_now = (s0, s1)[si]
            si ^= 1
            np.subtract(last, second_last, out=steady_now)
            if prev_steady is not None:
                np.subtract(steady_now, prev_steady, out=diffb)
                np.abs(diffb, out=diffb)
                # Certain-convergence shortcut: the tolerance is
                # ``_ATOL + _RTOL * |prev|`` >= ``_ATOL`` everywhere,
                # so a max abs diff within ``_ATOL`` proves every
                # candidate converged this iteration — same freeze
                # point, same extrapolation, without the elementwise
                # tolerance machinery.
                if active is None and diffb.max() <= _ATOL:
                    np.multiply(steady_now, n_iter - simulate, out=diffb)
                    np.add(last, diffb, out=totals)
                    return totals
                np.multiply(absb, _RTOL, out=tolb)
                tolb += _ATOL
                converged = (diffb <= tolb).all(axis=1)
                if converged.any():
                    if active is None and converged.all():
                        np.multiply(
                            steady_now, n_iter - simulate, out=diffb
                        )
                        np.add(last, diffb, out=totals)
                        return totals
                    if active is None:
                        active = np.ones(B, dtype=bool)
                    newly = active & converged
                    if newly.any():
                        totals[newly] = (
                            last[newly]
                            + steady_now[newly] * (n_iter - simulate)
                        )
                        active[newly] = False
                        if not active.any():
                            return totals
            prev_steady = steady_now
            np.abs(steady_now, out=absb)
        if active is None:
            totals[:] = last
        else:
            totals[active] = last[active]
        return totals

    def _walk_ops(self, ops, n_iter: int, B: int) -> np.ndarray:
        """Generic walk for multi-op plans (collective chains,
        pipelines) — the exact control flow of
        :meth:`MhetaModel._steady_walk_batch`."""
        P = self.P
        clocks = np.zeros((B, P))
        totals = np.empty((B, P))
        active = np.ones(B, dtype=bool)
        frozen_none = True
        second_last = None
        last = None
        prev_steady = None
        simulate = 0
        while simulate < n_iter:
            for op in ops:
                clocks = op(clocks)
            second_last, last = last, clocks
            simulate += 1
            if second_last is not None:
                steady_now = last - second_last
                if prev_steady is not None:
                    diff = np.abs(steady_now - prev_steady)
                    # Certain-convergence shortcut (see _walk_fused):
                    # a max abs diff within ``_ATOL`` converges every
                    # candidate at this same freeze point.
                    if frozen_none and diff.max() <= _ATOL:
                        totals[:] = last
                        totals += steady_now * (n_iter - simulate)
                        return totals
                    converged = (
                        diff <= _ATOL + _RTOL * np.abs(prev_steady)
                    ).all(axis=1)
                    newly = active & converged
                    if newly.any():
                        frozen_none = False
                        totals[newly] = (
                            last[newly]
                            + steady_now[newly] * (n_iter - simulate)
                        )
                        active[newly] = False
                        if not active.any():
                            return totals
                prev_steady = steady_now
        totals[active] = last[active]
        return totals

    @property
    def stats(self) -> dict:
        """Per-plan diagnostics (store occupancy, execute count)."""
        return {
            "mode": "matrix" if self._matrix_buf is not None else "ops",
            "store_rows": self._used,
            "store_resets": self.store_resets,
            "executes": self.executes,
            "columns": self.n_cols,
        }


# -- process-wide plan cache --------------------------------------------------

_plan_cache = LRUCache(DEFAULT_PLAN_CACHE_ENTRIES, threadsafe=True)
_compiles = 0
_compile_seconds = 0.0


def get_plan(
    model,
    telemetry: Optional[Recorder] = None,
    *,
    key: Optional[str] = None,
    factory: Optional[Callable] = None,
):
    """The compiled plan for ``model``'s triple: a cache hit when an
    equivalent model (same structure fingerprint) compiled one earlier
    in this process, otherwise a fresh compile under
    ``span/plan/compile``.

    ``key`` and ``factory`` let other plan kinds (the 2-D kernel's
    :class:`repro.twod.plan2d.EvaluationPlan2D`) share this same
    process-wide LRU, compile telemetry, and numba resolution: ``key``
    defaults to ``model.fingerprint`` and ``factory`` to
    :class:`EvaluationPlan`.
    """
    global _compiles, _compile_seconds
    if key is None:
        key = model.fingerprint
    plan = _plan_cache.get(key)
    if plan is None:
        build = factory if factory is not None else EvaluationPlan
        _resolve_numba_walk()
        t0 = time.perf_counter()
        if telemetry:
            with telemetry.span("plan/compile"):
                plan = build(model)
        else:
            plan = build(model)
        dt = time.perf_counter() - t0
        _compiles += 1
        _compile_seconds += dt
        _plan_cache.put(key, plan)
        if telemetry:
            telemetry.count("model/plan_cache/compiles")
    return plan


def discard_plan(fingerprint: str) -> bool:
    """Drop one compiled plan (resident-model eviction); returns
    whether an entry was present."""
    return _plan_cache.pop(fingerprint, None) is not None


def plan_cache_stats() -> dict:
    """Hit/miss/compile counters of the process-wide plan cache, in the
    same shape the table-LRU counters use (plus compile totals)."""
    stats = _plan_cache.stats
    stats["compiles"] = _compiles
    stats["compile_seconds"] = _compile_seconds
    stats["numba_active"] = numba_active()
    return stats


def reset_plan_cache() -> None:
    """Clear the plan cache and counters (tests and benchmarks)."""
    global _compiles, _compile_seconds
    _plan_cache.clear()
    _plan_cache.hits = 0
    _plan_cache.misses = 0
    _plan_cache.evictions = 0
    _compiles = 0
    _compile_seconds = 0.0
