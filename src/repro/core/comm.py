"""Analytical communication timelines (Equations 3-5, generalised).

The paper derives, for two nodes, the blocked time ``w(i, m)`` of a
nearest-neighbour exchange (Equation 3) and the per-tile pipeline wait
``w(i, m, t)`` (Equation 4), combining them with send/receive overheads
into the section communication cost (Equation 5); reductions and the
n-node generalisations live in the dissertation [25].

:class:`SectionTimeline` evaluates those generalisations directly as
max-plus recurrences over per-node timestamps — the exact analytical
mirror of the runtime's message schedule (sends posted in neighbour
order, binomial reduce + broadcast, ring allgather).  For two nodes the
recurrences collapse to the printed equations; the unit tests verify
both that collapse and exact agreement with the discrete-event emulator
when all perturbations are disabled.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.instrument.microbench import Microbenchmarks
from repro.program.sections import CommPattern

__all__ = [
    "SectionTimeline",
    "maxplus_compose_batch",
    "nearest_neighbor_wait",
    "pipeline_waits",
]


def maxplus_compose_batch(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Max-plus matrix product over a leading candidate axis: ``outer``
    and ``inner`` are ``(B, P, P)`` stacks of per-candidate section
    matrices, and ``(outer o inner)[b, n, j] = max_k(outer[b, n, k] +
    inner[b, k, j])`` is the matrix of "apply ``inner``, then
    ``outer``".  Absent edges are ``-inf``.  Candidates never mix, so
    each slice is exactly the product of that candidate alone."""
    return (outer[:, :, :, None] + inner[:, None, :, :]).max(axis=2)


def nearest_neighbor_wait(
    own_ready: float, sender_done: float, transfer: float
) -> float:
    """Paper Equation 3 for one message: the receiver blocks only if it
    is ready before the message arrives.

    ``own_ready`` — when the receiver finished its stages and its own
    send; ``sender_done`` — when the sender finished posting the message
    (stages + its send overhead); ``transfer`` — in-flight time ``X(m)``.
    """
    return max(0.0, sender_done + transfer - own_ready)


def pipeline_waits(
    sender_tile_seconds: Sequence[float],
    receiver_tile_seconds: Sequence[float],
    send_overhead: float,
    recv_overhead: float,
    transfer: float,
) -> List[float]:
    """Paper Equation 4: per-tile blocked times of the downstream node in
    a two-node pipeline.  The upstream node never blocks.

    Tile ``t``'s message is en route once the sender finishes tiles
    ``1..t`` (each costing its stage time plus the send overhead); the
    receiver is ready once it has waited for, received, and processed
    tiles ``1..t-1``.
    """
    if len(sender_tile_seconds) != len(receiver_tile_seconds):
        raise ModelError("pipeline tile counts differ between nodes")
    waits: List[float] = []
    sender_clock = 0.0
    receiver_clock = 0.0
    for t, (ts_send, ts_recv) in enumerate(
        zip(sender_tile_seconds, receiver_tile_seconds)
    ):
        sender_clock += ts_send + send_overhead
        arrival = sender_clock + transfer
        wait = max(0.0, arrival - receiver_clock)
        waits.append(wait)
        receiver_clock += wait + recv_overhead + ts_recv
    return waits


class SectionTimeline:
    """Advance per-node clocks across one parallel section.

    All methods take ``start`` (per-node clock at section entry) and the
    per-node, per-tile stage times, and return the per-node clock at
    section exit (after the closing communication).
    """

    def __init__(self, micro: Microbenchmarks, n_nodes: int) -> None:
        self._micro = micro
        self.n_nodes = n_nodes
        # Interior nodes of the 1-D neighbour chain post two messages
        # (left then right); the ends post one.
        self._nn_post_mult = np.full(n_nodes, 2.0)
        self._nn_post_mult[[0, -1]] = 1.0
        or_ = micro.recv_overhead
        or1 = np.full(n_nodes, or_)
        or1[0] = 0.0  # no left neighbour to receive from
        or2 = np.full(n_nodes, or_)
        or2[-1] = 0.0  # no right neighbour to receive from
        self._nn_or12 = or1 + or2
        self._nn_or2_tail = or_ + or2[1:]
        # Flat positions of the diagonal, sub-diagonal and
        # super-diagonal, for scattering tridiagonal matrices.
        idx = self._idx = np.arange(n_nodes)
        self._tri_flat = np.concatenate(
            (
                idx * n_nodes + idx,
                idx[1:] * n_nodes + idx[:-1],
                idx[:-1] * n_nodes + idx[1:],
            )
        )
        # Collective schedules are data-independent, so each collective
        # is a max-plus linear map of the clocks; its P x P matrix is
        # extracted once per (pattern, message size) and cached here.
        # The key set is tiny: one entry per distinct communicating
        # section of the program.
        self._maxplus: Dict[Tuple[CommPattern, float], np.ndarray] = {}

    # -- helpers ------------------------------------------------------------

    def _transfer(self, nbytes: float) -> float:
        return self._micro.transfer_seconds(nbytes)

    # -- patterns ------------------------------------------------------------

    def advance(
        self,
        pattern: CommPattern,
        start: Sequence[float],
        tile_seconds: Sequence[Sequence[float]],
        message_bytes: float,
        source_read_seconds: Sequence[float],
    ) -> List[float]:
        """Dispatch on the communication pattern.

        ``tile_seconds[n][t]`` — node ``n``'s computation+I/O time for
        tile ``t``; ``source_read_seconds[n]`` — the disk read required
        to materialise one outgoing message on node ``n`` (0 when the
        source array is in core or absent).
        """
        if len(start) != self.n_nodes or len(tile_seconds) != self.n_nodes:
            raise ModelError("timeline inputs do not match node count")
        if self.n_nodes == 1 or pattern in (CommPattern.NONE,):
            return [
                s + sum(ts) for s, ts in zip(start, tile_seconds)
            ]
        if pattern is CommPattern.PIPELINE:
            return self._pipeline(start, tile_seconds, message_bytes)
        stage_end = [s + sum(ts) for s, ts in zip(start, tile_seconds)]
        if pattern is CommPattern.NEAREST_NEIGHBOR:
            return self._nearest_neighbor(
                stage_end, message_bytes, source_read_seconds
            )
        if pattern is CommPattern.REDUCTION:
            return self._reduce_broadcast(stage_end, message_bytes)
        if pattern is CommPattern.ALLGATHER:
            return self._allgather(stage_end, message_bytes)
        raise ModelError(f"unknown communication pattern: {pattern}")

    # -- max-plus collective matrices ----------------------------------------
    #
    # Every collective here applies only ``max`` and ``+ constant`` to
    # the clocks on a schedule that never depends on the clock values,
    # so the whole collective is a linear map in the (max, +) semiring:
    # ``end[n] = max_j(clocks[j] + A[n, j])``.  Because rounding is
    # monotone, ``max(a, b) + c == max(a + c, b + c)`` holds *exactly*
    # in floating point, so applying the matrix agrees with replaying
    # the schedule up to the association of the per-hop overhead sums
    # (a few ulp).  ``A`` is extracted by pushing the max-plus basis
    # vectors (0 at one node, -inf elsewhere) through the scalar
    # schedule replay once, then every advance costs two array
    # operations instead of a Python-level tree walk.

    def _maxplus_matrix(
        self, pattern: CommPattern, nbytes: float
    ) -> np.ndarray:
        key = (pattern, nbytes)
        A = self._maxplus.get(key)
        if A is None:
            replay = (
                self._reduce_broadcast
                if pattern is CommPattern.REDUCTION
                else self._allgather
            )
            P = self.n_nodes
            A = np.empty((P, P))
            for j in range(P):
                basis = [-np.inf] * P
                basis[j] = 0.0
                A[:, j] = replay(basis, nbytes)
            self._maxplus[key] = A
        return A

    def _nn_bands(
        self,
        nbytes: float,
        source_read: np.ndarray,
        tile_sums: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Band vectors of the neighbour exchange's tridiagonal max-plus
        matrix (self / from-left / from-right), derived by distributing
        the receive overheads over the two receive steps of
        :meth:`_nearest_neighbor`.  ``source_read`` and ``tile_sums``
        are ``(B, P)``; every operation is elementwise or a node-axis
        slice, so candidates never mix.
        """
        os_ = self._micro.send_overhead
        or_ = self._micro.recv_overhead
        x = self._transfer(nbytes)
        post = source_read + os_
        selfc = self._nn_post_mult * post
        local = tile_sums + selfc
        diag = local + self._nn_or12
        # from_left[k] pairs clocks[k] with end[k + 1]; the message
        # leaves after the sender's posts and arrives before both of
        # the receiver's receive steps.
        from_left = local[..., :-1] + (x + self._nn_or2_tail)
        # from_right[k] pairs clocks[k + 1] with end[k]; the right
        # neighbour's *first* post feeds it, and only the second
        # receive step's overhead applies.
        from_right = (tile_sums + post)[..., 1:] + (x + or_)
        return diag, from_left, from_right

    # -- batched sections (the model's prediction path) ---------------------
    #
    # A whole population of candidate distributions advances together:
    # clocks are ``(B, P)`` arrays, section matrices ``(B, P, P)``
    # stacks; a single prediction is a batch of one.  Candidates never
    # mix (no reduction runs across the batch axis), so slice ``b`` of
    # every result depends on candidate ``b`` alone.  The array forms
    # agree with the scalar replays above to rounding: only the
    # association of sums differs.

    def compile_matrix_batch(
        self,
        pattern: CommPattern,
        message_bytes: float,
        source_read: np.ndarray,
        tile_sums: np.ndarray,
    ) -> Optional[np.ndarray]:
        """The ``(B, P, P)`` stack of one section's per-candidate
        max-plus matrices (``end[b, n] = max_j(clocks[b, j] + A[b, n,
        j])``), or ``None`` for patterns with no clock-independent
        matrix (the pipeline's waits depend on per-tile interleaving).

        ``source_read`` and ``tile_sums`` are ``(B, P)`` — one row per
        candidate distribution.  Consecutive section matrices compose
        with :func:`maxplus_compose_batch` into one per-iteration matrix.
        """
        P = self.n_nodes
        B = tile_sums.shape[0]
        if P == 1 or pattern is CommPattern.NONE:
            A = np.full((B, P, P), -np.inf)
            idx = self._idx
            A[:, idx, idx] = tile_sums
            return A
        if pattern is CommPattern.PIPELINE:
            return None
        if pattern in (CommPattern.REDUCTION, CommPattern.ALLGATHER):
            base = self._maxplus_matrix(pattern, message_bytes)
            return base[None, :, :] + tile_sums[:, None, :]
        if pattern is CommPattern.NEAREST_NEIGHBOR:
            diag, from_left, from_right = self._nn_bands(
                message_bytes, source_read, tile_sums
            )
            A = np.full((B, P, P), -np.inf)
            A.reshape(B, P * P)[:, self._tri_flat] = np.concatenate(
                (diag, from_left, from_right), axis=1
            )
            return A
        raise ModelError(f"unknown communication pattern: {pattern}")

    def compile_advance_batch(
        self,
        pattern: CommPattern,
        tile_seconds: np.ndarray,
        message_bytes: float,
    ) -> Callable[[np.ndarray], np.ndarray]:
        """A ``clocks -> clocks`` closure for the patterns that have no
        max-plus matrix — only the pipeline.  ``tile_seconds`` is
        ``(B, P, tiles)``; the closure maps ``(B, P)`` clocks."""
        if pattern is CommPattern.PIPELINE:
            return lambda clocks: self._pipeline_batch(
                clocks, tile_seconds, message_bytes
            )
        raise ModelError(
            f"pattern {pattern} compiles to a matrix, not an advance"
        )

    def _pipeline_batch(
        self, start: np.ndarray, tile_seconds: np.ndarray, nbytes: float
    ) -> np.ndarray:
        """Equation 4 as a per-node prefix scan over tiles.

        Node ``n``'s recurrence ``now_t = max(now_{t-1}, d_t) + c_t``
        (arrival ``d_t`` from upstream, local cost ``c_t``) has the
        closed form ``now_t = C_t + max(start, max_{j<=t}(d_j -
        C_{j-1}))`` with ``C`` the prefix sums of ``c`` — one cumsum and
        one ``maximum.accumulate`` along the tile axis of a ``(B,
        tiles)`` slab per node instead of a tiles x nodes Python loop.
        """
        P = self.n_nodes
        os_ = self._micro.send_overhead
        or_ = self._micro.recv_overhead
        x = self._transfer(nbytes)
        B, nodes, tiles = tile_seconds.shape
        if nodes != P:
            raise ModelError("timeline inputs do not match node count")
        end = np.empty((B, P))
        upstream_arrival: Optional[np.ndarray] = None
        for n in range(P):
            cost = tile_seconds[:, n, :].astype(np.float64, copy=True)
            if n < P - 1:
                cost += os_
            if n > 0:
                cost += or_
            prefix = np.cumsum(cost, axis=1)
            if upstream_arrival is None:
                now = start[:, n, None] + prefix
            else:
                offsets = np.empty((B, tiles))
                offsets[:, 0] = 0.0
                offsets[:, 1:] = prefix[:, :-1]
                frontier = np.maximum.accumulate(
                    upstream_arrival - offsets, axis=1
                )
                now = prefix + np.maximum(start[:, n, None], frontier)
            if n < P - 1:
                upstream_arrival = now + x
            end[:, n] = now[:, -1]
        return end

    def _nearest_neighbor(
        self,
        stage_end: Sequence[float],
        nbytes: float,
        source_read: Sequence[float],
    ) -> List[float]:
        """Boundary exchange: every node posts its sends (left then
        right), then receives (left then right).  Equation 3 semantics,
        exact mirror of the runtime's message schedule."""
        P = self.n_nodes
        os_ = self._micro.send_overhead
        or_ = self._micro.recv_overhead
        x = self._transfer(nbytes)
        deliver: Dict[Tuple[int, int], float] = {}
        ready = [0.0] * P
        for n in range(P):
            t = stage_end[n]
            for nb in (n - 1, n + 1):
                if 0 <= nb < P:
                    t += source_read[n] + os_
                    deliver[(n, nb)] = t + x
            ready[n] = t
        end = list(ready)
        for n in range(P):
            t = ready[n]
            for nb in (n - 1, n + 1):
                if 0 <= nb < P:
                    t = max(t, deliver[(nb, n)]) + or_
            end[n] = t
        return end

    def _pipeline(
        self,
        start: Sequence[float],
        tile_seconds: Sequence[Sequence[float]],
        nbytes: float,
    ) -> List[float]:
        """n-node pipeline: Equation 4's recurrence per tile and node."""
        P = self.n_nodes
        os_ = self._micro.send_overhead
        or_ = self._micro.recv_overhead
        x = self._transfer(nbytes)
        tiles = len(tile_seconds[0])
        for ts in tile_seconds:
            if len(ts) != tiles:
                raise ModelError("nodes disagree on tile count")
        now = list(start)
        deliver: Dict[Tuple[int, int], float] = {}
        for t in range(tiles):
            for n in range(P):
                if n > 0:
                    now[n] = max(now[n], deliver[(n - 1, t)]) + or_
                now[n] += tile_seconds[n][t]
                if n < P - 1:
                    now[n] += os_
                    deliver[(n, t)] = now[n] + x
        return now

    def _reduce_broadcast(
        self, stage_end: Sequence[float], nbytes: float
    ) -> List[float]:
        """Binomial-tree reduce to node 0 followed by binomial broadcast
        (the dissertation's reduction, reconstructed)."""
        P = self.n_nodes
        os_ = self._micro.send_overhead
        or_ = self._micro.recv_overhead
        x = self._transfer(nbytes)
        now = list(stage_end)
        deliver: Dict[Tuple[int, int], float] = {}
        exited = [False] * P
        mask = 1
        while mask < P:
            # Senders at this level post and exit the reduce phase.
            for n in range(P):
                if not exited[n] and (n & mask):
                    now[n] += os_
                    deliver[(n, mask)] = now[n] + x
                    exited[n] = True
            for n in range(P):
                if not exited[n] and not (n & mask):
                    partner = n | mask
                    if partner < P:
                        now[n] = max(now[n], deliver[(partner, mask)]) + or_
            mask <<= 1
        pot = 1
        while pot < P:
            pot <<= 1
        mask = pot >> 1
        while mask > 0:
            for n in range(P):
                if n % (2 * mask) == 0 and n + mask < P:
                    now[n] += os_
                    deliver[(n, -mask)] = now[n] + x
            for n in range(P):
                if n % (2 * mask) == mask:
                    now[n] = max(now[n], deliver[(n - mask, -mask)]) + or_
            mask >>= 1
        return now

    def _allgather(
        self, stage_end: Sequence[float], nbytes: float
    ) -> List[float]:
        """Ring allgather: P-1 lockstep shift steps."""
        P = self.n_nodes
        os_ = self._micro.send_overhead
        or_ = self._micro.recv_overhead
        x = self._transfer(nbytes)
        now = list(stage_end)
        for step in range(P - 1):
            deliver = [0.0] * P
            for n in range(P):
                now[n] += os_
                deliver[n] = now[n] + x
            for n in range(P):
                left = (n - 1) % P
                now[n] = max(now[n], deliver[left]) + or_
        return now
