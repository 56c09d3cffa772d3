"""Property-based tests (hypothesis) for core data structures and
invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.io_model import prefetch_io_seconds, sync_io_seconds
from repro.core.comm import pipeline_waits
from repro.distribution import GenBlock, interpolate, largest_remainder_round
from repro.placement import plan_memory
from tests.event_engine import Delay, Engine, Recv, Send
from tests.conftest import make_cg_like, make_jacobi_like

COMMON = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60
)


# -- largest-remainder rounding ------------------------------------------------

shares_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1,
    max_size=16,
)


class TestRoundingProperties:
    @COMMON
    @given(shares=shares_strategy, total=st.integers(0, 100_000))
    def test_sum_is_exact(self, shares, total):
        out = largest_remainder_round(np.array(shares), total)
        assert int(out.sum()) == total
        assert (out >= 0).all()

    @COMMON
    @given(shares=shares_strategy, total=st.integers(16, 100_000))
    def test_minimum_enforced(self, shares, total):
        out = largest_remainder_round(np.array(shares), total, minimum=1)
        assert int(out.sum()) == total
        assert (out >= 1).all()

    @COMMON
    @given(
        shares=st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        total=st.integers(100, 10_000),
    )
    def test_within_one_of_exact_proportion(self, shares, total):
        arr = np.array(shares)
        out = largest_remainder_round(arr, total)
        exact = arr / arr.sum() * total
        assert np.abs(out - exact).max() < len(shares) + 1


# -- GenBlock -------------------------------------------------------------------

counts_strategy = st.lists(st.integers(0, 10_000), min_size=1, max_size=16)


class TestGenBlockProperties:
    @COMMON
    @given(counts=counts_strategy)
    def test_row_ranges_partition_rows(self, counts):
        d = GenBlock(counts)
        covered = 0
        prev_stop = 0
        for node in range(d.n_nodes):
            start, stop = d.rows_of(node)
            assert start == prev_stop
            covered += stop - start
            prev_stop = stop
        assert covered == d.n_rows

    @COMMON
    @given(counts=counts_strategy.filter(lambda c: sum(c) > 0))
    def test_owner_matches_ranges(self, counts):
        d = GenBlock(counts)
        for row in {0, d.n_rows // 2, d.n_rows - 1}:
            owner = d.owner_of(row)
            start, stop = d.rows_of(owner)
            assert start <= row < stop

    @COMMON
    @given(
        counts=counts_strategy,
        src=st.integers(0, 15),
        dst=st.integers(0, 15),
        rows=st.integers(0, 100),
    )
    def test_moved_preserves_total(self, counts, src, dst, rows):
        d = GenBlock(counts)
        src %= d.n_nodes
        dst %= d.n_nodes
        rows = min(rows, d[src])
        moved = d.moved(src, dst, rows)
        assert moved.n_rows == d.n_rows


class TestInterpolateProperties:
    @COMMON
    @given(
        a=counts_strategy,
        alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        data=st.data(),
    )
    def test_total_preserved_between_permutations(self, a, alpha, data):
        da = GenBlock(a)
        permuted = data.draw(st.permutations(list(a)))
        db = GenBlock(permuted)
        mid = interpolate(da, db, alpha)
        assert mid.n_rows == da.n_rows
        assert (mid.as_array >= 0).all()

    @COMMON
    @given(a=counts_strategy)
    def test_self_interpolation_identity(self, a):
        d = GenBlock(a)
        assert interpolate(d, d, 0.37) == d


# -- Equations -------------------------------------------------------------------


class TestEquationProperties:
    @COMMON
    @given(
        n_io=st.integers(1, 50),
        rs=st.floats(0, 0.1, allow_nan=False),
        read=st.floats(0, 10, allow_nan=False),
        overlap=st.floats(0, 10, allow_nan=False),
    )
    def test_prefetch_bounded_by_sync(self, n_io, rs, read, overlap):
        """Prefetch I/O minus its overlap charge never exceeds
        synchronous I/O, and masking is capped by the first-read floor."""
        sync = sync_io_seconds(n_io, rs, read)
        prefetch = prefetch_io_seconds(n_io, rs, read, overlap)
        # Removing the charged overlap gives pure I/O-wait <= sync.
        assert prefetch - n_io * overlap <= sync + 1e-9
        # The first read always pays full latency.
        assert prefetch >= rs * n_io + read - 1e-12

    @COMMON
    @given(
        n_io=st.integers(1, 50),
        rs=st.floats(0, 0.1, allow_nan=False),
        read=st.floats(0, 10, allow_nan=False),
    )
    def test_zero_overlap_equals_equation_1(self, n_io, rs, read):
        assert prefetch_io_seconds(n_io, rs, read, 0.0) == pytest.approx(
            sync_io_seconds(n_io, rs, read)
        )

    @COMMON
    @given(
        tiles=st.lists(st.floats(0.01, 5.0, allow_nan=False), min_size=1, max_size=12),
        overheads=st.tuples(
            st.floats(0, 0.01, allow_nan=False),
            st.floats(0, 0.01, allow_nan=False),
        ),
        transfer=st.floats(0, 0.1, allow_nan=False),
    )
    def test_pipeline_waits_nonnegative(self, tiles, overheads, transfer):
        os_, or_ = overheads
        waits = pipeline_waits(tiles, tiles, os_, or_, transfer)
        assert all(w >= 0 for w in waits)
        # First tile always waits at least the sender's first tile time.
        assert waits[0] >= tiles[0]


# -- Placement -------------------------------------------------------------------


class TestPlacementProperties:
    @COMMON
    @given(
        rows=st.integers(0, 5000),
        memory_mib=st.integers(1, 256),
    )
    def test_plan_invariants_single_variable(self, rows, memory_mib):
        program = make_jacobi_like(n_rows=max(rows, 1), cols=256)
        plan = plan_memory(program, rows, memory_mib * 2**20)
        for placement in plan.placements.values():
            assert placement.block_rows >= 1
            assert placement.n_io >= 1
            if placement.in_core:
                assert placement.ocla_bytes == 0.0
            else:
                # Blocks cover the local array exactly.
                assert placement.n_io == -(
                    -placement.local_rows // placement.block_rows
                )

    @COMMON
    @given(
        rows=st.integers(1, 5000),
        memory_mib=st.integers(1, 64),
    )
    def test_resident_never_exceeds_memory_much(self, rows, memory_mib):
        """Resident set stays within memory plus one block of slack
        (rounding a block to at least one row can overshoot)."""
        program = make_cg_like(n_rows=max(rows, 1))
        memory = memory_mib * 2**20
        plan = plan_memory(program, rows, memory)
        slack = sum(
            max(program.variable(p.name).row_bytes, 0)
            for p in plan.placements.values()
        )
        in_core_total = sum(
            p.local_bytes for p in plan.placements.values() if p.in_core
        )
        available = max(memory - program.replicated_bytes, 0)
        if in_core_total <= available:
            assert plan.resident_bytes <= available + slack + 1

    @COMMON
    @given(rows=st.integers(2, 5000))
    def test_forced_ooc_streams_everything(self, rows):
        program = make_jacobi_like(n_rows=rows, cols=64)
        plan = plan_memory(
            program, rows, 2**30, forced_out_of_core=True
        )
        placement = plan["grid"]
        assert not placement.in_core
        assert placement.n_io >= 2


# -- Engine determinism -----------------------------------------------------------


class TestEngineProperties:
    @COMMON
    @given(
        delays=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=10
        ),
        transfer=st.floats(0.0, 0.5, allow_nan=False),
    )
    def test_ping_pong_total_time(self, delays, transfer):
        """A strictly alternating ping-pong's end time equals the sum of
        all delays plus per-hop transfers, independent of scheduling."""

        def left():
            for i, d in enumerate(delays):
                yield Delay(d)
                yield Send(1, f"m{i}", transfer=transfer)
                yield Recv(1, f"r{i}")

        def right():
            for i, d in enumerate(delays):
                yield Recv(0, f"m{i}")
                yield Delay(d)
                yield Send(0, f"r{i}", transfer=transfer)

        engine = Engine()
        engine.add_process(left(), 0)
        engine.add_process(right(), 1)
        total = engine.run()
        expected = 2 * sum(delays) + 2 * len(delays) * transfer
        assert total == pytest.approx(expected)
