"""Unit tests for repro.distribution (GenBlock, factories, spectrum, ops)."""

import numpy as np
import pytest

from repro.distribution import (
    GenBlock,
    balanced,
    block,
    distribution_distance,
    in_core,
    in_core_balanced,
    in_core_capacity_rows,
    in_core_flags,
    interpolate,
    largest_remainder_round,
    redistribution_bytes,
    spectrum,
)
from repro.distribution.spectrum import has_memory_pressure
from repro.exceptions import DistributionError
from tests.conftest import make_jacobi_like


class TestLargestRemainderRound:
    def test_exact_total(self):
        out = largest_remainder_round(np.array([1.0, 1.0, 1.0]), 10)
        assert out.sum() == 10

    def test_proportionality(self):
        out = largest_remainder_round(np.array([1.0, 3.0]), 100)
        assert list(out) == [25, 75]

    def test_minimum_respected(self):
        out = largest_remainder_round(np.array([0.0, 1000.0]), 10, minimum=1)
        assert out[0] == 1 and out.sum() == 10

    def test_zero_shares_fall_back_to_even(self):
        out = largest_remainder_round(np.zeros(4), 8)
        assert list(out) == [2, 2, 2, 2]

    def test_negative_shares_raise(self):
        with pytest.raises(DistributionError):
            largest_remainder_round(np.array([-1.0, 2.0]), 10)

    def test_infeasible_minimum_raises(self):
        with pytest.raises(DistributionError):
            largest_remainder_round(np.ones(5), 3, minimum=1)

    def test_deterministic_tie_break(self):
        a = largest_remainder_round(np.ones(3), 10)
        b = largest_remainder_round(np.ones(3), 10)
        assert list(a) == list(b)


class TestGenBlock:
    def test_structure(self):
        d = GenBlock([3, 0, 5])
        assert d.n_nodes == 3
        assert d.n_rows == 8
        assert d.starts == (0, 3, 3)
        assert d.rows_of(2) == (3, 8)

    def test_owner_of(self):
        d = GenBlock([2, 3])
        assert d.owner_of(0) == 0
        assert d.owner_of(1) == 0
        assert d.owner_of(2) == 1
        assert d.owner_of(4) == 1

    def test_owner_of_out_of_range(self):
        with pytest.raises(DistributionError):
            GenBlock([2, 3]).owner_of(5)

    def test_fractions_sum_to_one(self):
        d = GenBlock([1, 2, 3])
        assert d.fractions.sum() == pytest.approx(1.0)

    def test_moved(self):
        d = GenBlock([5, 5]).moved(0, 1, 2)
        assert d.counts == (3, 7)

    def test_moved_too_many_raises(self):
        with pytest.raises(DistributionError):
            GenBlock([2, 2]).moved(0, 1, 3)

    def test_negative_counts_raise(self):
        with pytest.raises(DistributionError):
            GenBlock([-1, 2])

    def test_non_integer_counts_raise(self):
        with pytest.raises(DistributionError):
            GenBlock([1.5, 2.5])

    def test_float_integers_accepted(self):
        assert GenBlock([1.0, 2.0]).counts == (1, 2)

    def test_rows_of_bad_node_raises(self):
        with pytest.raises(DistributionError):
            GenBlock([1, 1]).rows_of(2)

    def test_equality_and_hashing(self):
        assert GenBlock([1, 2]) == GenBlock([1, 2])
        assert hash(GenBlock([1, 2])) == hash(GenBlock([1, 2]))


class TestFactories:
    def test_block_even(self, base_cluster):
        d = block(base_cluster, 800)
        assert set(d.counts) == {100}

    def test_block_remainder_spread(self, base_cluster):
        d = block(base_cluster, 803)
        assert d.n_rows == 803
        assert max(d.counts) - min(d.counts) <= 1

    def test_balanced_proportional_to_power(self, hetero_cluster):
        d = balanced(hetero_cluster, 8000)
        powers = hetero_cluster.cpu_powers
        expected = powers / powers.sum() * 8000
        assert np.abs(d.as_array - expected).max() <= 1.0

    def test_every_node_gets_a_row(self, hetero_cluster):
        program = make_jacobi_like(n_rows=4096, cols=4096)
        for d in (
            block(hetero_cluster, 4096),
            balanced(hetero_cluster, 4096),
            in_core(hetero_cluster, program),
            in_core_balanced(hetero_cluster, program),
        ):
            assert min(d.counts) >= 1
            assert d.n_rows == 4096

    def test_in_core_respects_capacity_when_feasible(self, hetero_cluster):
        program = make_jacobi_like(n_rows=2048, cols=1024)
        cap = in_core_capacity_rows(hetero_cluster, program)
        if int(cap.sum()) >= program.n_rows:
            d = in_core(hetero_cluster, program)
            assert (d.as_array <= np.maximum(cap, 1)).all()

    def test_in_core_balanced_maximises_in_core_nodes(self, hetero_cluster):
        program = make_jacobi_like(n_rows=4096, cols=4096)
        d = in_core_balanced(hetero_cluster, program)
        cap = in_core_capacity_rows(hetero_cluster, program, safety=False)
        out_of_core = int((d.as_array > cap).sum())
        blk_ooc = int(
            (block(hetero_cluster, 4096).as_array > cap).sum()
        )
        assert out_of_core <= blk_ooc

    def test_capacity_with_safety_is_smaller(self, hetero_cluster):
        program = make_jacobi_like(n_rows=2048, cols=1024)
        safe = in_core_capacity_rows(hetero_cluster, program, safety=True)
        nominal = in_core_capacity_rows(hetero_cluster, program, safety=False)
        assert (safe <= nominal).all()

    def test_capacity_unbounded_without_distributed_data(self, base_cluster):
        from repro.program import ProgramBuilder

        program = (
            ProgramBuilder("p", n_rows=100)
            .replicated("r", elements=10)
            .distributed("d", cols=1)
            .section("s")
            .stage("st", reads=["r"])
            .build()
        )
        # One distributed variable with 8-byte rows: capacity is finite
        # but huge.
        cap = in_core_capacity_rows(base_cluster, program)
        assert (cap > 1_000_000).all()


class TestInterpolate:
    def test_endpoints(self):
        a, b = GenBlock([10, 0]), GenBlock([0, 10])
        assert interpolate(a, b, 0.0) == a
        assert interpolate(a, b, 1.0) == b

    def test_midpoint_preserves_total(self):
        a, b = GenBlock([10, 0]), GenBlock([0, 10])
        mid = interpolate(a, b, 0.5)
        assert mid.n_rows == 10

    def test_alpha_out_of_range_raises(self):
        a = GenBlock([5, 5])
        with pytest.raises(DistributionError):
            interpolate(a, a, 1.5)

    def test_mismatched_totals_raise(self):
        with pytest.raises(DistributionError):
            interpolate(GenBlock([5, 5]), GenBlock([5, 6]), 0.5)


class TestFromRows:
    def test_builds_one_block_per_row(self):
        got = GenBlock.from_rows(np.array([[3, 7], [5, 5]]), 10)
        assert got == [GenBlock([3, 7]), GenBlock([5, 5])]
        assert GenBlock.from_rows(np.zeros((0, 2), dtype=np.int64), 10) == []

    def test_owns_its_rows(self):
        grid = np.array([[3, 7]])
        (dist,) = GenBlock.from_rows(grid, 10)
        grid[0, 0] = 4
        assert dist.counts == (3, 7) and dist.counts_np.tolist() == [3, 7]

    @pytest.mark.parametrize(
        "grid, n_rows",
        [
            (np.array([3, 7]), 10),  # not 2-D
            (np.zeros((1, 0), dtype=np.int64), 0),  # no node
            (np.array([[3.0, 7.0]]), 10),  # not integer
            (np.array([[-1, 11]]), 10),  # negative
            (np.array([[3, 7], [3, 6]]), 10),  # a row of another total
        ],
    )
    def test_rejects_invalid_grids(self, grid, n_rows):
        with pytest.raises(DistributionError):
            GenBlock.from_rows(grid, n_rows)


class TestSpectrum:
    def test_full_path_anchor_labels(self, hetero_cluster):
        program = make_jacobi_like(n_rows=4096, cols=4096)
        points = spectrum(hetero_cluster, program, steps_per_leg=2)
        labels = [p.label for p in points]
        assert labels[0] == "Blk" and labels[-1] == "Blk"
        for anchor in ("I-C", "I-C/Bal", "Bal"):
            assert anchor in labels

    def test_positions_monotone(self, hetero_cluster):
        program = make_jacobi_like(n_rows=4096, cols=4096)
        points = spectrum(hetero_cluster, program, steps_per_leg=3)
        positions = [p.position for p in points]
        assert positions == sorted(positions)
        assert positions[0] == 0.0 and positions[-1] == 1.0

    def test_homogeneous_with_pressure_collapses_to_ic_leg(self, base_cluster):
        small = base_cluster.with_nodes(
            [n.with_(memory_bytes=2**20) for n in base_cluster.nodes]
        )
        program = make_jacobi_like(n_rows=4096, cols=4096)
        labels = [p.label for p in spectrum(small, program, steps_per_leg=2)]
        assert labels[-1] == "I-C"
        assert "Bal" not in labels

    def test_no_pressure_collapses_to_bal_leg(self, hetero_cluster):
        program = make_jacobi_like(n_rows=256, cols=8)
        labels = [
            p.label for p in spectrum(hetero_cluster, program, steps_per_leg=2)
        ]
        assert "I-C" not in labels
        assert "Bal" in labels

    def test_full_path_forces_all_anchors(self, base_cluster):
        program = make_jacobi_like(n_rows=256, cols=8)
        labels = [
            p.label
            for p in spectrum(
                base_cluster, program, steps_per_leg=1, full_path=True
            )
        ]
        assert labels == ["Blk", "I-C", "I-C/Bal", "Bal", "Blk"]

    def test_invalid_steps_raise(self, base_cluster):
        program = make_jacobi_like()
        with pytest.raises(DistributionError):
            spectrum(base_cluster, program, steps_per_leg=0)

    def test_memory_pressure_detection(self, base_cluster):
        big = make_jacobi_like(n_rows=16384, cols=8192)
        small = make_jacobi_like(n_rows=64, cols=8)
        assert has_memory_pressure(base_cluster, big)
        assert not has_memory_pressure(base_cluster, small)


class TestOps:
    def test_distance_is_half_l1(self):
        a, b = GenBlock([10, 0]), GenBlock([6, 4])
        assert distribution_distance(a, b) == 4

    def test_distance_zero_for_equal(self):
        a = GenBlock([3, 7])
        assert distribution_distance(a, a) == 0

    def test_redistribution_bytes_counts_moved_rows(self, jacobi_like):
        a, b = GenBlock([256, 256]), GenBlock([128, 384])
        moved = redistribution_bytes(a, b, jacobi_like)
        assert moved == int(128 * jacobi_like.distributed_row_bytes())

    def test_redistribution_zero_for_identical(self, jacobi_like):
        a = GenBlock([256, 256])
        assert redistribution_bytes(a, a, jacobi_like) == 0

    def test_incompatible_distributions_raise(self):
        with pytest.raises(DistributionError):
            distribution_distance(GenBlock([1, 2]), GenBlock([1, 2, 3]))

    def test_in_core_flags(self, base_cluster):
        program = make_jacobi_like(n_rows=4096, cols=4096)
        flags = in_core_flags(block(base_cluster, 4096), base_cluster, program)
        assert flags.dtype == bool
        assert flags.shape == (8,)
