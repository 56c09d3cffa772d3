"""Tests for the 2-D distribution extension (paper Section 5.1)."""

import pytest

from repro.cluster import baseline_cluster
from repro.exceptions import DistributionError, SimulationError
from repro.instrument.collect import MeasurementConfig
from repro.sim import PerturbationConfig
from repro.twod import (
    GenBlock2D,
    Jacobi2DSpec,
    TwoDEmulator,
    balanced2d,
    block2d,
    build_2d_model,
    factor_pairs,
    search_space_growth,
)
from repro.twod.search_space import one_d_candidates, two_d_candidates
from repro.util.units import mib
from tests.emulator_reference import engine_run

IDEAL = PerturbationConfig.none()
PERFECT = MeasurementConfig.perfect()


@pytest.fixture
def cluster2d():
    base = baseline_cluster()
    powers = [1.0, 0.5, 2.0, 1.0, 1.0, 1.5, 1.0, 1.0]
    memories = [96, 4, 96, 8, 96, 96, 4, 96]
    nodes = [
        n.with_(cpu_power=powers[i], memory_bytes=mib(memories[i]))
        for i, n in enumerate(base.nodes)
    ]
    return base.with_nodes(nodes, name="mixed2d")


class TestGenBlock2D:
    def test_grid_structure(self):
        d = GenBlock2D([10, 20], [5, 5, 10])
        assert d.grid_shape == (2, 3)
        assert d.n_nodes == 6
        assert d.n_rows == 30
        assert d.n_cols == 20

    def test_rank_coords_roundtrip(self):
        d = GenBlock2D([1, 1, 1], [1, 1])
        for rank in range(6):
            i, j = d.coords(rank)
            assert d.rank(i, j) == rank

    def test_tile_sizes(self):
        d = GenBlock2D([10, 20], [5, 15])
        assert d.tile(0) == (10, 5)
        assert d.tile(3) == (20, 15)
        assert d.tile_elements(3) == 300

    def test_neighbors_interior_and_corner(self):
        d = GenBlock2D([1, 1, 1], [1, 1, 1])  # 3x3
        centre = d.rank(1, 1)
        assert len(d.neighbors(centre)) == 4
        corner = d.rank(0, 0)
        directions = {direction for direction, _ in d.neighbors(corner)}
        assert directions == {"south", "east"}

    def test_halo_sizes(self):
        d = GenBlock2D([10, 20], [5, 15])
        assert d.halo_elements(0, "south") == 5  # a row of the tile
        assert d.halo_elements(0, "east") == 10  # a column of the tile

    def test_invalid_construction(self):
        with pytest.raises(DistributionError):
            GenBlock2D([], [1])
        with pytest.raises(DistributionError):
            GenBlock2D([-1], [1])

    def test_out_of_range_rank(self):
        d = GenBlock2D([1], [1])
        with pytest.raises(DistributionError):
            d.coords(1)


class TestFactories:
    def test_factor_pairs(self):
        assert factor_pairs(8) == [(1, 8), (2, 4), (4, 2), (8, 1)]
        assert factor_pairs(7) == [(1, 7), (7, 1)]

    def test_block2d_even(self):
        d = block2d(100, 200, (2, 4))
        assert set(d.row_counts) == {50}
        assert set(d.col_counts) == {50}

    def test_balanced2d_follows_powers(self, cluster2d):
        d = balanced2d(cluster2d, 1000, 1000, (2, 4))
        # Grid row 1 holds nodes 4-7 (total power 4.5) vs row 0 (4.5):
        # equal, so bands are even; columns follow column power sums.
        assert d.n_rows == 1000 and d.n_cols == 1000
        powers = cluster2d.cpu_powers.reshape(2, 4)
        col_weights = powers.sum(axis=0)
        heaviest = int(col_weights.argmax())
        assert d.col_counts[heaviest] == max(d.col_counts)

    def test_balanced2d_wrong_grid_raises(self, cluster2d):
        with pytest.raises(DistributionError):
            balanced2d(cluster2d, 100, 100, (3, 3))


class TestTwoDExactness:
    @pytest.mark.parametrize("shape", [(2, 4), (4, 2), (8, 1), (1, 8)])
    def test_model_matches_emulator(self, cluster2d, shape):
        spec = Jacobi2DSpec(n_rows=1024, n_cols=1024, iterations=3)
        d0 = block2d(spec.n_rows, spec.n_cols, shape)
        model = build_2d_model(
            cluster2d, spec, d0, perturbation=IDEAL, measurement=PERFECT
        )
        emulator = TwoDEmulator(cluster2d, spec, IDEAL)
        for dist in (
            d0,
            balanced2d(cluster2d, spec.n_rows, spec.n_cols, shape),
        ):
            actual = emulator.run(dist)
            assert model.predict(dist) == pytest.approx(actual, rel=1e-9)

    def test_cross_distribution_prediction(self, cluster2d):
        spec = Jacobi2DSpec(n_rows=1024, n_cols=1024, iterations=3)
        d0 = block2d(spec.n_rows, spec.n_cols, (2, 4))
        target = GenBlock2D([700, 324], [200, 300, 400, 124])
        model = build_2d_model(
            cluster2d, spec, d0, perturbation=IDEAL, measurement=PERFECT
        )
        actual = TwoDEmulator(cluster2d, spec, IDEAL).run(target)
        assert model.predict(target) == pytest.approx(actual, rel=1e-9)

    def test_out_of_core_tiles_stream(self, cluster2d):
        # Node 1 has 4 MiB; a 2048x512 tile of doubles is 8 MiB.
        spec = Jacobi2DSpec(n_rows=4096, n_cols=2048, iterations=2)
        d = block2d(spec.n_rows, spec.n_cols, (2, 4))
        small = TwoDEmulator(cluster2d, spec, IDEAL).run(d)
        roomy_cluster = cluster2d.with_nodes(
            [n.with_(memory_bytes=mib(512)) for n in cluster2d.nodes]
        )
        roomy = TwoDEmulator(roomy_cluster, spec, IDEAL).run(d)
        assert small > roomy  # streaming costs extra

    def test_accuracy_with_perturbations(self, cluster2d):
        spec = Jacobi2DSpec(n_rows=1024, n_cols=1024, iterations=5)
        d0 = block2d(spec.n_rows, spec.n_cols, (2, 4))
        model = build_2d_model(cluster2d, spec, d0)
        emulator = TwoDEmulator(cluster2d, spec)
        actual = emulator.run(d0)
        predicted = model.predict(d0)
        assert abs(predicted - actual) / actual < 0.10

    def test_wrong_coverage_raises(self, cluster2d):
        spec = Jacobi2DSpec(n_rows=1024, n_cols=1024, iterations=2)
        emulator = TwoDEmulator(cluster2d, spec, IDEAL)
        with pytest.raises(SimulationError):
            emulator.run(block2d(512, 1024, (2, 4)))
        with pytest.raises(SimulationError):
            emulator.run(block2d(1024, 1024, (2, 2)))


class TestTwoDBeatsOneD:
    def test_square_decomposition_cuts_halo_traffic(self):
        """The reason 2-D decomposition exists: on a homogeneous cluster
        a 2x4 grid exchanges less halo data than 1x8 strips, so a
        communication-heavy stencil runs faster."""
        cluster = baseline_cluster(name="homog2d")
        # Tiny per-element work and a slow network make halos dominate.
        slow_net = cluster.network.with_(latency_per_byte=2e-7)
        from repro.cluster import ClusterSpec

        cluster = ClusterSpec(
            name=cluster.name, nodes=cluster.nodes, network=slow_net
        )
        spec = Jacobi2DSpec(
            n_rows=2048, n_cols=2048, iterations=4, work_per_element=2e-9
        )
        emulator = TwoDEmulator(cluster, spec, IDEAL)
        strips = emulator.run(block2d(spec.n_rows, spec.n_cols, (8, 1)))
        grid = emulator.run(block2d(spec.n_rows, spec.n_cols, (2, 4)))
        assert grid < strips


class TestSearchSpace:
    def test_one_d_counts_are_compositions(self):
        # 8 units into 8 nodes: exactly one layout.
        assert one_d_candidates(8, 8) == 1
        # 16 units into 8 nodes: C(15, 7).
        assert one_d_candidates(8, 16) == 6435
        assert one_d_candidates(8, 4) == 0  # infeasible

    def test_two_d_always_larger(self):
        for g in (8, 16, 32):
            assert two_d_candidates(8, g) > one_d_candidates(8, g)

    def test_comparison_table(self):
        comparison = search_space_growth(granularities=(8, 16))
        assert comparison.worst_blowup > 100  # at natural granularity
        text = comparison.describe()
        assert "blow-up" in text
        assert "exhaustive" in text


class TestTwoDSearch:
    @pytest.fixture
    def model(self, cluster2d):
        spec = Jacobi2DSpec(n_rows=512, n_cols=512, iterations=3)
        d0 = block2d(spec.n_rows, spec.n_cols, (2, 4))
        return build_2d_model(
            cluster2d, spec, d0, perturbation=IDEAL, measurement=PERFECT
        )

    def test_search_beats_even_split(self, model):
        from repro.twod import TwoDLayoutSearch

        spec = model.spec
        result = TwoDLayoutSearch(model).search(budget=600)
        even = model.predict(block2d(spec.n_rows, spec.n_cols, (2, 4)))
        assert result.predicted_seconds < even
        assert result.best.n_rows == spec.n_rows
        assert result.best.n_cols == spec.n_cols

    def test_search_result_verified_by_emulator(self, cluster2d, model):
        from repro.twod import TwoDLayoutSearch

        result = TwoDLayoutSearch(model).search(budget=600)
        actual = TwoDEmulator(cluster2d, model.spec, IDEAL).run(result.best)
        assert actual == pytest.approx(result.predicted_seconds, rel=1e-9)

    def test_budget_respected_on_genuine_shapes(self, model):
        from repro.twod import TwoDLayoutSearch

        # Degenerate strip shapes ride the 1-D spectrum path outside
        # the move budget, so cap the check to genuinely 2-D shapes.
        result = TwoDLayoutSearch(model, shapes=[(2, 4), (4, 2)]).search(budget=30)
        assert result.evaluations <= 30

    def test_per_shape_reported(self, model):
        from repro.twod import TwoDLayoutSearch

        result = TwoDLayoutSearch(model).search(budget=600)
        assert set(result.per_shape) == set(factor_pairs(model.n_nodes))
        assert "grid" in str(result)

    def test_bad_budget_raises(self, model):
        from repro.exceptions import SearchError
        from repro.twod import TwoDLayoutSearch

        with pytest.raises(SearchError):
            TwoDLayoutSearch(model).search(budget=0)

    def test_unknown_family_raises(self, model):
        from repro.exceptions import SearchError
        from repro.twod import TwoDLayoutSearch

        with pytest.raises(SearchError):
            TwoDLayoutSearch(model, algorithm="bogo")

    def test_strips_match_direct_scoring(self, model):
        from repro.twod import is_degenerate, strip_candidates

        assert is_degenerate((1, 8)) and is_degenerate((8, 1))
        assert not is_degenerate((2, 4))
        for shape in ((8, 1), (1, 8)):
            candidates = strip_candidates(model, shape)
            assert candidates, shape
            for d in candidates:
                assert d.grid_shape == shape
            batched = model.predict(candidates, batch=True)
            for d, v in zip(candidates, batched):
                assert v == model.predict(d)

    @pytest.mark.parametrize(
        "algorithm", ["gbs", "genetic", "annealing", "random", "sweep"]
    )
    def test_all_families_run(self, model, algorithm):
        from repro.twod import TwoDLayoutSearch

        result = TwoDLayoutSearch(model, algorithm=algorithm).search(
            budget=120
        )
        assert result.algorithm == f"twod-{algorithm}"
        assert result.best.n_rows == model.spec.n_rows
        assert result.best.n_cols == model.spec.n_cols
        assert set(result.per_shape) == set(factor_pairs(model.n_nodes))
        # Every family must at least match the strip path's best (the
        # strips are scored outside the family's own search).
        strips_best = min(
            v
            for s, v in result.per_shape.items()
            if s[0] == 1 or s[1] == 1
        )
        assert result.predicted_seconds <= strips_best

    @pytest.mark.parametrize(
        "algorithm", ["genetic", "annealing", "random", "sweep"]
    )
    def test_budget_below_shape_count_caps_total(self, algorithm):
        """Below one evaluation per genuine shape, the first ``budget``
        shapes get one evaluation each and the rest report ``inf``."""
        from repro.twod import TwoDLayoutSearch

        cluster = baseline_cluster()
        spec = Jacobi2DSpec(n_rows=512, n_cols=512, iterations=3)
        model = build_2d_model(
            cluster, spec, block2d(spec.n_rows, spec.n_cols, (2, 4)),
            perturbation=IDEAL, measurement=PERFECT,
        )
        result = TwoDLayoutSearch(
            model, algorithm=algorithm, shapes=[(2, 4), (4, 2)]
        ).search(budget=1)
        assert result.evaluations == 1
        assert result.per_shape[(4, 2)] == float("inf")
        assert result.per_shape[(2, 4)] == result.predicted_seconds

    def test_budget_shares(self):
        from repro.twod.search2d import _shares

        assert _shares(120, 2) == [60, 60]
        assert _shares(7, 3) == [2, 2, 2]  # the remainder goes unspent
        assert _shares(3, 3) == [1, 1, 1]
        assert _shares(2, 3) == [1, 1, 0]
        assert _shares(5, 0) == []

    def test_gbs_takes_no_knobs(self, model):
        from repro.exceptions import SearchError
        from repro.twod import TwoDLayoutSearch

        with pytest.raises(SearchError, match="no knobs"):
            TwoDLayoutSearch(model, resolution=8)

    def test_adapter_roundtrip_and_repair(self, model):
        from repro.distribution.genblock import GenBlock
        from repro.twod.search2d import _ShapeAdapter

        adapter = _ShapeAdapter(model, (2, 4))
        d = block2d(model.spec.n_rows, model.spec.n_cols, (2, 4))
        joint = adapter.encode(d)
        assert adapter.decode(joint) == d
        # Any joint vector decodes to a valid layout of the same shape.
        mangled = GenBlock([1, 1000, 3, 3, 3, 3])
        repaired = adapter.decode(mangled)
        assert repaired.grid_shape == (2, 4)
        assert repaired.n_rows == model.spec.n_rows
        assert repaired.n_cols == model.spec.n_cols
        assert min(repaired.row_counts) >= 1
        assert min(repaired.col_counts) >= 1

    def test_search_telemetry(self, model):
        from repro.obs import Recorder
        from repro.twod import TwoDLayoutSearch

        rec = Recorder()
        TwoDLayoutSearch(model).search(budget=200, telemetry=rec)
        assert rec.counters["search/runs"] >= 1
        assert rec.counters["search/evaluations"] > 0
        assert any(
            name.startswith("span/search/twod") for name in rec.series
        )

    @pytest.mark.parametrize("algorithm", [None, "gbs", "genetic"])
    def test_search_counts_one_run(self, algorithm):
        """One 2-D search keeps the 1-D searchers' telemetry contract:
        one run, and the result's own evaluations and cache hits (the
        per-shape family searches do not add theirs on top)."""
        from repro.obs import Recorder
        from repro.twod import TwoDLayoutSearch

        cluster = baseline_cluster()
        spec = Jacobi2DSpec(n_rows=512, n_cols=512, iterations=3)
        model = build_2d_model(
            cluster, spec, block2d(spec.n_rows, spec.n_cols, (2, 4)),
            perturbation=IDEAL, measurement=PERFECT,
        )
        searcher = (
            TwoDLayoutSearch(model) if algorithm is None
            else TwoDLayoutSearch(model, algorithm=algorithm)
        )
        rec = Recorder()
        result = searcher.search(budget=60, telemetry=rec)
        assert rec.counters["search/runs"] == 1
        assert rec.counters["search/evaluations"] == result.evaluations
        assert rec.counters["search/cache_hits"] == result.cache_hits


def _search_fingerprint(result):
    """Everything a 2-D search answers, floats by ``repr`` (bit-exact)."""
    return (
        (result.best.row_counts, result.best.col_counts),
        repr(result.predicted_seconds),
        result.evaluations,
        result.cache_hits,
        {shape: repr(v) for shape, v in result.per_shape.items()},
    )


#: The 2-D searchers' answers, pinned bit for bit: best layout,
#: ``repr(predicted_seconds)``, evaluations, cache hits, per-shape best.
TWOD_SEARCH_GOLDEN = {
    "payoff": (
        ((1040, 1008), (528, 514, 503, 503)),
        "0.21470031999999936",
        401,
        218,
        {
            (1, 8): "0.22244087999999934",
            (2, 4): "0.21470031999999936",
            (4, 2): "0.2156961599999993",
            (8, 1): "0.22244087999999934",
        },
    ),
    "gbs-genuine-30": (
        ((227, 285), (146, 82, 170, 114)),
        "0.011770679999999987",
        30,
        11,
        {(2, 4): "0.011770679999999987", (4, 2): "inf"},
    ),
}
_STRIP_BEST = ((512,), (59, 26, 116, 58, 58, 87, 50, 58))
for _family, _evals, _hits, _grid in (
    # The coordinate descent: (4, 2) is starved once (2, 4) has spent
    # the budget the strips left.
    ("gbs", 152, 25, ("0.010194399999999996", "inf")),
    ("genetic", 184, 25, ("0.010987560000000004", "0.010710479999999988")),
    ("annealing", 184, 0, ("0.010826359999999988", "0.011184719999999988")),
    ("random", 184, 0, ("0.011584979999999984", "0.010994190000000023")),
    ("sweep", 82, 16, ("0.013055520000000008", "0.00989111999999999")),
):
    TWOD_SEARCH_GOLDEN[_family] = (
        _STRIP_BEST,
        "0.00818936",
        _evals,
        _hits,
        {
            (1, 8): "0.00818936",
            (2, 4): _grid[0],
            (4, 2): _grid[1],
            (8, 1): "0.00818936",
        },
    )


class TestTwoDSearchGolden:
    """Pins both 2-D searchers' answers, and the 2-D-beats-1-D payoff."""

    @pytest.fixture
    def model(self, cluster2d):
        spec = Jacobi2DSpec(n_rows=512, n_cols=512, iterations=3)
        d0 = block2d(spec.n_rows, spec.n_cols, (2, 4))
        return build_2d_model(
            cluster2d, spec, d0, perturbation=IDEAL, measurement=PERFECT
        )

    def test_payoff_config(self):
        """The default (gbs) search on a homogeneous cluster running a
        communication-heavy 2048x2048 stencil (60 iterations, 5 ns per
        element): a genuinely 2-D grid beats every 1-D strip."""
        from repro.twod import TwoDLayoutSearch, is_degenerate

        base = baseline_cluster()
        cluster = base.with_nodes(
            [
                n.with_(cpu_power=1.0, memory_bytes=mib(256))
                for n in base.nodes
            ],
            name="homog2d",
        )
        spec = Jacobi2DSpec(
            n_rows=2048, n_cols=2048, iterations=60, work_per_element=5e-9
        )
        model = build_2d_model(
            cluster,
            spec,
            block2d(spec.n_rows, spec.n_cols, (2, 4)),
            perturbation=IDEAL,
            measurement=PERFECT,
        )
        result = TwoDLayoutSearch(model).search(budget=400)
        assert _search_fingerprint(result) == TWOD_SEARCH_GOLDEN["payoff"]
        strips = min(
            v for s, v in result.per_shape.items() if is_degenerate(s)
        )
        grids = min(
            v for s, v in result.per_shape.items() if not is_degenerate(s)
        )
        assert grids < strips
        assert result.best.grid_shape == (2, 4)

    def test_gbs_starved_shape(self, model):
        from repro.twod import TwoDLayoutSearch

        result = TwoDLayoutSearch(model, shapes=[(2, 4), (4, 2)]).search(budget=30)
        assert (
            _search_fingerprint(result)
            == TWOD_SEARCH_GOLDEN["gbs-genuine-30"]
        )
        # The budget ran out inside (2, 4)'s descent: the shape reports
        # the best layout the descent reached, which is the answer.
        assert result.per_shape[result.best.grid_shape] == result.predicted_seconds

    @pytest.mark.parametrize(
        "algorithm", ["gbs", "genetic", "annealing", "random", "sweep"]
    )
    def test_layout_search_families(self, model, algorithm):
        from repro.twod import TwoDLayoutSearch

        result = TwoDLayoutSearch(model, algorithm=algorithm).search(
            budget=120
        )
        assert _search_fingerprint(result) == TWOD_SEARCH_GOLDEN[algorithm]


class TestTwoDFastForward:
    """2-D emulator fast-forward: golden equivalence + 1-D gating rules."""

    SHAPES = {8: [(2, 4), (4, 2), (8, 1), (1, 8)]}

    def _spec(self):
        return Jacobi2DSpec(n_rows=400, n_cols=400, iterations=24)

    @pytest.mark.parametrize("config", ["DC", "IO", "HY1", "HY2"])
    @pytest.mark.parametrize("shape", [(2, 4), (4, 2), (8, 1), (1, 8)])
    @pytest.mark.parametrize("factory", ["block", "balanced"])
    def test_golden_equivalence(self, config, shape, factory):
        from repro.cluster import table1_configs
        from repro.obs import Recorder

        cluster = table1_configs()[config]
        spec = self._spec()
        deterministic = PerturbationConfig().without(compute_noise=False)
        dist = (
            block2d(spec.n_rows, spec.n_cols, shape)
            if factory == "block"
            else balanced2d(cluster, spec.n_rows, spec.n_cols, shape)
        )
        emulator = TwoDEmulator(cluster, spec, deterministic)
        full = engine_run(emulator, dist).total_seconds
        rec = Recorder()
        fast = emulator.run(dist, telemetry=rec)
        assert rec.counters["sim/twod/fast_forwards"] == 1
        assert abs(fast - full) / abs(full) <= 1e-9

    def test_perturbed_run_is_plan_served_bitwise(self):
        from repro.cluster import table1_configs
        from repro.obs import Recorder

        cluster = table1_configs()["HY1"]
        spec = self._spec()
        dist = block2d(spec.n_rows, spec.n_cols, (2, 4))
        emulator = TwoDEmulator(cluster, spec, PerturbationConfig())
        full = engine_run(emulator, dist).total_seconds
        rec = Recorder()
        fast = emulator.run(dist, telemetry=rec)
        assert fast == full
        assert rec.counters["sim/twod/plan_runs"] == 1
        assert "sim/twod/fast_forwards" not in rec.counters

    def test_short_run_and_collector_bypass(self):
        from repro.cluster import table1_configs
        from repro.obs import Recorder

        cluster = table1_configs()["HY1"]
        spec = self._spec()
        deterministic = PerturbationConfig().without(compute_noise=False)
        dist = block2d(spec.n_rows, spec.n_cols, (2, 4))
        emulator = TwoDEmulator(cluster, spec, deterministic)
        rec = Recorder()
        # Too few iterations for the probe window.
        emulator.run(dist, iterations=3, telemetry=rec)
        assert "sim/twod/fast_forwards" not in rec.counters
        # A collector is an observer: it must see every iteration.
        from repro.sim.trace import TraceCollector

        collector = TraceCollector()
        rec2 = Recorder()
        emulator.run(dist, observer=collector, telemetry=rec2)
        assert "sim/twod/fast_forwards" not in rec2.counters


class TestTwoDRoutes:
    """Every 2-D run the plan does not serve takes the engine and is
    counted under ``sim/twod/fallback/<reason>``; a forced self-check
    mismatch retires the grid shape's plan."""

    def _setup(self, name):
        import dataclasses

        from repro.cluster import table1_configs

        # A cluster of its own: no other test shares its plans.
        cluster = dataclasses.replace(table1_configs()["HY1"], name=name)
        spec = Jacobi2DSpec(n_rows=400, n_cols=400, iterations=12)
        return cluster, spec, block2d(spec.n_rows, spec.n_cols, (2, 4))

    @pytest.mark.parametrize("reason", ["observer", "instrumented", "plan_dead"])
    def test_fallback_is_counted_and_engine_identical(self, reason, monkeypatch):
        from repro.obs import Recorder
        from repro.sim.trace import TraceCollector

        cluster, spec, dist = self._setup(f"HY1-2d-{reason}")
        pert = PerturbationConfig()
        kw = {}
        if reason == "observer":
            kw["observer"] = TraceCollector()
        elif reason == "instrumented":
            kw.update(iterations=1, io_mode="instrumented")
        elif reason == "plan_dead":
            plan = TwoDEmulator(cluster, spec, pert)._emulation_plan(
                dist, False
            )
            monkeypatch.setattr(plan, "dead", "forced dead for test")
        emulator = TwoDEmulator(cluster, spec, pert)
        rec = Recorder()
        got = emulator.run(dist, telemetry=rec, **kw)
        kw.pop("observer", None)
        assert got == engine_run(emulator, dist, **kw).total_seconds
        counters = rec.counters
        assert counters[f"sim/twod/fallback/{reason}"] == 1
        assert counters["sim/twod/runs"] == 1
        assert [k for k in counters if k.startswith("sim/twod/fallback/")] == [
            f"sim/twod/fallback/{reason}"
        ]
        assert "sim/twod/plan_runs" not in counters

    def test_non_converged_probe_is_plan_served(self, monkeypatch):
        """A deterministic run whose probe does not converge replays all
        of its iterations on the plan, bit for bit with the engine."""
        import repro.sim.executor as executor_mod
        from repro.obs import Recorder

        cluster, spec, dist = self._setup("HY1-2d-not_converged")
        monkeypatch.setattr(
            executor_mod, "steady_deltas", lambda ends, policy: None
        )
        emulator = TwoDEmulator(
            cluster, spec, PerturbationConfig().without(compute_noise=False)
        )
        rec = Recorder()
        got = emulator.run(dist, telemetry=rec)
        assert got == engine_run(emulator, dist).total_seconds
        counters = rec.counters
        assert counters["sim/twod/plan_runs"] == 1
        assert counters["sim/twod/runs"] == 1
        assert "sim/twod/fast_forwards" not in counters
        assert not [k for k in counters if k.startswith("sim/twod/fallback/")]

    def test_forced_noise_mismatch_retires_the_plan(self, monkeypatch):
        """One perturbed element of the vector noise draw makes the
        replay disagree with the engine probe, which runs under the
        first run's own factors: the self-check retires the plan, and
        every run still gets the engine's result."""
        from repro.obs import Recorder
        from repro.sim.perturbation import PerturbationModel

        real = PerturbationModel.noise_factors

        def skewed(self, n):
            factors = real(self, n)
            factors[0] *= 2.0
            return factors

        monkeypatch.setattr(PerturbationModel, "noise_factors", skewed)
        cluster, spec, dist = self._setup("HY1-2d-skewed")
        emulator = TwoDEmulator(cluster, spec, PerturbationConfig())
        rec = Recorder()
        got = [emulator.run(dist, telemetry=rec) for _ in range(2)]
        plan = emulator._emulation_plan(dist, False)
        assert plan.dead is not None and plan.dead.startswith("self-check")
        assert rec.counters["sim/twod/fallback/plan_dead"] == 2
        assert "sim/twod/plan_runs" not in rec.counters
        ref = engine_run(emulator, dist).total_seconds
        assert got == [ref, ref]
