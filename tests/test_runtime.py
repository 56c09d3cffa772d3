"""Tests for the adaptive runtime and redistribution model."""

import numpy as np
import pytest

from repro.apps import application_by_name
from repro.cluster import (
    baseline_cluster, config_dc, config_io, dynamics_scenario, table1_configs,
)
from repro.distribution import GenBlock, balanced, block
from repro.exceptions import ModelError
from repro.runtime import AdaptiveRuntime, RedistributionModel
from repro.runtime.redistribution import (
    RedistributionEstimate, _moved_segments,
)
from repro.search import RandomSearch
from repro.sim import ClusterEmulator, PerturbationConfig
from repro.util.units import mib
from tests.conftest import make_jacobi_like
from tests.placement_reference import plan_memory_reference


class TestMovedSegments:
    def test_identical_distributions_move_nothing(self):
        d = GenBlock([10, 10, 10])
        assert _moved_segments(d, d) == []

    def test_simple_shift(self):
        old = GenBlock([10, 10])
        new = GenBlock([5, 15])
        segments = _moved_segments(old, new)
        assert segments == [(5, 10, 0, 1)]

    def test_full_reversal(self):
        old = GenBlock([10, 0])
        new = GenBlock([0, 10])
        assert segments_total(_moved_segments(old, new)) == 10

    def test_mismatched_raise(self):
        with pytest.raises(ModelError):
            _moved_segments(GenBlock([5]), GenBlock([5, 5]))


def segments_total(segments):
    return sum(stop - start for start, stop, _, _ in segments)


class TestRedistributionModel:
    @pytest.fixture
    def model(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=1024)
        return RedistributionModel(base_cluster, program), program

    def test_noop_costs_nothing(self, model, base_cluster):
        redis, program = model
        d = block(base_cluster, program.n_rows)
        estimate = redis.estimate(d, d)
        assert estimate.is_noop
        assert estimate.seconds == 0.0

    def test_cost_scales_with_moved_rows(self, model, base_cluster):
        redis, program = model
        d = block(base_cluster, program.n_rows)
        small = redis.estimate(d, d.moved(0, 1, 16))
        large = redis.estimate(d, d.moved(0, 1, 160))
        assert large.seconds > small.seconds
        assert large.moved_rows == 160

    def test_bytes_conservation(self, model, base_cluster):
        redis, program = model
        d = block(base_cluster, program.n_rows)
        estimate = redis.estimate(d, d.moved(2, 5, 64))
        assert sum(estimate.per_node_out_bytes) == pytest.approx(
            sum(estimate.per_node_in_bytes)
        )
        assert estimate.per_node_out_bytes[2] > 0
        assert estimate.per_node_in_bytes[5] > 0

    def test_out_of_core_endpoints_cost_more(self, base_cluster):
        program = make_jacobi_like(n_rows=8192, cols=8192)
        roomy = RedistributionModel(base_cluster, program)
        tight_cluster = base_cluster.with_nodes(
            [n.with_(memory_bytes=mib(2)) for n in base_cluster.nodes]
        )
        tight = RedistributionModel(tight_cluster, program)
        d = block(base_cluster, program.n_rows)
        new = d.moved(0, 7, 512)
        assert tight.estimate(d, new).seconds > roomy.estimate(d, new).seconds

    def test_worth_switching_logic(self, model, base_cluster):
        redis, program = model
        d = block(base_cluster, program.n_rows)
        new = d.moved(0, 1, 200)
        cost = redis.estimate(d, new).seconds
        assert redis.worth_switching(d, new, cost, remaining_iterations=10)
        assert not redis.worth_switching(
            d, new, cost / 1000, remaining_iterations=1
        )
        assert not redis.worth_switching(d, new, -1.0, 100)
        assert not redis.worth_switching(d, new, 1.0, 0)


def _estimate_reference(model, old, new):
    """The per-(segment, variable, side) estimate loop: each side's
    out-of-core flag from its own one-node placement, planned by the
    scalar reference rule.  The oracle ``estimate`` must equal bit for
    bit."""
    cluster, program = model.cluster, model.program

    def out_of_core(node, rows, variable):
        plan = plan_memory_reference(
            program, rows, cluster[node].memory_bytes
        )
        placement = plan.placements.get(variable)
        return placement is not None and not placement.in_core

    P = cluster.n_nodes
    out_bytes, in_bytes, busy = [0.0] * P, [0.0] * P, [0.0] * P
    net = cluster.network
    moved_rows = 0
    for start, stop, src, dst in _moved_segments(old, new):
        rows = stop - start
        moved_rows += rows
        for variable in program.distributed_variables:
            nbytes = rows * variable.row_bytes
            if nbytes <= 0:
                continue
            out_bytes[src] += nbytes
            in_bytes[dst] += nbytes
            rates = [1.0 / max(net.latency_per_byte, 1e-30)]
            overhead = net.send_overhead + net.recv_overhead + net.fixed_latency
            if out_of_core(src, old[src], variable.name):
                rates.append(cluster[src].disk_read_bw)
                overhead += cluster[src].disk_read_seek
            if out_of_core(dst, new[dst], variable.name):
                rates.append(cluster[dst].disk_write_bw)
                overhead += cluster[dst].disk_write_seek
            duration = overhead + nbytes / min(rates)
            busy[src] += duration
            busy[dst] += duration
    return RedistributionEstimate(
        seconds=max(busy) if busy else 0.0,
        moved_rows=moved_rows,
        moved_bytes=float(sum(out_bytes)),
        per_node_out_bytes=tuple(out_bytes),
        per_node_in_bytes=tuple(in_bytes),
    )


def _weighted(n_rows, weights):
    """A GEN_BLOCK giving node ``i`` ``weights[i] / sum(weights)`` of
    the rows (floored; the last node takes the remainder)."""
    total = sum(weights)
    counts = [n_rows * w // total for w in weights]
    counts[-1] += n_rows - sum(counts)
    return GenBlock(counts)


#: Layouts on the IO configuration, whose first four nodes have 32 MiB
#: (their largest array spills at paper scale) and last four 256 MiB.
#: ``E`` also spills Jacobi's grid on node 4, so ``DE`` moves rows onto
#: a node that was in core under ``D`` and spills under ``E``.
_IO_LAYOUTS = {
    "A": [1] * 8,
    "B": [1, 1, 1, 1, 3, 3, 3, 3],
    "C": [4, 3, 2, 1, 1, 1, 2, 2],
    "D": [1, 1, 1, 1, 12, 8, 4, 4],
    "E": [1, 1, 1, 1, 20, 4, 2, 2],
}

#: ``(app, old + new layout) -> (repr(seconds), moved_rows,
#: moved_bytes, per_node_out_bytes, per_node_in_bytes)`` on IO at
#: paper scale.
_IO_GOLDEN = {
    ("jacobi", "AB"): ("5.14212768", 6144, 402702336.0,
        (33558528.0, 67117056.0, 67117056.0, 67117056.0, 67117056.0, 67117056.0, 33558528.0, 0.0),
        (0.0, 33558528.0, 33558528.0, 33558528.0, 100675584.0, 100675584.0, 67117056.0, 33558528.0)),
    ("jacobi", "BC"): ("6.76761024", 6144, 402702336.0,
        (0.0, 33558528.0, 33558528.0, 33558528.0, 100675584.0, 100675584.0, 67117056.0, 33558528.0),
        (100675584.0, 100675584.0, 67117056.0, 33558528.0, 33558528.0, 33558528.0, 33558528.0, 0.0)),
    ("jacobi", "CD"): ("8.43801472", 5376, 352364544.0,
        (117454848.0, 100675584.0, 67117056.0, 33558528.0, 33558528.0, 0.0, 0.0, 0.0),
        (0.0, 16779264.0, 16779264.0, 16779264.0, 201351168.0, 100675584.0, 0.0, 0.0)),
    ("jacobi", "DE"): ("4.0373376", 3584, 234909696.0,
        (0.0, 0.0, 0.0, 0.0, 0.0, 134234112.0, 67117056.0, 33558528.0),
        (0.0, 0.0, 0.0, 0.0, 134234112.0, 67117056.0, 33558528.0, 0.0)),
    ("jacobi", "EA"): ("11.50195456", 6400, 419481600.0,
        (0.0, 16779264.0, 16779264.0, 16779264.0, 268468224.0, 67117056.0, 33558528.0, 0.0),
        (50337792.0, 67117056.0, 67117056.0, 67117056.0, 0.0, 67117056.0, 67117056.0, 33558528.0)),
    ("cg", "AB"): ("3.5618105600000005", 49152, 303169536.0,
        (25264128.0, 50528256.0, 50528256.0, 50528256.0, 50528256.0, 50528256.0, 25264128.0, 0.0),
        (0.0, 25264128.0, 25264128.0, 25264128.0, 75792384.0, 75792384.0, 50528256.0, 25264128.0)),
    ("cg", "BC"): ("5.078216960000002", 49152, 303169536.0,
        (0.0, 25264128.0, 25264128.0, 25264128.0, 75792384.0, 75792384.0, 50528256.0, 25264128.0),
        (75792384.0, 75792384.0, 50528256.0, 25264128.0, 25264128.0, 25264128.0, 25264128.0, 0.0)),
    ("cg", "CD"): ("6.3485772800000015", 43008, 265273344.0,
        (88424448.0, 75792384.0, 50528256.0, 25264128.0, 25264128.0, 0.0, 0.0, 0.0),
        (0.0, 12632064.0, 12632064.0, 12632064.0, 151584768.0, 75792384.0, 0.0, 0.0)),
    ("cg", "DE"): ("1.5169676799999998", 28672, 176848896.0,
        (0.0, 0.0, 0.0, 0.0, 0.0, 101056512.0, 50528256.0, 25264128.0),
        (0.0, 0.0, 0.0, 0.0, 101056512.0, 50528256.0, 25264128.0, 0.0)),
    ("cg", "EA"): ("8.123167999999998", 51200, 315801600.0,
        (0.0, 12632064.0, 12632064.0, 12632064.0, 202113024.0, 50528256.0, 25264128.0, 0.0),
        (37896192.0, 50528256.0, 50528256.0, 50528256.0, 0.0, 50528256.0, 50528256.0, 25264128.0)),
}


class TestRedistributionGolden:
    """``estimate`` pinned bit for bit, and against the per-(segment,
    variable, side) reference loop."""

    @staticmethod
    def _fields(e):
        return (
            repr(e.seconds), e.moved_rows, e.moved_bytes,
            e.per_node_out_bytes, e.per_node_in_bytes,
        )

    def test_noop(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=1024)
        d = block(base_cluster, program.n_rows)
        e = RedistributionModel(base_cluster, program).estimate(d, d)
        assert self._fields(e) == ("0.0", 0, 0.0, (0.0,) * 8, (0.0,) * 8)

    def test_adjacent_shift(self, base_cluster):
        program = make_jacobi_like(n_rows=2048, cols=1024)
        d = block(base_cluster, program.n_rows)
        e = RedistributionModel(base_cluster, program).estimate(
            d, d.moved(2, 3, 64)
        )
        assert self._fields(e) == (
            "0.0053828800000000005", 64, 524288.0,
            (0.0, 0.0, 524288.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 524288.0, 0.0, 0.0, 0.0, 0.0),
        )

    @pytest.mark.parametrize("key", sorted(_IO_GOLDEN))
    def test_spilled_endpoints_on_io(self, key):
        app, pair = key
        program = application_by_name(app, 1.0).structure
        old, new = (_weighted(program.n_rows, _IO_LAYOUTS[k]) for k in pair)
        model = RedistributionModel(config_io(), program)
        assert self._fields(model.estimate(old, new)) == _IO_GOLDEN[key]

    @pytest.mark.parametrize("config", ["DC", "IO", "HY1", "HY2"])
    @pytest.mark.parametrize(
        "app", ["jacobi", "cg", "lanczos", "rna", "multigrid"]
    )
    def test_matches_reference_loop(self, app, config):
        cluster = table1_configs()[config]
        program = application_by_name(app, 1.0).structure
        model = RedistributionModel(cluster, program)
        rng = np.random.default_rng(len(app) * 31 + len(config))
        layouts = [block(cluster, program.n_rows)] + [
            GenBlock(rng.multinomial(
                program.n_rows, rng.dirichlet(np.ones(cluster.n_nodes))
            ).tolist())
            for _ in range(4)
        ]
        for old, new in zip(layouts, layouts[1:] + layouts[:1]):
            fast = model.estimate(old, new)
            ref = _estimate_reference(model, old, new)
            assert self._fields(fast) == self._fields(ref)


class TestAdaptiveGolden:
    def test_drift_on_io_with_spilled_endpoints(self):
        """A drifting IO cluster at paper scale: both rounds switch
        between layouts that spill on the 32 MiB nodes."""
        cluster = config_io()
        program = application_by_name("jacobi", 1.0).structure
        report = AdaptiveRuntime(
            cluster, program,
            dynamics=dynamics_scenario("drift", cluster.n_nodes),
        ).run()
        assert report.chosen_distribution.counts == (
            410, 410, 409, 409, 1128, 1809, 1809, 1808,
        )
        assert [repr(r.redistribution_seconds) for r in report.rounds] == [
            "4.776062000000001", "0.87098432",
        ]
        assert repr(report.redistribution_seconds) == "5.647046320000001"
        assert repr(report.remaining_seconds) == "105.96682200392092"
        assert repr(report.static_seconds) == "702.4075395238709"


class TestStaticInstrumentedIteration:
    @pytest.mark.parametrize("config, app, seconds", [
        (config_io, "jacobi", "1.805250578621409"),
        (config_dc, "cg", "0.7774266438954048"),
    ])
    def test_one_instrumented_engine_run(self, monkeypatch, config, app, seconds):
        """A static run pays for the instrumented iteration its
        measurements come from, and emulates it once."""
        import repro.parallel.cache as cache_mod

        monkeypatch.setattr(cache_mod, "_DEFAULT_RUN_CACHE", cache_mod.RunCache())
        instrumented = []
        lower = ClusterEmulator._lower_tapes

        def counting(self, *args, **kwargs):
            if kwargs.get("instrumented"):
                instrumented.append(args[2])
            return lower(self, *args, **kwargs)

        monkeypatch.setattr(ClusterEmulator, "_lower_tapes", counting)
        report = AdaptiveRuntime(
            config(), application_by_name(app, 0.25).structure
        ).run()
        assert instrumented == [1]
        assert repr(report.instrumented_seconds) == seconds


class TestAdaptivePayoff:
    """The multi-round payoff on a homogeneous cluster whose nodes drift
    mid-run, with every overhead charged, and its stationary control
    arm: the claim ``benchmarks/test_bench_adaptive.py`` checks at paper
    scale, here at a quarter of it."""

    @staticmethod
    def _run(scenario):
        cluster = baseline_cluster()
        program = application_by_name("jacobi", 0.25).structure
        return AdaptiveRuntime(
            cluster, program,
            dynamics=dynamics_scenario(scenario, cluster.n_nodes),
            check_interval=10, drift_threshold=0.25,
        ).run()

    def test_beats_static_under_drift(self):
        report = self._run("drift")
        assert report.n_rounds >= 2
        assert report.adaptive_seconds < report.static_seconds

    def test_stationary_stays_one_round(self):
        assert self._run("stationary").n_rounds == 1

    def test_prediction_covers_every_segment(self):
        """The report predicts what ``remaining_seconds`` measures: each
        round's layout over the iterations its segment ran, summed
        over rounds (not the last round's prediction alone)."""
        report = self._run("drift")
        assert report.n_rounds >= 2
        assert report.predicted_remaining_seconds == sum(
            r.predicted_seconds for r in report.rounds
        )
        assert all(r.predicted_seconds > 0 for r in report.rounds)
        assert report.remaining_seconds == pytest.approx(
            report.predicted_remaining_seconds, rel=0.15
        )


class TestAdaptiveRuntime:
    def _runtime(self, cluster=None, **kwargs):
        cluster = cluster or config_dc()
        program = make_jacobi_like(n_rows=2048, cols=512, iterations=40)
        return AdaptiveRuntime(cluster, program, **kwargs), program

    def test_beats_static_on_dc(self):
        runtime, _ = self._runtime()
        report = runtime.run()
        assert report.switched
        assert report.adaptive_seconds < report.static_seconds
        assert report.speedup_vs_static > 1.0

    def test_report_totals_consistent(self):
        runtime, _ = self._runtime()
        report = runtime.run()
        assert report.adaptive_seconds == pytest.approx(
            report.instrumented_seconds
            + report.search_wall_seconds
            + report.redistribution_seconds
            + report.remaining_seconds
        )

    def test_prediction_matches_reality(self):
        runtime, _ = self._runtime()
        report = runtime.run()
        assert report.remaining_seconds == pytest.approx(
            report.predicted_remaining_seconds, rel=0.10
        )

    def test_refused_switch_predicts_the_kept_layout(self):
        """A switch the safety factor refuses leaves the start layout
        running, so that is the layout the report predicts."""
        cluster = config_dc()
        program = make_jacobi_like(n_rows=2048, cols=512, iterations=8)
        report = AdaptiveRuntime(cluster, program, safety_factor=1e9).run()
        assert not report.switched
        (round0,) = report.rounds
        assert report.predicted_remaining_seconds == round0.predicted_seconds
        assert report.remaining_seconds == pytest.approx(
            report.predicted_remaining_seconds, rel=0.01
        )

    def test_homogeneous_cluster_keeps_start(self):
        cluster = baseline_cluster()
        program = make_jacobi_like(n_rows=2048, cols=512, iterations=8)
        runtime = AdaptiveRuntime(cluster, program)
        report = runtime.run()
        # Nothing to gain: Blk is already balanced and in core.
        assert not report.switched
        assert report.redistribution_seconds == 0.0

    def test_custom_search_used(self):
        cluster = config_dc()
        program = make_jacobi_like(n_rows=2048, cols=512, iterations=8)
        # A search that cannot find anything: keeps the start.
        runtime = AdaptiveRuntime(cluster, program, search_budget=1)
        report = runtime.run()
        assert report.search_evaluations <= 1

    def test_custom_start_distribution(self):
        cluster = config_dc()
        program = make_jacobi_like(n_rows=2048, cols=512, iterations=8)
        start = balanced(cluster, program.n_rows)
        report = AdaptiveRuntime(cluster, program).run(start=start)
        assert report.start_distribution == start
        # Starting at the optimum: no switch needed.
        assert not report.switched

    def test_single_iteration_static_run(self):
        """Nothing remains after the instrumented iteration: no
        prediction is asked for, nothing is switched or run."""
        cluster = config_dc()
        program = make_jacobi_like(n_rows=2048, cols=512, iterations=1)
        report = AdaptiveRuntime(cluster, program).run()
        assert not report.switched
        assert report.redistribution_seconds == 0.0
        assert report.remaining_seconds == 0.0
        assert report.predicted_remaining_seconds == 0.0
        assert report.rounds[0].iterations == 0
        assert report.static_seconds > 0.0

    def test_describe_renders(self):
        runtime, _ = self._runtime()
        text = runtime.run().describe()
        assert "speedup" in text
        assert "search" in text
