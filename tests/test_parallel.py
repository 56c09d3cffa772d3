"""Tests for the fan-out execution layer (repro.parallel)."""

import pytest

from repro.cluster import config_dc, config_io
from repro.distribution import GenBlock, balanced, block
from repro.experiments import build_model, fig9_accuracy, run_spectrum
from repro.parallel import (
    ParallelRunner,
    SweepCache,
    content_key,
    predict_sharded,
    resolve_jobs,
    split_shards,
    verify_distributions,
)
from repro.apps import JacobiApp

SCALE = 0.02  # tiny problems: full protocol, milliseconds of wall time


def _square(x):
    return x * x


def _square_shard(shard):
    return [x * x for x in shard]


class TestParallelRunner:
    def test_serial_fallback_is_plain_map(self):
        assert ParallelRunner(1).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_preserves_input_order(self):
        items = list(range(20))
        assert ParallelRunner(4).map(_square, items) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = [5, 2, 9, 4]
        assert ParallelRunner(3).map(_square, items) == ParallelRunner(1).map(
            _square, items
        )

    def test_empty_and_singleton(self):
        assert ParallelRunner(4).map(_square, []) == []
        assert ParallelRunner(4).map(_square, [7]) == [49]

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1  # one worker per CPU


class TestShards:
    def test_split_preserves_order_and_content(self):
        items = list(range(10))
        shards = split_shards(items, 3)
        assert [x for shard in shards for x in shard] == items
        assert [len(s) for s in shards] == [4, 3, 3]  # near-equal, large first

    def test_split_never_exceeds_item_count(self):
        assert split_shards([1, 2], 8) == [[1], [2]]
        assert split_shards([], 4) == []
        assert split_shards([1, 2, 3], 1) == [[1, 2, 3]]

    def test_map_shards_matches_flat_map(self):
        items = list(range(23))
        for jobs in (1, 3):
            got = ParallelRunner(jobs).map_shards(_square_shard, items)
            assert got == [x * x for x in items]

    def test_sharded_prediction_bit_identical(self):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        model = build_model(cluster, program)
        dists = [
            block(cluster, program.n_rows),
            balanced(cluster, program.n_rows),
            block(cluster, program.n_rows).moved(0, 1, 3),
        ]
        serial = predict_sharded(model, dists, jobs=1)
        assert serial == [
            float(v) for v in model.predict(dists, batch=True)
        ]
        assert predict_sharded(model, dists, jobs=2) == serial


class TestContentKey:
    def test_equal_content_equal_key(self):
        a = config_dc()
        b = config_dc()
        assert a is not b
        assert content_key(a) == content_key(b)

    def test_different_content_different_key(self):
        assert content_key(config_dc()) != content_key(config_io())

    def test_distribution_changes_key(self):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d1 = block(cluster, program.n_rows)
        d2 = balanced(cluster, program.n_rows)
        k1 = SweepCache.key(cluster, program, d1)
        k2 = SweepCache.key(cluster, program, d2)
        assert (k1 == k2) == (d1.counts == d2.counts)

    def test_program_scale_changes_key(self):
        cluster = config_dc()
        small = JacobiApp.paper(scale=SCALE).structure
        big = JacobiApp.paper(scale=2 * SCALE).structure
        assert content_key(cluster, small) != content_key(cluster, big)


class TestSweepCache:
    def test_hit_and_miss_counters(self):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d = block(cluster, program.n_rows)
        cache = SweepCache()
        assert cache.lookup(cluster, program, d) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.store(cluster, program, d, 1.5, 1.4)
        assert cache.lookup(cluster, program, d) == (1.5, 1.4)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_disk_round_trip(self, tmp_path):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d = block(cluster, program.n_rows)
        path = tmp_path / "sweep-cache.json"
        cache = SweepCache(path)
        cache.store(cluster, program, d, 2.0, 2.1)
        cache.save()
        reloaded = SweepCache(path)
        assert len(reloaded) == 1
        assert reloaded.lookup(cluster, program, d) == (2.0, 2.1)

    def test_perturbation_part_of_key(self):
        from repro.sim import PerturbationConfig

        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d = block(cluster, program.n_rows)
        cache = SweepCache()
        cache.store(cluster, program, d, 1.0, 1.0)
        assert (
            cache.lookup(cluster, program, d, PerturbationConfig.none())
            is None
        )

    def test_max_entries_bounds_store(self):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        rows = program.n_rows
        n = len(cluster.nodes)
        dists = [
            GenBlock([rows - i * (n - 1)] + [i] * (n - 1)) for i in range(6)
        ]
        cache = SweepCache(max_entries=3)
        for i, d in enumerate(dists):
            cache.store(cluster, program, d, float(i), float(i))
        assert len(cache) == 3
        # The three most recent survive; the oldest were evicted.
        assert cache.lookup(cluster, program, dists[-1]) == (5.0, 5.0)
        assert cache.lookup(cluster, program, dists[0]) is None

    def test_max_entries_round_trip_to_disk(self, tmp_path):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d = block(cluster, program.n_rows)
        path = tmp_path / "bounded-cache.json"
        cache = SweepCache(path, max_entries=8)
        cache.store(cluster, program, d, 3.0, 3.5)
        cache.save()
        reloaded = SweepCache(path, max_entries=8)
        assert reloaded.lookup(cluster, program, d) == (3.0, 3.5)

    def test_interleaved_saves_merge_instead_of_clobbering(self, tmp_path):
        # Regression: save() used to overwrite the file with this
        # cache's view only, silently dropping entries a concurrent
        # process had written since load.  Two caches opened against
        # the same (empty) file stand in for two server processes.
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d1 = block(cluster, program.n_rows)
        d2 = balanced(cluster, program.n_rows)
        assert d1.counts != d2.counts
        path = tmp_path / "fleet-cache.json"
        a = SweepCache(path)
        b = SweepCache(path)
        a.store(cluster, program, d1, 1.0, 1.1)
        b.store(cluster, program, d2, 2.0, 2.2)
        a.save()
        b.save()  # must re-read and keep a's entry
        merged = SweepCache(path)
        assert merged.lookup(cluster, program, d1) == (1.0, 1.1)
        assert merged.lookup(cluster, program, d2) == (2.0, 2.2)
        # The atomic-replace path leaves no temp litter behind.
        assert [p.name for p in tmp_path.iterdir()] == ["fleet-cache.json"]

    def test_save_tolerates_corrupt_disk_file(self, tmp_path):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d = block(cluster, program.n_rows)
        path = tmp_path / "corrupt.json"
        path.write_text('{"half-written', encoding="utf-8")
        cache = SweepCache()  # no path yet: loading would also tolerate it
        cache.path = path
        cache.store(cluster, program, d, 1.0, 1.0)
        cache.save()
        assert SweepCache(path).lookup(cluster, program, d) == (1.0, 1.0)

    @pytest.mark.parametrize(
        "content",
        [b"[1, 2]", b'{"k": [1]}', b'{"k": ["x", 1]}', b'{"k": 5}',
         b'{"k": [1, 2]', b"\xff\xfe{}"],
        ids=["list", "short-entry", "non-numeric", "scalar-entry",
             "truncated", "bad-utf8"],
    )
    def test_malformed_disk_file_loads_empty(self, tmp_path, content):
        path = tmp_path / "malformed.json"
        path.write_bytes(content)
        cache = SweepCache(path)
        assert len(cache) == 0
        # ...and the next save replaces the file with a readable one.
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d = block(cluster, program.n_rows)
        cache.store(cluster, program, d, 1.0, 1.0)
        cache.save()
        assert SweepCache(path).lookup(cluster, program, d) == (1.0, 1.0)

    def test_bounded_counters_single_source_of_truth(self):
        # Regression: a bounded SweepCache used to increment its own
        # hit/miss counters *and* the backing LRU's, so `repro stats`
        # could report two disagreeing figures for one cache.
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d1 = block(cluster, program.n_rows)
        d2 = balanced(cluster, program.n_rows)
        cache = SweepCache(max_entries=4)
        cache.lookup(cluster, program, d1)        # miss
        cache.store(cluster, program, d1, 1.0, 1.0)
        cache.lookup(cluster, program, d1)        # hit
        cache.lookup(cluster, program, d2)        # miss
        assert (cache.hits, cache.misses) == (1, 2)
        assert cache.hits == cache._store.hits
        assert cache.misses == cache._store.misses
        assert cache.stats == {"size": 1, "hits": 1, "misses": 2}

    def test_unbounded_counters_unchanged(self):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure
        d = block(cluster, program.n_rows)
        cache = SweepCache()
        cache.lookup(cluster, program, d)
        cache.store(cluster, program, d, 1.0, 1.0)
        cache.lookup(cluster, program, d)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.stats == {"size": 1, "hits": 1, "misses": 1}


class TestPredictMany:
    def test_bit_identical_to_predict_seconds(self):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(3)
        model = build_model(cluster, program)
        candidates = [
            block(cluster, program.n_rows),
            balanced(cluster, program.n_rows),
            block(cluster, program.n_rows),  # shared row counts hit the memo
        ]
        batched = model.predict(candidates, batch="serial")
        assert batched == [model.predict(d) for d in candidates]


def _points(run):
    return [(p.label, p.actual_seconds, p.predicted_seconds) for p in run.points]


class TestSpectrumEquivalence:
    def test_run_spectrum_jobs_bit_identical(self):
        cluster = config_io()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(3)
        serial = run_spectrum(cluster, program, steps_per_leg=2, jobs=1)
        fanned = run_spectrum(cluster, program, steps_per_leg=2, jobs=4)
        assert _points(serial) == _points(fanned)

    def test_run_spectrum_cache_bit_identical(self):
        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(3)
        cache = SweepCache()
        cold = run_spectrum(cluster, program, steps_per_leg=2, cache=cache)
        stored = len(cache)
        warm = run_spectrum(cluster, program, steps_per_leg=2, cache=cache)
        assert _points(cold) == _points(warm)
        assert stored > 0
        assert len(cache) == stored  # nothing re-emulated
        assert cache.hits >= stored

    def test_fig9_jobs_bit_identical(self):
        kwargs = dict(
            panel="all",
            architectures=[config_dc(), config_io()],
            scale=SCALE,
            steps_per_leg=1,
        )
        serial = fig9_accuracy(jobs=1, **kwargs)
        fanned = fig9_accuracy(jobs=4, **kwargs)
        assert serial.labels == fanned.labels
        assert serial.minimum == fanned.minimum
        assert serial.average == fanned.average
        assert serial.maximum == fanned.maximum
        for a, b in zip(serial.runs, fanned.runs):
            assert _points(a) == _points(b)


class TestVerifyDistributions:
    def test_matches_direct_emulation(self):
        from repro.sim import ClusterEmulator

        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(3)
        dists = [
            block(cluster, program.n_rows),
            balanced(cluster, program.n_rows),
        ]
        emulator = ClusterEmulator(cluster, program)
        direct = [emulator.run(d).total_seconds for d in dists]
        assert verify_distributions(cluster, program, dists, jobs=1) == direct
        assert verify_distributions(cluster, program, dists, jobs=2) == direct
