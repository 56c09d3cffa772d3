"""Tests for the fan-out execution layer (repro.parallel)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import config_dc, config_io
from repro.distribution import GenBlock, balanced, block
from repro.experiments import build_model, fig9_accuracy, run_spectrum
from repro.parallel import (
    ParallelRunner,
    SweepCache,
    content_key,
    resolve_jobs,
    verify_distributions,
)
from repro.apps import JacobiApp
from repro.sim import PerturbationConfig

SCALE = 0.02  # tiny problems: full protocol, milliseconds of wall time


def _square(x):
    return x * x


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

    def test_two_processes_saving_interleaved(self, tmp_path):
        # The same merge with two real processes, both loaded before
        # either saves.
        path = tmp_path / "shared.json"
        script = (
            "import sys\n"
            "from repro.parallel import SweepCache\n"
            "from repro.distribution import GenBlock\n"
            "tag, value = sys.argv[1], float(sys.argv[2])\n"
            f"cache = SweepCache({str(path)!r})\n"
            "cache.store('cluster', tag, GenBlock([5, 3]), value, value)\n"
            "input()  # hold: both processes have loaded before either saves\n"
            "cache.save()\n"
            "print('saved')\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, tag, value],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            for tag, value in (("a", "1.0"), ("b", "2.0"))
        ]
        for proc in procs:  # release both: saves interleave
            proc.stdin.write("\n")
            proc.stdin.flush()
        for proc in procs:
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "saved" in out
        merged = SweepCache(path)
        assert merged.lookup("cluster", "a", GenBlock([5, 3])) == (1.0, 1.0)
        assert merged.lookup("cluster", "b", GenBlock([5, 3])) == (2.0, 2.0)

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
        batched = model.predict(candidates, batch=True)
        assert batched.tolist() == [model.predict(d) for d in candidates]


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

    def test_sharded_run_reads_and_fills_the_run_cache(self):
        """``jobs=2`` leaves the run cache holding what ``jobs=1``
        leaves, and a repeat is served from it without a worker."""
        from repro.obs import Recorder
        from repro.parallel import RunCache

        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(3)
        dists = [
            block(cluster, program.n_rows),
            balanced(cluster, program.n_rows),
            GenBlock((1,) * (cluster.n_nodes - 1)
                     + (program.n_rows - cluster.n_nodes + 1,)),
        ]
        keys = [
            RunCache.key(cluster, program, d, 3, PerturbationConfig())
            for d in dists
        ]
        serial, sharded = RunCache(), RunCache()
        totals = verify_distributions(
            cluster, program, dists, jobs=1, run_cache=serial
        )
        assert verify_distributions(
            cluster, program, dists, jobs=2, run_cache=sharded
        ) == totals
        assert len(sharded) == len(serial) == len(dists)
        for key in keys:
            a, b = serial.get(key), sharded.get(key)
            assert b is not None
            assert (a.total_seconds, a.per_node_seconds, a.iteration_ends) == (
                b.total_seconds, b.per_node_seconds, b.iteration_ends
            )
        rec = Recorder()
        hits = sharded.hits
        assert verify_distributions(
            cluster, program, dists, jobs=2, run_cache=sharded, telemetry=rec
        ) == totals
        assert sharded.hits - hits == len(dists)
        assert rec.counters["verify/cache_hits"] == len(dists)
        assert rec.counters.get("parallel/tasks", 0) == 0

    @pytest.mark.parametrize("profiled", [False, True])
    def test_sharded_run_reports_the_workers_telemetry(self, profiled):
        """``jobs=2`` reports the batch and fallback counts ``jobs=1``
        does: each worker's recorder is merged into the caller's."""
        from repro.obs import Recorder

        cluster = config_dc()
        program = JacobiApp.paper(scale=SCALE).structure.with_iterations(3)
        if profiled:  # every candidate is an engine fallback
            program = program.with_iteration_profile([1.0, 2.0, 1.5])
        dists = [
            block(cluster, program.n_rows),
            balanced(cluster, program.n_rows),
            GenBlock((1,) * (cluster.n_nodes - 1)
                     + (program.n_rows - cluster.n_nodes + 1,)),
        ]
        counters = []
        for jobs in (1, 2):
            rec = Recorder()
            verify_distributions(
                cluster, program, dists, jobs=jobs, run_cache=False,
                telemetry=rec,
            )
            counters.append(rec.counters)
        serial, sharded = counters
        for name in ("candidates", "plan_runs", "fallbacks"):
            assert sharded.get(f"sim/batch/{name}") == serial.get(
                f"sim/batch/{name}"
            ), name
        assert serial["sim/batch/candidates"] == len(dists)

        def fallbacks(c):
            return sum(n for k, n in c.items() if k.startswith("sim/fallback/"))

        assert fallbacks(sharded) == fallbacks(serial)
        assert fallbacks(serial) == (len(dists) if profiled else 0)
