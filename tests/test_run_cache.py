"""RunCache semantics: frozen payloads, key memoisation, disk tier."""

import json

import pytest

from repro.apps import JacobiApp
from repro.cluster import table1_configs
from repro.distribution import block
from repro.parallel.cache import RunCache
from repro.sim import PerturbationConfig, emulate

SCALE = 0.05
ITERATIONS = 16
DETERMINISTIC = PerturbationConfig().without(compute_noise=False)


def _setup():
    cluster = table1_configs()["HY1"]
    program = JacobiApp.paper(SCALE).structure.with_iterations(ITERATIONS)
    return cluster, program, block(cluster, program.n_rows)


class TestFrozenPayloads:
    def test_mutated_result_never_poisons_the_cache(self):
        cluster, program, d = _setup()
        store = RunCache()
        first = emulate(
            cluster, program, d,
            perturbation=DETERMINISTIC, run_cache=store,
        )
        pristine_total = first.total_seconds
        pristine_node0 = first.per_node_seconds[0]
        pristine_end = first.iteration_ends[0][0]
        # Trash every mutable field of the returned result.
        first.per_node_seconds[0] = -1.0
        first.iteration_ends[0][0] = -1.0
        second = emulate(
            cluster, program, d,
            perturbation=DETERMINISTIC, run_cache=store,
        )
        assert second.total_seconds == pristine_total
        assert second.per_node_seconds[0] == pristine_node0
        assert second.iteration_ends[0][0] == pristine_end
        # And hits hand out private copies, not shared state.
        third = emulate(
            cluster, program, d,
            perturbation=DETERMINISTIC, run_cache=store,
        )
        second.per_node_seconds[0] = -2.0
        assert third.per_node_seconds[0] == pristine_node0

    def test_hit_returns_mutable_lists(self):
        cluster, program, d = _setup()
        store = RunCache()
        emulate(cluster, program, d, perturbation=DETERMINISTIC, run_cache=store)
        hit = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=store,
        )
        assert isinstance(hit.per_node_seconds, list)
        assert isinstance(hit.iteration_ends[0], list)


class TestKeyMemoisation:
    def test_key_base_composition_matches_key(self):
        cluster, program, d = _setup()
        direct = RunCache.key(
            cluster, program, d, ITERATIONS, DETERMINISTIC,
            instrumented=False, fast_forward=True,
        )
        base = RunCache.key_base(
            cluster, program, ITERATIONS, DETERMINISTIC,
            instrumented=False, fast_forward=True,
        )
        assert RunCache.key_from_base(base, d.counts) == direct

    def test_memo_respects_flags_and_iterations(self):
        cluster, program, d = _setup()
        keys = {
            RunCache.key_base(
                cluster, program, it, DETERMINISTIC,
                instrumented=instr, fast_forward=ff,
            )
            for it in (8, 16)
            for instr in (False, True)
            for ff in (False, True)
        }
        assert len(keys) == 8

    def test_repeated_key_base_is_stable(self):
        cluster, program, _ = _setup()
        a = RunCache.key_base(cluster, program, ITERATIONS, DETERMINISTIC)
        b = RunCache.key_base(cluster, program, ITERATIONS, DETERMINISTIC)
        assert a == b


class TestDiskTier:
    def test_round_trip(self, tmp_path):
        cluster, program, d = _setup()
        path = tmp_path / "runs.json"
        store = RunCache(path=path)
        result = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=store,
        )
        store.save()
        assert path.exists()
        reloaded = RunCache(path=path)
        assert reloaded.loaded_from_disk == 1
        key = RunCache.key(
            cluster, program, d, ITERATIONS, DETERMINISTIC,
            instrumented=False, fast_forward=True,
        )
        hit = reloaded.get(key)
        assert hit is not None
        assert hit.total_seconds == result.total_seconds
        assert list(hit.per_node_seconds) == list(result.per_node_seconds)
        assert [list(e) for e in hit.iteration_ends] == [
            list(e) for e in result.iteration_ends
        ]
        assert tuple(hit.distribution.counts) == tuple(d.counts)
        assert hit.iterations == result.iterations
        assert hit.fast_forwarded == result.fast_forwarded

    def test_save_merges_with_existing_file(self, tmp_path):
        cluster, program, d = _setup()
        path = tmp_path / "runs.json"
        a = RunCache(path=path)
        result = emulate(
            cluster, program, d, perturbation=DETERMINISTIC, run_cache=a,
        )
        a.save()
        b = RunCache(path=path)
        key_b = "0" * 64
        b.put(key_b, result)
        b.save()
        merged = json.loads(path.read_text())
        assert len(merged) == 2
        # The first process's entry survived the second's save.
        key_a = RunCache.key(
            cluster, program, d, ITERATIONS, DETERMINISTIC,
            instrumented=False, fast_forward=True,
        )
        assert key_a in merged and key_b in merged

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "runs.json"
        path.write_text("{not json")
        store = RunCache(path=path)
        assert len(store) == 0
        assert store.loaded_from_disk == 0

    @pytest.mark.parametrize(
        "content",
        [b"[1, 2]", b'{"k": [1]}', b'{"k": {"total_seconds": "x"}}',
         b"\xff\xfe{}"],
        ids=["list", "list-entry", "bad-entry", "bad-utf8"],
    )
    def test_malformed_file_loads_empty(self, tmp_path, content):
        path = tmp_path / "runs.json"
        path.write_bytes(content)
        store = RunCache(path=path)
        assert len(store) == 0
        assert store.loaded_from_disk == 0

    def test_save_without_path_is_noop(self):
        RunCache().save()
