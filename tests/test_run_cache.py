"""RunCache semantics: frozen payloads, key memoisation, disk tier."""

import json

import pytest

from repro.apps import JacobiApp
from repro.cluster import dynamics_scenario, table1_configs
from repro.distribution import block
from repro.parallel.cache import RunCache, SweepCache, content_key
from repro.sim import FastForwardPolicy, PerturbationConfig, emulate

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
            cluster, program, d, ITERATIONS, DETERMINISTIC, instrumented=False,
        )
        base = RunCache.key_base(
            cluster, program, ITERATIONS, DETERMINISTIC, instrumented=False,
        )
        assert RunCache.key_from_base(base, d.counts) == direct

    def test_memo_respects_flags_and_iterations(self):
        cluster, program, d = _setup()
        keys = {
            RunCache.key_base(
                cluster, program, it, DETERMINISTIC,
                instrumented=instr,
            )
            for it in (8, 16)
            for instr in (False, True)
        }
        assert len(keys) == 4

    def test_dynamics_is_part_of_the_key(self):
        """Static and dynamic runs of one layout never share an entry:
        one store serves each scenario its own emulation."""
        cluster, program, d = _setup()
        specs = [
            None,
            dynamics_scenario("drift", cluster.n_nodes, start=2),
            dynamics_scenario("load-spike", cluster.n_nodes, start=2),
        ]
        keys = {
            RunCache.key(
                cluster, program, d, ITERATIONS, DETERMINISTIC, dynamics=spec
            )
            for spec in specs
        }
        assert len(keys) == len(specs)
        store = RunCache()

        def total(spec):
            return emulate(
                cluster, program, d, perturbation=DETERMINISTIC,
                dynamics=spec, run_cache=store,
            ).total_seconds

        totals = [total(spec) for spec in specs]
        assert len(store) == len(specs)
        assert len(set(totals)) == len(specs)
        assert [total(spec) for spec in specs] == totals
        assert store.hits == len(specs)

    def test_repeated_key_base_is_stable(self):
        cluster, program, _ = _setup()
        a = RunCache.key_base(cluster, program, ITERATIONS, DETERMINISTIC)
        b = RunCache.key_base(cluster, program, ITERATIONS, DETERMINISTIC)
        assert a == b

    def test_keys_are_pinned(self):
        """Keys are persisted by ``--run-cache``/``--cache``
        files: however they are assembled, their bytes never change."""
        cluster, program, d = _setup()
        spec = dynamics_scenario("drift", cluster.n_nodes, start=2)
        assert RunCache.key_base(
            cluster, program, ITERATIONS, DETERMINISTIC
        ) == "216598baa8b48271a6b171a80cebd5fa66903afdb6076824b9766a73bc852ac5"
        assert RunCache.key_base(
            cluster, program, ITERATIONS, DETERMINISTIC, instrumented=True,
            dynamics=spec, io_mode="sync", iteration_offset=3,
        ) == "42382e1720c9474fcfede9f6d0e964558ddc5a29e822742714b155400203a146"
        assert RunCache.key(
            cluster, program, d, ITERATIONS, DETERMINISTIC
        ) == "ccfe25813256a3f3f9d63b860e4c48b54eac04581e718847eb422eb8feccdc02"
        assert content_key(
            cluster, program, DETERMINISTIC, FastForwardPolicy()
        ) == "300946ab78411ad84363acc3ba902ca5719bc79baaa387ddf1b536e3701ffaee"
        assert SweepCache.key(
            cluster, program, d, DETERMINISTIC
        ) == "9b9c5eb7a1ad8b4c48aca1edd00c22a9838626d5c96eecb5236c4e76ea940340"


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
            cluster, program, d, ITERATIONS, DETERMINISTIC, instrumented=False,
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
            cluster, program, d, ITERATIONS, DETERMINISTIC, instrumented=False,
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
         b"\xff\xfe{}", b'{"k": [1.0, [], [], [], 1, false]}',
         b'{"k": [1.0, [], [], [-1, 3], 1, false]}'],
        ids=["list", "list-entry", "bad-entry", "bad-utf8", "empty-counts",
             "negative-counts"],
    )
    def test_malformed_file_loads_empty(self, tmp_path, content):
        path = tmp_path / "runs.json"
        path.write_bytes(content)
        store = RunCache(path=path)
        assert len(store) == 0
        assert store.loaded_from_disk == 0

    def test_bad_entry_skipped_and_good_one_kept(self, tmp_path):
        """One undecodable entry costs only itself: the good entry
        loads, and a later save keeps it."""
        cluster, program, d = _setup()
        path = tmp_path / "runs.json"
        a = RunCache(path=path)
        emulate(cluster, program, d, perturbation=DETERMINISTIC, run_cache=a)
        a.save()
        content = json.loads(path.read_text())
        (key_a,) = content
        content["bad"] = [1.0, [], [], [], 1, False]  # empty counts
        path.write_text(json.dumps(content))
        b = RunCache(path=path)
        assert len(b) == 1
        assert b.loaded_from_disk == 1
        assert b.get(key_a) is not None
        key_c = "0" * 64
        b.put(key_c, b.get(key_a))
        b.save()
        merged = json.loads(path.read_text())
        assert set(merged) == {key_a, key_c}
        assert RunCache(path=path).loaded_from_disk == 2

    def test_save_without_path_is_noop(self):
        RunCache().save()
