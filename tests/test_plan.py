"""The process-wide plan LRU (``repro.core.plan``).

Compiled :class:`~repro.sim.plan_sim.EmulationPlan` objects are shared
through one bounded LRU keyed by a content key of the configuration.
These tests pin the LRU itself: sharing between equivalent
configurations, distinct keys for distinct ones, ``discard_plan``, the
``plan_cache_stats`` keys, and the compile counter, timer and span.  The
replay contract of the plans lives in ``test_plan_tape.py``.
"""

from __future__ import annotations

import pytest

from repro.apps import ConjugateGradientApp, JacobiApp
from repro.cluster import configs
from repro.core.plan import discard_plan, plan_cache_stats, reset_plan_cache
from repro.distribution import block
from repro.obs import Recorder
from repro.sim import PerturbationConfig, emulate_many
from repro.sim.plan_sim import emulation_plan_key, get_emulation_plan

SCALE = 0.05
NOISY = PerturbationConfig()


@pytest.fixture(autouse=True)
def _clean_plan_cache():
    reset_plan_cache()
    yield
    reset_plan_cache()


def _config(app=JacobiApp, config=configs.config_hy1):
    return config(), app.paper(SCALE).structure, NOISY


def test_equivalent_models_share_one_plan():
    """Two equal configurations hit the same plan: exactly one
    compile."""
    a = get_emulation_plan(*_config())
    b = get_emulation_plan(*_config())
    assert a is b
    stats = plan_cache_stats()
    assert stats["compiles"] == 1
    assert stats["hits"] == 1


def test_compile_time_is_the_first_replays():
    """Building a plan compiles nothing yet; its first replay compiles
    it and adds the compile's seconds, and a later replay adds none."""
    cluster, program, perturbation = _config()
    plan = get_emulation_plan(cluster, program, perturbation)
    assert plan_cache_stats()["compile_seconds"] == 0.0
    dist = block(cluster, program.n_rows)
    assert plan.replay(dist, 3) is not None
    compiled = plan_cache_stats()["compile_seconds"]
    assert compiled > 0.0
    assert plan.replay(dist, 3) is not None
    assert plan_cache_stats()["compile_seconds"] == compiled


def test_distinct_triples_compile_distinct_plans():
    configs_ = [
        _config(JacobiApp, configs.config_hy1),
        _config(JacobiApp, configs.config_dc),
        _config(ConjugateGradientApp, configs.config_hy1),
    ]
    assert len({emulation_plan_key(*c) for c in configs_}) == 3
    plans = {id(get_emulation_plan(*c)) for c in configs_}
    assert len(plans) == 3
    assert plan_cache_stats()["compiles"] == 3


def test_discard_plan_drops_cache_entry():
    config = _config()
    first = get_emulation_plan(*config)
    assert plan_cache_stats()["size"] == 1
    assert discard_plan(emulation_plan_key(*config))
    assert plan_cache_stats()["size"] == 0
    # Discarding a gone key reports it; the next use recompiles.
    assert not discard_plan(emulation_plan_key(*config))
    assert get_emulation_plan(*config) is not first
    assert plan_cache_stats()["compiles"] == 2


def test_compile_span_and_counters_recorded():
    cluster, program, perturbation = _config()
    rec = Recorder()
    emulate_many(
        cluster, program, [block(cluster, program.n_rows)],
        perturbation=perturbation, run_cache=False, telemetry=rec,
    )
    flat = str(rec.snapshot())
    assert "plan/compile" in flat
    assert "model/plan_cache/compiles" in flat
    assert plan_cache_stats()["compiles"] == 1


def test_plan_cache_stats_keys():
    stats = plan_cache_stats()
    for key in ("hits", "misses", "compiles", "compile_seconds",
                "numba_active", "size", "maxsize"):
        assert key in stats
    assert stats["numba_active"] is False
