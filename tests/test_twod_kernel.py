"""Golden equivalence and plan contract for the batched 2-D kernel.

The 2-D analogue of ``test_kernel_equivalence.py``: the scalar
reference loop and the vectorized numpy kernel must agree to <= 1e-12
relative on any valid ``GenBlock2D``, across cluster configurations
(including heterogeneous memory where some tiles stream out-of-core);
batched scoring must be bitwise equal to the serial path; and each
model keeps its own per-shape evaluation plans, outside the
process-wide plan LRU.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import baseline_cluster, config_dc
from repro.core.plan import plan_cache_stats, reset_plan_cache
from repro.distribution import largest_remainder_round
from repro.exceptions import ModelError
from repro.instrument.collect import MeasurementConfig
from repro.obs import Recorder
from repro.sim import PerturbationConfig
from repro.twod import (
    GenBlock2D,
    Jacobi2DSpec,
    TwoDModel,
    block2d,
    build_2d_model,
    factor_pairs,
)
from repro.util.units import mib

IDEAL = PerturbationConfig.none()
PERFECT = MeasurementConfig.perfect()
REL_TOL = 1e-12

COMMON = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=30,
)


@pytest.fixture(autouse=True)
def _clean_plan_cache():
    reset_plan_cache()
    yield
    reset_plan_cache()


def _mixed_cluster():
    base = baseline_cluster()
    powers = [1.0, 0.5, 2.0, 1.0, 1.0, 1.5, 1.0, 1.0]
    memories = [96, 4, 96, 8, 96, 96, 4, 96]
    nodes = [
        n.with_(cpu_power=powers[i], memory_bytes=mib(memories[i]))
        for i, n in enumerate(base.nodes)
    ]
    return base.with_nodes(nodes, name="mixed2d")


CLUSTERS = {"mixed2d": _mixed_cluster, "DC": config_dc}

_MODEL_CACHE = {}


def _models(cluster_name="mixed2d"):
    """(scalar, numpy) sibling models over identical inputs."""
    if cluster_name not in _MODEL_CACHE:
        cluster = CLUSTERS[cluster_name]()
        spec = Jacobi2DSpec(n_rows=512, n_cols=384, iterations=4)
        d0 = block2d(spec.n_rows, spec.n_cols, (2, 4))
        base = build_2d_model(
            cluster, spec, d0, perturbation=IDEAL, measurement=PERFECT
        )
        _MODEL_CACHE[cluster_name] = tuple(
            TwoDModel(cluster, spec, base.inputs, kernel=k)
            for k in ("scalar", "numpy")
        )
    scalar, numpy_m = _MODEL_CACHE[cluster_name]
    numpy_m.release_plans()  # every test starts with no plans built
    return scalar, numpy_m


def _dists(scalar, rng_seed=0, per_shape=3):
    rng = np.random.RandomState(rng_seed)
    spec = scalar.spec
    out = []
    for shape in factor_pairs(scalar.n_nodes):
        R, C = shape
        out.append(block2d(spec.n_rows, spec.n_cols, shape))
        for _ in range(per_shape - 1):
            rows = largest_remainder_round(
                rng.uniform(0.5, 2.0, size=R), spec.n_rows, minimum=1
            )
            cols = largest_remainder_round(
                rng.uniform(0.5, 2.0, size=C), spec.n_cols, minimum=1
            )
            out.append(GenBlock2D(rows, cols))
    return out


# -- golden equivalence -------------------------------------------------------


@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
def test_numpy_kernel_matches_scalar(cluster_name):
    scalar, numpy_m = _models(cluster_name)
    for d in _dists(scalar):
        want = scalar.predict(d)
        assert numpy_m.predict(d) == pytest.approx(want, rel=REL_TOL)


@COMMON
@given(
    shape_i=st.integers(0, 3),
    row_w=st.lists(
        st.floats(0.1, 10.0, allow_nan=False), min_size=8, max_size=8
    ),
    col_w=st.lists(
        st.floats(0.1, 10.0, allow_nan=False), min_size=8, max_size=8
    ),
)
def test_kernels_agree_on_generated_layouts(shape_i, row_w, col_w):
    scalar, numpy_m = _models()
    spec = scalar.spec
    shapes = factor_pairs(scalar.n_nodes)
    R, C = shapes[shape_i % len(shapes)]
    d = GenBlock2D(
        largest_remainder_round(
            np.array(row_w[:R]), spec.n_rows, minimum=1
        ),
        largest_remainder_round(
            np.array(col_w[:C]), spec.n_cols, minimum=1
        ),
    )
    assert numpy_m.predict(d) == pytest.approx(
        scalar.predict(d), rel=REL_TOL
    )


def test_batch_is_bitwise_equal_to_serial():
    _, numpy_m = _models()
    dists = _dists(numpy_m, rng_seed=1)
    batched = numpy_m.predict(dists, batch=True)
    serial = numpy_m.predict(dists, batch="serial")
    assert isinstance(batched, np.ndarray)
    assert batched.tolist() == serial


def test_single_call_is_bitwise_equal_to_batch_row():
    _, model = _models()
    dists = _dists(model, rng_seed=2)
    batched = model.predict(dists, batch=True)
    for d, want in zip(dists, batched):
        assert model.predict(d) == want


def test_report_totals_match_prediction():
    scalar, numpy_m = _models()
    d = block2d(scalar.spec.n_rows, scalar.spec.n_cols, (4, 2))
    for model in (scalar, numpy_m):
        rep = model.predict(d, report=True)
        assert len(rep.nodes) == model.n_nodes
        worst = max(n.total_seconds for n in rep.nodes)
        assert rep.total_seconds == pytest.approx(worst, rel=REL_TOL)
        assert rep.total_seconds == pytest.approx(
            model.predict(d), rel=REL_TOL
        )


def test_iterations_override_changes_result():
    _, model = _models()
    d = block2d(model.spec.n_rows, model.spec.n_cols, (2, 4))
    full = model.predict(d)
    short = model.predict(d, iterations=1)
    assert 0 < short < full


# -- per-model plans -----------------------------------------------------------


def test_distinct_shapes_compile_distinct_plans():
    _, model = _models()
    shapes = factor_pairs(model.n_nodes)
    plans = {id(model.ensure_plan(shape)) for shape in shapes}
    assert len(plans) == len(shapes)
    assert model.ensure_plan(shapes[0]) is model.ensure_plan(shapes[0])


def test_numpy_kernel_builds_private_plans():
    _, numpy_m = _models()
    numpy_m.predict(
        [block2d(numpy_m.spec.n_rows, numpy_m.spec.n_cols, (2, 4))],
        batch=True,
    )
    assert plan_cache_stats()["size"] == 0  # nothing went process-wide


def test_release_plans_discards_cache_entries():
    _, model = _models()
    model.ensure_plan((2, 4))
    model.ensure_plan((4, 2))
    assert len(model._plans) == 2
    model.release_plans()
    assert model._plans == {}
    model.release_plans()  # releasing twice is a no-op


def test_plan_results_survive_release_and_recompile():
    _, model = _models()
    dists = _dists(model, rng_seed=3)
    before = model.predict(dists, batch=True)
    model.release_plans()
    after = model.predict(dists, batch=True)
    assert (before == after).all()


def test_pickled_model_drops_plans_and_recompiles():
    _, model = _models()
    dists = _dists(model, rng_seed=4)
    want = model.predict(dists, batch=True)
    clone = pickle.loads(pickle.dumps(model))
    assert clone._plans == {}
    got = clone.predict(dists, batch=True)
    assert (want == got).all()


def test_matrix_memo_is_bounded():
    _, model = _models()
    spec = model.spec
    rng = np.random.RandomState(11)
    compiled = model.ensure_plan((2, 4))
    seen = set()
    while len(seen) < 12:
        rows = tuple(
            largest_remainder_round(
                rng.uniform(0.5, 2.0, size=2), spec.n_rows, minimum=1
            )
        )
        cols = tuple(
            largest_remainder_round(
                rng.uniform(0.5, 2.0, size=4), spec.n_cols, minimum=1
            )
        )
        if (rows, cols) in seen:
            continue
        seen.add((rows, cols))
        model.predict([GenBlock2D(rows, cols)], batch=True)
    assert len(compiled._m_memo) <= 8


def test_plan_stats_shape():
    _, model = _models()
    model.predict(
        _dists(model, rng_seed=5, per_shape=1), batch=True
    )
    stats = model.ensure_plan((2, 4)).stats
    assert stats["mode"] == "matrix2d"
    assert stats["grid_shape"] == (2, 4)
    assert stats["executes"] >= 1


# -- errors -------------------------------------------------------------------


def test_unknown_kernel_rejected():
    _, model = _models()
    for kernel in ("cuda", "plan"):
        with pytest.raises(ModelError, match="choose from"):
            TwoDModel(model.cluster, model.spec, model.inputs, kernel=kernel)


def test_wrong_coverage_rejected():
    _, model = _models()
    with pytest.raises(ModelError):
        model.predict(block2d(model.spec.n_rows, model.spec.n_cols, (2, 2)))
    with pytest.raises(ModelError):
        model.ensure_plan((3, 3))


def test_report_plus_batch_rejected():
    _, model = _models()
    d = block2d(model.spec.n_rows, model.spec.n_cols, (2, 4))
    with pytest.raises(ModelError):
        model.predict([d], batch=True, report=True)


# -- telemetry ----------------------------------------------------------------


def test_batch_telemetry_counters():
    _, model = _models()
    rec = Recorder()
    dists = _dists(model, rng_seed=6, per_shape=1)
    model.predict(dists, batch=True, telemetry=rec)
    assert rec.counters["model/predictions"] == len(dists)
    assert rec.counters["model/batch_predictions"] == 1
    # Per-model plans: nothing process-wide to report.
    assert not any(k.startswith("model/plan_cache") for k in rec.gauges)
