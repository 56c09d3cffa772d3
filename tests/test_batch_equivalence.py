"""Bitwise identity: a single prediction is a batch of one.

``MhetaModel.predict(dists, batch=True)`` evaluates a whole population
of GEN_BLOCK candidates in one vectorized pass — clocks become
``(B, P)``, section matrices ``(B, P, P)`` — and ``predict(d)`` /
``predict(d, report=True)`` run that same pass on a batch of one.  No
reduction ever crosses the candidate axis, so for every candidate
``predict(d) == predict(d, report=True).total_seconds ==
predict(cands, batch=True)[i]`` exactly — on every seed app, every seed
cluster, the prefetch variant, iteration-profile programs, the 2-D
model, and hypothesis-randomized batches.  The batch also holds the
golden contract against the scalar reference of
``tests/model_reference.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import (
    ConjugateGradientApp,
    JacobiApp,
    LanczosApp,
    MultigridApp,
    RnaPipelineApp,
)
from repro.cluster import configs
from repro.core.model import MhetaModel
from repro.distribution import GenBlock, block, largest_remainder_round, spectrum
from repro.exceptions import ModelError
from repro.instrument.collect import collect_inputs
from tests.model_reference import ReferenceModel

REL_TOL = 1e-12
SCALE = 0.05

#: Parametrizes cases with the ``numpy`` id, which names the prediction
#: path they pin and keeps the suite's test ids stable.
NUMPY_PATH = pytest.mark.parametrize("path", ["numpy"])

APPS = {
    "jacobi": JacobiApp,
    "cg": ConjugateGradientApp,
    "rna": RnaPipelineApp,
    "lanczos": LanczosApp,
    "multigrid": MultigridApp,
}
CLUSTERS = {
    "DC": configs.config_dc,
    "IO": configs.config_io,
    "HY1": configs.config_hy1,
    "HY2": configs.config_hy2,
}


def _model(cluster, program, model_cls=MhetaModel, **kwargs):
    inputs = collect_inputs(cluster, program, block(cluster, program.n_rows))
    return model_cls(program, cluster, inputs, **kwargs)


def _candidates(cluster, program):
    """Block plus the full spectrum walk — the shapes searches batch."""
    cands = [block(cluster, program.n_rows)]
    cands += [p.distribution
              for p in spectrum(cluster, program, steps_per_leg=3)]
    return cands


def _assert_bitwise_identical(model, cands, report=True):
    """``predict(d) == predict(d, report=True).total_seconds ==
    predict(cands, batch=True)[i]`` bit for bit, for every candidate."""
    batch = model.predict(cands, batch=True)
    assert isinstance(batch, np.ndarray)
    assert batch.shape == (len(cands),)
    for dist, got in zip(cands, batch):
        want = model.predict(dist)
        assert want > 0
        assert got == want, (
            f"batch diverges from single call for {dist}: "
            f"single={want!r} batch={got!r}"
        )
        if report:
            assert model.predict(dist, report=True).total_seconds == want


# -- golden sweep: every seed app on every seed cluster ----------------------


@NUMPY_PATH
@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_batch_equivalence(app_name, cluster_name, path):
    cluster = CLUSTERS[cluster_name]()
    program = APPS[app_name].paper(SCALE).structure
    model = _model(cluster, program)
    _assert_bitwise_identical(model, _candidates(cluster, program))


@pytest.mark.parametrize("cluster_name", ["IO", "HY1"])
@pytest.mark.parametrize("app_name", ["jacobi", "rna"])
def test_batch_equivalence_prefetch(app_name, cluster_name):
    """The prefetch I/O model (Equation 2) through the batched kernel."""
    cluster = CLUSTERS[cluster_name]()
    program = APPS[app_name].paper(SCALE).prefetching()
    model = _model(cluster, program)
    _assert_bitwise_identical(model, _candidates(cluster, program))


@pytest.mark.parametrize("cluster_name", ["DC", "HY2"])
def test_batch_equivalence_iteration_profile(cluster_name):
    """Iteration-profile programs walk every iteration's section ops
    over the batch — same contract."""
    cluster = CLUSTERS[cluster_name]()
    base = JacobiApp.paper(SCALE).structure
    profile = 1.0 + 0.5 * np.sin(np.arange(base.iterations))
    program = base.with_iteration_profile(profile)
    model = _model(cluster, program)
    _assert_bitwise_identical(model, _candidates(cluster, program))


@pytest.mark.parametrize("cluster_name", ["DC", "HY1"])
def test_batch_equivalence_twod(cluster_name):
    """The 2-D model answers single and report calls as a batch of one
    too, across every grid shape of the cluster."""
    from repro.twod import (
        GenBlock2D, Jacobi2DSpec, block2d, build_2d_model, factor_pairs,
    )

    cluster = CLUSTERS[cluster_name]()
    spec = Jacobi2DSpec(n_rows=256, n_cols=192, iterations=20)
    model = build_2d_model(cluster, spec, block2d(256, 192, (2, 4)))
    rng = np.random.RandomState(3)
    cands = []
    for R, C in factor_pairs(cluster.n_nodes):
        cands.append(block2d(256, 192, (R, C)))
        cands.append(GenBlock2D(
            largest_remainder_round(rng.uniform(0.5, 2, R), 256, minimum=1),
            largest_remainder_round(rng.uniform(0.5, 2, C), 192, minimum=1),
        ))
    _assert_bitwise_identical(model, cands)


@NUMPY_PATH
def test_batch_matches_scalar_kernel(path):
    """The batch must also satisfy the golden contract: within 1e-12
    relative of the scalar reference."""
    cluster = configs.config_hy1()
    program = JacobiApp.paper(SCALE).structure
    scalar = _model(cluster, program, ReferenceModel)
    vector = _model(cluster, program)
    cands = _candidates(cluster, program)
    batch = vector.predict(cands, batch=True)
    for dist, got in zip(cands, batch):
        want = scalar.predict(dist)
        assert abs(got - want) <= REL_TOL * max(abs(got), abs(want))


@NUMPY_PATH
def test_empty_batch(path):
    cluster = configs.config_dc()
    program = JacobiApp.paper(SCALE).structure
    model = _model(cluster, program)
    out = model.predict([], batch=True)
    assert isinstance(out, np.ndarray) and out.shape == (0,)


@NUMPY_PATH
def test_batch_validates_every_candidate(path):
    cluster = configs.config_dc()
    program = JacobiApp.paper(SCALE).structure
    model = _model(cluster, program)
    good = block(cluster, program.n_rows)
    bad = GenBlock((program.n_rows,))  # wrong node count
    with pytest.raises(ModelError, match="does not match the model"):
        model.predict([good, bad], batch=True)
    short = GenBlock(tuple(good.counts[:-1]) + (good.counts[-1] - 1,))
    with pytest.raises(ModelError, match="does not cover the program"):
        model.predict([good, short], batch=True)


@NUMPY_PATH
def test_batch_iterations_override(path):
    cluster = configs.config_hy2()
    program = JacobiApp.paper(SCALE).structure
    model = _model(cluster, program)
    cands = _candidates(cluster, program)[:3]
    batch = model.predict(cands, iterations=7, batch=True)
    assert batch.tolist() == [model.predict(d, iterations=7) for d in cands]


@pytest.mark.parametrize(
    "model_cls", [MhetaModel, ReferenceModel], ids=["numpy", "scalar"]
)
def test_iterations_below_one_rejected(model_cls):
    """Single, report and batch calls refuse ``iterations < 1``, with
    and without an iteration profile, in the model and its reference."""
    cluster = configs.config_dc()
    program = JacobiApp.paper(SCALE).structure
    profiled = program.with_iteration_profile(
        1.0 + 0.5 * np.sin(np.arange(program.iterations))
    )
    d = block(cluster, program.n_rows)
    for prog in (program, profiled):
        model = _model(cluster, prog, model_cls)
        for iterations in (0, -2):
            for call in (
                lambda: model.predict(d, iterations),
                lambda: model.predict(d, iterations, report=True),
                lambda: model.predict([d], iterations, batch=True),
            ):
                with pytest.raises(
                    ModelError, match="iterations must be >= 1"
                ):
                    call()


def test_removed_serial_batch_rejected():
    cluster = configs.config_dc()
    program = JacobiApp.paper(SCALE).structure
    model = _model(cluster, program)
    with pytest.raises(ModelError, match="batch must be True or False"):
        model.predict([block(cluster, program.n_rows)], batch="serial")


@NUMPY_PATH
def test_duplicate_candidates_in_one_batch(path):
    """Duplicates inside one batch score identically (shared tables)."""
    cluster = configs.config_hy1()
    program = ConjugateGradientApp.paper(SCALE).structure
    model = _model(cluster, program)
    d = block(cluster, program.n_rows)
    batch = model.predict([d, d, d], batch=True)
    assert batch[0] == batch[1] == batch[2]


# -- randomized batches -------------------------------------------------------

_JACOBI_FIXTURES = {}


def _jacobi_model(cluster_name):
    if cluster_name not in _JACOBI_FIXTURES:
        cluster = CLUSTERS[cluster_name]()
        program = JacobiApp.paper(SCALE).structure
        _JACOBI_FIXTURES[cluster_name] = (program, _model(cluster, program))
    return _JACOBI_FIXTURES[cluster_name]


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    batch=st.lists(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=8, max_size=8,
        ),
        min_size=1, max_size=12,
    ),
    cluster_name=st.sampled_from(sorted(CLUSTERS)),
)
def test_random_batches_agree(batch, cluster_name):
    """Arbitrary GEN_BLOCK populations — skewed shapes, duplicates,
    any batch size — agree with single calls bit for bit."""
    program, model = _jacobi_model(cluster_name)
    cands = [
        GenBlock(largest_remainder_round(
            np.array(weights), program.n_rows, minimum=1
        ))
        for weights in batch
    ]
    _assert_bitwise_identical(model, cands, report=False)
