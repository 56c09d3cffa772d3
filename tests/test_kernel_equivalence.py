"""Golden equivalence: the numpy prediction kernel vs the scalar reference.

The vectorised kernel (max-plus section matrices, batched stage tables,
the persistent ``(node, rows)`` table cache) must reproduce the scalar
path to within floating-point re-association noise.  Every optimisation
in the numpy path is max-plus linear — only the *order* of summations
differs — so the contract is tight: ``REL_TOL = 1e-12`` relative error
on every seed program, cluster, distribution family, prefetch variant
and iteration-profile program.
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
from repro.instrument.collect import collect_inputs
from repro.placement import plan_memory, plan_memory_arrays
from repro.program.variables import Access, Variable
from tests.placement_reference import plan_memory_reference

REL_TOL = 1e-12
SCALE = 0.05

#: The fast kernels pinned to the scalar reference.
FAST_KERNELS = ("numpy",)

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


def _model_pair(cluster, program, kernel="numpy"):
    """(scalar reference, vectorized kernel) over identical inputs."""
    inputs = collect_inputs(cluster, program, block(cluster, program.n_rows))
    scalar = MhetaModel(program, cluster, inputs, kernel="scalar",
                        table_cache=0)
    vector = MhetaModel(program, cluster, inputs, kernel=kernel)
    return scalar, vector


def _assert_close(a: float, b: float) -> None:
    assert a > 0 and b > 0
    assert abs(a - b) <= REL_TOL * max(abs(a), abs(b)), (
        f"kernels diverge: scalar={a!r} numpy={b!r} "
        f"rel={abs(a - b) / max(abs(a), abs(b)):.3e}"
    )


def _candidates(cluster, program):
    """Block plus the full spectrum walk — the shapes searches evaluate."""
    cands = [block(cluster, program.n_rows)]
    cands += [p.distribution
              for p in spectrum(cluster, program, steps_per_leg=3)]
    return cands


# -- golden sweep: every seed app on every seed cluster ----------------------


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_golden_equivalence(app_name, cluster_name, kernel):
    cluster = CLUSTERS[cluster_name]()
    program = APPS[app_name].paper(SCALE).structure
    scalar, vector = _model_pair(cluster, program, kernel)
    for dist in _candidates(cluster, program):
        _assert_close(scalar.predict(dist),
                      vector.predict(dist))


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("cluster_name", ["IO", "HY1"])
@pytest.mark.parametrize("app_name", ["jacobi", "rna"])
def test_golden_equivalence_prefetch(app_name, cluster_name, kernel):
    """The prefetch I/O model (Equation 2) through both kernels."""
    cluster = CLUSTERS[cluster_name]()
    program = APPS[app_name].paper(SCALE).prefetching()
    scalar, vector = _model_pair(cluster, program, kernel)
    for dist in _candidates(cluster, program):
        _assert_close(scalar.predict(dist),
                      vector.predict(dist))


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("cluster_name", ["DC", "HY2"])
def test_golden_equivalence_iteration_profile(cluster_name, kernel):
    """Per-iteration work profiles force the full iteration walk (no
    steady-state extrapolation) in both kernels."""
    cluster = CLUSTERS[cluster_name]()
    base = JacobiApp.paper(SCALE).structure
    profile = 1.0 + 0.5 * np.sin(np.arange(base.iterations))
    program = base.with_iteration_profile(profile)
    scalar, vector = _model_pair(cluster, program, kernel)
    for dist in _candidates(cluster, program):
        _assert_close(scalar.predict(dist),
                      vector.predict(dist))


def test_golden_equivalence_report_totals():
    """`predict` (full report) agrees across kernels, per node."""
    cluster = configs.config_hy1()
    program = ConjugateGradientApp.paper(SCALE).structure
    scalar, vector = _model_pair(cluster, program)
    for dist in _candidates(cluster, program)[:4]:
        rs = scalar.predict(dist, report=True)
        rv = vector.predict(dist, report=True)
        _assert_close(rs.total_seconds, rv.total_seconds)
        for ns, nv in zip(rs.nodes, rv.nodes):
            _assert_close(ns.total_seconds, nv.total_seconds)


def test_predict_many_matches_serial_calls():
    """The batched path (shared LRU) is bit-identical to serial calls."""
    cluster = configs.config_hy1()
    program = JacobiApp.paper(SCALE).structure
    _, vector = _model_pair(cluster, program)
    cands = _candidates(cluster, program)
    serial = [vector.predict(d) for d in cands]
    assert vector.predict(cands, batch="serial") == serial


def test_table_cache_does_not_change_results():
    """Cached and cache-disabled numpy models agree bit-for-bit."""
    cluster = configs.config_io()
    program = LanczosApp.paper(SCALE).structure
    inputs = collect_inputs(cluster, program, block(cluster, program.n_rows))
    cached = MhetaModel(program, cluster, inputs, kernel="numpy")
    uncached = MhetaModel(program, cluster, inputs, kernel="numpy",
                          table_cache=0)
    for dist in _candidates(cluster, program):
        assert cached.predict(dist) == uncached.predict(dist)
    stats = cached.table_cache_stats
    assert stats["hits"] > 0


# -- randomized distributions -------------------------------------------------

_JACOBI_FIXTURES = {}


def _jacobi_pair(cluster_name):
    if cluster_name not in _JACOBI_FIXTURES:
        cluster = CLUSTERS[cluster_name]()
        program = JacobiApp.paper(SCALE).structure
        scalar, vector = _model_pair(cluster, program)
        _JACOBI_FIXTURES[cluster_name] = (program, scalar, vector)
    return _JACOBI_FIXTURES[cluster_name]


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=8, max_size=8,
    ),
    cluster_name=st.sampled_from(sorted(CLUSTERS)),
)
def test_random_distributions_agree(weights, cluster_name):
    """Arbitrary GEN_BLOCK shapes — including wildly skewed ones a search
    would never visit — keep the kernels within tolerance."""
    program, scalar, vector = _jacobi_pair(cluster_name)
    counts = largest_remainder_round(
        np.array(weights), program.n_rows, minimum=1
    )
    dist = GenBlock(counts)
    reference = scalar.predict(dist)
    _assert_close(reference, vector.predict(dist))


# -- batched table pass and vectorised placement -----------------------------
#
# The numpy kernel builds every missing (node, rows) stage-time
# table of a predict call in one ``MhetaModel._build_tables`` pass, over
# ``plan_memory_arrays``.  These cases pin that pass to the scalar
# per-pair tables, to itself across batches, and the vectorised
# placement to the original per-variable loop kept in
# ``tests/placement_reference.py``.

_TABLE_APPS = {
    "jacobi": lambda: JacobiApp.paper(SCALE).structure,
    "jacobi-prefetch": lambda: JacobiApp.paper(SCALE).prefetching(),
    "rna": lambda: RnaPipelineApp.paper(SCALE).structure,
    "rna-prefetch": lambda: RnaPipelineApp.paper(SCALE).prefetching(),
    "cg": lambda: ConjugateGradientApp.paper(SCALE).structure,
    "lanczos": lambda: LanczosApp.paper(SCALE).structure,
    "multigrid": lambda: MultigridApp.paper(SCALE).structure,
}
_TABLE_FIXTURES = {}


def _table_fixture(app):
    if app not in _TABLE_FIXTURES:
        cluster = configs.config_hy2()
        program = _TABLE_APPS[app]()
        inputs = collect_inputs(
            cluster, program, block(cluster, program.n_rows)
        )
        _TABLE_FIXTURES[app] = (program, inputs)
    return _TABLE_FIXTURES[app]


def _breakpoint_memory(program, variables, rows, k, delta):
    """Memory (plus ``delta`` bytes) at which the ``k``-th variable in
    smallest-first order just fits in core for ``rows``, after the ones
    before it: the greedy rule's breakpoint, tail reserve summed left to
    right in that order."""
    ordered = sorted(variables, key=lambda v: v.local_bytes(rows))
    fitted = sum(v.local_bytes(rows) for v in ordered[:k + 1])
    tail = sum(max(v.row_bytes, 1.0) for v in ordered[k + 1:])
    return max(int(program.replicated_bytes + fitted + tail + delta), 0)


@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), app=st.sampled_from(sorted(_TABLE_APPS)))
def test_batched_tables_match_scalar_and_batch_independent(data, app):
    """(a) every built table is within ``REL_TOL`` of the scalar
    per-pair ``_node_tables``; (b) a pair built alone equals the same
    pair built inside a mixed batch, bit for bit."""
    program, inputs = _table_fixture(app)
    P = inputs.n_nodes
    n_rows = program.n_rows
    rows = data.draw(st.lists(st.integers(0, n_rows), max_size=9))
    rows = rows + [0, 1, n_rows]
    nodes = data.draw(
        st.lists(st.integers(0, P - 1), min_size=len(rows),
                 max_size=len(rows))
    )
    variables = program.distributed_variables
    memories = [
        _breakpoint_memory(
            program, variables,
            data.draw(st.sampled_from(rows)),
            data.draw(st.integers(0, len(variables) - 1)),
            data.draw(st.sampled_from([-1, 0, 1, -(2 ** 20), 2 ** 20])),
        )
        for _ in range(P)
    ]
    model = MhetaModel(program, memories, inputs, kernel="numpy")
    batch = model._build_tables(np.array(nodes), np.array(rows))
    for k, (n, r) in enumerate(zip(nodes, rows)):
        ref = model._node_tables(n, r, model.oracle.plan(n, r))
        want = np.concatenate(
            [np.array(t) for t, _, _ in ref]
            + [np.array(c) for _, c, _ in ref]
            + [np.array([s for _, _, s in ref])]
        )
        got = batch[k]
        assert np.all(
            np.abs(got - want) <= REL_TOL * np.maximum(np.abs(got),
                                                       np.abs(want))
        ), (app, n, r, got, want)
        alone = model._build_tables(np.array([n]), np.array([r]))[0]
        assert alone.tobytes() == got.tobytes(), (app, n, r)


def _placement_fields(plan):
    """Every field of a MemoryPlan, floats by their bits."""
    def bits(x):
        return float(x).hex() if isinstance(x, float) else (type(x), x)

    return (
        plan.local_rows, float(plan.available_bytes).hex(),
        [
            (name, p.name, p.local_rows, float(p.local_bytes).hex(),
             bits(p.in_core), float(p.icla_bytes).hex(),
             bits(p.block_rows), bits(p.n_io))
            for name, p in plan.placements.items()
        ],
    )


#: Variables for the placement cases: equal sizes (the stable
#: smallest-first order breaks ties by position), a replicated one, row
#: sizes where the left-to-right tail-reserve sum differs from any other
#: association (1e16 + 1 + 1), and a sliver whose ICLA row count would
#: overflow int64 before the clamp to the local rows.
_PLACEMENT_VARIABLES = [
    Variable("a", cols=1.0),
    Variable("b", cols=1.0),
    Variable("c", cols=0.0625),
    Variable("d", cols=0.0625),
    Variable("g", cols=0.0625),
    Variable("e", cols=1.25e15),
    Variable("f", cols=37.5, access=Access.READ_WRITE),
    Variable("s", cols=1e-15),
    Variable("r", distributed=False, replicated_elements=100),
]


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_plan_memory_arrays_match_scalar_oracle(data):
    """(c) the vectorised placement equals the original scalar rule on
    every field, bitwise, for every policy keyword, whatever batch a
    pair is planned in."""
    program = data.draw(st.sampled_from(sorted(_TABLE_APPS)))
    program = _TABLE_APPS[program]()
    if data.draw(st.booleans()):
        variables = data.draw(
            st.lists(st.sampled_from(_PLACEMENT_VARIABLES), unique=True,
                     max_size=5)
        )
    else:
        variables = list(program.distributed_variables)
    n_rows = program.n_rows
    rows = data.draw(st.lists(st.integers(0, n_rows), max_size=6))
    rows = rows + [0, 1, n_rows]
    memories = [
        data.draw(st.one_of(
            st.integers(0, 2 ** 34),
            st.builds(
                _breakpoint_memory, st.just(program), st.just(variables),
                st.sampled_from(rows),
                st.integers(0, max(len(variables) - 1, 0)),
                st.sampled_from([-2, -1, 0, 1, 2, 4096]),
            ),
        ))
        for _ in rows
    ]
    policy = {
        "reserved_bytes": data.draw(st.sampled_from([0.0, 1.5, 2.0 ** 20])),
        "icla_reserved_bytes": data.draw(
            st.sampled_from([0.0, 3.0, 2.0 ** 22])
        ),
        "conservative_reserved_bytes": data.draw(
            st.sampled_from([0.0, 2.0 ** 20])
        ),
        "forced_out_of_core": data.draw(st.booleans()),
        "order_policy": data.draw(st.sampled_from(["size", "declaration"])),
        "share_policy": data.draw(st.sampled_from(["prorata", "equal"])),
        "variables": variables,
    }
    plans = plan_memory_arrays(program, rows, memories, **policy).plans()
    for plan, r, m in zip(plans, rows, memories):
        want = plan_memory_reference(program, r, m, **policy)
        assert _placement_fields(plan) == _placement_fields(want)
        assert _placement_fields(
            plan_memory(program, r, m, **policy)
        ) == _placement_fields(want)


@pytest.mark.parametrize("forced_out_of_core", [False, True])
@pytest.mark.parametrize("order_policy", ["size", "declaration"])
def test_plan_memory_arrays_pinned_edges(order_policy, forced_out_of_core):
    """Pinned edges of (c): three one-byte tail reserves ahead of a
    1e16-byte one sum to 1e16 + 2 left to right but 1e16 right to left,
    so the breakpoint's verdict depends on the order; equal sizes keep
    their given order; a streamed sliver's share is ~1e22 rows."""
    program = JacobiApp.paper(SCALE).structure
    by_name = {v.name: v for v in _PLACEMENT_VARIABLES}
    for names in (["g", "d", "c", "e"], ["b", "a", "c", "d", "e"], ["s"]):
        variables = [by_name[n] for n in names]
        for rows in (1, 2, 3, 1000):
            for k in range(len(variables)):
                for delta in range(-3, 4):
                    memory = _breakpoint_memory(
                        program, variables, rows, k, delta
                    ) + (2 ** 30 if names == ["s"] else 0)
                    policy = {"variables": variables,
                              "order_policy": order_policy,
                              "forced_out_of_core": forced_out_of_core}
                    got = plan_memory(program, rows, memory, **policy)
                    want = plan_memory_reference(
                        program, rows, memory, **policy
                    )
                    assert _placement_fields(got) == _placement_fields(want)
