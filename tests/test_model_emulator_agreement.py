"""Randomised model-vs-emulator agreement.

The reproduction's central invariant: with all ground-truth
perturbations off and perfect timers, MHETA's analytical equations must
agree with the discrete-event emulator *exactly* — for arbitrary program
structures (any mix of communication patterns, tile counts, variable
shapes, prefetching) on arbitrary clusters (any CPU/memory/disk mix) and
arbitrary distributions.  Hypothesis generates the cases.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, NetworkSpec, NodeSpec
from repro.core import MhetaModel
from repro.distribution import GenBlock, largest_remainder_round
from repro.instrument.collect import MeasurementConfig, collect_inputs
from repro.program import ProgramBuilder
from repro.sim import ClusterEmulator, PerturbationConfig
from repro.util.units import mib

IDEAL = PerturbationConfig.none()
PERFECT = MeasurementConfig.perfect()

# -- strategies -------------------------------------------------------------------

node_strategy = st.tuples(
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),  # cpu power
    st.sampled_from([1, 2, 4, 16, 64]),  # memory MiB
    st.sampled_from([0.5, 1.0, 2.0]),  # io scale
)

cluster_strategy = st.lists(node_strategy, min_size=2, max_size=6)


@st.composite
def program_strategy(draw):
    n_rows = draw(st.sampled_from([64, 256, 1024]))
    cols = draw(st.sampled_from([16, 256, 2048]))
    iterations = draw(st.integers(1, 4))
    prefetch = draw(st.booleans())
    builder = ProgramBuilder("random", n_rows=n_rows, iterations=iterations)
    builder.distributed("big", cols=cols, access="read-write")
    builder.distributed("vec", cols=1, access="read-write")
    if draw(st.booleans()):
        builder.replicated("rep", elements=n_rows)
    patterns = draw(
        st.lists(
            st.sampled_from(["nn", "reduce", "allgather", "pipe", "none"]),
            min_size=1,
            max_size=3,
        )
    )
    for i, pattern in enumerate(patterns):
        if pattern == "pipe":
            tiles = draw(st.sampled_from([2, 4]))
            builder.section(f"s{i}", tiles=tiles)
        else:
            builder.section(f"s{i}")
        reads = draw(
            st.sampled_from([["big"], ["big", "vec"], ["vec"]])
        )
        writes = draw(st.sampled_from([[], ["big"], ["vec"]]))
        builder.stage(
            f"st{i}",
            reads=reads,
            writes=writes,
            work_per_row=draw(st.sampled_from([1e-8, 1e-6, 5e-5])),
            fixed_work=draw(st.sampled_from([0.0, 1e-5])),
        )
        nbytes = draw(st.sampled_from([8.0, 4096.0]))
        if pattern == "nn":
            source = draw(st.sampled_from([None, "big"]))
            builder.nearest_neighbor(nbytes, source_variable=source)
        elif pattern == "reduce":
            builder.reduction(nbytes)
        elif pattern == "allgather":
            builder.allgather(nbytes)
        elif pattern == "pipe":
            builder.pipeline(nbytes)
        else:
            builder.no_comm()
    if prefetch:
        builder.prefetching()
    return builder.build()


def make_cluster(spec) -> ClusterSpec:
    nodes = []
    for i, (power, mem, io) in enumerate(spec):
        nodes.append(
            NodeSpec(
                name=f"n{i}",
                cpu_power=power,
                memory_bytes=mib(mem),
                os_cache_bytes=mib(8),
            ).scaled_io(io)
        )
    return ClusterSpec(name="rand", nodes=tuple(nodes), network=NetworkSpec())


@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    cluster_spec=cluster_strategy,
    program=program_strategy(),
    shares=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
)
def test_exact_agreement_on_random_cases(cluster_spec, program, shares):
    cluster = make_cluster(cluster_spec)
    counts = largest_remainder_round(
        np.array(shares[: cluster.n_nodes]), program.n_rows, minimum=1
    )
    distribution = GenBlock(counts)

    inputs = collect_inputs(
        cluster,
        program,
        distribution,
        perturbation=IDEAL,
        measurement=PERFECT,
    )
    model = MhetaModel(program, cluster, inputs)
    emulator = ClusterEmulator(cluster, program, IDEAL)

    actual = emulator.run(distribution).total_seconds
    predicted = model.predict(distribution)
    assert predicted == pytest.approx(actual, rel=1e-9, abs=1e-12)


@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    cluster_spec=cluster_strategy,
    program=program_strategy(),
    shares_a=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
    shares_b=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
)
def test_cross_distribution_prediction(cluster_spec, program, shares_a, shares_b):
    """Instrument under one distribution, predict a *different* one —
    the model's actual job — still exactly."""
    cluster = make_cluster(cluster_spec)
    d0 = GenBlock(
        largest_remainder_round(
            np.array(shares_a[: cluster.n_nodes]), program.n_rows, minimum=1
        )
    )
    target = GenBlock(
        largest_remainder_round(
            np.array(shares_b[: cluster.n_nodes]), program.n_rows, minimum=1
        )
    )
    inputs = collect_inputs(
        cluster, program, d0, perturbation=IDEAL, measurement=PERFECT
    )
    model = MhetaModel(program, cluster, inputs)
    emulator = ClusterEmulator(cluster, program, IDEAL)
    actual = emulator.run(target).total_seconds
    predicted = model.predict(target)
    assert predicted == pytest.approx(actual, rel=1e-9, abs=1e-12)
