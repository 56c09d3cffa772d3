"""Golden digests of the event engine's exact output.

Nothing else pins what the full event-by-event emulator produces: the
plan suites compare the fast path against the engine, and the engine
against nothing.  These SHA-256 digests over the ``repr`` of every
float fix, bit for bit:

* ``fast_forward=False`` iteration ends of the five apps on the IO and
  HY1 clusters (whose 32 MiB nodes stream their arrays from disk at
  full scale) under every ``io_mode``, with and without computation
  noise, plus one dynamic segment at a non-zero offset and one program
  with an iteration profile;
* the full record stream of one observed run per app;
* the MHETA inputs ``collect_inputs`` measures on IO and HY1, whose
  timer noise is drawn in record order.

A change to the emulator that moves any of them changes its semantics.
"""

import hashlib

import numpy as np
import pytest

from repro.apps import application_by_name
from repro.cluster import dynamics_scenario, table1_configs
from repro.distribution import block
from repro.instrument import collect_inputs
from repro.sim import PerturbationConfig, emulate
from repro.sim.trace import TraceCollector

SCALE = 1.0
ITERATIONS = 4
IO_MODES = ("auto", "sync", "prefetch", "instrumented")
NOISY = PerturbationConfig()
QUIET = NOISY.without(compute_noise=False)


def _program(app, iterations=ITERATIONS):
    return application_by_name(app, SCALE).structure.with_iterations(iterations)


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def _ends_digest(results) -> str:
    return _digest(
        repr(float(end))
        for result in results
        for ends in result.iteration_ends
        for end in ends
    )


def _engine(cluster, program, **kw):
    return emulate(
        cluster, program, block(cluster, program.n_rows),
        fast_forward=False, run_cache=False, **kw,
    )


ENDS = {
    ("jacobi", "IO"): "b74fb581449d6288e664ede48ff45e14983d41bfb647ed9208f20ab83af5e58a",
    ("jacobi", "HY1"): "335e9705ed2caa58f710ef20e5c9110a1d8b73483cb1f0d4d95e1365300d2d0d",
    ("cg", "IO"): "76c82ea411e3eb9c7f2a27bd060735cc91dec5e2b518175f0656cba7241329bf",
    ("cg", "HY1"): "2372ffbfb32b450c78fa3ef6c649578710f8265936e3d251b77f21f08ba2d80b",
    ("lanczos", "IO"): "1a42bc482ab92b6bf43a6cee17db1fd3ccedf4555dd456a908068fe502f0d44d",
    ("lanczos", "HY1"): "72b370fbb729b19920c95d5a97cf9eafbcc083d4cc860ed0ac7baa6829a2f24c",
    ("rna", "IO"): "112b78c803a24dde558cd532ac97aaa5fb790a7ca46d32fd2bfbc2bb06df6cca",
    ("rna", "HY1"): "7b7d4823fed0e8659ab1c99b5fbf71975440ee9cd3e0df2e4b86ad482b1168d9",
    ("multigrid", "IO"): "15d6f5e0bb29eaa38b2b65d68708cf90863b9a0e4d161caa58810781c3613e92",
    ("multigrid", "HY1"): "d3843581021558fcdf006f2850b762e2062a8f50c8d69e23f02ebb22910647cb",
}


@pytest.mark.parametrize("app,config", sorted(ENDS))
def test_engine_iteration_ends(app, config):
    cluster = table1_configs()[config]
    program = _program(app)
    results = [
        _engine(cluster, program, io_mode=io_mode, perturbation=pert)
        for io_mode in IO_MODES
        for pert in (NOISY, QUIET)
    ]
    assert _ends_digest(results) == ENDS[(app, config)]


DYNAMIC = "14974094bb704f98ef240a1ace8f3d2e9550d1d9b7c9c8412b82d35b62c5ecc8"
PROFILE = "983d9ce3d93abfd13e0f383ad3411cd0a3b4a422ba409906ee5f16801eabc4bf"


def test_dynamic_segment_iteration_ends():
    cluster = table1_configs()["IO"]
    program = _program("jacobi", 12)
    spec = dynamics_scenario("disk-fade", cluster.n_nodes, start=1)
    result = _engine(
        cluster, program, dynamics=spec, iteration_offset=3, iterations=5,
        perturbation=NOISY.without(background_load=0.2),
    )
    assert _ends_digest([result]) == DYNAMIC


def test_iteration_profile_iteration_ends():
    cluster = table1_configs()["HY1"]
    program = _program("cg")
    program = program.with_iteration_profile(
        np.linspace(1.0, 1.5, program.iterations)
    )
    result = _engine(cluster, program, io_mode="prefetch", perturbation=NOISY)
    assert _ends_digest([result]) == PROFILE


RECORDS = {
    "jacobi": "14f3e24a941e918921b0863a697961a7a98854f936748530a496b6bbd98fb452",
    "cg": "980363a92eabd2ed9a96eb50eb7df5400d61349e74e296fb6f6e25621fdc12aa",
    "lanczos": "a1821a55d4bd462dba40796d07de3db41156cfa81df07a5dda54460585d97ed7",
    "rna": "a66cb99d763f74f5c8e268754adef5b7ea698f46c668f461fe665d0613536959",
    "multigrid": "3d0634bf33bcaaf990ae28f1f9a90718ac24867f05029912ad77a271f38f5076",
}


@pytest.mark.parametrize("app", sorted(RECORDS))
def test_observed_record_stream(app):
    cluster = table1_configs()["IO"]
    trace = TraceCollector()
    _engine(
        cluster, _program(app, 3), io_mode="prefetch", perturbation=NOISY,
        observer=trace,
    )
    assert _digest(repr(record) for record in trace.records) == RECORDS[app]


INPUTS = {
    ("IO", "jacobi"): "cd1af5f2e73f96165656d3182d9667ac7cec2ab1d2255bb914daba1028aefb1c",
    ("HY1", "cg"): "82f8b13da76a40d3c5e596ed1efa1fafc0c7706774dce601abe850b717cc2594",
}


@pytest.mark.parametrize("config,app", sorted(INPUTS))
def test_collect_inputs(config, app):
    cluster = table1_configs()[config]
    program = application_by_name(app, SCALE).prefetching()
    inputs = collect_inputs(cluster, program, block(cluster, program.n_rows))
    assert _digest([repr(inputs)]) == INPUTS[(config, app)]
