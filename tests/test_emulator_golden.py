"""Golden digests of the event engine's exact output.

Nothing else pins what the full event-by-event emulator produces: the
plan suites compare the fast path against the engine, and the engine
against nothing.  These SHA-256 digests over the ``repr`` of every
float fix, bit for bit:

* the engine's iteration ends (:func:`tests.emulator_reference.engine_run`)
  of the five apps on the IO and HY1 clusters (whose 32 MiB nodes
  stream their arrays from disk at full scale) under every ``io_mode``,
  with and without computation noise, plus one dynamic segment at a
  non-zero offset and one program with an iteration profile;
* the full record stream of one observed run per app;
* the MHETA inputs ``collect_inputs`` measures on IO and HY1, whose
  timer noise is drawn in record order;
* the 2-D Jacobi emulator's engine totals on IO and HY1 (whose
  32 MiB nodes stream their 64 MiB tiles from disk) for the
  1x8, 2x4 and 8x1 grids under ``block2d`` and ``balanced2d``, with
  and without noise, plus one dynamic segment at a non-zero offset and
  the instrumented iteration; and the 2-D model inputs
  ``build_2d_model`` measures, to 1e-12 relative.

A change to the emulator that moves any of them changes its semantics.
"""

import hashlib

import numpy as np
import pytest

from repro.apps import application_by_name
from repro.cluster import dynamics_scenario, table1_configs
from repro.distribution import block
from repro.instrument import collect_inputs
from repro.sim import ClusterEmulator, PerturbationConfig, emulate
from repro.sim.trace import TraceCollector
from tests.emulator_reference import engine_run
from repro.twod import (
    Jacobi2DSpec,
    TwoDEmulator,
    balanced2d,
    block2d,
    build_2d_model,
)

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


def _engine(cluster, program, *, perturbation=None, dynamics=None, **kw):
    emulator = ClusterEmulator(cluster, program, perturbation, dynamics=dynamics)
    return engine_run(emulator, block(cluster, program.n_rows), **kw)


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
    program = _program(app, 3)
    # An observed run always takes the engine.
    emulate(
        cluster, program, block(cluster, program.n_rows), io_mode="prefetch",
        perturbation=NOISY, observer=trace,
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


# -- 2-D Jacobi --------------------------------------------------------------

SPEC_2D = Jacobi2DSpec(n_rows=8192, n_cols=8192, iterations=5)
SHAPES_2D = ((1, 8), (2, 4), (8, 1))


def _layouts_2d(cluster):
    for shape in SHAPES_2D:
        yield block2d(SPEC_2D.n_rows, SPEC_2D.n_cols, shape)
        yield balanced2d(cluster, SPEC_2D.n_rows, SPEC_2D.n_cols, shape)


def _totals_digest(totals) -> str:
    return _digest(repr(float(total)) for total in totals)


TOTALS_2D = {
    "HY1": "2a6b83a99c9a2ccc1899007223e699bf7233df44bde107b340eee301711227d2",
    "IO": "d5135fa3e52ee0296f2f4a841c208035843aeee297250af44bd275df64fcd73a",
}


@pytest.mark.parametrize("config", sorted(TOTALS_2D))
def test_twod_engine_totals(config):
    cluster = table1_configs()[config]
    totals = [
        engine_run(TwoDEmulator(cluster, SPEC_2D, pert), dist).total_seconds
        for pert in (NOISY, QUIET)
        for dist in _layouts_2d(cluster)
    ]
    assert _totals_digest(totals) == TOTALS_2D[config]


INSTRUMENTED_2D = {
    "HY1": "d41d37a74d56ea5c339678b464f5a5622a7c438d70aca42c2a82446a4779df3e",
    "IO": "38879396de0e265b1e429e934ef9f3b3ee92186517ae8cecd52ca17cc5328684",
}


@pytest.mark.parametrize("config", sorted(INSTRUMENTED_2D))
def test_twod_instrumented_totals(config):
    cluster = table1_configs()[config]
    emulator = TwoDEmulator(cluster, SPEC_2D, NOISY)
    totals = [
        engine_run(
            emulator, dist, iterations=1, io_mode="instrumented"
        ).total_seconds
        for dist in _layouts_2d(cluster)
    ]
    assert _totals_digest(totals) == INSTRUMENTED_2D[config]


DYNAMIC_2D = "d6069706304ea2f92cc94f0de79d3d55bb17d52459f5b413618ed4a752a1d5b5"


def test_twod_dynamic_segment_totals():
    cluster = table1_configs()["IO"]
    spec = dynamics_scenario("disk-fade", cluster.n_nodes, start=1)
    emulator = TwoDEmulator(
        cluster, SPEC_2D, NOISY.without(background_load=0.2), dynamics=spec
    )
    totals = [
        engine_run(
            emulator, dist, iterations=5, iteration_offset=3
        ).total_seconds
        for dist in _layouts_2d(cluster)
    ]
    assert _totals_digest(totals) == DYNAMIC_2D


#: ``build_2d_model`` inputs under the 2x4 block layout:
#: (compute_seconds, read_per_byte, write_per_byte), per rank.
INPUTS_2D = {
    "HY1": (
        (1.0169583153671495, 0.6721189300448389, 0.3364296023301919,
         0.2513396641114349, 0.5050154530424176, 0.5025971710713248,
         0.4994933632260834, 0.5051600625788895),
        (2.0080309357275388e-08, 2.0122216997722702e-08,
         2.007865335505161e-08, 2.0049969820049013e-08,
         5.029067483022635e-09, 5.032251247425368e-09,
         5.008945784474181e-09, 5.028175639862606e-09),
        (2.5079330022598986e-08, 2.508344035459629e-08,
         2.516494948093381e-08, 2.5002754096481662e-08,
         6.269058656230173e-09, 6.293540745894286e-09,
         6.276834171993179e-09, 6.284221124302217e-09),
    ),
    "IO": (
        (0.5074893227722714, 0.5032622185405835, 0.5043671605336952,
         0.5001037381804463, 0.5052098661665279, 0.5058858730301239,
         0.5048523014658853, 0.5058842403125507),
        (4.0054783677796774e-08, 4.007934025147247e-08,
         4.02457723559485e-08, 4.006723783316584e-08,
         2.0064106781736952e-08, 2.004168484683112e-08,
         2.0120695430236887e-08, 2.0098752242680002e-08),
        (5.0250549626267034e-08, 5.01311485999454e-08,
         5.025083288840806e-08, 5.0297378391485696e-08,
         2.515368631965133e-08, 2.502838450100551e-08,
         2.5131109212249562e-08, 2.4989008618529775e-08),
    ),
}


@pytest.mark.parametrize("config", sorted(INPUTS_2D))
def test_twod_model_inputs(config):
    cluster = table1_configs()[config]
    d0 = block2d(SPEC_2D.n_rows, SPEC_2D.n_cols, (2, 4))
    inputs = build_2d_model(cluster, SPEC_2D, d0).inputs
    got = (inputs.compute_seconds, inputs.read_per_byte, inputs.write_per_byte)
    for values, expected in zip(got, INPUTS_2D[config]):
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)
