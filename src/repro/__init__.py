"""Reproduction of "The MHETA Execution Model for Heterogeneous
Clusters" (Nakazawa, Lowenthal, Zhou — SC 2005).

MHETA predicts the execution time of iterative, out-of-core scientific
applications on heterogeneous clusters from a single instrumented
iteration, so that a runtime system can search for an efficient data
distribution.  This package contains the model, every substrate it needs
(cluster descriptions, program structures, GEN_BLOCK distributions, a
discrete-event cluster emulator standing in for the paper's real
cluster, MPI-Jack-style instrumentation), the paper's four benchmark
applications plus Multigrid, the companion search algorithms, and an
experiment harness regenerating every table and figure of the
evaluation.

Quick start::

    from repro import (JacobiApp, Recorder, config_hy1, build_model,
                       GeneralizedBinarySearch)

    cluster = config_hy1()
    program = JacobiApp.paper(scale=0.1).structure
    model = build_model(cluster, program)   # instrumented iteration

    seconds = model.predict(distribution)            # one float
    batch = model.predict(candidates, batch=True)    # vectorized array
    report = model.predict(distribution, report=True)  # per-node report

    search = GeneralizedBinarySearch(model, cluster)
    result = search.search(budget=100)
    print(result)

Every entry point — ``MhetaModel.predict``, ``Searcher.search``,
``emulate``, ``run_spectrum``, ``AdaptiveRuntime.run`` — accepts a
``telemetry=`` keyword taking a :class:`repro.obs.Recorder`; it fills
with hierarchical spans, counters (cache hits, evaluations), gauges
(per-node phase breakdowns) and observation series.  Telemetry left at
``None`` costs one truthiness check per guarded site.  See
``docs/api.md``.
"""

from repro.exceptions import (
    ReproError,
    ConfigurationError,
    DistributionError,
    ProgramStructureError,
    SimulationError,
    InstrumentationError,
    ModelError,
    SearchError,
)
from repro.cluster import (
    NodeSpec,
    NetworkSpec,
    ClusterSpec,
    baseline_cluster,
    config_dc,
    config_io,
    config_hy1,
    config_hy2,
    table1_configs,
    architecture_suite,
    prefetch_suite,
)
from repro.program import (
    Access,
    Variable,
    Stage,
    CommPattern,
    CommSpec,
    ParallelSection,
    ProgramStructure,
    ProgramBuilder,
)
from repro.distribution import (
    GenBlock,
    block,
    balanced,
    in_core,
    in_core_balanced,
    spectrum,
    SpectrumPoint,
)
from repro.placement import MemoryPlan, VariablePlacement, plan_memory
from repro.sim import ClusterEmulator, PerturbationConfig, RunResult, emulate
from repro.instrument import (
    MhetaInputs,
    Microbenchmarks,
    collect_inputs,
    run_microbenchmarks,
)
from repro.core import MhetaModel, PredictionReport
from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    as_recorder,
)
from repro.apps import (
    Application,
    AppConfig,
    JacobiApp,
    ConjugateGradientApp,
    RnaPipelineApp,
    LanczosApp,
    MultigridApp,
    paper_applications,
    application_by_name,
)
from repro.search import (
    SearchResult,
    GeneralizedBinarySearch,
    GeneticSearch,
    SimulatedAnnealingSearch,
    RandomSearch,
    SpectrumSweep,
)
from repro.experiments import build_model, run_spectrum
from repro.runtime import AdaptiveRuntime, AdaptiveReport, RedistributionModel

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "DistributionError",
    "ProgramStructureError",
    "SimulationError",
    "InstrumentationError",
    "ModelError",
    "SearchError",
    # cluster
    "NodeSpec",
    "NetworkSpec",
    "ClusterSpec",
    "baseline_cluster",
    "config_dc",
    "config_io",
    "config_hy1",
    "config_hy2",
    "table1_configs",
    "architecture_suite",
    "prefetch_suite",
    # program
    "Access",
    "Variable",
    "Stage",
    "CommPattern",
    "CommSpec",
    "ParallelSection",
    "ProgramStructure",
    "ProgramBuilder",
    # distribution
    "GenBlock",
    "block",
    "balanced",
    "in_core",
    "in_core_balanced",
    "spectrum",
    "SpectrumPoint",
    # placement
    "MemoryPlan",
    "VariablePlacement",
    "plan_memory",
    # sim
    "ClusterEmulator",
    "PerturbationConfig",
    "RunResult",
    "emulate",
    # instrument
    "MhetaInputs",
    "Microbenchmarks",
    "collect_inputs",
    "run_microbenchmarks",
    # core
    "MhetaModel",
    "PredictionReport",
    # obs (telemetry)
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "as_recorder",
    # apps
    "Application",
    "AppConfig",
    "JacobiApp",
    "ConjugateGradientApp",
    "RnaPipelineApp",
    "LanczosApp",
    "MultigridApp",
    "paper_applications",
    "application_by_name",
    # search
    "SearchResult",
    "GeneralizedBinarySearch",
    "GeneticSearch",
    "SimulatedAnnealingSearch",
    "RandomSearch",
    "SpectrumSweep",
    # experiments
    "build_model",
    "run_spectrum",
    # runtime (the paper's Section-6 system)
    "AdaptiveRuntime",
    "AdaptiveReport",
    "RedistributionModel",
]
