"""Heterogeneous cluster descriptions (paper Figure 2).

A cluster is a set of nodes, each with its own relative CPU power, memory
capacity and local-disk characteristics, joined by a uniform network.
:mod:`repro.cluster.configs` provides the four named configurations of
the paper's Table 1 (``DC``, ``IO``, ``HY1``, ``HY2``) and generators for
the seventeen/twelve emulated-architecture suites of Section 5.
:mod:`repro.cluster.dynamics` adds time-varying behaviour — background
load traces, CPU drift, disk degradation, node loss/join — attached to a
cluster as a :class:`DynamicsSpec`.
"""

from repro.cluster.node import NodeSpec
from repro.cluster.network import NetworkSpec
from repro.cluster.dynamics import (
    CpuDrift,
    DiskDegradation,
    DynamicsSpec,
    LoadTrace,
    NodeEvent,
    NodeLoad,
)
from repro.cluster.cluster import ClusterSpec
from repro.cluster.configs import (
    DYNAMICS_SCENARIOS,
    TABLE1_CONFIGS,
    baseline_node,
    baseline_cluster,
    config_dc,
    config_io,
    config_hy1,
    config_hy2,
    dynamics_scenario,
    dynamics_scenarios,
    table1_configs,
    architecture_suite,
    prefetch_suite,
)

__all__ = [
    "NodeSpec",
    "NetworkSpec",
    "ClusterSpec",
    "DynamicsSpec",
    "LoadTrace",
    "NodeLoad",
    "CpuDrift",
    "DiskDegradation",
    "NodeEvent",
    "DYNAMICS_SCENARIOS",
    "dynamics_scenario",
    "dynamics_scenarios",
    "baseline_node",
    "baseline_cluster",
    "config_dc",
    "config_io",
    "config_hy1",
    "config_hy2",
    "TABLE1_CONFIGS",
    "table1_configs",
    "architecture_suite",
    "prefetch_suite",
]
