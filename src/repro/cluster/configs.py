"""Named cluster configurations (paper Table 1) and architecture suites.

The paper emulates heterogeneous clusters on eight identical Dell Quad
servers.  We reproduce the four configurations described in Table 1
exactly as specified there, and generate deterministic suites of
seventeen (non-prefetching) and twelve (prefetching) emulated
architectures for the Figure-9 accuracy sweeps.  The suites always
include the four Table-1 configurations; the remainder vary CPU powers,
memory caps and I/O scalings over the same ranges the named
configurations span.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.cluster import ClusterSpec
from repro.cluster.dynamics import (
    CpuDrift,
    DiskDegradation,
    DynamicsSpec,
    LoadTrace,
    NodeEvent,
    NodeLoad,
)
from repro.cluster.network import NetworkSpec
from repro.cluster.node import NodeSpec
from repro.exceptions import ConfigurationError
from repro.util.rng import stream
from repro.util.units import gib, mib

__all__ = [
    "N_NODES",
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
    "DYNAMICS_SCENARIOS",
    "dynamics_scenario",
    "dynamics_scenarios",
]

#: The paper's cluster has eight nodes (one process per Dell Quad server).
N_NODES = 8

#: Memory cap meaning "no memory restriction" (paper: "no nodes with
#: memory restrictions (so I/O is not a concern)").
_AMPLE_MEMORY = gib(1)
_LARGE_MEMORY = mib(256)
_SMALL_MEMORY = mib(32)
_BASE_MEMORY = mib(96)

#: Physical page cache of the underlying (identical) machines.  This is a
#: property of the real hardware, so it is *not* varied per emulated
#: architecture.  Solaris 2.8's segmap cache is limited to ~12% of
#: physical RAM, so a 256 MiB server caches roughly 32 MiB of file pages.
_OS_CACHE = mib(32)


def baseline_node(index: int) -> NodeSpec:
    """The homogeneous node every configuration starts from."""
    return NodeSpec(
        name=f"node{index}",
        cpu_power=1.0,
        memory_bytes=_BASE_MEMORY,
        os_cache_bytes=_OS_CACHE,
    )


def baseline_cluster(name: str = "base", n_nodes: int = N_NODES) -> ClusterSpec:
    """A homogeneous ``n_nodes`` cluster with the baseline node and network."""
    return ClusterSpec(
        name=name,
        nodes=tuple(baseline_node(i) for i in range(n_nodes)),
        network=NetworkSpec(),
    )


def config_dc() -> ClusterSpec:
    """Table 1 ``DC`` ("different CPUs"): two nodes with lower relative CPU
    power, two with higher, the rest unchanged.  Memories are ample so I/O
    is not a concern and the distribution spectrum collapses to Blk..Bal.
    """
    nodes = []
    powers = [0.25, 0.25, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    for i, p in enumerate(powers):
        nodes.append(
            baseline_node(i).with_(cpu_power=p, memory_bytes=_AMPLE_MEMORY)
        )
    return ClusterSpec(name="DC", nodes=tuple(nodes))


def config_io() -> ClusterSpec:
    """Table 1 ``IO`` ("I/O-induced"): half the nodes have high I/O latency
    and small memories, but all nodes have equal relative CPU power.  With
    homogeneous CPUs the spectrum collapses to Blk..I-C."""
    nodes = []
    for i in range(N_NODES):
        node = baseline_node(i)
        if i < N_NODES // 2:
            node = node.with_(memory_bytes=_SMALL_MEMORY).scaled_io(2.0)
        else:
            node = node.with_(memory_bytes=_LARGE_MEMORY)
        nodes.append(node)
    return ClusterSpec(name="IO", nodes=tuple(nodes))


def config_hy1() -> ClusterSpec:
    """Table 1 ``HY1``: four nodes with varying relative CPU powers, the
    other four with low I/O latencies (fast disks) and small memories."""
    nodes = []
    varying = [0.5, 0.75, 1.5, 2.0]
    for i in range(N_NODES):
        node = baseline_node(i)
        if i < 4:
            node = node.with_(cpu_power=varying[i], memory_bytes=_LARGE_MEMORY)
        else:
            node = node.with_(memory_bytes=_SMALL_MEMORY).scaled_io(0.25)
        nodes.append(node)
    return ClusterSpec(name="HY1", nodes=tuple(nodes))


def config_hy2() -> ClusterSpec:
    """Table 1 ``HY2``: four nodes with varying relative CPU power, two
    with high I/O latencies, and two with large memories."""
    nodes = []
    varying = [0.5, 0.75, 1.25, 1.5]
    for i in range(N_NODES):
        node = baseline_node(i)
        if i < 4:
            node = node.with_(cpu_power=varying[i])
        elif i < 6:
            node = node.scaled_io(4.0)
        else:
            node = node.with_(memory_bytes=_LARGE_MEMORY)
        nodes.append(node)
    return ClusterSpec(name="HY2", nodes=tuple(nodes))


#: The paper's Table-1 configuration names, each mapped to the factory
#: that builds it.
TABLE1_CONFIGS = {
    "DC": config_dc,
    "IO": config_io,
    "HY1": config_hy1,
    "HY2": config_hy2,
}


def table1_configs() -> Dict[str, ClusterSpec]:
    """The four named configurations of the paper's Table 1."""
    return {name: factory() for name, factory in TABLE1_CONFIGS.items()}


def _random_architecture(index: int, label: str) -> ClusterSpec:
    """One deterministic pseudo-random architecture for a suite.

    Varies the three emulated axes the paper varies: relative CPU power
    (0.5x .. 2x), application memory (small .. ample), and I/O speed
    (4x slower .. 2x faster), over random subsets of the nodes.
    """
    rng = stream("architecture-suite", label, index)
    nodes: List[NodeSpec] = []
    kind = rng.choice(["dc-like", "io-like", "hybrid"])
    for i in range(N_NODES):
        node = baseline_node(i)
        if kind in ("dc-like", "hybrid") and rng.random() < 0.5:
            node = node.with_(
                cpu_power=float(rng.choice([0.5, 0.75, 1.25, 1.5, 2.0]))
            )
        if kind in ("io-like", "hybrid"):
            roll = rng.random()
            if roll < 0.35:
                node = node.with_(
                    memory_bytes=int(rng.choice([mib(24), mib(32), mib(48)]))
                ).scaled_io(float(rng.choice([2.0, 4.0])))
            elif roll < 0.55:
                node = node.with_(
                    memory_bytes=int(rng.choice([_LARGE_MEMORY, _AMPLE_MEMORY]))
                )
            elif roll < 0.70:
                node = node.scaled_io(0.5)
        if kind == "dc-like":
            node = node.with_(memory_bytes=_AMPLE_MEMORY)
        nodes.append(node)
    return ClusterSpec(name=f"{label}{index}", nodes=tuple(nodes))


def architecture_suite(n: int = 17) -> List[ClusterSpec]:
    """The emulated architectures for the non-prefetching accuracy sweep.

    The paper tests seventeen; the first four are always the Table-1
    configurations, the rest are deterministic pseudo-random variations.
    """
    named = list(table1_configs().values())
    if n <= len(named):
        return named[:n]
    extra = [
        _random_architecture(i, "ARCH") for i in range(n - len(named))
    ]
    return named + extra


def prefetch_suite(n: int = 12) -> List[ClusterSpec]:
    """The emulated architectures for the prefetching (Jacobi) sweep.

    The paper tests twelve.  Prefetching only matters when I/O occurs, so
    this suite keeps IO/HY1/HY2 from Table 1 and adds deterministic
    I/O-flavoured variations.
    """
    named = [config_io(), config_hy1()]
    if n <= len(named):
        return named[:n]
    extra = []
    i = 0
    while len(extra) < n - len(named):
        arch = _random_architecture(i, "PFARCH")
        i += 1
        # Prefetching architectures must exhibit memory pressure somewhere.
        if (arch.memory_bytes < _BASE_MEMORY).any():
            extra.append(arch)
    return named + extra


# -- dynamics scenarios ------------------------------------------------------

#: Named time-varying scenarios for the adaptive benchmark and CLI
#: (``repro adaptive --dynamics <name>``).  All are deterministic
#: functions of the global iteration index (load traces are seeded).
DYNAMICS_SCENARIOS = (
    "drift",
    "load-spike",
    "node-loss",
    "disk-fade",
    "stationary",
)


def dynamics_scenario(
    name: str, n_nodes: int = N_NODES, *, start: int = 20
) -> DynamicsSpec:
    """Build one named :class:`DynamicsSpec` for an ``n_nodes`` cluster.

    ``start`` is the global iteration at which the disturbance begins
    (round 0's instrumented measurement happens well before it, so an
    adaptive run must *re*-detect the change mid-run to profit).

    * ``drift`` — thermal/DVFS throttling: two nodes decay towards 45%
      of nominal speed from ``start`` on.
    * ``load-spike`` — competing jobs land on two nodes at ``start``
      (mean 50% CPU stolen, slowly drifting AR(1) traces).
    * ``node-loss`` — one node fail-slows to 10% capacity at ``start``.
    * ``disk-fade`` — two nodes' disk bandwidth decays to 40% from
      ``start`` on.
    * ``stationary`` — an attached-but-empty spec: behaves exactly like
      a static cluster (the control arm of the payoff benchmark).
    """
    if name not in DYNAMICS_SCENARIOS:
        raise ConfigurationError(
            f"unknown dynamics scenario {name!r}; "
            f"choose from {DYNAMICS_SCENARIOS}"
        )
    if n_nodes < 2:
        raise ConfigurationError("dynamics scenarios need >= 2 nodes")
    a, b = 0, n_nodes // 2
    if name == "drift":
        return DynamicsSpec(
            cpu_drift=(
                CpuDrift(a, rate=0.08, floor=0.45, start_iteration=start),
                CpuDrift(b, rate=0.08, floor=0.45, start_iteration=start),
            ),
            name="drift",
        )
    if name == "load-spike":
        trace = LoadTrace(mean=0.5, volatility=0.2, persistence=0.9)
        return DynamicsSpec(
            loads=(
                NodeLoad(a, trace, start_iteration=start),
                NodeLoad(b, trace, start_iteration=start),
            ),
            name="load-spike",
        )
    if name == "node-loss":
        return DynamicsSpec(
            events=(NodeEvent(a, at_iteration=start, residual=0.1),),
            name="node-loss",
        )
    if name == "disk-fade":
        return DynamicsSpec(
            disk_degradation=(
                DiskDegradation(a, rate=0.1, floor=0.4, start_iteration=start),
                DiskDegradation(b, rate=0.1, floor=0.4, start_iteration=start),
            ),
            name="disk-fade",
        )
    return DynamicsSpec(name="stationary")


def dynamics_scenarios(n_nodes: int = N_NODES) -> Dict[str, DynamicsSpec]:
    """All named scenarios, keyed by name."""
    return {
        name: dynamics_scenario(name, n_nodes) for name in DYNAMICS_SCENARIOS
    }
