"""Microbenchmarks: cluster parameters measured by probing the machine.

The paper measures "some basic communication costs, such as send and
receive overheads and send latency per byte between nodes" with
microbenchmarks, plus per-node disk seek overheads, and assumes they are
constant in the dedicated environment (Section 4.1).  We do the same
against the emulated hardware: two timed one-way sends between nodes 0
and 1 recover the network parameters, and two-point disk probes
recover each node's seek overhead and per-byte transfer latency.  The
values are *measured through the same interfaces applications use*
(the network's costs, the disk model), not read out of the
configuration objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.cluster.cluster import ClusterSpec
from repro.exceptions import InstrumentationError
from repro.sim.disk import DiskModel
from repro.sim.executor import PREFETCH_ISSUE_OVERHEAD

__all__ = ["NodeDiskBench", "Microbenchmarks", "run_microbenchmarks"]

#: Probe sizes for the two-point linear fits.
_SMALL_BYTES = 64 * 1024
_LARGE_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class NodeDiskBench:
    """Measured disk characteristics of one node."""

    read_seek: float  #: ``rs`` — seconds per read access
    write_seek: float  #: ``ws`` — seconds per write access
    read_byte_latency: float  #: seconds per byte read
    write_byte_latency: float  #: seconds per byte written


@dataclass(frozen=True)
class Microbenchmarks:
    """All microbenchmark results for a cluster."""

    send_overhead: float
    recv_overhead: float
    byte_latency: float  #: network transfer seconds per byte
    fixed_latency: float  #: network per-message latency
    prefetch_issue_overhead: float
    disks: Tuple[NodeDiskBench, ...]

    def transfer_seconds(self, nbytes: float) -> float:
        """Estimated in-flight time for an ``nbytes`` message."""
        return self.fixed_latency + nbytes * self.byte_latency


def _ping(net, nbytes: float) -> Tuple[float, float, float]:
    """One timed send of ``nbytes`` from node 0 to node 1, both idle
    at time 0: ``(send end, arrival, receive end)``.

    The sender's CPU is busy for the send overhead, the message
    arrives after its transfer time, and the receiver's CPU is then
    busy for the receive overhead: each clock is the one before plus
    that cost, the sums the event engine forms for this exchange.
    """
    send_end = 0.0 + net.send_overhead
    arrival = send_end + net.transfer_seconds(nbytes)
    return send_end, arrival, arrival + net.recv_overhead


def _measure_network(cluster: ClusterSpec) -> Tuple[float, float, float, float]:
    """One-way timed sends at two sizes between nodes 0 and 1 recover
    (send_overhead, recv_overhead, byte_latency, fixed_latency)."""
    if cluster.n_nodes < 2:
        # Single-node cluster: communication costs never apply.
        return 0.0, 0.0, 0.0, 0.0
    net = cluster.network
    send_end, arrival_small, recv_done = _ping(net, _SMALL_BYTES)
    _, arrival_large, _ = _ping(net, _LARGE_BYTES)
    send_overhead = send_end - 0.0  # the send began at time 0
    recv_overhead = recv_done - arrival_small
    flight_small = arrival_small - send_end
    flight_large = arrival_large - send_end
    byte_latency = (flight_large - flight_small) / (_LARGE_BYTES - _SMALL_BYTES)
    fixed_latency = flight_small - _SMALL_BYTES * byte_latency
    if byte_latency < 0 or fixed_latency < -1e-12:
        raise InstrumentationError("network microbenchmark went backwards")
    return send_overhead, recv_overhead, byte_latency, max(fixed_latency, 0.0)


def _measure_disk(node_index: int, cluster: ClusterSpec) -> NodeDiskBench:
    """Two-point cold reads/writes recover seek and per-byte latency."""
    node = cluster.nodes[node_index]
    disk = DiskModel(node, resident_bytes=0.0, cache_enabled=False)
    now = 0.0
    samples = {}
    for kind in ("read", "write"):
        durations = []
        for nbytes in (_SMALL_BYTES, _LARGE_BYTES):
            if kind == "read":
                op = disk.submit_read(now, f"probe-{kind}-{nbytes}", nbytes)
            else:
                op = disk.submit_write(now, f"probe-{kind}-{nbytes}", nbytes)
            durations.append(op.done - op.start)
            now = op.done
        per_byte = (durations[1] - durations[0]) / (_LARGE_BYTES - _SMALL_BYTES)
        seek = durations[0] - _SMALL_BYTES * per_byte
        samples[kind] = (max(seek, 0.0), per_byte)
    return NodeDiskBench(
        read_seek=samples["read"][0],
        write_seek=samples["write"][0],
        read_byte_latency=samples["read"][1],
        write_byte_latency=samples["write"][1],
    )


def run_microbenchmarks(cluster: ClusterSpec) -> Microbenchmarks:
    """Measure all stable cluster parameters MHETA needs."""
    send_oh, recv_oh, byte_lat, fixed_lat = _measure_network(cluster)
    disks = tuple(
        _measure_disk(i, cluster) for i in range(cluster.n_nodes)
    )
    return Microbenchmarks(
        send_overhead=send_oh,
        recv_overhead=recv_oh,
        byte_latency=byte_lat,
        fixed_latency=fixed_lat,
        prefetch_issue_overhead=PREFETCH_ISSUE_OVERHEAD,
        disks=disks,
    )
