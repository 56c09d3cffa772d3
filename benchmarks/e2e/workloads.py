"""Seeded input generators of the four workloads.

Every list here is plain data (numbers, strings, lists), a pure
function of its arguments, and built before any timing starts; the
program under test only ever receives these inputs.

Job mixes are *stratified*: each block holds every combination of the
categorical knobs exactly once, in a seeded order, and only the
continuous knobs (node speeds, memories, disks, disturbance start) are
drawn freely.  Every seed therefore runs the same mix of job kinds,
which keeps the latency percentiles comparable from seed to seed.

The first jobs of every library workload are a *control set* drawn
from a fixed stream, identical for every seed (cluster names included:
the program seeds its measurement and noise streams from them).  The
quality metrics are taken on it, so they compare across seeds and
repeat bit for bit.  The jobs after it come from the seed.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence

import numpy as np

from common import WORKLOADS

MIB = 1 << 20

APPS = ("jacobi", "cg", "lanczos", "rna", "multigrid")
SCALES = (0.25, 1.0)
SCENARIOS = ("drift", "load-spike", "node-loss", "disk-fade", "stationary")
#: 2-D jobs as (nodes, n).  Three node counts, so the median job falls
#: inside the 10-node group, not in the gap between two equal groups.
GRIDS = tuple(itertools.product((8, 10, 12), (1024, 2048)))

#: Jobs per stratified block: a run stops only at a block boundary.
BLOCK = {"advise": len(APPS) * len(SCALES), "layout2d": len(GRIDS),
         "adaptive": len(SCENARIOS) * len(SCALES)}

#: Size of the control set the quality metrics are taken on (the first
#: jobs of the list, whole blocks).  A run always completes at least
#: these, whatever ``--seconds`` says.
QUALITY_JOBS = {"advise": 60, "layout2d": 96, "adaptive": 30}
SMOKE_QUALITY_JOBS = {"advise": 10, "layout2d": 6, "adaptive": 10}

#: Generated list length per measured second: several times what the
#: current code completes, so a faster program does not run dry.
JOBS_PER_SECOND = 60

#: The serve workload: three resident models, a fixed-rate open loop,
#: then a closed capacity phase.
SERVE_MODELS = (("jacobi", "HY1"), ("cg", "IO"), ("lanczos", "HY2"))
SERVE_SCALE = 0.25
SERVE_RATE = 40.0
SERVE_OPEN_SHARE = 0.75  # of the run; the capacity phase gets the rest
SERVE_MIX = (("predict", 85), ("verify", 12), ("search", 3))  # per block
SERVE_BLOCK = sum(k for _, k in SERVE_MIX)
SERVE_POOL = 24
SERVE_ALGORITHMS = ("gbs", "genetic", "annealing", "random")
SERVE_BUDGETS = (50, 100, 150)
CAPACITY_PER_SECOND = 2000


def rng_for(workload: str, seed: int, part: int = 1) -> np.random.Generator:
    """The stream of one workload's seeded part (``part=1``) or of its
    control set (``part=0``, always seed 0)."""
    return np.random.default_rng([seed, WORKLOADS.index(workload), part])


def random_nodes(rng: np.random.Generator, n: int) -> List[List[float]]:
    """``n`` heterogeneous nodes as ``[cpu_power, memory_bytes,
    io_factor]``: CPU 0.5-2x, memory 24 MiB-1 GiB and I/O 0.25-4x, the
    last two log-uniform (the ranges of the paper's emulated suites)."""
    cpu = rng.uniform(0.5, 2.0, n)
    mem = np.exp(rng.uniform(math.log(24 * MIB), math.log(1024 * MIB), n))
    io = np.exp(rng.uniform(math.log(0.25), math.log(4.0), n))
    return [[float(c), int(m), float(f)] for c, m, f in zip(cpu, mem, io)]


def _blocks(rng, combos: Sequence, n_jobs: int) -> List:
    out: List = []
    while len(out) < n_jobs:
        order = rng.permutation(len(combos))
        out.extend(combos[i] for i in order)
    return out[:n_jobs]


def _advise(rng, n_jobs: int) -> List[dict]:
    combos = list(itertools.product(APPS, SCALES))
    return [
        {"app": app, "scale": scale, "nodes": random_nodes(rng, 8)}
        for app, scale in _blocks(rng, combos, n_jobs)
    ]


def _layout2d(rng, n_jobs: int) -> List[dict]:
    return [
        {"n": n, "nodes": random_nodes(rng, p)}
        for p, n in _blocks(rng, list(GRIDS), n_jobs)
    ]


def _adaptive(rng, n_jobs: int) -> List[dict]:
    combos = list(itertools.product(SCENARIOS, SCALES))
    return [
        {
            "scenario": scenario,
            "scale": scale,
            "start": int(rng.integers(10, 61)),
            "nodes": random_nodes(rng, 8),
        }
        for scenario, scale in _blocks(rng, combos, n_jobs)
    ]


def library_jobs(workload: str, seed: int, seconds: float, smoke: bool) -> List[dict]:
    """The control set, then the seeded jobs, numbered in run order;
    enough for a run of ``seconds``."""
    make = {"advise": _advise, "layout2d": _layout2d, "adaptive": _adaptive}[workload]
    control = (SMOKE_QUALITY_JOBS if smoke else QUALITY_JOBS)[workload]
    n_jobs = max(control, int(math.ceil(seconds * JOBS_PER_SECOND)))
    jobs = make(rng_for(workload, 0, part=0), control)
    jobs += make(rng_for(workload, seed), n_jobs - control)
    for i, job in enumerate(jobs):
        job["index"] = i
        job["name"] = f"{workload}-c{i}" if i < control else f"{workload}-s{seed}-j{i}"
    return jobs


# -- serve ----------------------------------------------------------------


def round_rows(shares: np.ndarray, total: int) -> np.ndarray:
    """Vectorised largest-remainder rounding of ``(B, P)`` shares to
    row counts summing to ``total`` with every node >= 1 row."""
    B, P = shares.shape
    scaled = shares / shares.sum(axis=1, keepdims=True) * (total - P)
    floor = np.floor(scaled)
    counts = floor.astype(np.int64) + 1
    remainder = total - counts.sum(axis=1)
    order = np.argsort(-(scaled - floor), axis=1, kind="stable")
    rank = np.argsort(order, axis=1, kind="stable")
    counts += rank < remainder[:, None]
    return counts


def serve_rows() -> Dict[str, int]:
    """Rows of each resident model's program (needs the program)."""
    from repro.apps import application_by_name

    return {
        app: application_by_name(app, SERVE_SCALE).structure.n_rows
        for app, _ in SERVE_MODELS
    }


#: Search keys in the fixed order each model receives them, whatever
#: the seed: search costs differ by key, and the open loop sees only
#: about twenty searches, so a seeded choice would move its tail.
SEARCH_KEYS = [(a, b) for b in SERVE_BUDGETS for a in SERVE_ALGORITHMS]


def _serve_requests(rng, ops: List[str], pools, rows) -> List[dict]:
    """Requests for the op sequence ``ops``.  Each op type cycles
    through the models; per model, predicts and verifies alternate
    between a Zipf pick from the hot pool and a fresh Dirichlet draw,
    and searches walk ``SEARCH_KEYS``."""
    n = len(ops)
    zipf = 1.0 / np.arange(1, SERVE_POOL + 1)
    picks = rng.choice(SERVE_POOL, size=n, p=zipf / zipf.sum())
    fresh = {
        app: round_rows(rng.dirichlet(np.ones(8), size=n), rows[app])
        for app, _ in SERVE_MODELS
    }
    per_op: Dict[str, int] = {}
    per_model: Dict[tuple, int] = {}
    out = []
    for i, op in enumerate(ops):
        k = per_op[op] = per_op.get(op, -1) + 1
        app, config = SERVE_MODELS[k % len(SERVE_MODELS)]
        j = per_model[op, app] = per_model.get((op, app), -1) + 1
        req = {"op": op, "app": app, "config": config, "scale": SERVE_SCALE}
        if op == "search":
            algorithm, budget = SEARCH_KEYS[j % len(SEARCH_KEYS)]
            req.update(algorithm=algorithm, budget=budget)
        else:
            counts = pools[app][picks[i]] if j % 2 == 0 else fresh[app][i]
            req["counts"] = [int(c) for c in counts]
        out.append(req)
    return out


def serve_requests(seed: int, seconds: float, rows: Dict[str, int]) -> dict:
    """A run of ``seconds``: the open-loop schedule (with due offsets)
    and the capacity list."""
    rng = rng_for("serve", seed)
    pools = {
        app: round_rows(rng.dirichlet(np.ones(8), size=SERVE_POOL), rows[app])
        for app, _ in SERVE_MODELS
    }
    block = [op for op, k in SERVE_MIX for _ in range(k)]
    # Whole mix blocks, so every seed sends the same searches.
    n_blocks = int(SERVE_RATE * seconds * SERVE_OPEN_SHARE / SERVE_BLOCK + 0.5)
    n_open = SERVE_BLOCK * max(n_blocks, 1)
    open_seconds = n_open / SERVE_RATE
    capacity_seconds = max(seconds - open_seconds, seconds * (1 - SERVE_OPEN_SHARE) / 2)
    open_loop = _serve_requests(rng, _blocks(rng, block, n_open), pools, rows)
    for i, req in enumerate(open_loop):
        req["due_s"] = i / SERVE_RATE
    n_cap = int(math.ceil(capacity_seconds * CAPACITY_PER_SECOND))
    cap_block = [op for op, k in SERVE_MIX if op != "search" for _ in range(k)]
    capacity = _serve_requests(rng, _blocks(rng, cap_block, n_cap), pools, rows)
    return {
        "open_seconds": open_seconds,
        "capacity_seconds": capacity_seconds,
        "open": open_loop,
        "capacity": capacity,
    }
