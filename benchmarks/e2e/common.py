"""Shared helpers of the end-to-end benchmark: paths, statistics,
metric metadata and the environment block.

Imports nothing from ``repro`` at module level, so ``compare.py`` and
the tests can load it without the program on the path.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
#: Root of the checkout: ``benchmarks/e2e/`` sits two levels below it.
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

WORKLOADS = ("advise", "layout2d", "serve", "adaptive")
DEFAULT_SEED = 1
#: Set-ups per run (processes started and waited on until ready);
#: ``setup_s`` is the median of their calibrated times.
SETUPS = 3
#: Host-speed probes taken right before and again right after each
#: set-up; their median calibrates it (``probe.calibrated_seconds``).
SETUP_PROBES = 4

#: Units of the end-to-end figures a record keeps besides BENCHMARK.json's
#: metrics.  They are reported, not gated: BENCHMARK.json holds every
#: bound, and these cannot go there (README.md, "End-to-end metrics").
DIAGNOSTIC_UNITS = {
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "error_frac": "fraction",
    "model_error_pct": "%",
    "slo_miss_frac": "fraction",
    "verify_agree_frac": "fraction",
}

#: Quality figures: taken on inputs every seed shares (the control sets
#: and the serve search keys), so every run must repeat them exactly.
DETERMINISTIC = ("advice_gain", "model_error_pct")


def load_benchmark_spec(path: Path = BENCHMARK_JSON) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def metric_table(spec: Optional[dict] = None) -> Dict[str, dict]:
    """BENCHMARK.json's end-to-end metrics: name -> unit, better, bound."""
    spec = spec if spec is not None else load_benchmark_spec()
    return {
        m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for m in spec["end_to_end"]
    }


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], q: float, grid: int = 64) -> float:
    """Harrell-Davis estimate of percentile ``q`` in (0, 100): a
    Beta-weighted mean of all order statistics.  Job costs cluster by
    job kind, and a plain order statistic jumps between clusters from
    run to run; this estimate moves smoothly.  The Beta CDF is
    integrated numerically (``grid`` steps per order statistic)."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n < 2:
        return float(x[0]) if n else math.nan
    a, b = q / 100.0 * (n + 1), (1.0 - q / 100.0) * (n + 1)
    t = np.linspace(0.0, 1.0, grid * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    return float(np.diff(cdf[::grid]) @ x / cdf[-1])


def beyond(values: Sequence[float], q: float) -> int:
    """Samples strictly above percentile ``q`` (the tail count that
    says whether the percentile is supported)."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3) the way ``statistics.quantiles(n=4)`` gives them."""
    data = list(values)
    if len(data) == 1:
        return [data[0]] * 3
    return statistics.quantiles(data, n=4)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; NaN for no values (a run whose every sample
    failed, which its checks already mark incorrect)."""
    if not values:
        return math.nan
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def latency_metrics(ms: Sequence[float]) -> Dict[str, float]:
    return {"latency_p50_ms": percentile(ms, 50), "latency_p90_ms": percentile(ms, 90)}


def trace_overhead_pct(traced_ms: Sequence[float], untraced_ms: Sequence[float]) -> float:
    """Traced vs untraced median latency, in percent."""
    if not traced_ms or not untraced_ms:
        return 0.0
    return 100.0 * (median(traced_ms) / median(untraced_ms) - 1.0)


def counter_metrics(c: Dict[str, float]) -> Dict[str, float]:
    """Emulator ratios read off the program's ``telemetry=`` counters (a
    Recorder's ``counters``, or the difference of two snapshots)."""
    plan_runs = c.get("sim/batch/plan_runs", 0)
    return {
        "sim.fast_forward_ratio": ratio(
            c.get("sim/fast_forwarded", 0) + plan_runs
            + c.get("sim/twod/fast_forwards", 0),
            c.get("sim/runs", 0) + plan_runs + c.get("sim/twod/runs", 0),
        ),
        "sim.batch_fallback_ratio": ratio(
            c.get("sim/batch/fallbacks", 0),
            c.get("sim/batch/candidates", 0) - c.get("sim/batch/cache_hits", 0),
        ),
        "parallel.run_cache_hit_ratio": ratio(
            c.get("sim/run_cache/hits", 0),
            c.get("sim/run_cache/hits", 0) + c.get("sim/run_cache/misses", 0),
        ),
    }


# -- environment -------------------------------------------------------------


def _git_sha(root: Path) -> Optional[str]:
    """HEAD's commit, read from ``.git`` directly (no subprocess); None
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """The environment block recorded with every result (``run.py``
    adds ``numba_active`` as the program reported it)."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_PLAN_NUMBA": os.environ.get("REPRO_PLAN_NUMBA"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(ROOT),
        "platform": sys.platform,
    }


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: the program
    is imported from this checkout's ``src`` and nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


def require_program() -> None:
    """Refuse to run without the program's sources next to the
    benchmark (a stray installed ``repro`` must never stand in)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"e2e benchmark: no program sources at {SRC / 'repro'}; run it "
            "from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(
            f"e2e benchmark: imported repro from {repro.__file__}, not "
            f"from {SRC}"
        )
