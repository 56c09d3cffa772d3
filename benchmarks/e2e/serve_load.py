"""The ``serve`` workload: a resident ``repro serve`` under open-loop load.

One process (this one) generates all load over two pipelined
connections, against one server started for the run:

1. set-up: spawn ``python -m repro serve`` (default flags, an ephemeral
   localhost port) and wait until each resident model has answered
   once; two more servers are started and stopped only for set-up
   samples;
2. open loop: the seeded schedule at a fixed 40 q/s, each request timed
   from its *due* time, so a stall also charges the requests it delays;
3. capacity: the pre-generated predict/verify list with 32 requests in
   flight per connection until the run's time is up.

Request times are raw wall clock.  Much of a request is a fixed wait
(the batching window) and the server's threads use both vCPUs, so the
host probe that calibrates the library jobs does not stand for it.  A
request takes a few ms, and the hosts these runs share stall a process
for tens of ms at a time, in bursts that come and go within seconds;
so ``latency_p50_ms`` is taken over the least disturbed short windows
of consecutive requests (``quiet_p50``; README.md, "Measuring on a
shared host").  The p90 and the capacity are taken over every request.
Set-up times are calibrated by probes around them, as for the library
workloads.

Untimed, afterwards: sampled answers must equal one-shot library calls
made in this process, and the searches answered in the open loop are
verified against Blk (``advice_gain``).  With ``--trace 1`` the run
also reads the server's ``stats`` counters around the open loop and
records client-side spans of every request once the loop is over, so
tracing adds nothing to any request's time.
"""

from __future__ import annotations

import asyncio
import math
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import common
import workloads
from probe import Probe, calibrated_seconds
from spans import Tracer

SLO_MS = 250.0
CAPACITY_IN_FLIGHT = 32
CONNECTIONS = 2
PREDICT_SAMPLES = 60
MIN_PREDICT_SAMPLES = 50
VERIFY_SAMPLES = 16
PREDICT_RTOL = 1e-12
#: Slack on top of each phase's own length; a hung server fails the
#: run instead of stalling it.
PHASE_SLACK_S = 30.0
#: The quiet p50 is the mean p50 of the ``QUIET_KEPT`` least disturbed
#: windows of ``QUIET_WINDOW`` consecutive open-loop requests.  Over
#: two sets of ten seeds on a busy host, it spread 0.037 and 0.073;
#: the lowest p50 of 25-request windows spread 0.065 and 0.097, and the
#: p50 of all requests 0.40 and 0.12.
QUIET_WINDOW = 10
QUIET_KEPT = 2

_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


class Server:
    """One ``repro serve`` subprocess on an ephemeral localhost port,
    started and waited on until every resident model has answered."""

    def __init__(self) -> None:
        from repro.serve import ServeClient

        started = time.perf_counter()
        self._stopped = False
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0"],
            cwd=common.ROOT, env=common.child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = _LISTENING.search(line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            with ServeClient(self.host, self.port, timeout=PHASE_SLACK_S) as client:
                for app, config in workloads.SERVE_MODELS:
                    client.predict(app, config=config, scale=workloads.SERVE_SCALE)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Ask for shutdown, then make sure the process has ended."""
        if self._stopped:
            return
        self._stopped = True
        if self.proc.poll() is None and hasattr(self, "port"):
            from repro.exceptions import ReproError
            from repro.serve import ServeClient

            try:
                with ServeClient(self.host, self.port, timeout=10.0) as client:
                    client.shutdown()
            except (OSError, ReproError):
                pass  # killed below if it does not exit
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


# -- load phases ------------------------------------------------------------------


async def _open_loop(clients, requests: List[dict]) -> List[dict]:
    """Send each request at its due time; returns per-request timings."""
    from repro.exceptions import ServeError

    out: List[Optional[dict]] = [None] * len(requests)

    async def one(i: int, due: int) -> None:
        req = dict(requests[i])
        req.pop("due_s")
        sent = time.perf_counter_ns()
        try:
            result = await clients[i % CONNECTIONS].request(req)
            error = None
        except ServeError as exc:
            result, error = None, str(exc)
        out[i] = {"due": due, "sent": sent, "done": time.perf_counter_ns(),
                  "result": result, "error": error}

    tasks = []
    base = time.perf_counter_ns() + 50_000_000
    for i, req in enumerate(requests):
        due = base + int(req["due_s"] * 1e9)
        wait = (due - time.perf_counter_ns()) / 1e9
        if wait > 0:
            await asyncio.sleep(wait)
        tasks.append(asyncio.ensure_future(one(i, due)))
    await asyncio.gather(*tasks)
    return out


async def _capacity(clients, requests: List[dict], seconds: float) -> dict:
    """Closed loop, ``CAPACITY_IN_FLIGHT`` per connection, until time is up."""
    from repro.exceptions import ServeError

    feed = iter(requests)
    counts = {"completed": 0, "failed": 0}
    deadline = time.perf_counter() + seconds

    async def worker(client) -> None:
        while time.perf_counter() < deadline:
            req = next(feed, None)
            if req is None:
                return
            try:
                await client.request(req)
                counts["completed"] += 1
            except ServeError:
                counts["failed"] += 1

    started = time.perf_counter()
    await asyncio.gather(*(
        worker(client)
        for client in clients for _ in range(CAPACITY_IN_FLIGHT)
    ))
    counts["elapsed_s"] = time.perf_counter() - started
    return counts


async def _load(server: Server, plan: dict, trace: bool) -> dict:
    from repro.serve import AsyncServeClient

    clients = [
        await AsyncServeClient.open(server.host, server.port)
        for _ in range(CONNECTIONS)
    ]
    try:
        out: Dict[str, object] = {}
        if trace:
            out["stats0"] = await clients[0].stats()
        out["open"] = await asyncio.wait_for(
            _open_loop(clients, plan["open"]), plan["open_seconds"] + PHASE_SLACK_S
        )
        if trace:
            out["stats1"] = await clients[0].stats()
        out["capacity"] = await asyncio.wait_for(
            _capacity(clients, plan["capacity"], plan["capacity_seconds"]),
            plan["capacity_seconds"] + PHASE_SLACK_S,
        )
        out["numba_active"] = (await clients[0].stats())["plan_cache"]["numba_active"]
        out["peak_rss_mb"] = server.peak_rss_mb()
        return out
    finally:
        for client in clients:
            await client.aclose()


def load(seed: int, seconds: float, trace: bool) -> dict:
    """Set up ``common.SETUPS`` servers; the last one takes the load."""
    plan = workloads.serve_requests(seed, seconds, workloads.serve_rows())
    probe = Probe()
    setups, setups_wall = [], []
    for i in range(common.SETUPS):
        before = probe.burst(common.SETUP_PROBES)
        server = Server()
        after = probe.burst(common.SETUP_PROBES)
        setups.append(calibrated_seconds(server.setup_s, before + after))
        setups_wall.append(server.setup_s)
        if i < common.SETUPS - 1:
            server.stop()
    try:
        raw = asyncio.run(_load(server, plan, trace))
    finally:
        server.stop()
    return dict(raw, plan=plan, setups=setups, setups_wall=setups_wall)


def quiet_p50(ms: List[float]) -> float:
    """The mean of the ``QUIET_KEPT`` lowest p50s of ``QUIET_WINDOW``
    consecutive requests (NaN when the run has too few requests)."""
    p50s = sorted(
        common.percentile(ms[i:i + QUIET_WINDOW], 50)
        for i in range(0, len(ms) - QUIET_WINDOW + 1, QUIET_WINDOW)
    )
    if len(p50s) < QUIET_KEPT:
        return math.nan
    return sum(p50s[:QUIET_KEPT]) / QUIET_KEPT


# -- checks against the library ---------------------------------------------------


def library_checks(requests: List[dict], answers: List[dict]) -> dict:
    """Served answers against one-shot library calls made here
    (predicts within ``PREDICT_RTOL``, verifies bit for bit), and the
    served searches' ``advice_gain`` against Blk."""
    from repro import build_model
    from repro.apps import application_by_name
    from repro.cluster import table1_configs
    from repro.distribution import GenBlock, block
    from repro.sim import emulate

    models = {}
    for app, config in workloads.SERVE_MODELS:
        cluster = table1_configs()[config]
        program = application_by_name(app, workloads.SERVE_SCALE).structure
        models[app] = (cluster, program, build_model(cluster, program))

    answered = [i for i, a in enumerate(answers) if a["error"] is None]
    limit = {"predict": PREDICT_SAMPLES, "verify": VERIFY_SAMPLES, "search": len(requests)}
    sampled: Dict[str, List[int]] = {op: [] for op in limit}
    for i in answered:
        op = requests[i]["op"]
        if len(sampled[op]) < limit[op]:
            sampled[op].append(i)
    bad = {"predict": [], "verify": []}
    for i in sampled["predict"]:
        _, _, model = models[requests[i]["app"]]
        want = model.predict(GenBlock(requests[i]["counts"]))
        if abs(answers[i]["result"]["predicted_seconds"] - want) > PREDICT_RTOL * abs(want):
            bad["predict"].append(i)
    for i in sampled["verify"]:
        cluster, program, _ = models[requests[i]["app"]]
        want = emulate(cluster, program, GenBlock(requests[i]["counts"])).total_seconds
        if answers[i]["result"]["actual_seconds"] != want:
            bad["verify"].append(i)

    blk = {
        app: emulate(cluster, program, block(cluster, program.n_rows)).total_seconds
        for app, (cluster, program, _) in models.items()
    }
    gains = []
    for i in sampled["search"]:
        cluster, program, _ = models[requests[i]["app"]]
        best = emulate(cluster, program, GenBlock(answers[i]["result"]["counts"]))
        gains.append(blk[requests[i]["app"]] / best.total_seconds)

    n_predict = len(sampled["predict"])
    checks = {
        "served_predict_matches_library": [n_predict - len(bad["predict"]),
                                           len(bad["predict"])],
        "served_verify_matches_library": [len(sampled["verify"]) - len(bad["verify"]),
                                          len(bad["verify"])],
        "enough_predict_samples": [int(n_predict >= MIN_PREDICT_SAMPLES),
                                   int(n_predict < MIN_PREDICT_SAMPLES)],
    }
    n_sampled = n_predict + len(sampled["verify"])
    return {
        "checks": checks,
        "bad": set(bad["predict"]) | set(bad["verify"]),
        "verify_agree_frac": common.ratio(
            n_sampled - len(bad["predict"]) - len(bad["verify"]), n_sampled
        ),
        "gains": gains,
    }


# -- per-layer metrics of a traced run ------------------------------------------


def _delta(after: dict, before: dict) -> dict:
    """Counters and series (total, count) of ``after`` minus ``before``."""
    ta, tb = after["telemetry"], before["telemetry"]
    counters = {
        k: v - tb["counters"].get(k, 0) for k, v in ta["counters"].items()
    }
    series = {}
    for k, cell in ta["series"].items():
        old = tb["series"].get(k, {"total": 0.0, "count": 0})
        series[k] = (cell["total"] - old["total"], cell["count"] - old["count"])
    plan = {
        k: after["plan_cache"][k] - before["plan_cache"][k]
        for k in ("compiles", "compile_seconds")
    }
    return {"counters": counters, "series": series, "plan": plan}


def serve_layers(load: dict, lat_ms: List[float]) -> Dict[str, float]:
    """Server-side figures of the traced open loop (the ``stats``
    counters read around it) and client-side ones of its requests.

    The server times each request from parse to answer
    (``span/serve/<op>``) and reports only sums, so attribution is
    aggregate: of all requests' due -> done time, the generator's lag
    and the server's spans are attributed, and the rest (transport, the
    server's request parse and answer encode, the client) is not."""
    ratio = common.ratio
    d = _delta(load["stats1"], load["stats0"])
    c, series = d["counters"], d["series"]
    ops = {op: c.get(f"serve/op/{op}", 0) for op in ("predict", "verify", "search")}
    requests = sum(ops.values())
    server_s = sum(series.get(f"span/serve/{op}", (0.0, 0))[0] for op in ops)
    opened = load["open"]
    inflight_s = [(r["done"] - r["sent"]) / 1e9 for r in opened]
    total_s = sum(r["done"] - r["due"] for r in opened) / 1e9
    lag_s = sum(r["sent"] - r["due"] for r in opened) / 1e9
    verify_s, verify_n = series.get("span/parallel/verify", (0.0, 0))
    evals = c.get("search/evaluations", 0)
    build = load["stats0"]["telemetry"]["series"].get("span/serve/build_model")
    metrics = common.counter_metrics(c)
    metrics.update({
        "instrument.build_ms": build["mean"] * 1e3 if build else 0.0,
        "core.predictions": ratio(c.get("serve/kernel_evaluations", 0) + evals, requests),
        "core.plan_compiles": ratio(d["plan"]["compiles"], requests),
        "core.plan_compile_ms": ratio(d["plan"]["compile_seconds"] * 1e3, requests),
        "search.busy_ms": ratio(*series.get("span/serve/search", (0.0, 0))) * 1e3,
        "search.evaluations": ratio(evals, c.get("search/runs", 0)),
        "search.cache_hit_ratio": ratio(
            c.get("search/cache_hits", 0), c.get("search/cache_hits", 0) + evals
        ),
        "search.us_per_eval": ratio(series.get("span/serve/search", (0.0, 0))[0] * 1e6,
                                    evals),
        "sim.verify_ms": ratio(verify_s * 1e3, verify_n),
        "sim.ms_per_candidate": ratio(verify_s * 1e3, c.get("verify/runs", 0)),
        "serve.client_overhead_ms": (
            sum(inflight_s) / len(inflight_s) - ratio(server_s, requests)
        ) * 1e3,
        "serve.coalesced_ratio": ratio(c.get("serve/coalesced", 0), requests),
        "serve.eval_cache_hit_ratio": ratio(
            c.get("serve/eval_cache_hits", 0),
            c.get("serve/eval_cache_hits", 0) + c.get("serve/kernel_evaluations", 0),
        ),
        "serve.kernel_evals_per_request": ratio(
            c.get("serve/kernel_evaluations", 0), ops["predict"] + ops["verify"]
        ),
        "serve.batch_distinct_mean": ratio(*series.get("serve/batch_distinct", (0.0, 0))),
        "serve.latency_p99_ms": common.percentile(lat_ms, 99),
        "serve.generator_late_max_ms": max((r["sent"] - r["due"]) / 1e6 for r in opened),
        "obs.unattributed_pct": 100.0 * ratio(total_s - lag_s - server_s, total_s),
        # Nothing is traced on the request path: the ``stats`` reads
        # bracket the open loop and the spans are recorded after it.
        "obs.trace_overhead_pct": 0.0,
    })
    for op in ops:
        metrics[f"serve.op_ms.{op}"] = ratio(*series.get(f"span/serve/{op}", (0.0, 0))) * 1e3
    return metrics


def trace_requests(opened: List[dict], tracer: Tracer) -> None:
    """Client-side spans of every open-loop request: due -> sent is
    generator lag, sent -> done the server round trip."""
    for i, r in enumerate(opened):
        root = tracer.record("serve.request", 0, i, r["due"], r["done"])
        tracer.record("serve.send_wait", root, i, r["due"], r["sent"])
        tracer.record("serve.inflight", root, i, r["sent"], r["done"])


def run(seed: int, seconds: float, trace: bool, spans_path: Optional[Path]) -> dict:
    raw = load(seed, seconds, trace)
    requests, answers = raw["plan"]["open"], raw["open"]
    checks = library_checks(requests, answers)
    failed_open = {i for i, a in enumerate(answers) if a["error"] is not None}
    failed_open |= checks["bad"]
    ms = [(answers[i]["done"] - answers[i]["due"]) / 1e6
          for i in range(len(requests)) if i not in failed_open]
    cap = raw["capacity"]
    cap_attempted = cap["completed"] + cap["failed"]
    attempted = len(requests) + cap_attempted
    failed = len(failed_open) + cap["failed"]
    metrics = dict(
        latency_p50_ms=quiet_p50(ms),
        latency_p90_ms=common.percentile(ms, 90),
        throughput_per_s=cap["completed"] / cap["elapsed_s"],
        slo_miss_frac=(len(failed_open) + sum(1 for v in ms if v > SLO_MS)) / len(requests),
        error_frac=failed / attempted,
        peak_rss_mb=raw["peak_rss_mb"],
        advice_gain=common.geomean(checks["gains"]),
        verify_agree_frac=checks["verify_agree_frac"],
        setup_s=common.median(raw["setups"]),
    )
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": sorted({a["error"] for a in answers if a["error"]})[:5],
        "checks": checks["checks"],
        "metrics": metrics,
        "wall": {
            "latency_p50_ms": common.percentile(ms, 50),
            "setup_s": common.median(raw["setups_wall"]),
        },
        "setup_samples_s": raw["setups"],
        "samples": {
            "latency": len(ms),
            "quiet_windows": len(ms) // QUIET_WINDOW,
            "beyond_p90": common.beyond(ms, 90),
            "beyond_p99": common.beyond(ms, 99),
            "capacity_requests": cap_attempted,
            "advice_searches": len(checks["gains"]),
        },
        "measured_s": (answers[-1]["done"] - answers[0]["due"]) / 1e9 + cap["elapsed_s"],
        "numba_active": raw["numba_active"],
    }
    if trace:
        result["layers"] = serve_layers(raw, ms)
        if spans_path:
            tracer = Tracer()
            trace_requests(answers, tracer)
            tracer.dump(spans_path, {"workload": "serve", "seed": seed,
                                     "seconds": seconds})
    return result
