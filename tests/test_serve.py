"""Tests for the distribution-advisor service (repro.serve).

The concurrency suite drives a real asyncio server over a loopback
socket with pipelining clients: identical and distinct queries issued
simultaneously must coalesce (asserted via the telemetry counters)
while every answer stays equal to its one-shot library counterpart.
"""

import argparse
import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.apps import APPLICATIONS
from repro.cluster import DYNAMICS_SCENARIOS, TABLE1_CONFIGS, config_dc
from repro.distribution import ANCHORS, GenBlock, balanced, block
from repro.exceptions import ServeError
from repro.experiments import build_model
from repro.obs import Recorder
from repro.apps import JacobiApp, application_by_name
from repro.search import SEARCHERS
from repro.serve import (
    AsyncServeClient,
    MicroBatcher,
    Query,
    ServeCoordinator,
    decode_message,
    encode_message,
)
from repro.serve.protocol import OPS

SCALE = 0.02  # tiny problems: full protocol, milliseconds of wall time


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# protocol


class TestProtocol:
    def test_message_round_trip(self):
        message = {"id": 3, "op": "predict", "app": "jacobi"}
        assert decode_message(encode_message(message)) == message

    def test_garbage_raises(self):
        with pytest.raises(ServeError):
            decode_message(b"{not json\n")
        with pytest.raises(ServeError):
            decode_message(b"[1, 2]\n")

    def test_unknown_op_rejected(self):
        with pytest.raises(ServeError):
            Query.from_payload({"op": "frobnicate"})

    def test_predict_requires_app(self):
        with pytest.raises(ServeError):
            Query.from_payload({"op": "predict"})
        with pytest.raises(ServeError):
            Query.from_payload({"op": "predict", "app": "jacobo"})

    def test_bad_counts_rejected(self):
        for counts in ([], [0, 5], ["x"], "notalist"):
            with pytest.raises(ServeError):
                Query.from_payload(
                    {"op": "predict", "app": "jacobi", "counts": counts}
                )

    @pytest.mark.parametrize(
        "counts", ["1234", [2.7, 3.9], [True, True], [1, float("inf")],
                   [1, float("nan")], [None], (1, 2)],
    )
    def test_malformed_counts_rejected(self, counts):
        """No silent conversions: strings, fractional floats, bools and
        non-list containers are errors, not counts."""
        with pytest.raises(ServeError, match="bad counts"):
            Query.from_payload(
                {"op": "predict", "app": "jacobi", "counts": counts}
            )

    def test_integral_float_counts_accepted(self):
        q = Query.from_payload(
            {"op": "verify", "app": "jacobi", "counts": [3.0, 5, 2.0]}
        )
        assert q.counts == (3, 5, 2)
        assert all(type(c) is int for c in q.counts)

    @pytest.mark.parametrize("scale", ["inf", float("inf"), "nan", "-inf"])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ServeError, match="scale"):
            Query.from_payload(
                {"op": "predict", "app": "jacobi", "scale": scale}
            )

    def test_removed_plan_kernel_rejected(self):
        """``kernel`` is no longer a query field: a query carrying one
        parses to the query that omits it, so the two coalesce."""
        base = {"op": "predict", "app": "jacobi", "config": "DC"}
        plain = Query.from_payload(base)
        for kernel in ("plan", "scalar", "numpy"):
            named = Query.from_payload({**base, "kernel": kernel})
            assert named == plain
            assert named.coalesce_key() == plain.coalesce_key()

    def test_bad_search_budget_rejected(self):
        with pytest.raises(ServeError):
            Query.from_payload(
                {"op": "search", "app": "cg", "budget": 0}
            )

    def test_identical_queries_share_a_coalesce_key(self):
        a = Query.from_payload(
            {"op": "predict", "app": "jacobi", "dist": "blk", "scale": 0.1}
        )
        b = Query.from_payload(
            {"op": "predict", "app": "jacobi", "dist": "blk", "scale": 0.1}
        )
        c = Query.from_payload(
            {"op": "predict", "app": "jacobi", "dist": "bal", "scale": 0.1}
        )
        assert a.coalesce_key() == b.coalesce_key()
        assert a.coalesce_key() != c.coalesce_key()

    def test_verify_and_predict_never_coalesce(self):
        p = Query.from_payload({"op": "predict", "app": "rna"})
        v = Query.from_payload({"op": "verify", "app": "rna"})
        assert p.coalesce_key() != v.coalesce_key()

    def test_cli_and_protocol_read_the_registries(self):
        """Every name the CLI offers and the protocol accepts comes from
        the registry of the package that owns the thing."""
        from repro.cli import build_parser

        expected = {
            "app": [tuple(APPLICATIONS)],
            "algorithm": [tuple(SEARCHERS), (*SEARCHERS, "all")],
            "dynamics": [DYNAMICS_SCENARIOS],
            "op": [OPS],
        }
        seen = {dest: 0 for dest in expected}
        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        for command in commands.choices.values():
            for action in command._actions:
                if action.dest in expected:
                    assert tuple(action.choices) in expected[action.dest]
                    seen[action.dest] += 1
        assert seen == {"app": 10, "algorithm": 2, "dynamics": 3, "op": 1}

        def parse(**fields):
            return Query.from_payload({"app": "jacobi", **fields})

        for app in APPLICATIONS:
            assert parse(op="predict", app=app).app == app
        for config in TABLE1_CONFIGS:
            assert parse(op="predict", config=config).config == config
        for dist in ANCHORS:
            assert parse(op="predict", dist=dist).dist == dist
        for algorithm in SEARCHERS:
            query = parse(op="search", algorithm=algorithm)
            assert query.algorithm == algorithm
        for dynamics in DYNAMICS_SCENARIOS:
            assert parse(op="verify", dynamics=dynamics).dynamics == dynamics

        # The protocol takes exact names: no case folding.
        for field, value in (
            ("app", "fft"),
            ("config", "hy1"),
            ("dist", "BLK"),
            ("algorithm", "tabu"),
            ("dynamics", "quake"),
        ):
            op = {"algorithm": "search", "dynamics": "verify"}.get(
                field, "predict"
            )
            with pytest.raises(ServeError, match=f"unknown {field}"):
                parse(op=op, **{field: value})


# ---------------------------------------------------------------------------
# micro-batcher


class TestMicroBatcher:
    def test_concurrent_identical_submissions_coalesce(self):
        calls = []

        async def flush(payloads):
            calls.append(list(payloads))
            return [p * 10 for p in payloads]

        async def main():
            rec = Recorder()
            batcher = MicroBatcher(flush, window_seconds=0.01, telemetry=rec)
            results = await asyncio.gather(
                *[batcher.submit("k", 7) for _ in range(5)],
                batcher.submit("other", 3),
            )
            return rec, results

        rec, results = run(main())
        assert results == [70] * 5 + [30]
        assert calls == [[7, 3]]  # one flush, two distinct payloads
        assert rec.counters["serve/requests"] == 6
        assert rec.counters["serve/coalesced"] == 4
        assert rec.counters["serve/batches"] == 1

    def test_max_batch_flushes_early(self):
        calls = []

        async def flush(payloads):
            calls.append(list(payloads))
            return payloads

        async def main():
            batcher = MicroBatcher(flush, window_seconds=5.0, max_batch=3)
            return await asyncio.gather(
                *[batcher.submit(i, i) for i in range(3)]
            )

        # A 5 s window would time the test out unless max_batch fires.
        assert run(main()) == [0, 1, 2]
        assert calls == [[0, 1, 2]]

    def test_flush_error_reaches_every_waiter(self):
        async def flush(payloads):
            raise ValueError("kernel exploded")

        async def main():
            batcher = MicroBatcher(flush, window_seconds=0.005)
            return await asyncio.gather(
                batcher.submit("a", 1),
                batcher.submit("a", 1),
                batcher.submit("b", 2),
                return_exceptions=True,
            )

        results = run(main())
        assert all(isinstance(r, ValueError) for r in results)

    def test_sequential_rounds_do_not_coalesce(self):
        calls = []

        async def flush(payloads):
            calls.append(list(payloads))
            return payloads

        async def main():
            batcher = MicroBatcher(flush, window_seconds=0.001)
            first = await batcher.submit("k", 1)
            second = await batcher.submit("k", 1)
            return first, second

        assert run(main()) == (1, 1)
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# coordinator end-to-end


def _serve_fixture(coordinator):
    """async context: started server + one pipelining client."""

    class _Ctx:
        async def __aenter__(self):
            self.handle = await coordinator.start(port=0)
            await self.handle.server.start_serving()
            self.client = await AsyncServeClient.open(
                self.handle.host, self.handle.port
            )
            return self.client

        async def __aexit__(self, *exc):
            await self.client.aclose()
            self.handle.server.close()
            await self.handle.server.wait_closed()
            await coordinator.aclose()

    return _Ctx()


class TestCoordinator:
    def test_concurrent_clients_coalesce_and_match_one_shot(self):
        rec = Recorder()
        coordinator = ServeCoordinator(window_seconds=0.02, telemetry=rec)
        cluster = config_dc()
        program = application_by_name("jacobi", SCALE).structure
        model = build_model(cluster, program)
        anchors = {
            "blk": block(cluster, program.n_rows),
            "bal": balanced(cluster, program.n_rows),
        }
        custom = GenBlock(
            [program.n_rows - 7 * (len(cluster.nodes) - 1)]
            + [7] * (len(cluster.nodes) - 1)
        )

        async def main():
            async with _serve_fixture(coordinator) as client:
                tasks = []
                for _ in range(8):  # identical queries from 8 "clients"
                    tasks.append(
                        client.predict(
                            "jacobi", config="DC", scale=SCALE, dist="blk"
                        )
                    )
                for _ in range(4):
                    tasks.append(
                        client.predict(
                            "jacobi", config="DC", scale=SCALE, dist="bal"
                        )
                    )
                tasks.append(
                    client.predict(
                        "jacobi", config="DC", scale=SCALE,
                        counts=list(custom.counts),
                    )
                )
                return await asyncio.gather(*tasks)

        results = run(main())
        # Identical queries: identical answers.
        assert len({r["predicted_seconds"] for r in results[:8]}) == 1
        # Every served answer matches its one-shot library counterpart.
        for result, dist in [
            (results[0], anchors["blk"]),
            (results[8], anchors["bal"]),
            (results[12], custom),
        ]:
            one_shot = model.predict(dist)
            assert result["counts"] == list(dist.counts)
            rel = abs(result["predicted_seconds"] - one_shot) / one_shot
            assert rel <= 1e-12
        # Coalescing really happened, and fewer kernel evaluations ran
        # than requests arrived.
        assert rec.counters["serve/coalesced"] >= 10
        assert rec.counters["serve/kernel_evaluations"] == 3
        assert rec.counters["serve/requests"] == 13
        # At least a quarter of the requests shared another's pass.
        ratio = rec.counters["serve/coalesced"] / rec.counters["serve/requests"]
        assert ratio >= 0.25

    def test_coalesced_round_is_bit_identical(self):
        """A coalesced round is one batched pass, and a single
        prediction is a batch of one: every served figure equals its
        one-shot ``model.predict`` exactly."""
        coordinator = ServeCoordinator(window_seconds=0.02)
        cluster = config_dc()
        program = application_by_name("jacobi", SCALE).structure
        model = build_model(cluster, program)
        dists = [
            block(cluster, program.n_rows),
            balanced(cluster, program.n_rows),
        ]

        async def main():
            async with _serve_fixture(coordinator) as client:
                return await asyncio.gather(
                    *[
                        client.predict(
                            "jacobi", config="DC", scale=SCALE,
                            counts=list(d.counts),
                        )
                        for d in dists
                    ]
                )

        results = run(main())
        for result, dist in zip(results, dists):
            assert result["predicted_seconds"] == model.predict(dist)

    def test_eval_cache_stays_warm_across_rounds(self):
        rec = Recorder()
        coordinator = ServeCoordinator(window_seconds=0.005, telemetry=rec)

        async def main():
            async with _serve_fixture(coordinator) as client:
                first = await client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                second = await client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                return first, second

        first, second = run(main())
        assert first == second
        # Two separate rounds: the second never reached the kernel.
        assert rec.counters["serve/batches"] == 2
        assert rec.counters["serve/kernel_evaluations"] == 1
        assert rec.counters["serve/eval_cache_hits"] == 1

    def test_search_coalesces_and_matches_one_shot(self):
        from repro.search import GeneralizedBinarySearch

        rec = Recorder()
        coordinator = ServeCoordinator(window_seconds=0.005, telemetry=rec)
        cluster = config_dc()
        program = application_by_name("jacobi", SCALE).structure
        model = build_model(cluster, program)
        expected = GeneralizedBinarySearch(model, cluster).search(budget=25)

        async def main():
            async with _serve_fixture(coordinator) as client:
                identical = [
                    client.search(
                        "jacobi", config="DC", scale=SCALE,
                        algorithm="gbs", budget=25,
                    )
                    for _ in range(4)
                ]
                results = await asyncio.gather(*identical)
                repeat = await client.search(
                    "jacobi", config="DC", scale=SCALE,
                    algorithm="gbs", budget=25,
                )
                return results, repeat

        results, repeat = run(main())
        for result in results + [repeat]:
            assert result["counts"] == list(expected.best.counts)
            assert result["predicted_seconds"] == expected.predicted_seconds
            assert result["evaluations"] == expected.evaluations
        # 4 concurrent identical searches ran the searcher once; the
        # later repeat hit the result cache.
        assert rec.counters["search/runs"] == 1
        assert rec.counters["serve/search_coalesced"] == 3
        assert rec.counters["serve/search_result_hits"] == 1

    def test_verify_matches_emulator_and_fills_disk_tier(self, tmp_path):
        """Static and dynamic-scenario verifies match the library
        emulation, share one run cache without sharing entries, and the
        cache's disk tier is saved at shutdown."""
        from repro.cluster import dynamics_scenario
        from repro.parallel import RunCache
        from repro.sim import emulate

        path = tmp_path / "serve-runs.json"
        rec = Recorder()
        coordinator = ServeCoordinator(
            window_seconds=0.005, run_cache=RunCache(path=path),
            telemetry=rec,
        )
        cluster = config_dc()
        program = application_by_name("jacobi", SCALE).structure
        dist = block(cluster, program.n_rows)

        async def main():
            async with _serve_fixture(coordinator) as client:
                first = await client.verify(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                second = await client.verify(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                drifted = await client.verify(
                    "jacobi", config="DC", scale=SCALE, dist="blk",
                    dynamics="drift",
                )
                bad = await asyncio.gather(
                    client.predict(
                        "jacobi", config="DC", scale=SCALE, dist="blk",
                        dynamics="drift",
                    ),
                    return_exceptions=True,
                )
                return first, second, drifted, bad[0]

        first, second, drifted, bad = run(main())
        actual = emulate(cluster, program, dist, run_cache=False).total_seconds
        assert first["actual_seconds"] == actual
        assert first == second
        spec = dynamics_scenario("drift", cluster.n_nodes)
        assert drifted["actual_seconds"] == emulate(
            cluster, program, dist, dynamics=spec, run_cache=False
        ).total_seconds
        assert drifted["dynamics"] == "drift"
        assert drifted["actual_seconds"] != first["actual_seconds"]
        assert isinstance(bad, ServeError)
        assert rec.counters["serve/verify_emulated"] == 3
        assert rec.counters["serve/verify_dynamic"] == 1
        # The static repeat was a run-cache hit, not a second emulation.
        assert rec.counters["sim/batch/cache_hits"] == 1
        # aclose() saved the disk tier; a fresh process-alike sees both
        # the static and the drifted run.
        assert len(RunCache(path=path)) == 2

    def test_verify_dynamics_bypasses_sweep_tier(self):
        """A static and a dynamic-scenario verify coalesced into one round
        each match the library emulation; the static verify cache never
        serves the drifted run for the static query (or the reverse), and
        dynamics is rejected on other ops."""
        from repro.cluster import dynamics_scenario
        from repro.parallel import RunCache
        from repro.sim import emulate

        rec = Recorder()
        coordinator = ServeCoordinator(
            window_seconds=0.01, run_cache=RunCache(), telemetry=rec
        )
        cluster = config_dc()
        program = application_by_name("jacobi", SCALE).structure
        dist = block(cluster, program.n_rows)

        async def main():
            async with _serve_fixture(coordinator) as client:
                static, drifted = await asyncio.gather(
                    client.verify(
                        "jacobi", config="DC", scale=SCALE, dist="blk"
                    ),
                    client.verify(
                        "jacobi", config="DC", scale=SCALE, dist="blk",
                        dynamics="drift",
                    ),
                )
                repeat = await client.verify(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                bad = await asyncio.gather(
                    client.predict(
                        "jacobi", config="DC", scale=SCALE, dist="blk",
                        dynamics="drift",
                    ),
                    return_exceptions=True,
                )
                return static, drifted, repeat, bad[0]

        static, drifted, repeat, bad = run(main())
        spec = dynamics_scenario("drift", cluster.n_nodes)
        assert static["actual_seconds"] == emulate(
            cluster, program, dist, run_cache=False
        ).total_seconds
        assert drifted["actual_seconds"] == emulate(
            cluster, program, dist, dynamics=spec, run_cache=False
        ).total_seconds
        assert drifted["dynamics"] == "drift"
        assert drifted["actual_seconds"] != static["actual_seconds"]
        assert repeat == static
        assert isinstance(bad, ServeError)
        assert rec.counters["serve/verify_dynamic"] == 1
        # Two distinct cache entries; the static repeat hit its own.
        assert len(coordinator.run_cache) == 2
        assert rec.counters["sim/batch/cache_hits"] == 1

    def test_bad_query_errors_do_not_poison_the_round(self):
        coordinator = ServeCoordinator(window_seconds=0.02)

        async def main():
            async with _serve_fixture(coordinator) as client:
                good = client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                bad = client.request(
                    {"op": "predict", "app": "nope", "config": "DC"}
                )
                return await asyncio.gather(
                    good, bad, return_exceptions=True
                )

        good, bad = run(main())
        assert isinstance(good, dict) and "predicted_seconds" in good
        assert isinstance(bad, ServeError)

    def test_invalid_distribution_errors_only_its_own_query(self):
        coordinator = ServeCoordinator(window_seconds=0.02)

        async def main():
            async with _serve_fixture(coordinator) as client:
                return await asyncio.gather(
                    client.predict(
                        "jacobi", config="DC", scale=SCALE, dist="blk"
                    ),
                    client.predict(  # counts don't cover n_rows
                        "jacobi", config="DC", scale=SCALE,
                        counts=[1] * 8,
                    ),
                    return_exceptions=True,
                )

        good, bad = run(main())
        assert isinstance(bad, ServeError)
        assert isinstance(good, dict) and good["predicted_seconds"] > 0

    def test_default_kernel_query_shares_resident_model(self):
        """A query that still names a kernel is answered as if it had
        not: it runs against the resident model of one naming none."""
        rec = Recorder()
        coordinator = ServeCoordinator(window_seconds=0.005, telemetry=rec)

        async def main():
            async with _serve_fixture(coordinator) as client:
                named = await client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk",
                    kernel="scalar",
                )
                default = await client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk",
                )
                return named, default, await client.stats()

        named, default, stats = run(main())
        assert rec.counters["serve/models_built"] == 1
        assert stats["models_resident"] == len(stats["models"]) == 1
        assert named["predicted_seconds"] == default["predicted_seconds"]

    def test_line_limit_is_the_protocol_bound(self):
        """A 100 KB line, past asyncio's default 64 KiB stream limit,
        and a line of exactly 1 MiB are ordinary queries.  A line past
        the protocol's 1 MiB bound gets an error and closes only its
        own connection."""
        coordinator = ServeCoordinator(window_seconds=0.005)

        async def main():
            handle = await coordinator.start(port=0)
            await handle.server.start_serving()
            try:
                async with await AsyncServeClient.open(
                    handle.host, handle.port
                ) as client:
                    padded = await client.request(
                        {"op": "ping", "pad": "x" * 100_000}
                    )
                reader, writer = await asyncio.open_connection(
                    handle.host, handle.port
                )
                exact = encode_message({"id": 1, "op": "ping", "pad": ""})
                exact = exact.replace(
                    b'""', b'"' + b"x" * ((1 << 20) + 1 - len(exact)) + b'"'
                )
                assert len(exact) == (1 << 20) + 1  # the newline on top
                writer.write(exact)
                writer.write(
                    encode_message({"op": "ping", "pad": "x" * (1 << 20)})
                )
                await writer.drain()
                # The two answers may arrive in either order.
                answers = {}
                for _ in range(2):
                    answer = decode_message(await reader.readline())
                    answers[answer["id"]] = answer
                try:
                    closed = await reader.read() == b""
                except ConnectionResetError:
                    closed = True
                writer.close()
                async with await AsyncServeClient.open(
                    handle.host, handle.port
                ) as client:
                    fresh = await client.ping()
            finally:
                await handle.aclose()
            return padded, answers[1], answers[None], closed, fresh

        padded, at_limit, overrun, closed, fresh = run(main())
        assert padded["pong"] is True
        assert at_limit["result"]["pong"] is True
        assert overrun == {
            "id": None,
            "ok": False,
            "error": f"message exceeds {1 << 20} bytes",
        }
        assert closed
        assert fresh["pong"] is True

    def test_stats_snapshot_reports_residency(self):
        coordinator = ServeCoordinator(window_seconds=0.005)

        async def main():
            async with _serve_fixture(coordinator) as client:
                await client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                return await client.stats()

        stats = run(main())
        assert stats["models_resident"] == 1
        (model_stats,) = stats["models"].values()
        assert model_stats["eval_cache_entries"] == 1


# ---------------------------------------------------------------------------
# two processes sharing the on-disk sweep tier


# ---------------------------------------------------------------------------
# CLI: repro serve / repro query over a unix socket


class TestServeCli:
    def test_serve_and_query_subprocess(self, tmp_path):
        from repro.parallel import RunCache
        from repro.serve import ServeClient

        sock = str(tmp_path / "advisor.sock")
        runs_path = tmp_path / "advisor-runs.json"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", sock, "--window-ms", "1",
                "--run-cache", str(runs_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        ) as server:
            try:
                deadline = time.monotonic() + 30
                while not os.path.exists(sock):
                    assert server.poll() is None, server.stdout.read()
                    assert time.monotonic() < deadline, "server never bound"
                    time.sleep(0.05)
                with ServeClient(socket_path=sock) as client:
                    assert client.ping()["pong"] is True
                    result = client.predict(
                        "jacobi", config="DC", scale=SCALE, dist="blk"
                    )
                    assert result["predicted_seconds"] > 0
                    verified = client.verify(
                        "jacobi", config="DC", scale=SCALE, dist="blk"
                    )
                    assert verified["actual_seconds"] > 0
                    assert client.stats()["run_cache"]["size"] == 1
                    client.shutdown()
                server.wait(timeout=30)
                assert server.returncode == 0
                # The verify's emulation was persisted at shutdown.
                assert len(RunCache(path=runs_path)) == 1
            finally:
                if server.poll() is None:  # pragma: no cover - cleanup path
                    server.send_signal(signal.SIGKILL)
                    server.wait()

    def test_parser_accepts_serve_and_query(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--socket", "/tmp/x.sock", "--window-ms", "5",
             "--max-requests", "3"]
        )
        assert args.command == "serve"
        assert args.window_ms == 5.0
        args = parser.parse_args(
            ["query", "predict", "jacobi", "--counts", "3,4,5",
             "--port", "7000"]
        )
        assert args.command == "query" and args.op == "predict"

    def test_removed_batch_mode_rejected(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "--socket", "/tmp/x.sock",
                 "--batch-mode", "serial"]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --batch-mode" in (
            capsys.readouterr().err
        )
