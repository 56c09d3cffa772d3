"""Tests for the command-line interface."""

import json
import socket
import threading

import pytest

from repro.cli import build_parser, main

SCALE = ["--scale", "0.03"]


def _answering_server(path, response):
    """A one-shot unix-socket server: it reads one request line and
    answers ``response`` under the request's id."""
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(path)
    server.listen(1)

    def serve():
        conn, _ = server.accept()
        with conn, conn.makefile("rb") as lines:
            request = json.loads(lines.readline())
            answer = {"id": request["id"], **response}
            conn.sendall((json.dumps(answer) + "\n").encode())
        server.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fft"])

    def test_removed_plan_kernel_rejected(self, capsys):
        """The prediction path is not a choice: ``--kernel`` is an
        unrecognized argument on every subcommand that once took it."""
        for argv in (
            ["predict", "jacobi"],
            ["search", "jacobi"],
            ["timing"],
            ["stats", "jacobi"],
            ["serve"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([*argv, "--kernel", "numpy"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --kernel numpy" in err

    def test_removed_routing_flags_rejected(self, capsys):
        """The route alone picks plan or engine: ``--no-fast-forward``
        is gone from every subcommand, and ``verify`` has no
        ``--batch`` (each candidate is routed on its own)."""
        for argv, removed in (
            (["emulate", "jacobi"], ["--no-fast-forward"]),
            (["search", "jacobi"], ["--no-fast-forward"]),
            (["serve"], ["--no-fast-forward"]),
            (["verify", "jacobi"], ["--batch", "2"]),
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([*argv, *removed])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(removed)}" in err


class TestCommands:
    def test_table1(self, capsys):
        out = run_cli(capsys, "table1")
        for name in ("DC", "IO", "HY1", "HY2"):
            assert name in out

    def test_sweep(self, capsys):
        out = run_cli(capsys, "sweep", "jacobi", "--config", "DC", *SCALE)
        assert "mean error" in out
        assert "Bal" in out

    def test_sweep_prefetch(self, capsys):
        out = run_cli(
            capsys, "sweep", "jacobi", "--config", "IO", "--prefetch", *SCALE
        )
        assert "jacobi" in out

    def test_predict_with_verify(self, capsys):
        out = run_cli(
            capsys,
            "predict", "lanczos", "--config", "HY2", "--dist", "bal",
            "--verify", *SCALE,
        )
        assert "bottleneck" in out
        assert "error" in out

    def test_predict_unknown_distribution(self):
        with pytest.raises(SystemExit):
            main(["predict", "jacobi", "--dist", "zigzag", *SCALE])

    def test_query_bad_counts_exits_with_the_verify_message(self):
        """``query`` parses ``--counts`` as ``verify`` does, before it
        connects: a bad entry is a clean exit, not a traceback."""
        message = "--counts expects comma-separated integers, got '1,x,3'"
        for argv in (
            ["query", "predict", "jacobi", "--port", "9"],
            ["verify", "jacobi", *SCALE],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--counts", "1,x,3"])
            assert str(exc.value) == message

    def test_query_error_answer_exits_with_its_message(self, tmp_path):
        """An ``ok: false`` answer ends ``query`` with the server's
        message on one line, not a traceback."""
        sock = str(tmp_path / "serve.sock")
        error = "counts do not match the cluster's node count"
        server = _answering_server(sock, {"ok": False, "error": error})
        with pytest.raises(SystemExit) as exc:
            main([
                "query", "predict", "jacobi", "--counts", "1,2,3",
                "--socket", sock, *SCALE,
            ])
        server.join(timeout=10)
        assert str(exc.value) == f"query 'predict' failed: {error}"

    def test_query_refused_connection_exits_with_one_line(self):
        """A port nobody listens on ends ``query`` with one line."""
        bound = socket.socket()  # bound, never listening: refused
        bound.bind(("127.0.0.1", 0))
        port = bound.getsockname()[1]
        try:
            with pytest.raises(SystemExit) as exc:
                main(["query", "ping", "--port", str(port)])
        finally:
            bound.close()
        message = str(exc.value)
        assert message.startswith(f"cannot reach repro serve at 127.0.0.1:{port}: ")
        assert "refused" in message and "\n" not in message

    def test_predict_unknown_config(self):
        with pytest.raises(SystemExit):
            main(["predict", "jacobi", "--config", "XX", *SCALE])

    @pytest.mark.parametrize("algorithm", ["gbs", "random", "sweep"])
    def test_search(self, capsys, algorithm):
        out = run_cli(
            capsys,
            "search", "rna", "--config", "DC",
            "--algorithm", algorithm, "--budget", "40", *SCALE,
        )
        assert "improvement" in out

    def test_search_batch_size_does_not_change_answer(self, capsys):
        base = run_cli(
            capsys,
            "search", "rna", "--config", "DC", "--budget", "40", *SCALE,
        )
        chunked = run_cli(
            capsys,
            "search", "rna", "--config", "DC", "--budget", "40",
            "--batch-size", "4", *SCALE,
        )
        assert chunked == base

    def test_search_all_with_verify(self, capsys):
        out = run_cli(
            capsys,
            "search", "jacobi", "--config", "DC",
            "--algorithm", "all", "--budget", "20", "--verify",
            "--jobs", "2", *SCALE,
        )
        for algorithm in ("gbs", "genetic", "annealing", "random"):
            assert f"{algorithm}: emulator verifies" in out

    def test_sweep_jobs_and_cache_match_serial(self, capsys, tmp_path):
        serial = run_cli(capsys, "sweep", "jacobi", "--config", "DC", *SCALE)
        cache = tmp_path / "sweeps.json"
        fanned = run_cli(
            capsys,
            "sweep", "jacobi", "--config", "DC",
            "--jobs", "2", "--cache", str(cache), *SCALE,
        )
        assert fanned == serial
        assert cache.exists()
        warm = run_cli(
            capsys,
            "sweep", "jacobi", "--config", "DC",
            "--cache", str(cache), *SCALE,
        )
        assert warm == serial

    def test_adaptive(self, capsys):
        out = run_cli(capsys, "adaptive", "jacobi", "--config", "DC", *SCALE)
        assert "speedup" in out

    def test_accuracy_panel(self, capsys):
        out = run_cli(
            capsys, "accuracy", "--panel", "rna", "--steps", "1", *SCALE
        )
        assert "overall" in out

    def test_spreads(self, capsys):
        out = run_cli(capsys, "spreads", "--steps", "1", *SCALE)
        assert "worst/best" in out

    def test_ablation(self, capsys):
        out = run_cli(capsys, "ablation", "--steps", "1", *SCALE)
        assert "ablation" in out.lower()

    def test_robustness(self, capsys):
        out = run_cli(capsys, "robustness", *SCALE)
        assert "background load" in out

    def test_multigrid_app_available(self, capsys):
        out = run_cli(capsys, "predict", "multigrid", "--config", "DC", *SCALE)
        assert "multigrid" in out


class TestFileWorkflow:
    def test_instrument_then_predict(self, capsys, tmp_path):
        path = tmp_path / "mheta.json"
        out = run_cli(
            capsys, "instrument", "jacobi", str(path), "--config", "DC", *SCALE
        )
        assert "internal MHETA file" in out
        assert path.exists()
        out = run_cli(
            capsys,
            "predict", "jacobi", "--config", "DC",
            "--inputs", str(path), "--dist", "bal", *SCALE,
        )
        assert "bottleneck" in out

    def test_analyse(self, capsys):
        out = run_cli(
            capsys, "analyse", "jacobi", "--config", "HY1", *SCALE
        )
        assert "imbalance" in out
        assert "util" in out

    def test_sweep_chart_flag(self, capsys):
        out = run_cli(
            capsys, "sweep", "lanczos", "--config", "DC", "--chart", *SCALE
        )
        assert "actual" in out and "predicted" in out
        assert "|" in out  # the chart frame


class TestTwoDCli:
    def test_predict_twod_roundtrip(self, capsys):
        out = run_cli(
            capsys,
            "predict", "jacobi", "--config", "DC",
            "--twod", "2x4", "--verify", *SCALE,
        )
        assert "2x4 grid" in out
        assert "predicted:" in out
        assert "rank 7" in out  # per-rank report lines
        assert "error" in out  # --verify ran the 2-D emulator

    def test_predict_twod_explicit_bands(self, capsys):
        out = run_cli(
            capsys,
            "predict", "jacobi", "--config", "DC",
            "--twod", "2x4", "--rows", "800,618", *SCALE,
        )
        assert "rows=[800, 618]" in out

    def test_predict_twod_bad_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["predict", "jacobi", "--config", "DC",
                 "--twod", "3x3", *SCALE]
            )
        with pytest.raises(SystemExit):
            main(
                ["predict", "jacobi", "--config", "DC",
                 "--twod", "nope", *SCALE]
            )

    def test_predict_twod_non_jacobi_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["predict", "cg", "--config", "DC", "--twod", "2x4", *SCALE]
            )

    def test_search_twod_single_shape(self, capsys):
        out = run_cli(
            capsys,
            "search", "jacobi", "--config", "DC",
            "--twod", "2x4", "--budget", "60", *SCALE,
        )
        assert "twod-gbs" in out
        assert "2x4:" in out

    def test_search_twod_starved_shape_is_not_searched(self, capsys):
        out = run_cli(
            capsys,
            "search", "jacobi", "--config", "DC",
            "--twod", "all", "--budget", "60", *SCALE,
        )
        assert "4x2: not searched" in out
        assert "inf" not in out

    def test_search_twod_all_shapes_with_telemetry(self, capsys):
        out = run_cli(
            capsys,
            "search", "jacobi", "--config", "DC",
            "--twod", "all",
            "--budget", "60", "--telemetry", "text", *SCALE,
        )
        for shape in ("1x8", "2x4", "4x2", "8x1"):
            assert f"{shape}:" in out
        assert "<-" in out  # winner marker
        assert "span/search/twod" in out
