"""Tests of the end-to-end benchmark itself (run explicitly:
``python -m pytest benchmarks/e2e/test_e2e.py``; about a minute)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import common
import compare
import workloads

RUN = [sys.executable, str(common.HERE / "run.py")]


@pytest.fixture(scope="module", autouse=True)
def program_on_path():
    common.require_program()


def _run(*args):
    return subprocess.run(
        [*RUN, *args], cwd=common.ROOT, capture_output=True, text=True,
        timeout=600, env=common.child_env(),
    )


@pytest.mark.parametrize("workload", ["advise", "layout2d", "adaptive"])
def test_library_job_lists_follow_the_seed(workload):
    one = workloads.library_jobs(workload, 1, 5.0, False)
    two = workloads.library_jobs(workload, 2, 5.0, False)
    control = workloads.QUALITY_JOBS[workload]
    assert one == workloads.library_jobs(workload, 1, 5.0, False)
    assert one[:control] == two[:control]
    assert one[control:] != two[control:]
    # Every block holds each combination of the categorical knobs once.
    block = workloads.BLOCK[workload]

    def kinds(jobs):
        keys = [k for k in jobs[0] if k in ("app", "scale", "scenario", "n")]
        return Counter(tuple(j[k] for k in keys) + (len(j["nodes"]),) for j in jobs)

    for start in range(0, len(one) - block + 1, block):
        assert kinds(one[start:start + block]) == kinds(two[start:start + block])
        assert len(kinds(one[start:start + block])) == block


def test_serve_request_lists_follow_the_seed():
    rows = workloads.serve_rows()
    one = workloads.serve_requests(1, 4.0, rows)
    assert one == workloads.serve_requests(1, 4.0, rows)
    two = workloads.serve_requests(2, 4.0, rows)
    assert one["open"] != two["open"]
    # Every seed sends the same searches, so advice_gain compares.

    def searches(plan):
        return [(r["app"], r["algorithm"], r["budget"])
                for r in plan["open"] if r["op"] == "search"]

    assert searches(one) == searches(two)
    for req in one["open"] + one["capacity"]:
        if "counts" in req:
            assert sum(req["counts"]) == rows[req["app"]]
            assert min(req["counts"]) >= 1 and len(req["counts"]) == 8


def test_smoke_runs_pass_and_quality_repeats(tmp_path):
    out = tmp_path / "runs.json"
    for seed in (1, 1, 2):
        proc = _run("--workload", "all", "--smoke", "--seed", str(seed),
                    "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
    runs = json.loads(out.read_text())["runs"]
    by_workload = {}
    for run in runs:
        assert run["correct"] and run["environment"]["nproc"] >= 1
        by_workload.setdefault(run["workload"], []).append(run)
    for workload, (a, b, c) in by_workload.items():
        assert (a["seed"], b["seed"], c["seed"]) == (1, 1, 2)
        figures = [dict(r["metrics"], **r["diagnostics"]) for r in (a, b, c)]
        for name in common.DETERMINISTIC:
            if name in figures[0]:
                assert figures[0][name] == figures[1][name] == figures[2][name]


def test_traced_smoke_writes_spans_and_attributes_time():
    proc = _run("--workload", "all", "--smoke", "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    spec = common.load_benchmark_spec()
    for workload in common.WORKLOADS:
        for m in spec["per_layer"]:
            assert f"{workload}/{m['name']}" in metrics
        unattributed = metrics[f"{workload}/obs.unattributed_pct"]["value"]
        # serve's is the transport and protocol time no server span
        # covers (README.md, "Findings"); the library spans cover the jobs.
        assert 0.0 < unattributed < (30.0 if workload == "serve" else 5.0)
        spans = common.OUT_DIR / f"spans-{workload}-seed3.json"
        assert json.loads(spans.read_text())["spans"]
    assert metrics["serve/obs.trace_overhead_pct"]["value"] == 0.0


def test_failed_job_still_prints_every_metric(monkeypatch, capsys):
    """A job that raises makes the run incorrect, but the last line is
    still the JSON object, with every end-to-end metric."""
    import run
    import worker

    job = worker.JOB["advise"]

    def flaky(spec, *args):
        if spec["index"] == 1:
            raise RuntimeError("injected failure")
        return job(spec, *args)

    def in_process(workload, seed, seconds, trace, smoke, spans):
        raw = worker.run_jobs(workload, seed, seconds, trace, smoke, spans)
        return dict(raw, setups=[0.25, 0.5, 0.75], setups_wall=[0.5, 1.0, 1.5])

    monkeypatch.setitem(worker.JOB, "advise", flaky)
    monkeypatch.setattr(run, "load_library", in_process)
    assert run.main(["--workload", "advise", "--smoke", "--seed", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
    names = [m["name"] for m in common.load_benchmark_spec()["end_to_end"]]
    assert sorted(last["metrics"]) == sorted(names)
    assert all(m["value"] is not None for m in last["metrics"].values())


def test_benchmark_json_follows_the_contract():
    spec = common.load_benchmark_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(spec["per_layer"]) == 33
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(common.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "advise"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _runs(workload, values):
    return [
        {"workload": workload, "metrics": {"latency_p50_ms": {"value": v, "unit": "ms"}}}
        for v in values
    ]


def test_compare_refuses_runs_of_another_length(tmp_path):
    run_seconds = common.load_benchmark_spec()["run_seconds"]

    def result_set(seconds):
        path = tmp_path / f"runs-{seconds}.json"
        runs = [dict(r, seed=1, seconds=seconds, smoke=False, trace=False, correct=True)
                for r in _runs("advise", [100, 101])]
        path.write_text(json.dumps({"runs": runs}))
        return path

    assert len(compare.load_runs(result_set(run_seconds), run_seconds)["advise"]) == 2
    with pytest.raises(SystemExit, match="not BENCHMARK.json's"):
        compare.load_runs(result_set(run_seconds / 2), run_seconds)


@pytest.mark.parametrize("base,new,expected", [
    ([100, 101, 99, 100, 100], [100, 100, 101, 99, 100], "same"),
    ([100, 101, 99, 100, 100], [130, 131, 129, 130, 130], "worse"),
    ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "better"),
    ([100, 140, 60, 120, 80], [100, 139, 61, 121, 79], "unresolved"),
    ([100, 140, 60, 120, 80], [30, 31, 29, 30, 30], "better"),
])
def test_compare_verdicts(base, new, expected):
    table = {"latency_p50_ms": common.metric_table()["latency_p50_ms"]}
    rows = compare.compare(
        {"advise": _runs("advise", base)}, {"advise": _runs("advise", new)},
        table, paired=True,
    )
    assert [r["verdict"] for r in rows] == [expected]
