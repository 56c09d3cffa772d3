"""Unit tests for the ``repro.obs`` telemetry primitives."""

import json

import pytest

from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    as_recorder,
)


class TestPrimitives:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.count("a")
        rec.count("a", 4)
        rec.count("b", 2.5)
        assert rec.counters == {"a": 5, "b": 2.5}

    def test_gauges_last_write_wins(self):
        rec = Recorder()
        rec.set("g", 1.0)
        rec.set("g", 7.0)
        assert rec.gauges == {"g": 7.0}

    def test_observe_tracks_total_count_min_max(self):
        rec = Recorder()
        rec.observe("s", 3.0)
        rec.observe("s", 1.0)
        rec.observe("s", 5.0)
        assert rec.series["s"] == [9.0, 3, 1.0, 5.0]

    def test_observe_with_weight(self):
        rec = Recorder()
        rec.observe("s", 10.0, n=4)
        assert rec.series["s"] == [10.0, 4, 10.0, 10.0]

    def test_enabled_truthiness(self):
        assert Recorder()
        assert not Recorder(enabled=False)
        assert not NullRecorder()

    def test_disabled_recorder_records_nothing(self):
        rec = Recorder(enabled=False)
        rec.count("a")
        rec.set("g", 1.0)
        rec.observe("s", 1.0)
        with rec.span("x"):
            pass
        assert not rec.counters and not rec.gauges and not rec.series


class TestSpans:
    def test_span_records_wall_time(self):
        ticks = iter([0.0, 1.5])
        rec = Recorder(clock=lambda: next(ticks))
        with rec.span("work"):
            pass
        assert rec.series["span/work"] == [1.5, 1, 1.5, 1.5]

    def test_nested_spans_build_slash_paths(self):
        ticks = iter([0.0, 1.0, 3.0, 6.0])
        rec = Recorder(clock=lambda: next(ticks))
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        assert rec.series["span/outer/inner"] == [2.0, 1, 2.0, 2.0]
        assert rec.series["span/outer"] == [6.0, 1, 6.0, 6.0]

    def test_span_stack_unwinds_on_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError()
        assert rec._stack == []
        assert "span/boom" in rec.series


class TestNullRecorder:
    def test_singleton_is_noop(self):
        NULL_RECORDER.count("a")
        NULL_RECORDER.set("g", 1.0)
        NULL_RECORDER.observe("s", 1.0)
        with NULL_RECORDER.span("x"):
            pass
        assert not NULL_RECORDER.counters
        assert not NULL_RECORDER.gauges
        assert not NULL_RECORDER.series

    def test_as_recorder_normalises(self):
        assert as_recorder(None) is NULL_RECORDER
        assert as_recorder(Recorder(enabled=False)) is NULL_RECORDER
        rec = Recorder()
        assert as_recorder(rec) is rec


class TestAggregation:
    def test_merge_combines_everything(self):
        a, b = Recorder(), Recorder()
        a.count("c", 1)
        b.count("c", 2)
        a.set("g", 1.0)
        b.set("g", 9.0)
        a.observe("s", 2.0)
        b.observe("s", 8.0)
        b.observe("only_b", 1.0)
        a.merge(b)
        assert a.counters["c"] == 3
        assert a.gauges["g"] == 9.0
        assert a.series["s"] == [10.0, 2, 2.0, 8.0]
        assert a.series["only_b"] == [1.0, 1, 1.0, 1.0]

    def test_clear(self):
        rec = Recorder()
        rec.count("a")
        rec.set("g", 1.0)
        rec.observe("s", 1.0)
        rec.clear()
        assert not rec.counters and not rec.gauges and not rec.series


class TestExport:
    def _sample(self):
        rec = Recorder()
        rec.count("hits", 3)
        rec.set("size", 7.0)
        rec.observe("dt", 2.0)
        rec.observe("dt", 4.0)
        return rec

    def test_snapshot_shape(self):
        snap = self._sample().snapshot()
        assert snap["counters"] == {"hits": 3}
        assert snap["gauges"] == {"size": 7.0}
        assert snap["series"]["dt"] == {
            "total": 6.0, "count": 2, "min": 2.0, "max": 4.0, "mean": 3.0,
        }

    def test_to_json_round_trips(self):
        assert json.loads(self._sample().to_json()) == self._sample().snapshot()

    def test_to_csv_has_header_and_rows(self):
        lines = self._sample().to_csv().strip().splitlines()
        assert lines[0] == "kind,name,value,count,min,max,mean"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"counter", "gauge", "series"}

    def test_describe_mentions_every_name(self):
        text = self._sample().describe()
        for name in ("hits", "size", "dt"):
            assert name in text
        assert Recorder().describe() == "(no telemetry recorded)"

