"""The trace log: per-request records, bounds, and the slow view."""

import json

import pytest

from repro.obs.trace import SLOW_ENTRIES, TRACE_ENTRIES, TraceLog


def _request(log, text, seconds, **fields):
    """Admit, start and finish one request that ran for *seconds*;
    returns whether the log judged it slow."""
    trace = log.begin("main", text, 0, 0.0)
    trace.started_at = log.relative(0.0)
    for name, value in fields.items():
        setattr(trace, name, value)
    return log.finish(trace, seconds)


def _texts(entries):
    return [entry["text"] for entry in entries]


class TestThreshold:
    def test_disabled_by_default(self):
        log = TraceLog()
        assert log.slow_query_ms is None
        assert _request(log, "{ x | S(x) }", 99.0) is False
        assert log.tail(slow=True) == []
        assert len(log) == 1  # still traced, just not slow

    def test_records_at_or_over_threshold(self):
        log = TraceLog(slow_query_ms=10.0)
        assert _request(log, "fast", 0.005) is False
        assert _request(log, "exact", 0.010) is True
        assert _request(log, "slow", 0.250) is True
        assert _texts(log.tail(slow=True)) == ["exact", "slow"]
        assert _texts(log.tail()) == ["fast", "exact", "slow"]

    def test_none_seconds_never_records(self):
        log = TraceLog(slow_query_ms=0.0)
        trace = log.begin("main", "unstarted", 0, 0.0)
        assert log.finish(trace, 1.0) is False  # closed before it ran
        assert trace.execution_seconds() is None
        assert log.tail(slow=True) == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(slow_query_ms=-1.0)


class TestRecords:
    def test_record_carries_the_physical_tree(self):
        log = TraceLog(slow_query_ms=0.0)
        _request(
            log,
            "rules { ... } answer T",
            0.2,
            backend="col-stratified",
            outcome="ok",
            spent={"iterations": 4},
            physical="Fixpoint [rounds=4]\n  Scan(R) [rows_out=6]",
        )
        (entry,) = log.tail(slow=True)
        assert entry["backend"] == "col-stratified"
        assert entry["outcome"] == "ok"
        assert entry["spent"] == {"iterations": 4}
        assert "Scan(R)" in entry["physical"]
        assert entry["execution_seconds"] == 0.2

    def test_entries_round_trip_through_json(self):
        log = TraceLog(slow_query_ms=0.0)
        _request(log, "q", 0.1)
        (entry,) = json.loads(json.dumps(log.tail(slow=True)))
        assert entry["db"] == "main"
        assert entry == log.tail()[0]


class TestBounds:
    def test_buffer_keeps_most_recent(self):
        log = TraceLog(slow_query_ms=0.0)
        for index in range(SLOW_ENTRIES + 3):
            _request(log, f"q{index}", 0.1)
        slow = log.tail(slow=True)
        assert len(slow) == SLOW_ENTRIES
        assert slow[0]["text"] == "q3"
        assert slow[-1]["text"] == f"q{SLOW_ENTRIES + 2}"

    def test_cap_evicts_oldest(self):
        assert (TRACE_ENTRIES, SLOW_ENTRIES) == (256, 64)
        log = TraceLog()
        for index in range(TRACE_ENTRIES + 44):
            log.begin("main", f"q{index}", 0, 0.0)
        assert len(log) == TRACE_ENTRIES
        entries = log.tail()
        assert entries[0]["request_id"] == 44
        assert entries[-1]["request_id"] == TRACE_ENTRIES + 43

    def test_tail_limits(self):
        log = TraceLog(slow_query_ms=0.0)
        for index in range(5):
            _request(log, f"q{index}", 0.1)
        assert log.tail(0) == [] and log.tail(0, slow=True) == []
        assert _texts(log.tail(None)) == [f"q{index}" for index in range(5)]
        assert _texts(log.tail(2, slow=True)) == ["q3", "q4"]

    def test_slow_offender_outlives_fast_traffic(self):
        log = TraceLog(slow_query_ms=50.0)
        _request(log, "offender", 0.2)
        for index in range(300):
            _request(log, f"fast{index}", 0.001)
        assert "offender" not in _texts(log.tail())
        (entry,) = log.tail(slow=True)
        assert entry["text"] == "offender"
        assert entry["request_id"] == 0
