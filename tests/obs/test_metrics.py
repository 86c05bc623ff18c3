"""Unit tests for the metrics registry, trace sink and exporters.

These pin the contracts the runtime instrumentation relies on: series
identity, in-place checkpoint/restore (bound references must survive a
supervised restart), shard folding semantics (counters add, gauges max),
and the determinism carve-outs (``*_seconds`` excluded from comparison).
"""

import json
import pickle

import pytest

from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    NULL_TRACE,
    TraceSink,
    render_prometheus,
    write_metrics,
)
from repro.obs.metrics import BYTES_BUCKETS, SECONDS_BUCKETS


class TestSeriesIdentity:
    def test_same_labels_same_series(self):
        m = MetricsRegistry()
        a = m.counter("c_total", query="q", shard=0)
        b = m.counter("c_total", shard=0, query="q")  # order-insensitive
        assert a is b
        a.inc(3)
        assert m.value("c_total", query="q", shard=0) == 3

    def test_different_labels_different_series(self):
        m = MetricsRegistry()
        m.counter("c_total", shard=0).inc(1)
        m.counter("c_total", shard=1).inc(2)
        assert m.value("c_total", shard=0) == 1
        assert m.value("c_total", shard=1) == 2
        assert m.total("c_total") == 3

    def test_one_type_per_name(self):
        m = MetricsRegistry()
        m.counter("x_total", shard=0)
        with pytest.raises(ReproError, match="is a counter"):
            m.gauge("x_total", shard=1)

    def test_counter_refuses_negative(self):
        m = MetricsRegistry()
        with pytest.raises(ReproError, match="cannot decrease"):
            m.counter("c_total").inc(-1)

    def test_total_filters_named_labels(self):
        m = MetricsRegistry()
        m.counter("t_total", query="a", shard=0).inc(1)
        m.counter("t_total", query="a", shard=1).inc(2)
        m.counter("t_total", query="b", shard=0).inc(10)
        assert m.total("t_total", query="a") == 3
        assert m.total("t_total", query="b") == 10
        assert m.total("t_total") == 13
        assert m.total("missing_total") == 0


class TestHistogram:
    def test_default_buckets_by_name(self):
        m = MetricsRegistry()
        assert m.histogram("op_seconds").bounds == SECONDS_BUCKETS
        assert m.histogram("blob_bytes").bounds == BYTES_BUCKETS

    def test_observe_and_overflow(self):
        m = MetricsRegistry()
        h = m.histogram("h_bytes", buckets=(10, 100))
        for v in (5, 50, 500):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1]
        assert h.count == 3 and h.total == 555

    def test_timer_observes_elapsed(self):
        m = MetricsRegistry()
        with m.timer("t_seconds", query="q"):
            pass
        h = m.histogram("t_seconds", query="q")
        assert h.count == 1 and h.total >= 0


class TestCheckpointRestore:
    def test_restore_mutates_in_place(self):
        m = MetricsRegistry()
        c = m.counter("c_total", query="q")
        c.inc(7)
        snap = m.checkpoint()
        c.inc(5)
        m.restore(snap)
        # The *same object* (the bound reference) holds the restored value.
        assert c.value == 7
        assert m.counter("c_total", query="q") is c

    def test_restore_zeroes_unseen_series(self):
        m = MetricsRegistry()
        snap = m.checkpoint()
        late = m.counter("late_total")
        late.inc(4)
        m.restore(snap)
        assert late.value == 0

    def test_checkpoint_pickles(self):
        m = MetricsRegistry()
        m.counter("c_total", shard=2).inc(1)
        m.histogram("h_bytes", buckets=(1, 2)).observe(1.5)
        snap = pickle.loads(pickle.dumps(m.checkpoint()))
        n = MetricsRegistry()
        n.restore(snap)
        assert n.value("c_total", shard=2) == 1
        assert n.value("h_bytes") == 1  # histogram value() is the count

    def test_reset_keeps_references(self):
        m = MetricsRegistry()
        c = m.counter("c_total")
        c.inc(9)
        m.reset()
        assert c.value == 0
        c.inc(1)
        assert m.value("c_total") == 1


class TestAbsorb:
    def test_counters_add_gauges_max(self):
        parent = MetricsRegistry()
        for shard, (count, peak) in enumerate([(5, 30), (7, 20)]):
            worker = MetricsRegistry()
            worker.counter("in_total", query="q").inc(count)
            worker.gauge("peak_groups", query="q").set(peak)
            parent.absorb(worker.checkpoint(), extra_labels={"shard": shard})
        assert parent.value("in_total", query="q", shard=0) == 5
        assert parent.value("in_total", query="q", shard=1) == 7
        assert parent.total("in_total", query="q") == 12
        # Absorbing twice folds again (counters are cumulative).
        assert parent.value("peak_groups", query="q", shard=0) == 30

    def test_absorb_merges_histograms(self):
        parent = MetricsRegistry()
        for shard in range(2):
            worker = MetricsRegistry()
            worker.histogram("h_bytes", buckets=(10,)).observe(3)
            parent.absorb(worker.checkpoint(), extra_labels={"shard": shard})
        assert parent.total("h_bytes") == 2


class TestComparableItems:
    def test_excludes_seconds_and_prefixes(self):
        m = MetricsRegistry()
        m.counter("rows_total").inc(1)
        m.histogram("op_seconds").observe(0.5)
        m.counter("supervisor_restarts_total", shard=0).inc(1)
        names = [name for name, _, _ in m.comparable_items()]
        assert "rows_total" in names and "op_seconds" not in names
        names = [
            name
            for name, _, _ in m.comparable_items(exclude_prefixes=("supervisor_",))
        ]
        assert names == ["rows_total"]


class TestExport:
    def test_prometheus_rendering(self):
        m = MetricsRegistry()
        m.counter("rows_total", help="rows seen", query="q").inc(3)
        m.histogram("h_bytes", buckets=(10, 100), query="q").observe(50)
        text = render_prometheus(m)
        assert '# HELP rows_total rows seen' in text
        assert '# TYPE rows_total counter' in text
        assert 'rows_total{query="q"} 3' in text
        # Buckets are cumulative in the exposition format.
        assert 'h_bytes_bucket{query="q",le="10"} 0' in text
        assert 'h_bytes_bucket{query="q",le="100"} 1' in text
        assert 'h_bytes_bucket{query="q",le="+Inf"} 1' in text
        assert 'h_bytes_count{query="q"} 1' in text

    def test_write_metrics_json_and_prom(self, tmp_path):
        m = MetricsRegistry()
        m.counter("rows_total", query="q").inc(2)
        json_path = tmp_path / "m.json"
        prom_path = tmp_path / "m.prom"
        assert write_metrics(m, str(json_path)) == 1
        assert write_metrics(m, str(prom_path)) == 1
        data = json.loads(json_path.read_text())
        assert data["metrics"][0]["name"] == "rows_total"
        assert data["metrics"][0]["value"] == 2
        assert "rows_total" in prom_path.read_text()

    def test_label_escaping(self):
        m = MetricsRegistry()
        m.counter("c_total", q='we"ird\nname').inc(1)
        text = render_prometheus(m)
        assert 'q="we\\"ird\\nname"' in text


class TestTraceSink:
    def test_emit_sequences_and_jsonl(self, tmp_path):
        sink = TraceSink()
        sink.emit("window_open", query="q", window=[0])
        sink.emit("window_close", query="q", window=[0], rows_out=2)
        assert [e.seq for e in sink.events] == [0, 1]
        assert sink.kinds() == {"window_open": 1, "window_close": 1}
        path = tmp_path / "t.jsonl"
        assert sink.write_jsonl(str(path)) == 2
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "window_open"

    def test_limit_drops_oldest_visibly(self):
        sink = TraceSink(limit=2)
        for i in range(5):
            sink.emit("window_open", window=[i])
        assert len(sink.events) == 2
        assert sink.dropped_events == 3
        assert sink.events[-1].fields["window"] == [4]

    def test_limit_keeps_newest_across_checkpoint(self):
        sink = TraceSink(limit=3)
        for i in range(10):
            sink.emit("window_open", window=[i])
        assert [e.seq for e in sink.events] == [7, 8, 9]
        assert sink.dropped_events == 7
        other = TraceSink(limit=3)
        other.restore(pickle.loads(pickle.dumps(sink.checkpoint())))
        assert [e.seq for e in other.events] == [7, 8, 9]
        other.emit("window_open", window=[10])
        # The restored sink keeps its limit: still the newest three.
        assert [e.seq for e in other.events] == [8, 9, 10]
        assert other.dropped_events == 8

    def test_absorb_restamps_and_marks_shard(self):
        parent = TraceSink()
        child = TraceSink()
        child.emit("window_open", query="q", window=[1])
        parent.absorb(child.events, shard=3)
        assert parent.events[0].fields["shard"] == 3
        assert parent.events[0].seq == 0

    def test_checkpoint_round_trip(self):
        sink = TraceSink()
        sink.emit("shed", stream="TCP", count=5)
        snap = pickle.loads(pickle.dumps(sink.checkpoint()))
        other = TraceSink()
        other.restore(snap)
        assert other.events[0].kind == "shed"
        other.emit("shed", stream="TCP", count=1)
        assert other.events[-1].seq == 1

    def test_null_sink_is_inert(self):
        NULL_TRACE.emit("window_open", window=[0])
        assert len(NULL_TRACE) == 0
        assert not NULL_TRACE.enabled
