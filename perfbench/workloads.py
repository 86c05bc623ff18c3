"""The workloads: inputs, one timed run, reference check, layers.

Each workload generates its input once from the seed with
``repro.streams.traces`` (the program only ever sees those records), and
offers:

* ``rep(size, tracer, profile)`` — set up a fresh system, run it over the
  ``"small"`` or ``"large"`` input and return a :class:`~harness.Rep`
  carrying a digest of every output;
* ``check(size, rep)`` — compare that digest with a reference computed
  over the same input (memoised), returning mismatch messages;
* ``layers(rep, tracer, profiled)`` — the per-layer metrics of a traced
  run, each only where its layer ran (see ``catalogue.LAYERS``).

A repetition's times come from a :class:`~harness.Clock`: its
:class:`~harness.Rep` carries them in reference-speed seconds, and as
unscaled wall seconds in ``raw``.
"""

from __future__ import annotations

import os
import time
from itertools import islice
from typing import Any, Dict, List, Optional

from harness import Clock, NullTracer, Rep, Tracer, digest, timed_rep

from repro.algorithms.bindings import (
    HEAVY_HITTERS_QUERY,
    RESERVOIR_QUERY,
    SUBSET_SUM_QUERY,
    heavy_hitters_library,
    reservoir_library,
    subset_sum_library,
)
from repro.dsms import CostModel, Gigascope, ShardedGigascope
from repro.dsms.sharded import canonical_rows
from repro.streams import TCP_SCHEMA, TraceConfig, data_center_feed, research_center_feed
from repro.streams.persistence import iter_trace, save_trace

NULL = NullTracer()
perf = time.perf_counter


def _records(feed, seed: int, count: int) -> list:
    """The first ``count`` records of a feed seeded with ``seed``."""
    config = TraceConfig(duration_seconds=10**6, rate_scale=0.01, seed=seed)
    return list(islice(feed(config), count))


def _setup_serial(queries, tracer, profile=False, vectorize=False) -> tuple:
    """Build one instance, lint and register every query; (gs, handles)."""
    gs = Gigascope(cost_model=CostModel(), profile=profile, vectorize=vectorize)
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    gs.use_stateful_library(reservoir_library())
    gs.use_stateful_library(heavy_hitters_library())
    handles = []
    for name, text, low_level in queries:
        with tracer.span("analysis.lint"):
            gs.lint(text, name=name)
        with tracer.span("parser.compile"):
            handles.append(gs.add_query(text, name=name, low_level_aggregation=low_level))
    return gs, handles


def trace_runtime(gs: Gigascope, tracer: Tracer, ring: Optional[Dict[str, int]] = None
                  ) -> Dict[str, int]:
    """Span every call made into ``gs``'s runtime: ``feed`` and ``inject``
    (as ``runtime.feed``) and ``finish`` (as ``runtime.finish``).

    Returns ``ring`` (a new dict by default), whose ``"max_backlog"``
    follows the ring's high-water mark: ``feed`` pushes every record it
    admits into the ring and only then polls it, so the most records one
    ``feed`` admitted (``stream_ingested_total`` before and after) is the
    most the ring ever held.  ``inject`` bypasses the ring.
    """
    feed, inject, finish = gs.feed, gs.inject, gs.finish
    ring = {"max_backlog": 0} if ring is None else ring

    def timed_feed(records):
        before = gs.metrics.total("stream_ingested_total")
        with tracer.span("runtime.feed", len(records)):
            n = feed(records)
        admitted = gs.metrics.total("stream_ingested_total") - before
        ring["max_backlog"] = max(ring["max_backlog"], admitted)
        return n

    def timed_inject(name, records, from_source=None):
        with tracer.span("runtime.feed", len(records)):
            inject(name, records, from_source=from_source)

    def timed_finish():
        with tracer.span("runtime.finish"):
            finish()

    gs.feed, gs.inject, gs.finish = timed_feed, timed_inject, timed_finish
    return ring


def _rows(handles) -> list:
    return [canonical_rows(h.results) for h in handles]


def _refused(report: Dict[str, Any]) -> int:
    """Records a run report says never reached the queries."""
    return sum(
        s["drops"] + s["shed"] + s["quarantined"] + s["quota_shed"] + s["poison_skipped"]
        for s in report["streams"].values()
    )


def instance_layers(instances, records: int) -> Dict[str, float]:
    """Counters and profiled operator time read off serial instances.

    A layer's metrics are present only when one of its operators is
    registered: ``vectorized.*`` for a vectorized operator,
    ``operators.selection_s`` for a tuple selection, ``sampling.*`` for
    a sampling operator.
    """
    out: Dict[str, float] = {
        "runtime.records_offered": 0, "runtime.records_ingested": 0,
        "runtime.tuples_forwarded": 0, "ring.drops": 0,
    }
    operator_s = cycles = 0.0
    for gs in instances:
        seconds: Dict[str, float] = {}
        for series in gs.metrics.series():
            if series.name == "operator_seconds":
                query = dict(series.labels)["query"]
                seconds[query] = seconds.get(query, 0.0) + series.total
        for handle in gs.query_handles():
            op = handle.operator
            spent = seconds.get(handle.name, 0.0)
            operator_s += spent
            if getattr(op, "execution_mode", "tuple") == "vectorized":
                _add(out, "vectorized.operator_s", spent)
            elif op.kind_label in ("selection", "stateful_selection"):
                _add(out, "operators.selection_s", spent)
            elif op.kind_label == "sampling":
                _add(out, "sampling.operator_s", spent)
                for name in ("tuples_in", "tuples_admitted", "cleaning_phases",
                             "groups_evicted", "rows_out"):
                    _add(out, "sampling." + name, 0)
                for w in op.window_stats:
                    out["sampling.tuples_in"] += w.tuples_seen
                    out["sampling.tuples_admitted"] += w.tuples_admitted
                    out["sampling.cleaning_phases"] += w.cleaning_phases
                    out["sampling.groups_evicted"] += w.groups_evicted
                    out["sampling.rows_out"] += w.output_tuples
        out["runtime.records_offered"] += gs.metrics.total("stream_records_total")
        out["runtime.records_ingested"] += gs.metrics.total("stream_ingested_total")
        out["runtime.tuples_forwarded"] += gs.metrics.total("query_forwarded_total")
        report = gs.run_report()
        out["ring.drops"] += sum(s["drops"] for s in report["streams"].values())
        if "vectorized.operator_s" in out:
            _add(out, "vectorized.fallbacks",
                 len(report.get("vectorize", {}).get("fallbacks", {})))
        cycles += gs.cost.total_cycles()
    out["cost.cycles_per_record"] = cycles / records
    out["cost.modelled_over_measured"] = cycles / operator_s
    out["_operator_s"] = operator_s
    return out


def runtime_layers(tracer: Tracer, operator_s: float, max_backlog: int) -> Dict[str, float]:
    """The ``runtime.*`` spans of :func:`trace_runtime`, less operator time."""
    feed_s = tracer.total("runtime.feed")
    finish_s = tracer.total("runtime.finish")
    return {
        "runtime.feed_s": feed_s,
        "runtime.finish_s": finish_s,
        "runtime.self_s": feed_s + finish_s - operator_s,
        "ring.max_backlog": max_backlog,
    }


def _add(out: Dict[str, float], name: str, value: float) -> None:
    out[name] = out.get(name, 0) + value


def profiled_layers(profiled: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """cProfile self time per layer (seconds under the profiler), for
    each layer whose code the profiler saw called."""
    names = {
        "expr": "expr.self_s", "ring": "ring.self_s", "cost": "cost.self_s",
        "obs": "obs.self_s", "stateful": "stateful.self_s",
        "vectorized.batch": "vectorized.batch_self_s",
    }
    out: Dict[str, float] = {}
    for layer, entry in profiled.items():
        out[names[layer]] = entry["self_s"]
        if layer == "expr":
            out["expr.calls"] = entry["calls"]
    return out


class Workload:
    """Common shape; subclasses define inputs, ``rep`` and ``reference``."""

    name = ""
    small = 0  # records in the smaller input; the larger has 4x as many
    batch = 0

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        small = max(256, int(self.small * scale))
        self.sizes = {"small": small, "large": 4 * small}
        self.seed = seed
        self._reference: Dict[str, str] = {}

    def rep(self, size: str, tracer=NULL, profile: bool = False) -> Rep:
        raise NotImplementedError

    def reference(self, size: str) -> str:
        raise NotImplementedError

    def check(self, size: str, rep: Rep) -> List[str]:
        if size not in self._reference:
            self._reference[size] = self.reference(size)
        if rep.digest != self._reference[size]:
            return [f"{self.name}/{size}: output differs from the reference"]
        return []

    def close(self) -> None:
        pass


class _SerialFeed(Workload):
    """A serial instance fed batch by batch via ``start/feed/finish``."""

    queries: List[tuple] = []
    vectorize = False

    def _batches(self, size: str, tracer):
        raise NotImplementedError

    def rep(self, size: str, tracer=NULL, profile: bool = False) -> Rep:
        clock = Clock()
        with tracer.span("setup"):
            gs, handles = _setup_serial(self.queries, tracer, profile, self.vectorize)
            gs.start()
        clock.mark("setup")
        ring = trace_runtime(gs, tracer) if tracer.enabled else {}
        batches = 0
        with tracer.span("run"):
            for batch in self._batches(size, tracer):
                clock.mark("run")
                gs.feed(batch)
                clock.mark("batch")
                batches += 1
            gs.finish()
            clock.mark("run")
        records = self.sizes[size]
        return timed_rep(
            clock, records=records, digest=digest(_rows(handles)),
            attempted=batches + records, failed=_refused(gs.run_report()),
            extra={"gs": gs, **ring} if tracer.enabled else {},
        )

    def layers(self, rep: Rep, tracer: Tracer, profiled) -> Dict[str, Any]:
        out: Dict[str, Any] = instance_layers([rep.extra["gs"]], rep.records)
        out.update(profiled_layers(profiled))
        out.update(runtime_layers(tracer, out.pop("_operator_s"), rep.extra["max_backlog"]))
        return out


class SamplingSerial(_SerialFeed):
    """Paper 6.6 sampling queries on one serial tuple engine."""

    name = "sampling_serial"
    small = 2500
    batch = 256
    queries = [
        ("subset_sum", SUBSET_SUM_QUERY.format(window=20, target=100), False),
        ("reservoir", RESERVOIR_QUERY.format(window=20, target=100), False),
        ("heavy_hitters", HEAVY_HITTERS_QUERY.format(window=60, bucket=100), False),
    ]

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        super().__init__(seed, workdir, scale)
        self.records = _records(research_center_feed, seed, self.sizes["large"])

    def _batches(self, size: str, tracer):
        records = self.records[: self.sizes[size]]
        for start in range(0, len(records), self.batch):
            yield records[start : start + self.batch]

    def layers(self, rep: Rep, tracer: Tracer, profiled) -> Dict[str, Any]:
        out = super().layers(rep, tracer, profiled)
        out.update(ShardingProbe(self.seed, 2 * self.sizes["large"]).layers())
        return out

    def reference(self, size: str) -> str:
        # Each query alone on its own instance, driven by the one-shot
        # run() with its default batching.
        rows = []
        for query in self.queries:
            gs, handles = _setup_serial([query], NULL)
            gs.run(iter(self.records[: self.sizes[size]]))
            rows.extend(_rows(handles))
        return digest(rows)


class VectorizedIngest(_SerialFeed):
    """Selections and aggregations on the columnar engine from a trace file."""

    name = "vectorized_ingest"
    small = 30000
    batch = 2048
    vectorize = True
    queries = [
        ("sel_len", "SELECT time, srcIP, len FROM TCP WHERE len > 200", False),
        ("sel_web", "SELECT time, srcIP, destIP, destPort FROM TCP"
                    " WHERE protocol = 6 AND destPort < 1024", False),
        ("win_agg", "SELECT tb, sum(len), count(*) FROM TCP GROUP BY time/2 AS tb", True),
        ("grp_agg", "SELECT tb, srcIP, sum(len), count(*) FROM TCP"
                    " GROUP BY time/10 AS tb, srcIP", True),
    ]

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        super().__init__(seed, workdir, scale)
        records = _records(data_center_feed, seed, self.sizes["large"])
        self.paths = {}
        for size, count in self.sizes.items():
            self.paths[size] = os.path.join(workdir, f"{self.name}-{size}.trace")
            save_trace(records[:count], self.paths[size])

    def _batches(self, size: str, tracer):
        stream = iter_trace(self.paths[size])
        while True:
            with tracer.span("streams.decode") as span:
                batch = list(islice(stream, self.batch))
                span.count = len(batch)
            if not batch:
                return
            yield batch

    def layers(self, rep: Rep, tracer: Tracer, profiled) -> Dict[str, Any]:
        out = super().layers(rep, tracer, profiled)
        out["streams.decode_s"] = tracer.total("streams.decode")
        return out

    def reference(self, size: str) -> str:
        gs, handles = _setup_serial(self.queries, NULL)  # the tuple engine
        gs.run(iter_trace(self.paths[size]))
        return digest(_rows(handles))

    def close(self) -> None:
        for path in self.paths.values():
            if os.path.exists(path):
                os.remove(path)


class ShardingProbe:
    """Grouped subset-sum plus aggregation run serially, on 2 inline shards
    and on 2 supervised process shards, for the ``sharding.*`` layers.

    Not a timed workload: on a shared 2-CPU VM the supervised run's wall
    time spread 10-28% across seeds (parent, two workers, two CPUs),
    several times the single-process workloads' spread, so it runs only
    inside ``sampling_serial``'s traced run.
    """

    batch = 1024
    shards = 2
    queries = [
        ("subset_sum", SUBSET_SUM_QUERY.format(window=5, target=200).replace(
            "GROUP BY time/5 as tb, srcIP, destIP, uts",
            "GROUP BY time/5 as tb, srcIP, destIP, uts SUPERGROUP BY tb, srcIP",
        ), False),
        ("by_source", "SELECT tb, srcIP, sum(len), count(*) FROM TCP"
                      " GROUP BY time/5 AS tb, srcIP", False),
    ]

    def __init__(self, seed: int, count: int) -> None:
        self.records = _records(data_center_feed, seed, count)

    def _build(self, mode: str) -> tuple:
        if mode == "serial":
            return _setup_serial(self.queries, NULL)
        gs = ShardedGigascope(
            shards=self.shards, supervise=mode == "supervised", cost_model=CostModel()
        )
        gs.register_stream(TCP_SCHEMA)
        gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
        handles = [gs.add_query(text, name=name) for name, text, _ in self.queries]
        return gs, handles

    def run(self, mode: str) -> tuple:
        """(wall seconds, canonical rows, instance) of one run in ``mode``."""
        gs, handles = self._build(mode)
        start = perf()
        gs.run(iter(self.records), batch_size=self.batch)
        return perf() - start, _rows(handles), gs

    def layers(self) -> Dict[str, Any]:
        serial_s, rows, _ = self.run("serial")
        inline_s, inline_rows, _ = self.run("inline")
        supervised_s, supervised_rows, gs = self.run("supervised")
        ingested: Dict[Any, float] = {}
        for series in gs.metrics.series():
            if series.name == "stream_ingested_total":
                shard = dict(series.labels).get("shard")
                ingested[shard] = ingested.get(shard, 0) + series.value
        supervision = gs.last_supervision
        return {
            "sharding.serial_s": serial_s,
            "sharding.inline_s": inline_s,
            "sharding.supervised_s": supervised_s,
            "sharding.split_merge_s": inline_s - serial_s,
            "sharding.transport_s": supervised_s - inline_s,
            "sharding.skew": max(ingested.values()) / (sum(ingested.values()) / len(ingested)),
            "sharding.restarts": supervision.total_restarts,
            "sharding.shed": supervision.total_shed,
            "_errors": [
                f"sharding probe: {mode} rows differ from the serial run"
                for mode, other in (("inline", inline_rows), ("supervised", supervised_rows))
                if other != rows
            ],
        }


def make(name: str, seed: int, workdir: str, scale: float = 1.0) -> Workload:
    """The workload called ``name``, its inputs generated from ``seed``;
    ``scale`` shrinks both input sizes (the smoke test uses it)."""
    from serve_workload import ServeJournaled

    classes = {
        cls.name: cls
        for cls in (SamplingSerial, VectorizedIngest, ServeJournaled)
    }
    return classes[name](seed, workdir, scale)
