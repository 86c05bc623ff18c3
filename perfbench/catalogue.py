"""What ``BENCHMARK.json`` has no room for: per per-layer metric, its layer,
the workloads where that layer runs, and the end-to-end metric (and
workload) a change to the layer is expected to move.

Names, units and directions live only in ``BENCHMARK.json``.  A traced
run must measure a metric exactly on the workloads listed here; a metric
of a layer that does not run on the workload is printed as 0 and marked
``not run`` (``run.py`` enforces both).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

SERIAL, VECTOR, SERVE = "sampling_serial", "vectorized_ingest", "serve_journaled"
ALL = (SERIAL, VECTOR, SERVE)


class Layer(NamedTuple):
    layer: str
    runs_on: Tuple[str, ...]
    moves: str  # "<end-to-end metric> (<workload>)", the expected effect


_SERIAL = "records_per_s (sampling_serial)"
_VECTOR = "records_per_s (vectorized_ingest)"
_SERVE = "records_per_s (serve_journaled)"
_SHARD = "no gate: sharding.serial_s vs supervised_s (sampling_serial, traced)"
_SAMPLING = (SERIAL, SERVE)

LAYERS: Dict[str, Layer] = {
    "streams.decode_s": Layer("streams", (VECTOR,), _VECTOR),
    "parser.compile_s": Layer("dsms.parser", ALL, "setup_s (all)"),
    "analysis.lint_s": Layer("analysis", ALL, "setup_s (all)"),
    "runtime.feed_s": Layer("dsms.runtime", ALL, _VECTOR + ", batch_p50_ms (vectorized_ingest)"),
    "runtime.finish_s": Layer("dsms.runtime", ALL, _VECTOR),
    "runtime.self_s": Layer("dsms.runtime", ALL, _VECTOR + "; little change on sampling_serial"),
    "runtime.records_offered": Layer("dsms.runtime", ALL, _VECTOR),
    "runtime.records_ingested": Layer("dsms.runtime", ALL, _VECTOR),
    "runtime.tuples_forwarded": Layer("dsms.runtime", ALL, _VECTOR),
    "ring.self_s": Layer("dsms.ring_buffer", ALL, _VECTOR),
    "ring.max_backlog": Layer("dsms.ring_buffer", ALL, _VECTOR),
    "ring.drops": Layer("dsms.ring_buffer", ALL, _VECTOR + "; drops count as failures"),
    "vectorized.operator_s": Layer("dsms.vectorized", (VECTOR,), _VECTOR),
    "vectorized.batch_self_s": Layer("dsms.vectorized", (VECTOR,), _VECTOR),
    "vectorized.fallbacks": Layer("dsms.vectorized", (VECTOR,), _VECTOR),
    "expr.self_s": Layer("dsms.expr", ALL, _SERIAL + ", " + _SERVE + "; about 0 on vectorized_ingest"),
    "expr.calls": Layer("dsms.expr", ALL, _SERIAL + ", " + _SERVE),
    "operators.selection_s": Layer("dsms.operators", _SAMPLING, _SERIAL),
    "sampling.operator_s": Layer("core", _SAMPLING, _SERIAL),
    "stateful.self_s": Layer(
        "dsms.stateful", ALL, _SERIAL + "; about 0 on vectorized_ingest (library set-up only)"),
    "sampling.tuples_in": Layer("core", _SAMPLING, _SERIAL + "; must repeat exactly"),
    "sampling.tuples_admitted": Layer("core", _SAMPLING, _SERIAL + "; must repeat exactly"),
    "sampling.cleaning_phases": Layer("core", _SAMPLING, _SERIAL + "; must repeat exactly"),
    "sampling.groups_evicted": Layer("core", _SAMPLING, _SERIAL + "; must repeat exactly"),
    "sampling.rows_out": Layer("core", _SAMPLING, _SERIAL + "; must repeat exactly"),
    "cost.self_s": Layer("dsms.cost", ALL, _SERIAL),
    "cost.cycles_per_record": Layer("dsms.cost", ALL, "nothing: exact, must not move"),
    "cost.modelled_over_measured": Layer(
        "dsms.cost", ALL, "CostBook cycles per measured operator-second (all)"),
    "obs.self_s": Layer("obs", ALL, _SERIAL),
    "sharding.serial_s": Layer("dsms.sharded", (SERIAL,), _SHARD),
    "sharding.inline_s": Layer("dsms.sharded", (SERIAL,), _SHARD),
    "sharding.supervised_s": Layer("dsms.resilience", (SERIAL,), _SHARD),
    "sharding.split_merge_s": Layer("dsms.sharded", (SERIAL,), _SHARD),
    "sharding.transport_s": Layer("dsms.resilience", (SERIAL,), _SHARD),
    "sharding.skew": Layer("dsms.sharded", (SERIAL,), _SHARD),
    "sharding.restarts": Layer("dsms.resilience", (SERIAL,), _SHARD),
    "sharding.shed": Layer("dsms.resilience", (SERIAL,), _SHARD),
    "serving.feed_s": Layer("serving", (SERVE,), _SERVE),
    "serving.shared_replays": Layer("serving", (SERVE,), _SERVE),
    "serving.groups": Layer("serving", (SERVE,), _SERVE),
    "serving.dead_letters": Layer("serving", (SERVE,), _SERVE),
    "serving.quota_shed": Layer("serving", (SERVE,), _SERVE),
    "journal.commit_s": Layer("serving.journal", (SERVE,), "batch_tail_ms, scaling_ratio (serve_journaled)"),
    "journal.commits": Layer("serving.journal", (SERVE,), "batch_tail_ms (serve_journaled)"),
    "journal.bytes": Layer("dsms.durability", (SERVE,), "scaling_ratio (serve_journaled)"),
    "journal.bytes_per_record": Layer("dsms.durability", (SERVE,), "scaling_ratio (serve_journaled)"),
    "journal.commit_growth": Layer(
        "dsms.durability", (SERVE,), "batch_tail_ms, scaling_ratio (serve_journaled)"),
    "http.requests": Layer("serving.http", (SERVE,), _SERVE + ", batch_p50_ms (serve_journaled)"),
    "http.errors": Layer("serving.http", (SERVE,), _SERVE),
    "http.p50_ms": Layer("serving.http", (SERVE,), _SERVE + ", batch_p50_ms (serve_journaled)"),
    "http.tail_ms": Layer("serving.http", (SERVE,), _SERVE),
    "http.late_ms": Layer("serving.http", (SERVE,), "none: generator lateness, a harness health check"),
    "http.metrics_bytes": Layer("serving.http", (SERVE,), _SERVE),
    "tracing.overhead_s": Layer("benchmark", ALL, "none: traced minus untraced wall time"),
}
