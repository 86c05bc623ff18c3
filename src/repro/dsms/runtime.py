"""The two-level Gigascope-like runtime (paper §3, Figure 1).

Queries whose FROM clause names a registered *source stream* are low-level
queries: they read from that stream's ring buffer.  Gigascope restricts
low-level nodes to cheap data reduction — "Currently only selection and
(partial) aggregation are supported" (paper §7.2) — so when a sampling
query is submitted directly against a source stream the runtime does what
the paper did: it interposes an automatic low-level pass-through selection
query and runs the sampling operator at the high level.  Every tuple a
low-level query forwards upward is charged a ``tuple_copy`` (the dominant
cost in the paper's Fig 5 discussion); replacing the pass-through with a
prefiltering low-level query (Fig 6) is done by submitting that query
explicitly and pointing the sampling query at its name.

The runtime is synchronous: :meth:`Gigascope.run` drives a record iterator
through the ring buffers, the low-level operators, and on through the
query DAG; each query's output is retained on its handle (the "App" sink
of Figure 1) and also forwarded to any downstream queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ExecutionError, PlanningError
from repro.dsms.aggregates import default_aggregate_registry
from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.functions import default_function_registry
from repro.dsms.operators import build_operator
from repro.dsms.operators.base import Operator
from repro.dsms.parser import Registries, compile_query
from repro.dsms.ring_buffer import RingBuffer
from repro.dsms.stateful import StatefulLibrary
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACE, TraceSink
from repro.streams.records import Record, batches
from repro.streams.schema import StreamSchema, coerce_record
from repro.streams.sources import QuarantineStream
from repro.core.superaggregates import default_superaggregate_registry
from repro.errors import SchemaError


class Refusal(NamedTuple):
    """How one kind of refused record is accounted (see :data:`REFUSALS`)."""

    op: str  # cost op charged per refused record
    series: str  # per-stream counter
    help: str
    trace: str  # trace event kind
    trace_count: bool  # whether the trace event carries ``count``
    hook: str  # downstream operator hook told of the loss
    offered: bool  # also counts toward ``stream_records_total``


#: Every way a record is refused before it reaches a ring, keyed by the
#: ``run_report()`` stream key (in report order).  :meth:`Gigascope.refuse`
#: is the one place these are charged, counted, traced and notified.
#: Shed records were already counted as offered by ``_run_batch``; the
#: others are refused before (or instead of) that count.
REFUSALS: Dict[str, Refusal] = {
    "shed": Refusal(
        op="tuple_shed", series="stream_shed_total",
        help="records refused at admission under overload",
        trace="shed", trace_count=True, hook="note_shed", offered=False,
    ),
    "quarantined": Refusal(
        op="tuple_quarantined", series="stream_quarantined_total",
        help="records dead-lettered at admission (malformed input)",
        trace="quarantine", trace_count=False, hook="note_quarantined",
        offered=True,
    ),
    "quota_shed": Refusal(
        op="quota_shed", series="stream_quota_shed_total",
        help="records refused at the serving edge by a tenant quota",
        trace="quota_shed", trace_count=True, hook="note_shed", offered=True,
    ),
    "poison_skipped": Refusal(
        op="poison_skip", series="serve_poison_skipped_total",
        help="records skipped at the serving edge because the query's"
        " circuit breaker is open",
        trace="poison_skip", trace_count=True, hook="note_shed", offered=True,
    ),
}

#: Counters the per-batch and per-record paths bump, bound once per
#: label value by :meth:`Gigascope._series`: name -> (label, help).
_HOT_SERIES: Dict[str, Tuple[str, str]] = {
    "stream_records_total": (
        "stream", "records offered to the stream (before admission)"
    ),
    "stream_ingested_total": ("stream", "records admitted into the ring buffer"),
    "query_forwarded_total": ("query", "tuples pushed to downstream queries"),
    **{row.series: ("stream", row.help) for row in REFUSALS.values()},
}

#: Format of :meth:`Gigascope.checkpoint` snapshots.  v3 dropped the
#: per-stream refusal count dicts (the registry carries them since v2);
#: :meth:`Gigascope.restore` still accepts v1/v2 snapshots.
CHECKPOINT_VERSION = 3


def refusal_counts(metrics: MetricsRegistry, stream: str) -> Dict[str, int]:
    """One stream's refusal totals per :data:`REFUSALS` reason."""
    return {
        reason: int(metrics.value(row.series, stream=stream))
        for reason, row in REFUSALS.items()
    }


@dataclass
class QueryHandle:
    """One registered query: its plan, operator, topology and sink."""

    name: str
    text: str
    level: str  # "low" | "high"
    source: str  # source stream or upstream query name
    operator: Operator
    results: List[Record] = field(default_factory=list)
    keep_results: bool = True
    forwarded: int = 0  # tuples this node pushed to downstream queries

    @property
    def output_schema(self) -> StreamSchema:
        return self.operator.output_schema


class Gigascope:
    """A miniature DSMS instance hosting source streams and queries."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        ring_capacity: int = 65536,
        strict: bool = False,
        shed_threshold: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceSink] = None,
        profile: bool = False,
        quarantine: Optional[QuarantineStream] = None,
        validate_admission: bool = False,
        vectorize: bool = False,
    ) -> None:
        """``strict`` makes every :meth:`add_query` refuse queries with
        any static-analysis diagnostic (see ``repro.analysis``).

        ``shed_threshold`` enables overload load shedding: when a source
        stream's ring-buffer backlog (slowest subscriber) would exceed
        this many records, the surplus of the incoming batch is *shed* —
        dropped at admission, counted per stream (:meth:`run_report`),
        charged to the cost model (``tuple_shed``) and reported to
        downstream sampling operators (``WindowStats.shed_tuples``) —
        instead of silently overwriting the ring.  ``None`` disables
        shedding (the default; the ring then drops oldest records under
        overload exactly as before).

        ``metrics`` / ``trace`` attach an instance-wide metrics registry
        and trace sink; every operator registered afterwards is bound to
        them (docs/OBSERVABILITY.md).  Defaults: a private registry and
        the no-op trace sink.  ``profile`` additionally charges wall time
        per operator call into ``operator_seconds{query,phase}``.

        ``validate_admission`` hardens the ingest edge: every fed payload
        is validated (and, where possible, coerced) against its stream
        schema, and records that fail — NaN window ids, wrong types,
        non-records — are routed to the dead-letter ``quarantine`` stream
        instead of raising mid-query.  Quarantined records are counted
        per stream and reported to downstream sampling operators, so the
        conservation identity becomes
        ``records == ingested + shed + quarantined``.  ``quarantine``
        defaults to a private bounded :class:`QuarantineStream`; pass one
        to share it with a resilient source or inspect it afterwards.

        ``vectorize`` executes selection and plain-aggregation operators
        on the columnar batch engine (DESIGN.md §11): ring-buffer output
        is wrapped into a :class:`RecordBatch` and whole batches flow
        through compiled numpy closures, with records rebuilt only at
        output edges.  Plans the batch engine cannot express (SFUNs,
        superaggregates, nondeterministic scalars, custom aggregates)
        fall back per operator to the tuple path; results are
        byte-identical either way.
        """
        self.cost = cost_model or NULL_COST_MODEL
        self.strict = strict
        self.shed_threshold = shed_threshold
        self.validate_admission = validate_admission
        self.vectorize = vectorize
        self.quarantine = (
            quarantine if quarantine is not None else QuarantineStream()
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace if trace is not None else NULL_TRACE
        self.profile = profile
        self.registries = Registries(
            schemas={},
            scalars=default_function_registry(),
            aggregates=default_aggregate_registry(),
            superaggregates=default_superaggregate_registry(),
            stateful=StatefulLibrary(),
        )
        self._ring_capacity = ring_capacity
        self._rings: Dict[str, RingBuffer] = {}
        self._queries: Dict[str, QueryHandle] = {}
        self._order: List[str] = []  # insertion order == topological order
        self._downstream: Dict[str, List[str]] = {}
        self._auto_counter = 0
        #: low-level subscriber ids while an incremental run is open
        self._session: Optional[Dict[str, int]] = None
        #: subscriber ids of the most recent run (for run_report)
        self._last_subscribers: Dict[str, int] = {}
        #: hot-path metric series, bound on first use (see _series)
        self._bound: Dict[Tuple[str, ...], Any] = {}

    # -- registration -----------------------------------------------------------

    def register_stream(self, schema: StreamSchema) -> None:
        """Register a source stream (creates its ring buffer)."""
        if schema.name in self.registries.schemas:
            raise PlanningError(f"stream {schema.name!r} already registered")
        self.registries.schemas[schema.name] = schema
        self._rings[schema.name] = RingBuffer(self._ring_capacity)

    def use_stateful_library(self, library: StatefulLibrary) -> None:
        """Merge an SFUN pack into this instance's registries."""
        self.registries.stateful = self.registries.stateful.merge(library)

    def register_scalar(self, name: str, fn, deterministic: bool = True) -> None:
        self.registries.scalars.register(name, fn, deterministic=deterministic)

    def lint(self, text: str, name: str = "query"):
        """Statically analyze a query against this instance's registries
        without compiling or registering it; returns a ``LintResult``."""
        from repro.analysis.linter import lint_query

        return lint_query(text, self.registries, filename=name)

    # -- queries -----------------------------------------------------------------

    def add_query(
        self,
        text: str,
        name: Optional[str] = None,
        keep_results: bool = True,
        low_level_aggregation: bool = False,
        strict: Optional[bool] = None,
    ) -> QueryHandle:
        """Compile and register one query.

        The query's FROM clause may name a source stream or a previously
        registered query.  The query's own output schema is registered
        under ``name`` so later queries can read from it.

        ``low_level_aggregation`` lets a plain aggregation query run
        directly at the low level (paper Figure 1: "Low-level queries
        perform initial fast selection and aggregation") instead of behind
        an auto-inserted pass-through feeder — early data reduction that
        avoids the per-tuple copy cost.  Sampling queries always run at
        the high level (paper §7.2: the low level supports only selection
        and partial aggregation).

        ``strict`` (default: the instance's flag) refuses the query when
        the static analyzer reports any diagnostic, warnings included.
        """
        if name is None:
            self._auto_counter += 1
            name = f"q{self._auto_counter}"
        if name in self.registries.schemas:
            raise PlanningError(f"name {name!r} already in use")

        strict = self.strict if strict is None else strict
        plan = compile_query(text, self.registries, query_name=name, strict=strict)
        source = plan.analyzed.ast.from_stream
        reads_source_stream = source in self._rings

        if low_level_aggregation and plan.kind != "aggregation":
            raise PlanningError(
                "low_level_aggregation applies only to plain aggregation"
                f" queries, not {plan.kind!r}"
            )

        if (
            reads_source_stream
            and plan.kind in ("sampling", "aggregation")
            and not (plan.kind == "aggregation" and low_level_aggregation)
        ):
            # Paper §7.2: only selection runs at the low level, so a heavy
            # query against a raw stream needs a low-level feeder.  Insert
            # the pass-through selection the paper used (and measured).
            feeder_name = f"{name}__lowsel"
            self._add_passthrough_selection(source, feeder_name)
            try:
                text_rewritten = self._rewrite_from(text, source, feeder_name)
                plan = compile_query(
                    text_rewritten, self.registries, query_name=name,
                    strict=strict,
                )
            except Exception:
                # The feeder must not outlive the query it was inserted
                # for; a leaked __lowsel node would shadow the name and
                # keep forwarding (and charging for) every tuple.
                self._remove_query(feeder_name)
                raise
            source = feeder_name
            reads_source_stream = False

        level = "low" if reads_source_stream else "high"
        if level == "high" and source not in self._queries:
            raise PlanningError(
                f"query {name!r} reads from {source!r}, which is neither a"
                " source stream nor a registered query"
            )

        operator = build_operator(
            plan, self.cost, account=name, vectorize=self.vectorize
        )
        operator.bind_obs(self.metrics, self.trace, name)
        if (
            self.vectorize
            and getattr(operator, "execution_mode", "tuple") != "vectorized"
        ):
            # The fallback is a per-plan decision made here, once — put
            # it where reports and scrapes can see it, not just stderr.
            if getattr(operator, "vectorize_fallback", None) is None:
                operator.vectorize_fallback = "this plan kind runs per-tuple"
            self.metrics.counter(
                "vectorize_fallback_total",
                help="queries that fell back to the tuple path under"
                " vectorize=True",
                query=name,
            ).inc()
        handle = QueryHandle(
            name=name,
            text=text,
            level=level,
            source=source,
            operator=operator,
            keep_results=keep_results,
        )
        self._queries[name] = handle
        self._order.append(name)
        self._downstream.setdefault(source, []).append(name)
        self.registries.schemas[name] = operator.output_schema
        return handle

    def add_merge(self, name: str, sources: List[str]) -> QueryHandle:
        """Merge the outputs of several same-schema queries into one stream.

        The merge preserves ordering on the sources' shared ordered
        attribute, so windowed queries can read from it (Gigascope's MERGE
        operator).  Sources must be previously registered queries.
        """
        from repro.dsms.operators.merge import MergeOperator

        if name in self.registries.schemas:
            raise PlanningError(f"name {name!r} already in use")
        if len(sources) < 2:
            raise PlanningError("a merge needs at least two sources")
        schemas = []
        for source in sources:
            if source not in self._queries:
                raise PlanningError(
                    f"merge source {source!r} is not a registered query"
                )
            schemas.append(self._queries[source].output_schema)
        first = schemas[0]
        if any(s.attributes != first.attributes for s in schemas[1:]):
            raise PlanningError("merge sources must share one schema")

        operator = MergeOperator(first, sources)
        operator.bind_obs(self.metrics, self.trace, name)
        handle = QueryHandle(
            name=name,
            text=f"MERGE {':'.join(sources)}",
            level="high",
            source=sources[0],
            operator=operator,
            keep_results=True,
        )
        self._queries[name] = handle
        self._order.append(name)
        for source in sources:
            self._downstream.setdefault(source, []).append(name)
        self.registries.schemas[name] = operator.output_schema
        return handle

    def _add_passthrough_selection(self, stream: str, name: str) -> QueryHandle:
        schema = self.registries.schemas[stream]
        select_list = ", ".join(schema.names)
        # Internal plumbing, not user input: never strict-check it.
        return self.add_query(
            f"SELECT {select_list} FROM {stream}",
            name=name,
            keep_results=False,
            strict=False,
        )

    @staticmethod
    def _rewrite_from(text: str, old: str, new: str) -> str:
        """Replace the FROM stream name using the parsed AST's span.

        A textual search can match ``FROM <name>`` inside a string
        literal or a ``--`` comment and corrupt the query; the parser's
        FROM span points at the one real stream-name token.
        """
        from repro.dsms.parser import parse_query

        ast = parse_query(text)
        if ast.from_stream != old:
            raise PlanningError(
                f"could not rewrite FROM {old}: query reads from"
                f" {ast.from_stream!r}"
            )
        span = ast.clause_span("FROM")
        if span is None:  # pragma: no cover - parser always records it
            raise PlanningError(f"could not rewrite FROM {old}: no span")
        lines = text.split("\n")
        offset = sum(len(line) + 1 for line in lines[: span.line - 1])
        offset += span.col - 1
        if text[offset : offset + span.length] != old:
            raise PlanningError(
                f"could not rewrite FROM {old}: span does not cover the"
                " stream name"
            )
        return text[:offset] + new + text[offset + span.length :]

    def _remove_query(self, name: str) -> None:
        """Unregister a query added during a failed composite operation."""
        handle = self._queries.pop(name)
        self._order.remove(name)
        self.registries.schemas.pop(name, None)
        downstream = self._downstream.get(handle.source)
        if downstream and name in downstream:
            downstream.remove(name)
            if not downstream:
                del self._downstream[handle.source]

    def query(self, name: str) -> QueryHandle:
        try:
            return self._queries[name]
        except KeyError:
            raise ExecutionError(f"unknown query {name!r}") from None

    def query_handles(self) -> List[QueryHandle]:
        """Every registered query handle, in registration (topo) order."""
        return [self._queries[name] for name in self._order]

    # -- execution ----------------------------------------------------------------

    def run(self, records: Iterable[Record], batch_size: int = 4096) -> int:
        """Drive a record stream through the system; returns records read.

        Records are routed to the ring buffer of their schema's stream.
        After the iterator is exhausted every operator is flushed in
        topological order, so trailing windows are emitted.
        """
        self.start()
        total = 0
        try:
            for batch in batches(records, batch_size):
                total += self.feed(batch)
        except BaseException:
            self._session = None  # abandon the run without flushing
            raise
        self.finish()
        return total

    # Incremental driving (used by the sharded runtime, which interleaves
    # feeding several instances): start() once, feed() any number of
    # batches, finish() once to flush trailing windows.

    def start(self) -> None:
        """Begin an incremental run: subscribe low-level queries."""
        if self._session is not None:
            raise ExecutionError("instance is already running; finish() first")
        self._session = self._subscribe_low_level()
        # Kept after finish() so run_report() can still read ring
        # drop/backlog counters for the completed run.
        self._last_subscribers = dict(self._session)

    def feed(self, records: List[Record]) -> int:
        """Push one batch of records through the DAG; returns batch size."""
        if self._session is None:
            raise ExecutionError("start() the instance before feeding it")
        if not records:
            return 0
        return self._run_batch(list(records), self._session)

    def finish(self) -> None:
        """End an incremental run: flush every operator in topo order."""
        if self._session is None:
            raise ExecutionError("instance is not running")
        try:
            self._flush_all()
        finally:
            self._session = None

    def inject(
        self,
        name: str,
        records: List[Record],
        from_source: Optional[str] = None,
    ) -> None:
        """Dispatch records directly into one registered query node.

        The serving layer's shared-feed replay path: when another
        instance already ran the shared low-level prefix over a batch,
        its captured outputs are injected here into this instance's
        downstream operator, bypassing ring admission.  Records flow
        through the operator (and onward) exactly as if the local
        low-level node had produced them.
        """
        if self._session is None:
            raise ExecutionError("start() the instance before injecting")
        handle = self.query(name)
        for record in records:
            self._dispatch(handle, record, from_source=from_source)

    def refuse(
        self, stream: str, reason: str, count: int, /, **trace_fields: Any
    ) -> None:
        """Account ``count`` records of ``stream`` refused for ``reason``
        (a :data:`REFUSALS` key): charge its cost op, bump its series,
        trace it with ``trace_fields`` (the leading parameters are
        positional-only, so quarantine can pass a ``reason`` field), and
        tell downstream operators, so
        the loss stays visible in the conservation identity
        (docs/OBSERVABILITY.md).  The serving edge refuses whole batches
        here for ``quota_shed`` and ``poison_skipped``."""
        if count <= 0:
            return
        row = REFUSALS[reason]
        self.cost.charge(stream, row.op, count)
        if row.offered:
            self._series("stream_records_total", stream).inc(count)
        self._series(row.series, stream).inc(count)
        if self.trace.enabled:
            counted = {"count": count} if row.trace_count else {}
            self.trace.emit(row.trace, stream=stream, **counted, **trace_fields)
        self._notify_downstream(stream, row.hook, count)

    def _series(self, name: str, label: str) -> Any:
        """The ``name`` series for one stream or query, bound on first use.

        The hot paths bump these per batch or per forwarded record; the
        registry lookup (label sorting and hashing) happens once per
        series.  Binding lazily keeps the exported series set exactly
        what the unbound lookups produced.  Registry restores mutate
        series in place, so bound references stay valid.
        """
        series = self._bound.get((name, label))
        if series is None:
            label_name, help_text = _HOT_SERIES[name]
            series = self._bound[(name, label)] = self.metrics.counter(
                name, help=help_text, **{label_name: label}
            )
        return series

    def _operator_seconds(self, query: str, phase: str) -> Any:
        key = ("operator_seconds", query, phase)
        series = self._bound.get(key)
        if series is None:
            series = self._bound[key] = self.metrics.histogram(
                "operator_seconds",
                help="wall time per operator call",
                query=query,
                phase=phase,
            )
        return series

    def _subscribe_low_level(self) -> Dict[str, int]:
        subscribers: Dict[str, int] = {}
        for name in self._order:
            handle = self._queries[name]
            if handle.level == "low":
                subscribers[name] = self._rings[handle.source].subscribe()
        return subscribers

    def _run_batch(self, batch: List[Record], subscribers: Dict[str, int]) -> int:
        by_stream: Dict[str, List[Record]] = {}
        for payload in batch:
            stream, record = self._admit_payload(payload)
            if record is not None:
                by_stream.setdefault(stream, []).append(record)
        for stream, stream_records in by_stream.items():
            # Quarantined payloads were counted as offered by refuse().
            self._series("stream_records_total", stream).inc(len(stream_records))
            ring = self._rings[stream]
            if self.shed_threshold is not None:
                stream_records = self._admit(
                    stream, stream_records, ring, subscribers
                )
            self._series("stream_ingested_total", stream).inc(len(stream_records))
            ring.extend(stream_records)
        for name, sid in subscribers.items():
            handle = self._queries[name]
            pending = self._rings[handle.source].poll(sid)
            if not pending:
                continue
            if hasattr(handle.operator, "process_batch"):
                from repro.dsms.vectorized import RecordBatch

                schema = self.registries.schemas[handle.source]
                self._dispatch_batch(handle, RecordBatch.from_records(schema, pending))
            else:
                for record in pending:
                    self._dispatch(handle, record)
        return len(batch)

    def _admit_payload(self, payload: Any) -> "tuple":
        """Route one fed payload to its stream, validating when enabled.

        Returns ``(stream_name, record_or_None)``; ``None`` means the
        payload was dead-lettered.  Without ``validate_admission`` this
        is the historical strict path: a non-record or a record for an
        unregistered stream raises :class:`ExecutionError`.
        """
        schema = payload.schema if isinstance(payload, Record) else None
        if schema is None and self.validate_admission and len(self._rings) == 1:
            # Raw payloads (mappings, value tuples) are only routable
            # when the instance hosts a single source stream.
            stream = next(iter(self._rings))
            schema = self.registries.schemas[stream]
        if schema is None:
            if self.validate_admission:
                self._quarantine_one(
                    "__unroutable__",
                    f"cannot route a {type(payload).__name__} payload to a"
                    " stream",
                    payload,
                )
                return "__unroutable__", None
            raise ExecutionError(
                f"cannot ingest a {type(payload).__name__}: not a Record"
            )
        stream = schema.name
        if stream not in self._rings:
            if self.validate_admission:
                self._quarantine_one(
                    stream, f"record for unregistered stream {stream!r}", payload
                )
                return stream, None
            raise ExecutionError(f"record for unregistered stream {stream!r}")
        if not self.validate_admission:
            return stream, payload
        try:
            return stream, coerce_record(schema, payload)
        except SchemaError as exc:
            self._quarantine_one(stream, str(exc), payload)
            return stream, None

    def _quarantine_one(self, stream: str, reason: str, payload: Any) -> None:
        """Dead-letter one refused payload: account it, then retain it."""
        self.refuse(stream, "quarantined", 1, reason=reason)
        self.quarantine.put(reason, payload, source=stream)

    def _admit(
        self,
        stream: str,
        records: List[Record],
        ring: RingBuffer,
        subscribers: Dict[str, int],
    ) -> List[Record]:
        """Overload admission: step down intake instead of drowning the ring.

        When the slowest subscriber's backlog plus the incoming batch
        would exceed ``shed_threshold``, the surplus (newest records) is
        shed: counted, charged, and reported to downstream sampling
        operators so the degradation is deliberate and observable — the
        paper's drop-under-overload behavior (§1) made explicit.
        """
        backlog = max(
            (
                ring.backlog(sid)
                for name, sid in subscribers.items()
                if self._queries[name].source == stream
            ),
            default=0,
        )
        assert self.shed_threshold is not None
        allowed = max(0, self.shed_threshold - backlog)
        if len(records) <= allowed:
            return records
        self.refuse(stream, "shed", len(records) - allowed, backlog=backlog)
        return records[:allowed]

    def _notify_downstream(self, stream: str, hook: str, count: int) -> None:
        """Tell every query downstream of ``stream`` (transitively) that
        ``count`` of its input tuples were lost, by calling the operator's
        ``hook`` (``note_shed`` or ``note_quarantined``) where it has one,
        so sampling operators can expose the loss in their window stats."""
        seen = set()
        frontier = [stream]
        while frontier:
            node = frontier.pop()
            for child in self._downstream.get(node, ()):
                if child in seen:
                    continue
                seen.add(child)
                note = getattr(self._queries[child].operator, hook, None)
                if note is not None:
                    note(count)
                frontier.append(child)

    def _dispatch(
        self, handle: QueryHandle, record: Record, from_source: Optional[str] = None
    ) -> None:
        operator = handle.operator
        if self.profile:
            started = perf_counter()
        if hasattr(operator, "process_from"):
            outputs = operator.process_from(from_source, record)
        else:
            outputs = operator.process(record)
        if self.profile:
            self._operator_seconds(handle.name, "process").observe(
                perf_counter() - started
            )
        if outputs:
            self._propagate(handle, outputs)

    def _dispatch_batch(self, handle: QueryHandle, batch: Any) -> None:
        """Feed one column batch to a vectorized operator (and onward)."""
        operator = handle.operator
        if self.profile:
            started = perf_counter()
        outputs = operator.process_batch(batch)
        if self.profile:
            self._operator_seconds(handle.name, "process").observe(
                perf_counter() - started
            )
        if outputs is not None and len(outputs):
            self._propagate_batch(handle, outputs)

    def _propagate_batch(self, handle: QueryHandle, outputs: Any) -> None:
        """Batch analogue of :meth:`_propagate`: records are rebuilt only
        where a row-wise consumer (the results sink, a tuple-path child)
        actually needs them; vectorized children receive the batch."""
        records: Optional[List[Record]] = None
        if handle.keep_results:
            records = outputs.to_records()
            handle.results.extend(records)
        downstream = self._downstream.get(handle.name)
        if not downstream:
            return
        count = len(outputs)
        handle.forwarded += count
        self.cost.charge(handle.name, "tuple_copy", count)
        self._series("query_forwarded_total", handle.name).inc(count)
        for child_name in downstream:
            child = self._queries[child_name]
            if hasattr(child.operator, "process_batch"):
                self._dispatch_batch(child, outputs)
            else:
                if records is None:
                    records = outputs.to_records()
                for record in records:
                    self._dispatch(child, record, from_source=handle.name)

    def _propagate(self, handle: QueryHandle, outputs: List[Record]) -> None:
        if handle.keep_results:
            handle.results.extend(outputs)
        downstream = self._downstream.get(handle.name)
        if not downstream:
            return
        # Forwarding to another query is the copy the paper charges for.
        handle.forwarded += len(outputs)
        self.cost.charge(handle.name, "tuple_copy", len(outputs))
        self._series("query_forwarded_total", handle.name).inc(len(outputs))
        for child_name in downstream:
            child = self._queries[child_name]
            for record in outputs:
                self._dispatch(child, record, from_source=handle.name)

    def _flush_all(self) -> None:
        for name in self._order:
            handle = self._queries[name]
            if self.profile:
                started = perf_counter()
            outputs = handle.operator.flush()
            if self.profile:
                self._operator_seconds(name, "flush").observe(
                    perf_counter() - started
                )
            if outputs:
                self._propagate(handle, outputs)
            # A flushed node is exhausted: release any downstream merge
            # watermark it was holding.
            for child_name in self._downstream.get(name, ()):
                child = self._queries[child_name]
                if hasattr(child.operator, "end_source"):
                    released = child.operator.end_source(name)
                    if released:
                        self._propagate(child, released)

    # -- crash-recovery checkpoints -------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Picklable snapshot of all mutable run state.

        Captures every query node: operator state (see
        ``Operator.checkpoint``), retained results, and forwarded-tuple
        counters — plus cost balances and the metrics registry (which
        holds the refusal counters).  Ring buffers
        are deliberately *not* captured: a restored instance starts with
        empty rings, and the supervisor replays the journalled batches
        that postdate the checkpoint to refill the pipeline.
        """
        queries = {}
        for name in self._order:
            handle = self._queries[name]
            queries[name] = {
                "operator": handle.operator.checkpoint(),
                # Shallow copy: records are immutable once emitted, the
                # list must be decoupled from the still-growing handle.
                "results": list(handle.results),
                "forwarded": handle.forwarded,
            }
        return {
            "version": CHECKPOINT_VERSION,
            "queries": queries,
            "cost_accounts": self.cost.accounts() if self.cost.enabled else {},
            # v2: metric/trace state rides along so a supervised restart
            # resumes counting exactly where the checkpoint left off.
            "metrics": self.metrics.checkpoint(),
            "trace": self.trace.checkpoint(),
        }

    def restore(self, snapshot: Dict[str, Any], restore_cost: bool = False) -> None:
        """Reinstate a :meth:`checkpoint` taken from an identically
        registered instance (same streams and queries, in order).

        ``restore_cost`` also resets this instance's cost model to the
        snapshot's balances — only safe when the model is private to this
        instance (a forked worker's copy), not shared across shards.
        """
        queries = snapshot["queries"]
        if set(queries) != set(self._order):
            raise ExecutionError(
                "checkpoint does not match this instance: snapshot has"
                f" queries {sorted(queries)}, instance has {sorted(self._order)}"
            )
        for name in self._order:
            entry = queries[name]
            handle = self._queries[name]
            handle.operator.restore(entry["operator"])
            handle.results[:] = entry["results"]
            handle.forwarded = entry["forwarded"]
        if restore_cost and self.cost.enabled:
            self.cost.reset()
            self.cost.absorb(snapshot["cost_accounts"])
        # v1 snapshots predate the observability layer; leave counters as
        # they are (zero on a fresh worker) rather than guessing.  v1/v2
        # per-stream refusal dicts are ignored: v2's registry carries
        # the same counts.
        if "metrics" in snapshot:
            self.metrics.restore(snapshot["metrics"])
        if "trace" in snapshot and self.trace.enabled:
            self.trace.restore(snapshot["trace"])

    # -- reporting ------------------------------------------------------------------

    def results(self, name: str) -> List[Record]:
        return self.query(name).results

    def run_report(self) -> Dict[str, Any]:
        """Overload/degradation counters for the most recent run.

        ``streams``: per source stream, ring-buffer ``drops`` (slowest
        subscriber), remaining ``backlog``, ``shed`` records, and
        ``quarantined`` (dead-lettered) records.
        ``queries``: per sampling query, late / incomparable / shed /
        quarantined tuple totals over all windows.  Everything here is a
        tuple the answer silently does *not* include — the report makes
        degradation visible instead of silent.
        """
        self._sync_ring_metrics()
        streams: Dict[str, Dict[str, int]] = {}
        for stream in self._rings:
            streams[stream] = {
                "drops": int(self.metrics.value("ring_dropped", stream=stream)),
                "backlog": int(self.metrics.value("ring_backlog", stream=stream)),
                **refusal_counts(self.metrics, stream),
            }
        queries: Dict[str, Dict[str, int]] = {}
        for name in self._order:
            operator = self._queries[name].operator
            if getattr(operator, "overload_counters", None) is None:
                continue
            value = self.metrics.value
            queries[name] = {
                "late_tuples": int(
                    value("operator_late_tuples_total", query=name,
                          operator=operator.kind_label)
                ),
                "incomparable_tuples": int(
                    value("operator_incomparable_tuples_total", query=name,
                          operator=operator.kind_label)
                ),
                "shed_tuples": int(
                    value("operator_shed_tuples_total", query=name,
                          operator=operator.kind_label)
                ),
                "quarantined_tuples": int(
                    value("operator_quarantined_tuples_total", query=name,
                          operator=operator.kind_label)
                ),
            }
        report: Dict[str, Any] = {"streams": streams, "queries": queries}
        if self.vectorize:
            fallbacks = {
                name: self._queries[name].operator.vectorize_fallback
                for name in self._order
                if getattr(
                    self._queries[name].operator, "execution_mode", "tuple"
                )
                != "vectorized"
            }
            if fallbacks:
                report["vectorize"] = {"fallbacks": fallbacks}
        return report

    def _sync_ring_metrics(self) -> None:
        """Mirror ring-buffer drop/backlog counts into gauges.

        Rings are polled state, not events, so the registry mirrors them
        on demand (report/export time) rather than per push.
        """
        for stream, ring in self._rings.items():
            sids = [
                sid
                for name, sid in self._last_subscribers.items()
                if self._queries[name].source == stream
            ]
            self.metrics.gauge(
                "ring_dropped",
                help="records overwritten unread (slowest subscriber)",
                stream=stream,
            ).set(max((ring.drops(sid) for sid in sids), default=0))
            self.metrics.gauge(
                "ring_backlog",
                help="records admitted but not yet consumed",
                stream=stream,
            ).set(max((ring.backlog(sid) for sid in sids), default=0))

    def explain(self) -> str:
        """Render the query DAG (levels, sources, operators, cost)."""
        from repro.dsms.explain import explain_instance

        return explain_instance(self)

    def cpu_percent(self, name: str, stream_seconds: float) -> float:
        """CPU% of one query node under the cost model."""
        return self.cost.cpu_percent(name, stream_seconds)
