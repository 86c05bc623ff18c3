"""Windowed GROUP BY aggregation operator.

The conventional (non-sampling) aggregation path: groups accumulate UDAF
state within a window; when any ordered group-by variable changes value
(paper §3: window boundaries derive from ordered-attribute references),
all groups are finalized, HAVING-filtered and emitted.

This operator doubles as the exact baseline for the accuracy experiments:
Fig 2's "actual" series is a plain ``sum(len)`` aggregation over 20-second
windows run next to the sampling query.
"""

from __future__ import annotations

import copy
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.dsms.aggregates import Aggregate, AggregateRegistry
from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.expr import (
    ONE,
    Frame,
    RecordPlans,
    Resolver,
    group_by_columns,
    lower,
    lower_optional,
)
from repro.dsms.functions import FunctionRegistry
from repro.dsms.operators.base import Operator
from repro.dsms.parser.analyzer import AnalyzedQuery
from repro.streams.records import Record
from repro.streams.schema import StreamSchema


class AggregationOperator(Operator):
    """Plain windowed grouping and aggregation."""

    kind_label = "aggregation"

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        output_schema: StreamSchema,
        scalars: FunctionRegistry,
        aggregates: AggregateRegistry,
        cost_model: CostModel = NULL_COST_MODEL,
        account: str = "aggregation",
    ) -> None:
        if analyzed.kind != "aggregation":
            raise ExecutionError(
                f"AggregationOperator built from a {analyzed.kind!r} query"
            )
        self.analyzed = analyzed
        self.output_schema = output_schema
        self._registry = aggregates
        self._cost = cost_model
        self._account = account

        self._gb_index = {item.name: i for i, item in enumerate(analyzed.group_by)}
        self._ordered_indices = tuple(
            list(self._gb_index[name] for name in analyzed.ordered_names)
        )
        self._groups: Dict[Tuple[Any, ...], List[Aggregate]] = {}
        self._current_window: Optional[Tuple[Any, ...]] = None

        # Lower every clause once: per-tuple clauses per record schema,
        # per-group clauses against the group key and aggregate vector.
        calls = dict(scalars=scalars, cost=cost_model, account=account)
        self._frame = Frame()
        self._plans = RecordPlans(
            self._lower_rows, gb_index=self._gb_index, gb_first=True, **calls
        )
        self._use_schema(analyzed.schema)
        groups = Resolver(
            columns=group_by_columns(self._gb_index, attrgetter("key")),
            aggregates=attrgetter("aggregates"),
            **calls,
        )
        self._group_having = lower_optional(analyzed.ast.having, groups)
        self._group_select = [lower(item.expr, groups) for item in analyzed.ast.select]
        self._default_obs(account)

    def _lower_rows(self, before: Resolver, after: Resolver) -> Tuple[Any, ...]:
        return (
            [lower(item.expr, before) for item in self.analyzed.group_by],
            lower_optional(self.analyzed.ast.where, after),
            [
                lower(node.args[0], after) if node.args else ONE
                for node in self.analyzed.aggregates
            ],
        )

    def _use_schema(self, schema: Any) -> None:
        self._tuple_schema = schema
        self._tuple_gb, self._tuple_where, self._tuple_args = self._plans.plan(schema)

    def _bind_series(self) -> None:
        super()._bind_series()
        common = {"query": self.obs_query, "operator": self.kind_label}
        m = self.obs_metrics
        self.m_admitted = m.counter(
            "operator_tuples_admitted_total",
            help="tuples that passed WHERE and fed a group",
            **common,
        )
        self.m_windows = m.counter(
            "operator_windows_total", help="windows closed", **common
        )
        self.m_groups_created = m.counter(
            "operator_groups_created_total", help="group-table inserts", **common
        )
        self.m_having_rejected = m.counter(
            "operator_having_rejected_total",
            help="groups rejected by HAVING at window close",
            **common,
        )

    def process(self, record: Record) -> List[Record]:
        if record.schema is not self._tuple_schema:
            self._use_schema(record.schema)
        frame = self._frame
        frame.values = record.values
        frame.record = record
        gb_values = tuple([fn(frame) for fn in self._tuple_gb])
        frame.gb = gb_values
        window = tuple(gb_values[i] for i in self._ordered_indices)

        outputs: List[Record] = []
        if self._current_window is None:
            self._current_window = window
            self.obs_trace.emit(
                "window_open", query=self.obs_query, window=list(window)
            )
        elif window != self._current_window:
            outputs = self._emit_window()
            self._current_window = window
            self.obs_trace.emit(
                "window_open", query=self.obs_query, window=list(window)
            )

        self._cost.charge(self._account, "tuple_read")
        self._cost.charge(self._account, "hash_probe")
        self.m_in.inc()
        where = self._tuple_where
        if where is not None:
            self._cost.charge(self._account, "predicate_eval")
            if not where(frame):
                self.m_filtered.inc()
                return outputs
        self.m_admitted.inc()

        group = self._groups.get(gb_values)
        if group is None:
            group = [self._registry.create(node.name) for node in self.analyzed.aggregates]
            self._groups[gb_values] = group
            self._cost.charge(self._account, "hash_insert")
            self.m_groups_created.inc()
        for arg_fn, aggregate in zip(self._tuple_args, group):
            aggregate.update(arg_fn(frame))
            self._cost.charge(self._account, "aggregate_update")
        return outputs

    def flush(self) -> List[Record]:
        if self._current_window is None:
            return []
        outputs = self._emit_window()
        self._current_window = None
        return outputs

    def checkpoint(self) -> Any:
        """Snapshot the open window: group table plus current window id.

        Aggregate instances are module-level classes holding plain
        accumulator fields, so a deepcopy is both decoupled from the live
        table and picklable across the worker/parent boundary.
        """
        return {
            "groups": copy.deepcopy(self._groups),
            "current_window": self._current_window,
        }

    def restore(self, snapshot: Any) -> None:
        self._groups = copy.deepcopy(snapshot["groups"])
        self._current_window = snapshot["current_window"]

    def _emit_window(self) -> List[Record]:
        outputs: List[Record] = []
        having = self._group_having
        frame = self._frame
        self._cost.charge(self._account, "window_flush")
        for key, aggregates in self._groups.items():
            frame.key = key
            frame.aggregates = aggregates
            if having is not None:
                self._cost.charge(self._account, "predicate_eval")
                if not having(frame):
                    self.m_having_rejected.inc()
                    continue
            values = [fn(frame) for fn in self._group_select]
            outputs.append(Record(self.output_schema, values))
            self._cost.charge(self._account, "output_tuple")
        self.m_windows.inc()
        self.m_rows_out.inc(len(outputs))
        self.obs_trace.emit(
            "window_close",
            query=self.obs_query,
            window=list(self._current_window or ()),
            rows_out=len(outputs),
        )
        self._groups.clear()
        return outputs
