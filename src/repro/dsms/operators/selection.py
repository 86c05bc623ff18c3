"""Selection (and stateful selection) operators.

A selection query has no GROUP BY: it filters tuples with WHERE and
projects the SELECT list.  The *stateful* variant additionally carries a
single global SFUN state set, which is how the paper's baseline runs
"basic subset-sum sampling using a user-defined function in a selection
operator" (§7.2) and how low-level prefilter queries work (Fig 6).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, List, Optional, Tuple

from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.expr import Frame, RecordPlans, Resolver, lower, lower_optional
from repro.dsms.functions import FunctionRegistry
from repro.dsms.operators.base import Operator
from repro.dsms.parser.analyzer import AnalyzedQuery
from repro.dsms.stateful import StatefulLibrary
from repro.streams.records import Record
from repro.streams.schema import StreamSchema


class SelectionOperator(Operator):
    """Plain WHERE + SELECT over a stream."""

    kind_label = "selection"

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        output_schema: StreamSchema,
        scalars: FunctionRegistry,
        cost_model: CostModel = NULL_COST_MODEL,
        account: str = "selection",
    ) -> None:
        self._setup(analyzed, output_schema, scalars, None, None, cost_model, account)

    def _setup(
        self,
        analyzed: AnalyzedQuery,
        output_schema: StreamSchema,
        scalars: FunctionRegistry,
        stateful: Optional[StatefulLibrary],
        states: Optional[dict],
        cost_model: CostModel,
        account: str,
    ) -> None:
        self.analyzed = analyzed
        self.output_schema = output_schema
        self._cost = cost_model
        self._account = account
        self._row = Frame(states=states)
        self._plans = RecordPlans(
            self._lower_rows,
            scalars=scalars,
            stateful=stateful,
            cost=cost_model,
            account=account,
            states=attrgetter("states") if stateful is not None else None,
        )
        self._use_schema(analyzed.schema)
        self._default_obs(account)

    def _lower_rows(self, before: Resolver, after: Resolver) -> Tuple[Any, ...]:
        items = [lower(item.expr, after) for item in self.analyzed.ast.select]
        return lower_optional(self.analyzed.ast.where, after), items

    def _use_schema(self, schema: StreamSchema) -> None:
        self._schema = schema
        self._where, self._select = self._plans.plan(schema)

    def process(self, record: Record) -> List[Record]:
        if record.schema is not self._schema:
            self._use_schema(record.schema)
        row = self._row
        row.values = record.values
        row.record = record
        self._cost.charge(self._account, "tuple_read")
        self.m_in.inc()
        where = self._where
        if where is not None:
            self._cost.charge(self._account, "predicate_eval")
            if not where(row):
                self.m_filtered.inc()
                return []
        values = [fn(row) for fn in self._select]
        self.m_rows_out.inc()
        return [Record(self.output_schema, values)]


class StatefulSelectionOperator(SelectionOperator):
    """Selection whose WHERE calls SFUNs against one global state set.

    The state persists for the life of the operator (there are no windows
    in a selection query), mirroring a UDF-with-static-state inside the
    Gigascope selection operator.
    """

    kind_label = "stateful_selection"

    def __init__(
        self,
        analyzed: AnalyzedQuery,
        output_schema: StreamSchema,
        scalars: FunctionRegistry,
        stateful: StatefulLibrary,
        cost_model: CostModel = NULL_COST_MODEL,
        account: str = "stateful_selection",
    ) -> None:
        self._stateful = stateful
        self.states = stateful.instantiate_states(analyzed.state_names)
        self._setup(
            analyzed, output_schema, scalars, stateful, self.states, cost_model, account
        )

    def checkpoint(self) -> Any:
        """Snapshot the global SFUN state set by state *name* (the state
        classes are closure-local and unpicklable — see
        ``StatefulState.checkpoint``)."""
        return {"states": self._stateful.checkpoint_states(self.states)}

    def restore(self, snapshot: Any) -> None:
        self.states = self._stateful.restore_states(snapshot["states"])
        self._row.states = self.states
