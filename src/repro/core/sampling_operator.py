"""The generic stream-sampling operator (paper §5 and §6.4).

Per-tuple evaluation, in the paper's order:

1. Evaluate the group-by expressions; the ordered ones form the window id.
   A change of window id closes the window: states get their
   ``on_window_final`` signal, HAVING filters the groups, survivors are
   emitted, tables are cleared and the new supergroup table becomes the
   old one.
2. Find or create the tuple's supergroup.  A new supergroup's SFUN states
   are initialised from the matching old-window supergroup when one
   exists (window-to-window carryover, e.g. the subset-sum threshold).
3. Evaluate WHERE (which may call SFUNs and read superaggregates).  FALSE
   discards the tuple.
4. Update tuple-fed superaggregates; find or create the group and update
   its aggregates; register new groups with group-fed superaggregates.
5. Evaluate CLEANING WHEN against the supergroup.  If TRUE, run a
   cleaning phase: evaluate CLEANING BY on every group of the supergroup
   and evict the groups for which it is FALSE (updating superaggregates).

The operator never blocks: output is produced at window boundaries (and
by :meth:`finish` for the trailing window).

Deviation note (documented in DESIGN.md): §6.4's prose contains a typo —
"If the condition evaluates to FALSE, then delete the group" appears
attached to CLEANING WHEN; deleting the current group whenever the
cleaning trigger is false would delete every group on every tuple.  We
follow §5's unambiguous statement: during a cleaning phase a group is
removed when **CLEANING BY evaluates to FALSE**.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dsms.cost import CostModel, NULL_COST_MODEL
from repro.dsms.expr import (
    ONE,
    Closure,
    Frame,
    RecordPlans,
    Resolver,
    group_by_columns,
    lower,
    lower_optional,
)
from repro.dsms.functions import FunctionRegistry
from repro.dsms.parser.planner import SamplingSpec
from repro.dsms.stateful import StatefulLibrary
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACE, TraceSink
from repro.core.group_tables import GroupEntry, GroupTables, SuperGroupEntry
from repro.streams.records import Record


@dataclass
class WindowStats:
    """Per-window observability counters (back the accuracy figures)."""

    window: Tuple[Any, ...]
    tuples_seen: int = 0
    tuples_admitted: int = 0
    groups_created: int = 0
    groups_evicted: int = 0
    cleaning_phases: int = 0
    output_tuples: int = 0
    #: Tuples whose window id ordered *before* the current window: they
    #: arrive after their window already closed and are dropped (the
    #: standard DSMS policy for streams whose ordered attribute is only
    #: approximately monotone; Gigascope marks time `increasing` and
    #: assumes the NIC delivers it that way).
    late_tuples: int = 0
    #: Tuples whose window id could not be compared with the current one
    #: (a ``TypeError``, e.g. a malformed string timestamp in an integer
    #: feed).  They are counted and dropped; treating them as a window
    #: change would destroy all in-window sampling state.
    incomparable_tuples: int = 0
    #: Tuples the runtime refused at admission during this window because
    #: the ring-buffer backlog crossed the load-shed threshold (the
    #: paper's drop-under-overload behavior, §1/§7, made deliberate and
    #: observable instead of arbitrary packet loss).
    shed_tuples: int = 0
    #: Tuples the runtime dead-lettered at admission during this window
    #: because they failed schema validation/coercion (malformed or
    #: corrupt input routed to the quarantine stream instead of raising
    #: mid-query).  Like shed tuples, they never reached the operator.
    quarantined_tuples: int = 0
    #: High-water mark of the group table during the window — the memory
    #: figure the paper's §8 flow-sampling discussion is about.
    peak_groups: int = 0


_SUPERGROUP_STATES = attrgetter("supergroup.states")
_SUPERAGGREGATES = attrgetter("supergroup.superaggregates")
_AGGREGATES = attrgetter("group.aggregates")
_GROUP_KEY = attrgetter("group.key")
_GB_VALUES = attrgetter("gb")


class SamplingOperator:
    """Executable instance of one sampling query."""

    #: value of the ``operator`` label on this operator's metric series
    kind_label = "sampling"

    def __init__(
        self,
        spec: SamplingSpec,
        scalars: FunctionRegistry,
        stateful: StatefulLibrary,
        aggregate_factory,
        superaggregate_factory,
        cost_model: CostModel = NULL_COST_MODEL,
        account: str = "sampling",
    ) -> None:
        self.spec = spec
        self._stateful = stateful
        self._aggregate_factory = aggregate_factory
        self._superaggregate_factory = superaggregate_factory
        self._cost = cost_model
        self._account = account

        self.output_schema = spec.output_schema
        self._gb_index = {item.name: i for i, item in enumerate(spec.group_by)}
        self._tables = GroupTables()
        self._current_window: Optional[Tuple[Any, ...]] = None
        self._window_stats: List[WindowStats] = []
        self._active_stats: Optional[WindowStats] = None
        #: shed tuples reported before any window is open (folded into the
        #: next window's stats)
        self._pending_shed = 0
        #: likewise for tuples dead-lettered at admission
        self._pending_quarantined = 0

        # Lower every clause once: per-tuple clauses per record schema;
        # CLEANING WHEN (per tuple, but it sees only the group-by values
        # and the tuple's supergroup) and the per-group clauses once.
        calls = dict(
            scalars=scalars,
            stateful=stateful,
            cost=cost_model,
            account=account,
            states=_SUPERGROUP_STATES,
            superaggregates=_SUPERAGGREGATES,
        )
        # Per-tuple clauses and CLEANING WHEN read _row; per-group _grp.
        self._row = Frame()
        self._grp = Frame()
        self._plans = RecordPlans(self._lower_rows, gb_index=self._gb_index, **calls)
        self._use_schema(spec.analyzed.schema)
        groups = Resolver(
            columns=group_by_columns(self._gb_index, _GROUP_KEY),
            aggregates=_AGGREGATES,
            **calls,
        )
        self._cleaning_when = lower_optional(
            spec.cleaning_when,
            Resolver(columns=group_by_columns(self._gb_index, _GB_VALUES), **calls),
        )
        self._cleaning_by = lower_optional(spec.cleaning_by, groups)
        self._having = lower_optional(spec.having, groups)
        self._select = [lower(item.expr, groups) for item in spec.select_items]
        #: per superaggregate: its lowered per-group value when it is
        #: group-fed (evaluated as a group is added or removed), else None
        self._group_values: List[Optional[Closure]] = [
            lower(sa.value_expr, groups) if sa.feeds == "group" else None
            for sa in spec.superaggregates
        ]
        self._group_feeds = [
            (slot, fn) for slot, fn in enumerate(self._group_values) if fn is not None
        ]
        self.bind_obs(MetricsRegistry(), NULL_TRACE, account)

    # -- observability -----------------------------------------------------------
    #
    # SamplingOperator is not an Operator subclass (its push protocol
    # predates the operator base), but it speaks the same bind_obs
    # protocol so the runtime can re-bind it onto the instance-wide
    # registry.  Conservation identity (docs/OBSERVABILITY.md):
    #   in == filtered + admitted + late + incomparable
    #   groups_created == rows_out + groups_evicted + having_rejected

    def bind_obs(
        self, metrics: MetricsRegistry, trace: TraceSink, query: str
    ) -> None:
        """Attach metric series and the trace sink (see Operator.bind_obs)."""
        self.obs_metrics = metrics
        self.obs_trace = trace
        self.obs_query = query
        common = {"query": query, "operator": self.kind_label}
        self.m_in = metrics.counter(
            "operator_tuples_in_total",
            help="input tuples presented to the operator",
            **common,
        )
        self.m_filtered = metrics.counter(
            "operator_tuples_filtered_total",
            help="input tuples rejected by WHERE",
            **common,
        )
        self.m_admitted = metrics.counter(
            "operator_tuples_admitted_total",
            help="tuples that passed WHERE and fed a group",
            **common,
        )
        self.m_late = metrics.counter(
            "operator_late_tuples_total",
            help="tuples dropped because their window already closed",
            **common,
        )
        self.m_incomparable = metrics.counter(
            "operator_incomparable_tuples_total",
            help="tuples dropped because their window id was unorderable",
            **common,
        )
        self.m_shed = metrics.counter(
            "operator_shed_tuples_total",
            help="tuples shed upstream at admission (never reached process)",
            **common,
        )
        self.m_quarantined = metrics.counter(
            "operator_quarantined_tuples_total",
            help="tuples dead-lettered upstream at admission (malformed)",
            **common,
        )
        self.m_rows_out = metrics.counter(
            "operator_rows_out_total",
            help="output records emitted (per window for windowed operators)",
            **common,
        )
        self.m_windows = metrics.counter(
            "operator_windows_total", help="windows closed", **common
        )
        self.m_groups_created = metrics.counter(
            "operator_groups_created_total", help="group-table inserts", **common
        )
        self.m_groups_evicted = metrics.counter(
            "operator_groups_evicted_total",
            help="groups evicted by CLEANING BY during cleaning phases",
            **common,
        )
        self.m_having_rejected = metrics.counter(
            "operator_having_rejected_total",
            help="groups rejected by HAVING at window close",
            **common,
        )
        self.m_cleaning_phases = metrics.counter(
            "operator_cleaning_phases_total",
            help="cleaning phases triggered by CLEANING WHEN",
            **common,
        )
        self.m_carryover = metrics.counter(
            "operator_supergroup_carryover_total",
            help="supergroups whose SFUN states carried over from the old window",
            **common,
        )
        self.g_peak_groups = metrics.gauge(
            "operator_peak_groups",
            help="high-water mark of the group table",
            **common,
        )

    # -- public API -------------------------------------------------------------

    def process(self, record: Record) -> List[Record]:
        """Feed one input record; returns output records (non-empty only
        when this record closed a window)."""
        outputs: List[Record] = []
        self._charge("tuple_read")
        self.m_in.inc()
        if record.schema is not self._schema:
            self._use_schema(record.schema)
        row = self._row
        row.values = record.values
        row.record = record

        gb_values = tuple([fn(row) for fn in self._gb_fns])
        row.gb = gb_values
        window = tuple(gb_values[i] for i in self.spec.ordered_indices)

        if self._current_window is None:
            self._open_window(window)
        elif window != self._current_window:
            try:
                is_late = window < self._current_window
            except TypeError:
                # A malformed tuple whose window id cannot be ordered
                # against the current window must not close the window
                # (that would drop every live group and SFUN state).
                assert self._active_stats is not None
                self._active_stats.incomparable_tuples += 1
                self.m_incomparable.inc()
                return outputs
            if is_late:
                # The tuple's window already closed and was emitted; state
                # for it no longer exists.  Count and drop.
                assert self._active_stats is not None
                self._active_stats.late_tuples += 1
                self.m_late.inc()
                return outputs
            outputs = self._close_window()
            self._open_window(window)

        stats = self._active_stats
        assert stats is not None
        stats.tuples_seen += 1

        supergroup = self._lookup_supergroup(gb_values)
        row.supergroup = supergroup

        if self._where is not None:
            self._charge("predicate_eval")
            if not self._where(row):
                self.m_filtered.inc()
                return outputs

        stats.tuples_admitted += 1
        self.m_admitted.inc()

        group_key = gb_values
        superaggregates = supergroup.superaggregates
        for slot, value_fn in self._tuple_feeds:
            superaggregates[slot].on_tuple(group_key, value_fn(row))
            self._charge("aggregate_update")

        self._charge("hash_probe")
        group = self._tables.groups.get(group_key)
        is_new_group = group is None
        if is_new_group:
            group = GroupEntry(
                key=group_key,
                aggregates=[
                    self._aggregate_factory(node.name) for node in self.spec.aggregates
                ],
                supergroup_key=supergroup.key,
            )
            self._tables.add_group(group)
            stats.groups_created += 1
            self.m_groups_created.inc()
            if self._tables.group_count > stats.peak_groups:
                stats.peak_groups = self._tables.group_count
                self.g_peak_groups.set(
                    max(self.g_peak_groups.value, self._tables.group_count)
                )
            self._charge("hash_insert")
        for arg_fn, aggregate in zip(self._aggregate_args, group.aggregates):
            aggregate.update(arg_fn(row))
            self._charge("aggregate_update")

        if is_new_group and self._group_feeds:
            # Register the brand-new group with the group-fed superaggregates.
            grp = self._grp
            grp.group = group
            grp.supergroup = supergroup
            for slot, value_fn in self._group_feeds:
                superaggregates[slot].on_group_added(group_key, value_fn(grp))
                self._charge("aggregate_update")

        if self._cleaning_when is not None:
            self._charge("predicate_eval")
            if self._cleaning_when(row):
                if self.obs_trace.enabled:
                    self.obs_trace.emit(
                        "cleaning_trigger",
                        query=self.obs_query,
                        window=list(self._current_window or ()),
                        supergroup=list(supergroup.key),
                    )
                self._run_cleaning_phase(supergroup)

        return outputs

    def run(self, records: Iterable[Record]) -> Iterator[Record]:
        """Process an entire stream, yielding outputs as windows close."""
        for record in records:
            for out in self.process(record):
                yield out
        for out in self.finish():
            yield out

    def finish(self) -> List[Record]:
        """Close the trailing window and return its output."""
        if self._current_window is None:
            return []
        outputs = self._close_window()
        self._current_window = None
        self._active_stats = None
        return outputs

    def flush(self) -> List[Record]:
        """Operator-protocol alias for :meth:`finish`."""
        return self.finish()

    @property
    def window_stats(self) -> List[WindowStats]:
        """Stats for all *closed* windows."""
        return list(self._window_stats)

    @property
    def tables(self) -> GroupTables:
        return self._tables

    def note_shed(self, count: int) -> None:
        """Record ``count`` input tuples shed upstream by the runtime's
        overload admission check (they never reached :meth:`process`)."""
        if self._active_stats is not None:
            self._active_stats.shed_tuples += count
        else:
            self._pending_shed += count
        self.m_shed.inc(count)

    def note_quarantined(self, count: int) -> None:
        """Record ``count`` input tuples dead-lettered upstream at
        admission (malformed input routed to the quarantine stream)."""
        if self._active_stats is not None:
            self._active_stats.quarantined_tuples += count
        else:
            self._pending_quarantined += count
        self.m_quarantined.inc(count)

    def overload_counters(self) -> Dict[str, int]:
        """Degradation counters over all windows (closed and active).

        These are the "did the sample quietly degrade?" numbers: tuples
        dropped because they arrived late, tuples with unorderable window
        ids, tuples shed at admission under overload, and tuples
        dead-lettered at admission as malformed.
        """
        stats = list(self._window_stats)
        if self._active_stats is not None:
            stats.append(self._active_stats)
        return {
            "late_tuples": sum(s.late_tuples for s in stats),
            "incomparable_tuples": sum(s.incomparable_tuples for s in stats),
            "shed_tuples": sum(s.shed_tuples for s in stats) + self._pending_shed,
            "quarantined_tuples": (
                sum(s.quarantined_tuples for s in stats)
                + self._pending_quarantined
            ),
        }

    # -- crash-recovery checkpoints -------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Picklable snapshot of the full operator state.

        Groups (aggregate vectors) and superaggregates deepcopy/pickle
        directly; SFUN states are snapshotted by *state name* plus field
        dict because their classes are closure-local inside the
        ``*_library`` factories (see ``StatefulState.checkpoint``).
        Group insertion order is preserved by the group list, which also
        reconstructs the supergroup-group table — the cleaning pass
        depends on visiting groups in arrival order.
        """

        def snap_supergroups(table: Dict[Any, SuperGroupEntry]) -> List[Tuple]:
            return [
                (
                    entry.key,
                    self._stateful.checkpoint_states(entry.states),
                    copy.deepcopy(entry.superaggregates),
                )
                for entry in table.values()
            ]

        return {
            "current_window": self._current_window,
            "window_stats": copy.deepcopy(self._window_stats),
            "active_stats": copy.deepcopy(self._active_stats),
            "pending_shed": self._pending_shed,
            "pending_quarantined": self._pending_quarantined,
            "groups": [
                (entry.key, copy.deepcopy(entry.aggregates), entry.supergroup_key)
                for entry in self._tables.groups.values()
            ],
            "new_supergroups": snap_supergroups(self._tables.new_supergroups),
            "old_supergroups": snap_supergroups(self._tables.old_supergroups),
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Reinstate a :meth:`checkpoint` snapshot on a fresh operator."""

        def rebuild(snaps: List[Tuple]) -> Dict[Any, SuperGroupEntry]:
            return {
                key: SuperGroupEntry(
                    key=key,
                    states=self._stateful.restore_states(states),
                    superaggregates=copy.deepcopy(superaggs),
                )
                for key, states, superaggs in snaps
            }

        tables = GroupTables()
        tables.new_supergroups = rebuild(snapshot["new_supergroups"])
        tables.old_supergroups = rebuild(snapshot["old_supergroups"])
        for key, aggregates, supergroup_key in snapshot["groups"]:
            tables.add_group(
                GroupEntry(
                    key=key,
                    aggregates=copy.deepcopy(aggregates),
                    supergroup_key=supergroup_key,
                )
            )
        self._tables = tables
        self._current_window = snapshot["current_window"]
        self._window_stats = copy.deepcopy(snapshot["window_stats"])
        self._active_stats = copy.deepcopy(snapshot["active_stats"])
        self._pending_shed = snapshot["pending_shed"]
        # Pre-quarantine snapshots lack the key.
        self._pending_quarantined = snapshot.get("pending_quarantined", 0)

    # -- internals -----------------------------------------------------------------

    def _charge(self, operation: str, count: int = 1) -> None:
        self._cost.charge(self._account, operation, count)

    def _lower_rows(self, before: Resolver, after: Resolver) -> Tuple[Any, ...]:
        spec = self.spec
        return (
            [lower(item.expr, before) for item in spec.group_by],
            lower_optional(spec.where, after),
            [
                (i, lower(sa.value_expr, after))
                for i, sa in enumerate(spec.superaggregates)
                if sa.feeds == "tuple"
            ],
            [
                lower(node.args[0], after) if node.args else ONE
                for node in spec.aggregates
            ],
        )

    def _use_schema(self, schema: Any) -> None:
        self._schema = schema
        self._gb_fns, self._where, self._tuple_feeds, self._aggregate_args = (
            self._plans.plan(schema)
        )

    def _open_window(self, window: Tuple[Any, ...]) -> None:
        self._current_window = window
        self._active_stats = WindowStats(window=window)
        if self._pending_shed:
            self._active_stats.shed_tuples = self._pending_shed
            self._pending_shed = 0
        if self._pending_quarantined:
            self._active_stats.quarantined_tuples = self._pending_quarantined
            self._pending_quarantined = 0
        if self.obs_trace.enabled:
            self.obs_trace.emit(
                "window_open", query=self.obs_query, window=list(window)
            )

    def _lookup_supergroup(self, gb_values: Tuple[Any, ...]) -> SuperGroupEntry:
        key = tuple(gb_values[i] for i in self.spec.nonordered_supergroup_indices)
        self._charge("hash_probe")
        entry = self._tables.new_supergroups.get(key)
        if entry is not None:
            return entry
        old_entry = self._tables.old_supergroups.get(key)
        old_states = old_entry.states if old_entry is not None else None
        if old_entry is not None:
            self.m_carryover.inc()
            if self.obs_trace.enabled:
                self.obs_trace.emit(
                    "supergroup_carryover",
                    query=self.obs_query,
                    window=list(self._current_window or ()),
                    supergroup=list(key),
                )
        states = self._stateful.instantiate_states(self.spec.state_names, old_states)
        superaggs = [
            self._superaggregate_factory(sa.name, sa.const_args)
            for sa in self.spec.superaggregates
        ]
        entry = SuperGroupEntry(key=key, states=states, superaggregates=superaggs)
        self._tables.new_supergroups[key] = entry
        self._charge("hash_insert")
        return entry

    def _run_cleaning_phase(self, supergroup: SuperGroupEntry) -> None:
        stats = self._active_stats
        assert stats is not None
        stats.cleaning_phases += 1
        self.m_cleaning_phases.inc()
        self._charge("cleaning_phase")
        grp = self._grp
        for group_key in self._tables.groups_of(supergroup.key):
            group = self._tables.groups.get(group_key)
            if group is None:
                continue
            grp.group = group
            grp.supergroup = supergroup
            self._charge("cleaning_per_group")
            keep = self._cleaning_by is None or bool(self._cleaning_by(grp))
            if not keep:
                self._evict_group(group, supergroup)
                stats.groups_evicted += 1
                self.m_groups_evicted.inc()
                if self.obs_trace.enabled:
                    self.obs_trace.emit(
                        "group_evicted",
                        query=self.obs_query,
                        window=list(self._current_window or ()),
                        group=list(group.key),
                    )

    def _evict_group(self, group: GroupEntry, supergroup: SuperGroupEntry) -> None:
        grp = self._grp
        grp.group = group
        grp.supergroup = supergroup
        for sa, value_fn in zip(supergroup.superaggregates, self._group_values):
            sa.on_group_removed(
                group.key, value_fn(grp) if value_fn is not None else None
            )
        self._tables.remove_group(group.key)
        self._charge("hash_delete")

    def _close_window(self) -> List[Record]:
        stats = self._active_stats
        assert stats is not None
        self._charge("window_flush")

        # 1. Signal window end to every state (paper: final_init()).
        for supergroup in self._tables.new_supergroups.values():
            for state in supergroup.states.values():
                state.on_window_final()

        # 2. HAVING filters groups; survivors are emitted.
        outputs: List[Record] = []
        grp = self._grp
        for group_key in list(self._tables.groups.keys()):
            group = self._tables.groups.get(group_key)
            if group is None:
                continue
            supergroup = self._tables.new_supergroups[group.supergroup_key]
            grp.group = group
            grp.supergroup = supergroup
            if self._having is not None:
                self._charge("predicate_eval")
                if not self._having(grp):
                    self._evict_group(group, supergroup)
                    self.m_having_rejected.inc()
                    if self.obs_trace.enabled:
                        self.obs_trace.emit(
                            "having_rejected",
                            query=self.obs_query,
                            window=list(stats.window),
                            group=list(group.key),
                        )
                    continue
            values = [fn(grp) for fn in self._select]
            outputs.append(Record(self.spec.output_schema, values))
            self._charge("output_tuple")
            if self.obs_trace.enabled:
                self.obs_trace.emit(
                    "group_emitted",
                    query=self.obs_query,
                    window=list(stats.window),
                    group=list(group.key),
                )

        stats.output_tuples = len(outputs)
        self._window_stats.append(stats)
        self.m_windows.inc()
        self.m_rows_out.inc(len(outputs))
        if self.obs_trace.enabled:
            self.obs_trace.emit(
                "window_close",
                query=self.obs_query,
                window=list(stats.window),
                rows_out=len(outputs),
                groups_created=stats.groups_created,
                groups_evicted=stats.groups_evicted,
                cleaning_phases=stats.cleaning_phases,
            )

        # 3. Swap tables (paper §6.4).
        self._tables.end_window()
        return outputs
