"""Operators run lowered closures, never the one-off tree evaluator."""

from __future__ import annotations

import sys

import pytest

from repro.algorithms.bindings import SUBSET_SUM_QUERY, subset_sum_library
from repro.dsms import expr as expr_module
from repro.dsms.cost import CostModel
from repro.dsms.expr import ColumnRef, Frame, RecordPlans, lower
from repro.dsms.operators.factory import build_operator
from repro.dsms.parser import compile_query
from repro.dsms.runtime import Gigascope
from repro.streams import TCP_SCHEMA, TraceConfig, research_center_feed
from repro.streams.records import Record
from repro.streams.schema import StreamSchema


def _records(count: int = 600):
    config = TraceConfig(duration_seconds=120, rate_scale=0.01, seed=3)
    feed = research_center_feed(config)
    return [record for _, record in zip(range(count), feed)]


QUERIES = {
    "sampling": SUBSET_SUM_QUERY.format(window=20, target=100),
    "selection": "SELECT time, srcIP, len * 2 FROM TCP WHERE len > 100 AND H(srcIP) % 2 = 0",
    "aggregation": (
        "SELECT tb, srcIP, sum(len), count(*) FROM TCP"
        " GROUP BY time/10 as tb, srcIP HAVING sum(len) > 1000"
    ),
}


def _run(kind: str, records):
    gs = Gigascope(cost_model=CostModel())
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    handle = gs.add_query(
        QUERIES[kind], name="q", low_level_aggregation=kind == "aggregation"
    )
    gs.run(records, batch_size=128)
    return handle.results, gs.cost.accounts()


@pytest.fixture
def evaluate_forbidden(monkeypatch):
    """Make every binding of ``expr.evaluate`` in the package raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("expr.evaluate ran on an operator hot path")

    original = expr_module.evaluate
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "evaluate", None) is original:
            monkeypatch.setattr(module, "evaluate", forbidden)
    monkeypatch.setattr(expr_module.EvalContext, "column", forbidden)


@pytest.mark.parametrize("kind", sorted(QUERIES))
def test_operator_hot_paths_never_evaluate(kind, evaluate_forbidden):
    rows, accounts = _run(kind, _records())
    assert rows, f"{kind} query produced no rows"
    assert accounts


def test_record_with_an_equal_schema_copy_uses_the_same_plan():
    records = _records()
    expected = _run("sampling", records)
    copy = StreamSchema(TCP_SCHEMA.name, list(TCP_SCHEMA.attributes))
    assert copy == TCP_SCHEMA and copy is not TCP_SCHEMA
    copied = [Record(copy, r.values) for r in records]
    assert _run("sampling", copied) == expected


@pytest.mark.parametrize("kind", sorted(QUERIES))
def test_record_with_reordered_columns_resolves_by_name(kind):
    """A record whose schema is not the analyzed one falls back to its
    own column positions, looked up by name."""
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    gs.use_stateful_library(subset_sum_library(relax_factor=10.0))
    plan = compile_query(QUERIES[kind], gs.registries, query_name="q")
    reordered = StreamSchema(
        TCP_SCHEMA.name, list(reversed(TCP_SCHEMA.attributes))
    )
    records = _records(300)
    flipped = [Record(reordered, tuple(reversed(r.values))) for r in records]

    def drive(batch):
        operator = build_operator(plan)
        out = []
        for record in batch:
            out.extend(operator.process(record))
        out.extend(operator.flush())
        return [r.values for r in out]

    expected = drive(records)
    assert expected
    assert drive(flipped) == expected


@pytest.mark.parametrize("gb_first", [True, False])
def test_record_plans_resolution_order(gb_first):
    """Group-by expressions read the record; later clauses read a
    shadowing group-by variable first only when ``gb_first`` (the
    aggregation order), and a derived variable from the group-by values."""
    names = ("len", "tb", "srcIP")

    def clauses(before, after):
        return [lower(ColumnRef(n), before) for n in names[::2]], [
            lower(ColumnRef(n), after) for n in names
        ]

    plans = RecordPlans(clauses, gb_index={"len": 0, "tb": 1}, gb_first=gb_first)
    before, after = plans.plan(TCP_SCHEMA)
    assert plans.plan(TCP_SCHEMA) is plans.plan(TCP_SCHEMA)
    frame = Frame(values=tuple(range(len(TCP_SCHEMA))), gb=("gb-len", "gb-tb"))
    len_at, src_at = TCP_SCHEMA.index_of("len"), TCP_SCHEMA.index_of("srcIP")
    assert [fn(frame) for fn in before] == [len_at, src_at]
    expected_len = "gb-len" if gb_first else len_at
    assert [fn(frame) for fn in after] == [expected_len, "gb-tb", src_at]


def test_aggregation_where_and_arguments_read_a_shadowing_variable():
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    handle = gs.add_query(
        "SELECT tb, len, sum(len), count(*) FROM TCP WHERE len > 0"
        " GROUP BY time/10 as tb, len/500 as len",
        name="q",
        low_level_aggregation=True,
    )
    gs.run(_records(400))
    assert handle.results
    for tb, bucket, total, count in (r.values for r in handle.results):
        assert bucket > 0 and total == bucket * count
