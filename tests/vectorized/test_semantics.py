"""One semantics table, two backends: scalar closures vs numpy closures.

Hypothesis generates expression trees over int, float, bool and string
columns and literals — zero divisors, mixed-type operands, ``=``/``<>``
across types, nested AND/OR/NOT and unary minus — and evaluates each on
every generated row twice: through the tuple path's lowered closure
(``repro.dsms.expr.lower``) and through the batch compiler's closure
over a one-row :class:`RecordBatch`.  Both must produce the same value,
or raise :class:`ExecutionError` with the same message and span.

The one divergence allowed is the documented one (DESIGN.md §11): AND/OR
do not short-circuit on the batch path, so a right operand that raises
on a row the tuple path short-circuits past raises there.  The test
excludes exactly that case, by checking that a skipped right operand
raises on its own.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsms.expr import BinaryOp, ColumnRef, Expr, Literal, Resolver, UnaryOp, lower
from repro.dsms.functions import default_function_registry
from repro.dsms.span import Span
from repro.dsms.vectorized import RecordBatch
from repro.dsms.vectorized.compiler import BatchCompiler, as_column, make_env
from repro.errors import ExecutionError
from repro.streams.records import Record
from repro.streams.schema import Attribute, StreamSchema

SCHEMA = StreamSchema(
    "SEM",
    [
        Attribute("i", "int"),
        Attribute("f", "float"),
        Attribute("b", "bool"),
        Attribute("s", "str"),
    ],
)

#: Small magnitudes: a tree has at most 8 leaves, so int results stay
#: far inside int64 (intermediate int64 overflow is a separate,
#: documented divergence) and floats stay finite.
_ints = st.integers(min_value=-20, max_value=20)
_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
_strings = st.text(alphabet="ab", max_size=3)
_rows = st.tuples(_ints, _floats, st.booleans(), _strings)

_SPANS = st.builds(Span, st.integers(1, 3), st.integers(1, 40), st.integers(1, 5))
_leaves = st.one_of(
    st.sampled_from([ColumnRef(name) for name in SCHEMA.names]),
    st.builds(Literal, st.one_of(_ints, _floats, st.booleans(), _strings)),
    st.sampled_from([Literal(0), Literal(0.0), Literal(False)]),  # zero divisors
)
_BINARY = ["+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"]


def _extend(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(_BINARY), children, children, span=_SPANS),
        st.builds(UnaryOp, st.sampled_from(["-", "NOT"]), children, span=_SPANS),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=8)

_RESOLVER = Resolver(
    columns=lambda name: (lambda values, i=SCHEMA.index_of(name): values[i])
)
_COMPILER = BatchCompiler(default_function_registry())


def _outcome(fn: Any, arg: Any) -> Tuple[str, Any]:
    try:
        return ("value", fn(arg))
    except ExecutionError as exc:
        return ("error", (str(exc), exc.span))


def _scalar(expr: Expr, row: tuple) -> Tuple[str, Any]:
    return _outcome(lower(expr, _RESOLVER), row)


def _batch(expr: Expr, row: tuple) -> Tuple[str, Any]:
    batch = RecordBatch.from_records(SCHEMA, [Record(SCHEMA, row)])
    kind, value = _outcome(_COMPILER.compile(expr), make_env(batch))
    if kind == "value":
        value = as_column(value, 1)[0]
        if isinstance(value, np.generic):
            value = value.item()
    return kind, value


def _short_circuited_error(expr: Expr, row: tuple) -> bool:
    """Whether the tuple path skipped a raising AND/OR right operand."""
    for node in expr.walk():
        if isinstance(node, BinaryOp) and node.op in ("AND", "OR"):
            kind, left = _scalar(node.left, row)
            skipped = kind == "value" and bool(left) == (node.op == "OR")
            if skipped and _scalar(node.right, row)[0] == "error":
                return True
    return False


def _same_value(a: Any, b: Any) -> bool:
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, str) or isinstance(b, str):
        return type(a) is type(b) and a == b
    return bool(a == b)


def _disagreement(expr: Expr, rows: List[tuple]) -> Optional[str]:
    for row in rows:
        scalar, batch = _scalar(expr, row), _batch(expr, row)
        if scalar[0] == "value" and batch[0] == "error":
            if _short_circuited_error(expr, row):
                continue  # DESIGN.md §11: AND/OR never short-circuit in batches
        if scalar[0] != batch[0]:
            return f"{expr} on {row}: scalar {scalar} vs batch {batch}"
        if scalar[0] == "error" and scalar[1] != batch[1]:
            return f"{expr} on {row}: scalar {scalar} vs batch {batch}"
        if scalar[0] == "value" and not _same_value(scalar[1], batch[1]):
            return f"{expr} on {row}: scalar {scalar} vs batch {batch}"
    return None


@settings(max_examples=400, deadline=None)
@given(_trees, st.lists(_rows, min_size=1, max_size=4))
def test_scalar_and_batch_closures_agree(expr, rows):
    assert _disagreement(expr, rows) is None


def test_short_circuit_is_the_only_exclusion():
    # The excluded case really diverges: the tuple path short-circuits,
    # the batch path evaluates the raising right operand.
    expr = BinaryOp(
        "AND",
        BinaryOp("<", ColumnRef("i"), Literal(0)),
        BinaryOp("/", Literal(1), Literal(0)),
    )
    row = (5, 0.0, False, "a")
    assert _scalar(expr, row) == ("value", False)
    assert _batch(expr, row)[0] == "error"
    assert _short_circuited_error(expr, row)
    # ...and a raising left operand is not excused.
    assert not _short_circuited_error(
        BinaryOp("AND", BinaryOp("/", Literal(1), Literal(0)), Literal(True)), row
    )


def test_modulo_by_zero_is_a_span_carrying_error_on_both_paths():
    expr = BinaryOp("%", ColumnRef("i"), Literal(0), span=Span(1, 8, 1))
    for outcome in (_scalar(expr, (7, 0.0, False, "")), _batch(expr, (7, 0.0, False, ""))):
        assert outcome == ("error", ("modulo by zero (at line 1, col 8)", Span(1, 8, 1)))
