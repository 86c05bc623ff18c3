"""Expression AST, its operator semantics, and the lowering to closures.

The parser builds these nodes; the analyzer classifies function calls into
scalar functions, aggregates, superaggregates (``name$``-suffixed, paper
§6.3) and stateful functions (paper §6.2).

Operators never walk a tree per record.  When an operator is built, each
analyzed tree is lowered once by :func:`lower` into a plain closure over
a phase-specific environment: the sampling operator lowers the same
clauses for several phases (per-tuple GROUP BY / WHERE / aggregate
arguments, per-supergroup CLEANING WHEN, per-group CLEANING BY / HAVING /
SELECT), and each phase's :class:`Resolver` decides, before any record
arrives, where a column lives (a fixed index into ``Record.values``, the
group key, or the group-by values) and which scalar function or SFUN a
call binds to.  Per-tuple clauses read record columns by position, so
:class:`RecordPlans` lowers them once per record schema.  The analyzer
enforces clause legality, so a leaf a phase cannot see is a bug,
reported as :class:`ExecutionError` when it runs.

:data:`BINARY` and :func:`negate` are the one table of operator
semantics — int/int floor division, bool-is-not-int, zero divisors,
span-carrying operand errors — shared with the vectorized batch compiler.
:func:`evaluate` remains for one-off evaluation against an
:class:`EvalContext`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.dsms.span import Span
from repro.errors import ExecutionError


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

#: Spans are carried for diagnostics only: they never participate in node
#: equality or hashing (the analyzer dedups aggregate slots by value) and
#: default to None for programmatically built trees.
def _span_field() -> Any:
    return field(default=None, compare=False, repr=False)


class Expr:
    """Base class for all expression nodes."""

    span: Optional[Span]

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Literal(Expr):
    value: Any
    span: Optional[Span] = _span_field()

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    span: Optional[Span] = _span_field()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Star(Expr):
    """The ``*`` argument of ``count(*)`` / ``count_distinct$(*)``."""

    span: Optional[Span] = _span_field()

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # '-', 'NOT'
    operand: Expr
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # arithmetic: + - * / %   comparison: = <> < <= > >=   logic: AND OR
    left: Expr
    right: Expr
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """An unclassified call, as parsed.  The analyzer rewrites these."""

    name: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class ScalarCall(Expr):
    """A call to a registered scalar function (H, UMAX, ...)."""

    name: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class AggregateCall(Expr):
    """A group aggregate: sum(len), count(*), min(x)...

    ``slot`` is assigned by the planner: the index of this aggregate in the
    group's aggregate vector.
    """

    name: str
    args: Tuple[Expr, ...]
    slot: int = -1
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class SuperAggregateCall(Expr):
    """A supergroup aggregate, written ``name$(args)`` (paper §6.3)."""

    name: str
    args: Tuple[Expr, ...]
    slot: int = -1
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}$({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class StatefulCall(Expr):
    """A call to an SFUN sharing per-supergroup state (paper §6.2)."""

    name: str
    state_name: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = _span_field()

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


# ---------------------------------------------------------------------------
# Operator semantics (one table for the tuple closures and the batch engine)
# ---------------------------------------------------------------------------


def is_integer(value: Any) -> bool:
    """True for values that take SQL/C integer-division semantics.

    ``bool`` is excluded deliberately: it subclasses ``int`` in Python,
    but ``TRUE / 2`` floor-dividing to ``0`` is a silent wrong answer —
    booleans divide as ordinary numbers (``0.5``), matching the numpy
    batch engine, which promotes bool columns to float on division.
    """
    return isinstance(value, int) and not isinstance(value, bool)


def _python_type_name(value: Any) -> str:
    return type(value).__name__


def operand_error(
    expr: Union["UnaryOp", "BinaryOp"],
    *operands: Any,
    type_name: Callable[[Any], str] = _python_type_name,
) -> ExecutionError:
    """A mixed-type operand failure as a span-carrying ExecutionError.

    Without this, ``srcIP > 100`` on a string column escapes as a raw
    ``TypeError`` traceback from deep inside the operator instead of a
    diagnostic that names the expression and its source position.
    ``type_name`` lets the batch engine name array operands.
    """
    names = " and ".join(type_name(value) for value in operands)
    plural = "s" if len(operands) > 1 else ""
    return ExecutionError(
        f"cannot evaluate {expr}: unsupported operand type{plural} for"
        f" {expr.op!r} ({names})",
        span=expr.span,
    )


#: Zero-divisor error text (two ints: ``integer division by zero``).
ZERO_DIVISOR = {"/": "division by zero", "%": "modulo by zero"}


def _divide(a: Any, b: Any) -> Any:
    # Two ints floor-divide (``time/60`` must bucket, not produce floats).
    integer = is_integer(a) and is_integer(b)
    if b == 0:
        raise ZeroDivisionError(("integer " if integer else "") + ZERO_DIVISOR["/"])
    return a // b if integer else a / b


def _modulo(a: Any, b: Any) -> Any:
    if b == 0:
        raise ZeroDivisionError(ZERO_DIVISOR["%"])
    return a % b


#: ``op -> fn(left, right)``: the scalar semantics of every non-logical
#: binary operator.  Those other than ``/`` and ``%`` are Python's own;
#: a TypeError means mixed operand types (``=``/``<>`` never raise one:
#: mismatched types compare unequal) and a ZeroDivisionError carries the
#: zero-divisor message.  :func:`binary` turns both into span-carrying
#: ExecutionErrors.  AND/OR short-circuit on the tuple path and are
#: lowered separately.
BINARY: dict = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "/": _divide,
    "%": _modulo,
}


def negate(value: Any, expr: UnaryOp) -> Any:
    """Unary minus, with a span-carrying error for non-numbers."""
    try:
        return -value
    except TypeError:
        raise operand_error(expr, value) from None


# ---------------------------------------------------------------------------
# Lowering: expression trees to closures, once per operator
# ---------------------------------------------------------------------------

#: A lowered expression: ``closure(env) -> value``.  What ``env`` is
#: depends on the phase (a record frame, a group frame, an EvalContext);
#: only the leaf closures a :class:`Resolver` builds ever look at it.
Closure = Callable[[Any], Any]


def _constant(value: Any) -> Closure:
    return lambda env: value


#: The argument of an argument-less aggregate (``count()``).
ONE = _constant(1)


class Frame:
    """The environment operators hand their lowered closures.

    One frame per operator phase, refilled for every record or group;
    a phase's resolver reads only the slots its operator fills.
    """

    __slots__ = (
        "values", "record", "gb", "key", "aggregates", "group", "supergroup",
        "states",
    )

    def __init__(self, **slots: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, slots.get(name))


def fail(message: str, args: Sequence[Closure] = ()) -> Closure:
    """A closure that evaluates ``args`` and then raises ``message``."""

    def raises(env: Any) -> Any:
        for arg in args:
            arg(env)
        raise ExecutionError(message)

    return raises


def _bind_call(
    fn: Callable[..., Any], args: Sequence[Closure], charge: Callable[[], None]
) -> Closure:
    """``fn(*args)`` over lowered arguments, charging between argument
    evaluation and the call (the order the cost model has always used)."""

    def call(env: Any) -> Any:
        values = [arg(env) for arg in args]
        charge()
        return fn(*values)

    return call


class Resolver:
    """Binds one evaluation phase's leaf nodes to closures.

    :func:`lower` compiles literals and operators itself and asks the
    resolver for every node whose value comes from outside the tree:

    * ``columns(name)`` returns the closure reading a column in this
      phase (the phase decides: a fixed index into ``Record.values``, the
      group key, the group-by values);
    * scalar functions and SFUNs resolve against ``scalars`` /
      ``stateful`` once, and charge ``function_call`` / ``sfun_call`` to
      ``account`` each time they run; ``states(env)`` is the SFUN state
      set the call runs against;
    * ``aggregates(env)`` / ``superaggregates(env)`` are the group's
      aggregate vector and the supergroup's superaggregate vector.

    Leaves a phase cannot see lower to closures that raise
    :class:`ExecutionError` when run: the analyzer enforces clause
    legality, so reaching one is a bug, reported where it happens.
    """

    def __init__(
        self,
        columns: Optional[Callable[[str], Closure]] = None,
        scalars: Any = None,
        stateful: Any = None,
        cost: Any = None,
        account: str = "",
        states: Optional[Closure] = None,
        aggregates: Optional[Closure] = None,
        superaggregates: Optional[Closure] = None,
    ) -> None:
        self._columns = columns
        self._scalars = scalars
        self._stateful = stateful
        self._cost = cost
        self._account = account
        self._states = states
        self._aggregates = aggregates
        self._superaggregates = superaggregates

    def _charger(self, operation: str) -> Callable[[], None]:
        if self._cost is None:
            return lambda: None
        return partial(self._cost.charge, self._account, operation)

    def column(self, node: ColumnRef) -> Closure:
        if self._columns is None:
            return fail(f"column {node.name!r} not available in this context")
        return self._columns(node.name)

    def scalar(self, node: ScalarCall, args: Sequence[Closure]) -> Closure:
        if self._scalars is None:
            return fail(
                f"scalar function {node.name!r} not available in this context", args
            )
        return _bind_call(
            self._scalars.get(node.name), args, self._charger("function_call")
        )

    def stateful(self, node: StatefulCall, args: Sequence[Closure]) -> Closure:
        if self._stateful is None or self._states is None:
            return fail(
                f"stateful function {node.name!r} not available in this context",
                args,
            )
        return _bind_call(
            self._stateful.bind(node.name),
            (self._states, *args),
            self._charger("sfun_call"),
        )

    def aggregate(self, node: AggregateCall) -> Closure:
        vector = self._aggregates
        if vector is None:
            return fail(f"aggregate {node.name!r} not available in this context")
        slot = node.slot
        return lambda env: vector(env)[slot].value()

    def superaggregate(self, node: SuperAggregateCall) -> Closure:
        vector = self._superaggregates
        if vector is None:
            return fail(
                f"superaggregate {node.name}$ not available in this context"
            )
        slot = node.slot
        return lambda env: vector(env)[slot].value()


def group_by_columns(
    gb_index: Dict[str, int], values: Closure
) -> Callable[[str], Closure]:
    """Columns of a phase that sees only the group-by variables, whose
    values ``values(env)`` returns (the tuple's, or a group's key)."""

    def column(name: str) -> Closure:
        j = gb_index.get(name)
        if j is None:
            return fail(f"column {name!r} is not a group-by variable")
        return lambda env: values(env)[j]

    return column


class RecordPlans:
    """An operator's per-tuple clauses, lowered once per record schema.

    Per-tuple clauses read a record's columns by position, fixed when
    they are lowered.  Records normally carry the analyzed schema
    object; one that carries another (an equal copy unpickled in a
    worker, or one with its columns in another order) gets the clauses
    lowered against its own columns, and each schema is lowered once.

    ``lower_clauses(before, after)`` is the operator's lowering of its
    clauses: ``before`` resolves the group-by expressions themselves,
    which run before any group-by value exists, ``after`` every clause
    that runs once the frame's ``gb`` holds them.  A name that is both a
    record column and a group-by variable reads the group-by value when
    ``gb_first`` (the aggregation operator), else the record's column
    (the sampling operator: for a plain-column variable the two agree).
    A name the record lacks is looked up on the record, which raises
    :class:`~repro.errors.SchemaError`.
    """

    def __init__(
        self,
        lower_clauses: Callable[[Resolver, Resolver], Any],
        gb_index: Optional[Dict[str, int]] = None,
        gb_first: bool = False,
        **calls: Any,
    ) -> None:
        self._lower_clauses = lower_clauses
        self._gb_index = gb_index or {}
        self._gb_first = gb_first
        self._calls = calls
        self._plans: Dict[Any, Any] = {}

    def plan(self, schema: Any) -> Any:
        """The clauses lowered for records of ``schema``."""
        plan = self._plans.get(schema)
        if plan is None:
            plan = self._plans[schema] = self._lower_clauses(
                Resolver(columns=partial(self._column, schema, False), **self._calls),
                Resolver(columns=partial(self._column, schema, True), **self._calls),
            )
        return plan

    def _column(self, schema: Any, gb_ready: bool, name: str) -> Closure:
        j = self._gb_index.get(name) if gb_ready else None
        if j is not None and self._gb_first:
            return lambda env: env.gb[j]
        if name in schema:
            i = schema.index_of(name)
            return lambda env: env.values[i]
        if j is not None:
            return lambda env: env.gb[j]
        return lambda env: env.record[name]


def lower_optional(expr: Optional[Expr], resolver: Resolver) -> Optional[Closure]:
    """:func:`lower` for an optional clause (``None`` stays ``None``)."""
    return lower(expr, resolver) if expr is not None else None


def lower(expr: Expr, resolver: Resolver) -> Closure:
    """Compile ``expr`` into one closure, resolving its leaves once.

    The closure applies :data:`BINARY` / :func:`negate` semantics; AND/OR
    short-circuit.  Errors (zero divisors, mixed operand types, leaves
    the phase cannot see) are raised when the closure runs, never at
    lowering time, so a branch that short-circuits away cannot fail.
    """
    if isinstance(expr, Literal):
        return _constant(expr.value)
    if isinstance(expr, ColumnRef):
        return resolver.column(expr)
    if isinstance(expr, Star):
        return ONE  # count(*) counts rows; the argument is irrelevant
    if isinstance(expr, UnaryOp):
        return _lower_unary(expr, lower(expr.operand, resolver))
    if isinstance(expr, BinaryOp):
        return _lower_binary(
            expr, lower(expr.left, resolver), lower(expr.right, resolver)
        )
    if isinstance(expr, ScalarCall):
        return resolver.scalar(expr, [lower(a, resolver) for a in expr.args])
    if isinstance(expr, AggregateCall):
        return resolver.aggregate(expr)
    if isinstance(expr, SuperAggregateCall):
        return resolver.superaggregate(expr)
    if isinstance(expr, StatefulCall):
        return resolver.stateful(expr, [lower(a, resolver) for a in expr.args])
    if isinstance(expr, FunctionCall):
        return fail(
            f"unclassified function call {expr.name!r} reached evaluation;"
            " run the analyzer before executing"
        )
    return fail(f"unknown expression node {type(expr).__name__}")


def _lower_unary(expr: UnaryOp, operand: Closure) -> Closure:
    if expr.op == "-":
        return lambda env: negate(operand(env), expr)
    if expr.op == "NOT":
        return lambda env: not operand(env)
    return fail(f"unknown unary operator {expr.op!r}", (operand,))


def _lower_binary(expr: BinaryOp, left: Closure, right: Closure) -> Closure:
    op = expr.op
    if op == "AND":
        return lambda env: bool(left(env)) and bool(right(env))
    if op == "OR":
        return lambda env: bool(left(env)) or bool(right(env))
    if op not in BINARY:
        return fail(f"unknown binary operator {op!r}", (left, right))
    return binary(expr, left, right)


def binary(expr: BinaryOp, left: Closure, right: Closure) -> Closure:
    """The closure applying :data:`BINARY`'s ``expr.op`` to two operands.

    A mixed-operand TypeError or a zero divisor is re-raised as an
    :class:`ExecutionError` carrying ``expr``'s span.  The batch engine's
    element-wise fallback runs the same closure over value pairs
    (:data:`PAIR`).
    """
    fn = BINARY[expr.op]

    def apply(env: Any) -> Any:
        a = left(env)
        b = right(env)
        try:
            return fn(a, b)
        except TypeError:
            raise operand_error(expr, a, b) from None
        except ZeroDivisionError as exc:
            raise ExecutionError(str(exc), span=expr.span) from None

    return apply


#: Operand closures over a ``(left, right)`` pair of values, for
#: applying :func:`binary` to values that are already computed.
PAIR = (operator.itemgetter(0), operator.itemgetter(1))


# ---------------------------------------------------------------------------
# EvalContext: one-off evaluation through overridable hooks
# ---------------------------------------------------------------------------


class EvalContext:
    """Resolution hooks for one-off :func:`evaluate` calls.

    Operators do not use this: they lower each tree once against a
    :class:`Resolver`.  Subclasses override the hooks relevant to their
    use; the defaults raise, which surfaces gaps as explicit errors
    instead of silent Nones.
    """

    def column(self, name: str) -> Any:
        raise ExecutionError(f"column {name!r} not available in this context")

    def call_scalar(self, name: str, args: Sequence[Any]) -> Any:
        raise ExecutionError(f"scalar function {name!r} not available in this context")

    def aggregate_value(self, node: AggregateCall) -> Any:
        raise ExecutionError(f"aggregate {node.name!r} not available in this context")

    def superaggregate_value(self, node: SuperAggregateCall) -> Any:
        raise ExecutionError(
            f"superaggregate {node.name}$ not available in this context"
        )

    def call_stateful(self, node: StatefulCall, args: Sequence[Any]) -> Any:
        raise ExecutionError(
            f"stateful function {node.name!r} not available in this context"
        )


class _HookResolver(Resolver):
    """Binds every leaf to the :class:`EvalContext` hook that serves it."""

    def column(self, node: ColumnRef) -> Closure:
        name = node.name
        return lambda ctx: ctx.column(name)

    def scalar(self, node: ScalarCall, args: Sequence[Closure]) -> Closure:
        name = node.name
        return lambda ctx: ctx.call_scalar(name, [a(ctx) for a in args])

    def stateful(self, node: StatefulCall, args: Sequence[Closure]) -> Closure:
        return lambda ctx: ctx.call_stateful(node, [a(ctx) for a in args])

    def aggregate(self, node: AggregateCall) -> Closure:
        return lambda ctx: ctx.aggregate_value(node)

    def superaggregate(self, node: SuperAggregateCall) -> Closure:
        return lambda ctx: ctx.superaggregate_value(node)


_HOOKS = _HookResolver()


def evaluate(expr: Expr, ctx: EvalContext) -> Any:
    """Evaluate ``expr`` once against ``ctx``'s hooks.

    A thin wrapper over :func:`lower` for one-off evaluation (tests,
    reference checks); hot paths lower once and call the closure.
    """
    return lower(expr, _HOOKS)(ctx)


# ---------------------------------------------------------------------------
# Tree utilities (used by the analyzer / planner)
# ---------------------------------------------------------------------------


def find_nodes(expr: Expr, node_type: type) -> List[Expr]:
    """All descendants of ``expr`` (inclusive) of the given node type."""
    return [node for node in expr.walk() if isinstance(node, node_type)]


def contains_node(expr: Expr, node_type: type) -> bool:
    return any(isinstance(node, node_type) for node in expr.walk())


def column_names(expr: Expr) -> List[str]:
    """Names of all column references in the tree, in encounter order."""
    return [node.name for node in expr.walk() if isinstance(node, ColumnRef)]


def free_column_names(expr: Expr) -> List[str]:
    """Column references *not* enclosed in an aggregate call.

    Aggregate arguments (``sum(len)``) are evaluated per tuple at update
    time, so the columns inside them are bound to the input stream rather
    than the clause's own context; clause-legality checks must skip them.
    """
    names: List[str] = []

    def visit(node: Expr) -> None:
        if isinstance(node, AggregateCall):
            return
        if isinstance(node, ColumnRef):
            names.append(node.name)
        for child in node.children():
            visit(child)

    visit(expr)
    return names


def rewrite(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Bottom-up rewrite: ``fn`` may return a replacement node or ``None``.

    Children are rewritten first, then ``fn`` is offered the (possibly
    rebuilt) node.  Dataclass frozen-ness means rebuilds create new nodes.
    """
    if isinstance(expr, UnaryOp):
        rebuilt: Expr = UnaryOp(expr.op, rewrite(expr.operand, fn), span=expr.span)
    elif isinstance(expr, BinaryOp):
        rebuilt = BinaryOp(
            expr.op, rewrite(expr.left, fn), rewrite(expr.right, fn), span=expr.span
        )
    elif isinstance(expr, FunctionCall):
        rebuilt = FunctionCall(
            expr.name, tuple(rewrite(a, fn) for a in expr.args), span=expr.span
        )
    elif isinstance(expr, ScalarCall):
        rebuilt = ScalarCall(
            expr.name, tuple(rewrite(a, fn) for a in expr.args), span=expr.span
        )
    elif isinstance(expr, AggregateCall):
        rebuilt = AggregateCall(
            expr.name, tuple(rewrite(a, fn) for a in expr.args), expr.slot,
            span=expr.span,
        )
    elif isinstance(expr, SuperAggregateCall):
        rebuilt = SuperAggregateCall(
            expr.name, tuple(rewrite(a, fn) for a in expr.args), expr.slot,
            span=expr.span,
        )
    elif isinstance(expr, StatefulCall):
        rebuilt = StatefulCall(
            expr.name, expr.state_name, tuple(rewrite(a, fn) for a in expr.args),
            span=expr.span,
        )
    else:
        rebuilt = expr
    replacement = fn(rebuilt)
    return replacement if replacement is not None else rebuilt
