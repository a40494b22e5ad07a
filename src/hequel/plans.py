"""Query plans: a small relational-algebra AST with a typechecker, an
encrypted evaluator, and a wire form.

Plan structure, operator choice, and column names are public; only literal
values inside predicates are sensitive, and those are replaced by
ciphertexts before a plan leaves the client (``encrypt_plan_literals``).
The wire form has no plaintext literal: encoding a plan that still holds
a ``Lit`` raises ``PlanTypeError``, and decoding a ``lit`` node raises
``ProtocolError``.

Two tables, ``PLAN_NODES`` and ``PRED_NODES`` (``NODES`` is their
union), give each node class its wire tag, typing rule and encrypted
evaluator. The walkers here and the text form in ``dsl`` are generic over
the dataclass fields, declared in wire order: ``child``/``left``/``right``
hold sub-nodes of the node's own family, ``pred`` a predicate, the rest
are leaves. A plan walks its catalog or table map, a predicate the
selected table's schema. An operand's type is its width (None for a
plaintext ``Lit``), any other predicate's is ``TRUTH``; a predicate
compiles, once per select, to a function from one row to its encrypted
bit. Adding a node means adding its dataclass plus one entry in its
family's table; the plaintext oracle gets its own branch by design, so
that it stays an independent check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

from hequel import relalg, serial
from hequel.circuits import DEFAULT_WIDTH, encrypt_word
from hequel.errors import (PlanTypeError, ProtocolError, SchemaMismatch,
                           UnknownTable)
from hequel.kernel import and_, bit_or, fresh_bit, not_
from hequel.relalg import And, Cmp, ColRef, EncLit, EncTable, Lit, Not, Or
from hequel.schema import Schema

CMP_OPS = tuple(relalg.CMP_CIRCUITS)
CHILD_FIELDS = ("child", "left", "right")


@dataclass(frozen=True)
class TableRef:
    name: str


@dataclass(frozen=True)
class Select:
    pred: object
    child: object


@dataclass(frozen=True)
class Project:
    cols: tuple[str, ...]
    child: object


@dataclass(frozen=True)
class Cross:
    left: object
    right: object


@dataclass(frozen=True)
class Distinct:
    child: object


@dataclass(frozen=True)
class Sort:
    col: str
    ascending: bool
    child: object


@dataclass(frozen=True)
class GroupBySum:
    keys: tuple[str, ...]
    sum_col: str
    child: object


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class Intersect:
    left: object
    right: object


@dataclass(frozen=True)
class Diff:
    left: object
    right: object


@dataclass(frozen=True)
class Count:
    child: object


@dataclass(frozen=True)
class Sum:
    col: str
    child: object


@dataclass(frozen=True)
class Min:
    col: str
    child: object


@dataclass(frozen=True)
class Max:
    col: str
    child: object


@dataclass(frozen=True)
class Avg:
    col: str
    child: object


class Node(NamedTuple):
    """A ``NODES`` entry. Rules take the node, then its own family's child
    results in field order; a leaf gets the walk's env instead."""
    tag: str | None
    schema: Callable | None = None    # -> Schema, or a predicate's type
    evaluate: Callable | None = None  # -> EncTable, or a function of a row


# --- typing rules -----------------------------------------------------------

def _lookup(node, env: dict):
    if node.name not in env:
        raise UnknownTable(f"no table {node.name!r}")
    return env[node.name]


# a predicate that yields one bit; an operand's type is its width instead
TRUTH = "truth"


def _cmp_type(node: Cmp, left, right) -> str:
    if node.op not in CMP_OPS:
        raise PlanTypeError(f"unknown comparison operator {node.op!r}")
    if TRUTH in (left, right):
        raise PlanTypeError(f"comparison of a truth value in {node!r}")
    if left is None and right is None:
        raise PlanTypeError("comparison needs at least one column")
    if None not in (left, right) and left != right:
        raise PlanTypeError(f"comparison mixes widths {left} and {right}")
    return TRUTH


def _truth(node, *types) -> str:
    """And, Or, Not and a select's predicate take truth values only."""
    if any(t != TRUTH for t in types):
        raise PlanTypeError(f"{node!r} takes truth values only")
    return TRUTH


def _select_schema(node: Select, schema: Schema) -> Schema:
    _truth(node, typecheck(node.pred, schema))
    return schema


def _sort_schema(node: Sort, schema: Schema) -> Schema:
    schema.index_of(node.col)
    return schema


def _groupby_schema(node: GroupBySum, schema: Schema) -> Schema:
    keys = schema.project(node.keys)
    width = schema.width_of(node.sum_col)
    return Schema(keys.columns + ((f"sum_{node.sum_col}", width),))


def _setop_schema(node, left: Schema, right: Schema) -> Schema:
    if left != right:
        raise SchemaMismatch(
            f"set operation schemas differ: {left.columns} vs {right.columns}")
    return left


# --- evaluators -------------------------------------------------------------
# ``relalg`` operators are looked up at call time, so that a wrapper put on
# a ``relalg`` attribute sees every call.

def _wrap_scalar(word, name: str, state) -> EncTable:
    """Present a scalar aggregate as a 1-row table so it flows through the
    result-return protocol like any other result."""
    epoch = max(b.epoch for b in word.bits)
    presence = fresh_bit(state, 1, epoch)
    schema = Schema(((name, word.width),))
    return EncTable("", schema, (relalg.EncRow((word,), presence),), state)


def _cell(node: ColRef, schema: Schema):
    i = schema.index_of(node.name)
    return lambda row: row.cells[i]


def _compare(node: Cmp, left, right):
    circuit = relalg.CMP_CIRCUITS[node.op]
    return lambda row: circuit(left(row), right(row))


def _aggregate(tag: str) -> Node:
    """Entry of a one-column aggregate: ``relalg.op_<tag>`` over ``col``,
    returned as the column ``<tag>_<col>``."""
    return Node(
        tag,
        lambda n, s: Schema(((f"{tag}_{n.col}", s.width_of(n.col)),)),
        lambda n, t: _wrap_scalar(getattr(relalg, f"op_{tag}")(n.col, t),
                                  f"{tag}_{n.col}", t.state))


PLAN_NODES = {
    TableRef: Node("table", _lookup, _lookup),
    Select: Node("select", _select_schema, lambda n, t: relalg.op_select(
        eval_encrypted(n.pred, t.schema), t)),
    Project: Node("project", lambda n, s: s.project(n.cols),
                  lambda n, t: relalg.op_project(n.cols, t)),
    Cross: Node("cross", lambda n, l, r: Schema(l.columns + r.columns),
                lambda n, l, r: relalg.op_cross(l, r)),
    Distinct: Node("distinct", lambda n, s: s,
                   lambda n, t: relalg.op_distinct(t)),
    Sort: Node("sort", _sort_schema,
               lambda n, t: relalg.op_sort(n.col, n.ascending, t)),
    GroupBySum: Node("groupby_sum", _groupby_schema,
                     lambda n, t: relalg.op_groupby_sum(n.keys, n.sum_col, t)),
    Union: Node("union", _setop_schema,
                lambda n, l, r: relalg.op_bag_union(l, r)),
    Intersect: Node("intersect", _setop_schema,
                    lambda n, l, r: relalg.op_bag_intersect(l, r)),
    Diff: Node("diff", _setop_schema,
               lambda n, l, r: relalg.op_bag_diff(l, r)),
    Count: Node("count", lambda n, s: Schema((("count", DEFAULT_WIDTH),)),
                lambda n, t: _wrap_scalar(relalg.op_count(t), "count", t.state)),
    Sum: _aggregate("sum"),
    Min: _aggregate("min"),
    Max: _aggregate("max"),
    Avg: _aggregate("avg"),
}
PRED_NODES = {
    Cmp: Node("cmp", _cmp_type, _compare),
    ColRef: Node("col", lambda n, s: s.width_of(n.name), _cell),
    EncLit: Node("enclit", lambda n, s: n.word.width,
                 lambda n, s: lambda row: n.word),
    And: Node("and", _truth,
              lambda n, l, r: lambda row: and_(l(row), r(row))),
    Or: Node("or", _truth,
             lambda n, l, r: lambda row: bit_or(l(row), r(row))),
    Not: Node("not", _truth, lambda n, c: lambda row: not_(c(row))),
    # a plaintext Lit is typed only: with no tag and no evaluator, neither
    # the wire form nor the server holds a query constant in clear
    Lit: Node(None, lambda n, s: None),
}
NODES = PLAN_NODES | PRED_NODES
_BY_TAG = {node.tag: cls for cls, node in NODES.items() if node.tag}


@functools.cache
def node_fields(cls) -> tuple[tuple[str, str], ...]:
    """``(name, kind)`` per field of a node class, in wire and text order.
    The kind is ``"plan"`` for a sub-plan, ``"pred"`` for a predicate
    (``pred`` and the children of predicate nodes), else the annotation."""
    child = "plan" if cls in PLAN_NODES else "pred"
    return tuple((f.name, "pred" if f.name == "pred" else
                  child if f.name in CHILD_FIELDS else f.type)
                 for f in fields(cls))


def _rule(node, plan: bool, role: str):
    """The ``role`` field of ``node``'s entry in the table of its family,
    ``PLAN_NODES`` or ``PRED_NODES``. A node of the other family, or one
    without that rule, raises ``PlanTypeError``."""
    kind = (PLAN_NODES if plan else PRED_NODES).get(type(node))
    rule = getattr(kind, role) if kind else None
    if rule is None:
        what = "plan" if plan else "predicate"
        raise PlanTypeError(f"bad {what} node {node!r}")
    return rule


def _inputs(node, env, walk) -> list:
    """``walk`` of each child of the node's own family in field order, or
    ``[env]`` for a leaf."""
    return [walk(getattr(node, name), env)
            for name, _ in node_fields(type(node))
            if name in CHILD_FIELDS] or [env]


# --- walkers ----------------------------------------------------------------
# Each recurses through its module-level name, so that a wrapper put on
# ``plans.<walker>`` sees nested calls too.

def typecheck(node, env):
    """Type a plan against its catalog of table schemas, returning its
    result schema, or a predicate against the selected table's schema."""
    rule = _rule(node, not isinstance(env, Schema), "schema")
    return rule(node, *_inputs(node, env, typecheck))


def encrypt_plan_literals(node, env, pk):
    """Rewrite every plaintext literal in a plan (or predicate, see
    ``typecheck``) to a ciphertext under ``pk``; the shape stays public.
    Literals are encrypted in field order, so a predicate's come before its
    child's, and a ``Lit`` takes the width of its comparison's other side."""
    plan = not isinstance(env, Schema)
    _rule(node, plan, "schema")
    changes = {}
    for name, kind in node_fields(type(node)):
        value = getattr(node, name)
        if kind == "plan":
            changes[name] = encrypt_plan_literals(value, env, pk)
        elif type(value) is Lit and not plan:
            typecheck(node, env)  # so the Lit is one side of a comparison
            width = typecheck(node.right if name == "left" else node.left, env)
            changes[name] = EncLit(encrypt_word(pk, value.value, width))
        elif kind == "pred":
            scope = typecheck(node.child, env) if plan else env
            changes[name] = encrypt_plan_literals(value, scope, pk)
    return replace(node, **changes) if changes else node


def eval_encrypted(node, env):
    """Evaluate a plan over its encrypted tables, left child before right;
    aggregates come back as one-row tables with an always-present row. A
    predicate, given the selected table's schema, compiles to a function
    from one row to its encrypted bit."""
    rule = _rule(node, not isinstance(env, Schema), "evaluate")
    return rule(node, *_inputs(node, env, eval_encrypted))


# --- wire form --------------------------------------------------------------
#
# A node is ``{"node": tag, <field>: <value>, ...}`` in field order; tuples
# travel as lists and ciphertext words in ``serial``'s word form.

def plan_to_obj(plan, ladder) -> dict:
    return _to_obj(plan, ladder, True)


def _to_obj(node, ladder, plan: bool) -> dict:
    obj = {"node": _rule(node, plan, "tag")}
    for name, kind in node_fields(type(node)):
        value = getattr(node, name)
        if kind == "plan":
            value = plan_to_obj(value, ladder)
        elif kind == "pred":
            value = _to_obj(value, ladder, False)
        elif kind == "CipherWord":
            value = serial.word_to_obj(ladder, value)
        elif kind == "tuple[str, ...]":
            value = list(value)
        obj[name] = value
    return obj


# the JSON type of each leaf annotation
_WIRE_TYPES = {"str": str, "bool": bool, "tuple[str, ...]": list,
               "CipherWord": dict}


# the plan walkers recurse once per node, so a deeper wire plan would
# exhaust the interpreter's stack; it is refused before any walk
MAX_PLAN_DEPTH = 100


def plan_from_obj(obj, ladder, depth: int = 0):
    """Decode a wire plan; any malformed node, or nesting of plan and
    predicate nodes deeper than ``MAX_PLAN_DEPTH``, raises
    ``ProtocolError``. ``depth`` is the nesting above ``obj``."""
    return _from_obj(obj, ladder, True, depth)


def _from_obj(obj, ladder, plan: bool, depth: int):
    what = "plan" if plan else "predicate"
    if depth > MAX_PLAN_DEPTH:
        raise ProtocolError(f"plan nested deeper than {MAX_PLAN_DEPTH} nodes")
    if not isinstance(obj, dict):
        raise ProtocolError(f"{what} node is a {type(obj).__name__}, not an object")
    tag = obj.get("node")
    cls = _BY_TAG.get(tag) if isinstance(tag, str) else None
    if cls is None or (cls in PLAN_NODES) != plan:
        raise ProtocolError(f"bad {what} tag {tag!r}")
    spec = node_fields(cls)
    if len(obj) != len(spec) + 1 or not all(name in obj for name, _ in spec):
        raise ProtocolError(
            f"{tag!r} node wants keys {[name for name, _ in spec]}, "
            f"got {list(obj)}")
    args = []
    for name, kind in spec:
        value = obj[name]
        if kind == "plan":
            value = plan_from_obj(value, ladder, depth + 1)
        elif kind == "pred":
            value = _from_obj(value, ladder, False, depth + 1)
        elif type(value) is not _WIRE_TYPES[kind] or (
                kind == "tuple[str, ...]" and {type(x) for x in value} - {str}):
            raise ProtocolError(f"{tag!r} field {name!r} is not {kind}")
        elif kind == "CipherWord":
            value = serial.word_from_obj(ladder, value)
        elif kind == "tuple[str, ...]":
            value = tuple(value)
        args.append(value)
    return cls(*args)
