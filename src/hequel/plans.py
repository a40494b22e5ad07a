"""Query plans: a small relational-algebra AST with a typechecker, an
encrypted evaluator, and a wire form.

Plan structure, operator choice, and column names are public; only literal
values inside predicates are sensitive, and those are replaced by
ciphertexts before a plan leaves the client (``encrypt_plan_literals``).
The wire form has no plaintext literal: encoding a plan that still holds
a ``Lit`` raises ``PlanTypeError``, and decoding a ``lit`` node raises
``ProtocolError``.

One table, ``NODES``, gives each node class its wire tag and, for plan
nodes, its typing rule and encrypted evaluator. The walkers here and the
text form in ``dsl`` are generic over the dataclass fields, declared in
wire order: ``child``/``left``/``right`` hold sub-nodes, ``pred`` a
predicate, the rest are leaves. Adding a plan node means adding its
dataclass plus one ``NODES`` entry; the plaintext oracle gets its own
branch by design, so that it stays an independent check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

from hequel import relalg, serial
from hequel.circuits import DEFAULT_WIDTH, encrypt_word
from hequel.errors import (PlanTypeError, ProtocolError, SchemaMismatch,
                           UnknownTable)
from hequel.kernel import fresh_bit
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
    """A ``NODES`` entry. Rules take the node, then its child results in
    field order; a leaf gets the catalog (or the table map) instead."""
    tag: str
    schema: Callable | None = None    # (node, *child schemas) -> Schema
    evaluate: Callable | None = None  # (node, *child tables) -> EncTable


# --- typing rules -----------------------------------------------------------

def _lookup(node, env: dict):
    if node.name not in env:
        raise UnknownTable(f"no table {node.name!r}")
    return env[node.name]


def _pred_width(node, schema: Schema) -> int | None:
    """A comparison operand's width; None for a plaintext ``Lit``."""
    if isinstance(node, ColRef):
        return schema.width_of(node.name)
    if isinstance(node, EncLit):
        return node.word.width
    if isinstance(node, Lit):
        return None
    raise PlanTypeError(f"bad comparison operand {node!r}")


def _map_pred(pred, on_cmp):
    """Rebuild an And/Or/Not tree, left before right, with ``on_cmp``
    applied to each comparison."""
    if isinstance(pred, Cmp):
        return on_cmp(pred)
    if not isinstance(pred, (And, Or, Not)):
        raise PlanTypeError(f"bad predicate node {pred!r}")
    return type(pred)(*(_map_pred(getattr(pred, f.name), on_cmp)
                        for f in fields(pred)))


def _check_cmp(cmp: Cmp, schema: Schema) -> Cmp:
    if cmp.op not in CMP_OPS:
        raise PlanTypeError(f"unknown comparison operator {cmp.op!r}")
    wl = _pred_width(cmp.left, schema)
    wr = _pred_width(cmp.right, schema)
    if wl is None and wr is None:
        raise PlanTypeError("comparison needs at least one column")
    if wl is not None and wr is not None and wl != wr:
        raise PlanTypeError(f"comparison mixes widths {wl} and {wr}")
    return cmp


def _select_schema(node: Select, schema: Schema) -> Schema:
    _map_pred(node.pred, lambda cmp: _check_cmp(cmp, schema))
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


def _aggregate(tag: str) -> Node:
    """Entry of a one-column aggregate: ``relalg.op_<tag>`` over ``col``,
    returned as the column ``<tag>_<col>``."""
    return Node(
        tag,
        lambda n, s: Schema(((f"{tag}_{n.col}", s.width_of(n.col)),)),
        lambda n, t: _wrap_scalar(getattr(relalg, f"op_{tag}")(n.col, t),
                                  f"{tag}_{n.col}", t.state))


NODES = {
    TableRef: Node("table", _lookup, _lookup),
    Select: Node("select", _select_schema,
                 lambda n, t: relalg.op_select(n.pred, t)),
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
    # predicate nodes carry a wire tag only: Select's typing rule checks
    # them and relalg.eval_predicate evaluates them. A plaintext Lit has
    # no tag, so the wire form carries no query constant in clear.
    Cmp: Node("cmp"),
    ColRef: Node("col"),
    EncLit: Node("enclit"),
    And: Node("and"),
    Or: Node("or"),
    Not: Node("not"),
}
PLAN_NODES = tuple(cls for cls, node in NODES.items() if node.evaluate)
_BY_TAG = {node.tag: cls for cls, node in NODES.items()}


@functools.cache
def node_fields(cls) -> tuple[tuple[str, str], ...]:
    """``(name, kind)`` per field of a node class, in wire and text order.
    The kind is ``"plan"`` for a sub-plan, ``"pred"`` for a predicate
    (``pred`` and the children of predicate nodes), else the annotation."""
    child = "plan" if cls in PLAN_NODES else "pred"
    return tuple((f.name, "pred" if f.name == "pred" else
                  child if f.name in CHILD_FIELDS else f.type)
                 for f in fields(cls))


def _kind(node, plan: bool = True) -> Node:
    kind = NODES.get(type(node))
    if kind is None or (kind.evaluate is not None) != plan:
        what = "plan" if plan else "predicate"
        raise PlanTypeError(f"bad {what} node {node!r}")
    return kind


def _inputs(plan, env: dict, walk) -> list:
    """``walk`` of each child in field order, or ``[env]`` for a leaf."""
    return [walk(getattr(plan, name), env)
            for name, kind in node_fields(type(plan)) if kind == "plan"] or [env]


# --- walkers ----------------------------------------------------------------
# Each recurses through its module-level name, so that a wrapper put on
# ``plans.<walker>`` sees nested calls too.

def typecheck(plan, catalog: dict[str, Schema]) -> Schema:
    """Validate a plan against table schemas; returns the result schema."""
    return _kind(plan).schema(plan, *_inputs(plan, catalog, typecheck))


def _encrypt_cmp(cmp: Cmp, schema: Schema, pk) -> Cmp:
    width = _pred_width(cmp.left, schema) or _pred_width(cmp.right, schema)
    left, right = (EncLit(encrypt_word(pk, side.value, width))
                   if isinstance(side, Lit) else side
                   for side in (cmp.left, cmp.right))
    return Cmp(cmp.op, left, right)


def encrypt_plan_literals(plan, catalog: dict[str, Schema], pk):
    """Rewrite every plaintext literal in the plan to a ciphertext under
    ``pk``; the plan shape stays public. A predicate's literals are
    encrypted before its child's."""
    _kind(plan)
    changes = {}
    for name, kind in node_fields(type(plan)):
        if kind == "pred":
            schema = typecheck(plan.child, catalog)
            changes[name] = _map_pred(getattr(plan, name),
                                      lambda cmp: _encrypt_cmp(cmp, schema, pk))
        elif kind == "plan":
            changes[name] = encrypt_plan_literals(getattr(plan, name), catalog, pk)
    return replace(plan, **changes)


def eval_encrypted(plan, tables: dict[str, EncTable]) -> EncTable:
    """Evaluate a plan over encrypted tables, left child before right.
    Aggregates come back as one-row tables with an always-present row."""
    return _kind(plan).evaluate(plan, *_inputs(plan, tables, eval_encrypted))


# --- wire form --------------------------------------------------------------
#
# A node is ``{"node": tag, <field>: <value>, ...}`` in field order; tuples
# travel as lists and ciphertext words in ``serial``'s word form.

def plan_to_obj(plan, ladder=None) -> dict:
    return _to_obj(plan, ladder, True)


def _to_obj(node, ladder, plan: bool) -> dict:
    obj = {"node": _kind(node, plan).tag}
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
