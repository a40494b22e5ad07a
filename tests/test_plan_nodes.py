"""Per-node consistency: every plan node class in ``plans.NODES`` has a
wire form, a text form, a typing rule that agrees with the plaintext
oracle, and an encrypted evaluator that agrees with it too."""

from __future__ import annotations

import dataclasses

import pytest

from hequel import dsl, engine, oracle, plans
from hequel.crypto import SecurityContext, keygen
from hequel.schema import PlainTable, Schema

KV = Schema((("k", 4), ("v", 4)))
CATALOG = {
    "t": PlainTable(KV, [(1, 2), (3, 2), (1, 2)]),
    "u": PlainTable(KV, [(1, 2), (2, 0), (3, 3)]),
    "w": PlainTable(Schema((("d", 3),)), [(5,), (1,), (0,)]),
}
SCHEMAS = {name: t.schema for name, t in CATALOG.items()}

# one plan per node class, rooted at that class, in canonical text form
SAMPLES = {
    plans.TableRef: "table(t)",
    plans.Select: "select(k > 1 or not v = 2, table(t))",
    plans.Project: "project([v], table(t))",
    plans.Cross: "cross(table(t), table(w))",
    plans.Distinct: "distinct(table(t))",
    plans.Sort: "sort(v, desc, table(u))",
    plans.GroupBySum: "groupby([k], v, table(t))",
    plans.Union: "union(table(t), table(u))",
    plans.Intersect: "intersect(table(t), table(u))",
    plans.Diff: "diff(table(t), table(u))",
    plans.Count: "count(table(t))",
    plans.Sum: "sum(v, table(u))",
    plans.Min: "min(k, table(u))",
    plans.Max: "max(k, table(u))",
    plans.Avg: "avg(v, table(u))",
}


def test_every_plan_dataclass_is_in_the_table():
    declared = {obj for obj in vars(plans).values()
                if dataclasses.is_dataclass(obj) and isinstance(obj, type)
                and obj.__module__ == plans.__name__}
    assert declared == set(plans.PLAN_NODES)


@pytest.mark.parametrize("cls", plans.PLAN_NODES, ids=lambda c: c.__name__)
def test_node_consistency(cls):
    text = SAMPLES[cls]
    plan = dsl.parse(text)
    assert type(plan) is cls
    # text round trip
    assert dsl.plan_to_text(plan) == text
    # wire round trip, literals encrypted as a client sends them
    ladder, _ = keygen(SecurityContext(), seed=b"nodes")
    enc = plans.encrypt_plan_literals(plan, SCHEMAS, ladder.public_key())
    obj = plans.plan_to_obj(enc, ladder)
    assert plans.plan_to_obj(plans.plan_from_obj(obj, ladder), ladder) == obj
    # the typing rule agrees with the oracle's result schema
    assert plans.typecheck(plan, SCHEMAS) == oracle.eval_plan(plan, CATALOG).schema
    # the encrypted evaluator agrees with the oracle
    report = engine.diff_run(plan, CATALOG, seed=b"nodes")
    assert report.passed, report.detail
