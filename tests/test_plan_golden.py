"""Golden pins for the plan wire form and text form.

One plan uses all 15 plan node classes and all 7 predicate node classes.
The sha256 of its ``plan_to_obj`` JSON bytes under a fixed keygen seed,
and its text rendering, must stay byte-identical: any change to the wire
tags, field order, literal encryption order or DSL words shows up here.
"""

from __future__ import annotations

import hashlib
import json

from hequel import dsl, plans
from hequel.circuits import encrypt_word
from hequel.crypto import SecurityContext, keygen
from hequel.relalg import And, Cmp, ColRef, EncLit, Lit, Not, Or
from hequel.schema import Schema

CATALOG = {"a": Schema((("k", 8), ("v", 8))),
           "b": Schema((("k", 8), ("v", 8))),
           "c": Schema((("d", 4),))}

GOLDEN_TEXT = (
    "count(sum(avg_max_min_sum_v, avg(max_min_sum_v, max(min_sum_v, "
    "min(sum_v, project([k, sum_v], cross(groupby([k], v, sort(v, desc, "
    "union(select(k > 3 and (not v = 7 or k <= v), table(a)), "
    "intersect(distinct(table(a)), diff(table(b), project([k, v], "
    "select(d != 2, cross(table(b), table(c))))))))), table(c))))))))")
GOLDEN_WIRE_SHA = (
    "862ca5e6b4a3e190011177287cb81de0d11c85d187361cd5712aa039c1730bb6")
GOLDEN_ENC_WIRE_SHA = (
    "ccfba0bf3ea0460c5f4121a8f7f63c3d34809e5f63b4019dba14363f3524c59e")


def golden_plan(seven):
    """The plan with ``seven`` as the right operand of ``v = 7``."""
    first = plans.Select(
        And(Cmp(">", ColRef("k"), Lit(3)),
            Or(Not(Cmp("=", ColRef("v"), seven)),
               Cmp("<=", ColRef("k"), ColRef("v")))),
        plans.TableRef("a"))
    bc = plans.Cross(plans.TableRef("b"), plans.TableRef("c"))
    narrowed = plans.Project(("k", "v"), plans.Select(
        Cmp("!=", ColRef("d"), Lit(2)), bc))
    rest = plans.Intersect(plans.Distinct(plans.TableRef("a")),
                           plans.Diff(plans.TableRef("b"), narrowed))
    grouped = plans.GroupBySum(
        ("k",), "v", plans.Sort("v", False, plans.Union(first, rest)))
    body = plans.Project(("k", "sum_v"),
                         plans.Cross(grouped, plans.TableRef("c")))
    return plans.Count(plans.Sum("avg_max_min_sum_v", plans.Avg(
        "max_min_sum_v", plans.Max("min_sum_v", plans.Min("sum_v", body)))))


def _sha(obj) -> str:
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def test_golden_plan_covers_every_node_class():
    ladder, _ = keygen(SecurityContext(), seed=b"golden")
    plan = golden_plan(EncLit(encrypt_word(ladder.public_key(), 7, 8)))
    seen, stack = set(), [plan]
    while stack:
        node = stack.pop()
        seen.add(type(node).__name__)
        if not isinstance(node, EncLit):
            stack.extend(v for v in vars(node).values()
                         if hasattr(v, "__dataclass_fields__"))
    assert seen == {
        "TableRef", "Select", "Project", "Cross", "Distinct", "Sort",
        "GroupBySum", "Union", "Intersect", "Diff", "Count", "Sum", "Min",
        "Max", "Avg", "Cmp", "ColRef", "Lit", "EncLit", "And", "Or", "Not"}


def test_golden_wire_bytes():
    ladder, _ = keygen(SecurityContext(), seed=b"golden")
    pk = ladder.public_key()
    plan = golden_plan(EncLit(encrypt_word(pk, 7, 8)))
    obj = plans.plan_to_obj(plan, ladder)
    assert _sha(obj) == GOLDEN_WIRE_SHA
    assert plans.plan_to_obj(plans.plan_from_obj(obj, ladder), ladder) == obj
    # literal encryption order fixes the nonces, so it is pinned too
    enc = plans.encrypt_plan_literals(golden_plan(Lit(7)), CATALOG, pk)
    assert _sha(plans.plan_to_obj(enc, ladder)) == GOLDEN_ENC_WIRE_SHA


def test_golden_text_round_trip():
    plan = golden_plan(Lit(7))
    assert dsl.plan_to_text(plan) == GOLDEN_TEXT
    assert dsl.parse(GOLDEN_TEXT) == plan
    assert plans.typecheck(plan, CATALOG).columns == (("count", 8),)
