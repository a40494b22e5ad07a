"""Seeded random tables and plans for differential testing.

Everything derives from a caller-supplied ``random.Random``, so a seed
reproduces the exact catalog and plan sequence. Sizes stay small (tables
up to 6 rows, widths up to 8, plan capacities capped) because encrypted
evaluation costs grow quadratically with capacity in the sorting
operators.
"""

from __future__ import annotations

import random

from hequel import plans
from hequel.relalg import And, Cmp, ColRef, Lit, Not, Or
from hequel.schema import PlainTable, Schema

MAX_ROWS = 6
MAX_WIDTH = 8
MAX_CAPACITY = 12


def random_table(rng: random.Random, schema: Schema,
                 max_rows: int = MAX_ROWS) -> PlainTable:
    n = rng.randint(0, max_rows)
    rows = []
    for _ in range(n):
        row = []
        for _, width in schema.columns:
            # half the values come from a small pool so duplicates and
            # group collisions actually happen
            if rng.random() < 0.5:
                row.append(rng.randint(0, min((1 << width) - 1, 3)))
            else:
                row.append(rng.randint(0, (1 << width) - 1))
        rows.append(tuple(row))
    return PlainTable(schema, rows)


def random_catalog(rng: random.Random) -> dict[str, PlainTable]:
    """Three tables: `a` and `b` share a schema (set-operation partners),
    `c` has disjoint column names (cross-product partner)."""
    ncols = rng.randint(1, 3)
    shared = Schema(tuple(
        (f"c{i}", rng.randint(2, MAX_WIDTH)) for i in range(ncols)))
    other = Schema(tuple(
        (f"d{i}", rng.randint(2, MAX_WIDTH)) for i in range(rng.randint(1, 2))))
    return {
        "a": random_table(rng, shared),
        "b": random_table(rng, shared),
        "c": random_table(rng, other, max_rows=3),
    }


def random_pred(rng: random.Random, schema: Schema, depth: int = 0):
    if depth < 2 and rng.random() < 0.3:
        kind = rng.choice(("and", "or", "not"))
        if kind == "not":
            return Not(random_pred(rng, schema, depth + 1))
        cls = And if kind == "and" else Or
        return cls(random_pred(rng, schema, depth + 1),
                   random_pred(rng, schema, depth + 1))
    name, width = rng.choice(schema.columns)
    op = rng.choice(plans.CMP_OPS)
    same_width = [n for n, w in schema.columns if w == width and n != name]
    if same_width and rng.random() < 0.3:
        return Cmp(op, ColRef(name), ColRef(rng.choice(same_width)))
    return Cmp(op, ColRef(name), Lit(rng.randint(0, (1 << width) - 1)))


def random_plan(rng: random.Random, catalog: dict[str, PlainTable],
                n_ops: int | None = None):
    """A plan of 2-4 relational operators, well typed by construction."""
    if n_ops is None:
        n_ops = rng.randint(2, 4)
    schemas = {name: t.schema for name, t in catalog.items()}
    start = rng.choice(("a", "b"))
    plan = plans.TableRef(start)
    capacity = len(catalog[start].rows)

    for step in range(n_ops):
        schema = plans.typecheck(plan, schemas)
        last = step == n_ops - 1
        choices = ["select", "distinct"]
        if schema.columns:
            choices += ["project", "sort", "groupby"]
        if schema == schemas["a"]:
            if capacity + len(catalog["a"].rows) <= MAX_CAPACITY:
                choices.append("union")
            choices += ["intersect", "diff"]
        cross_names = set(schema.names) & set(catalog["c"].schema.names)
        if not cross_names and capacity * max(1, len(catalog["c"].rows)) <= MAX_CAPACITY:
            choices.append("cross")
        if last:
            choices += ["count"] + (["agg"] if schema.columns else [])
        op = rng.choice(choices)

        if op == "select":
            plan = plans.Select(random_pred(rng, schema), plan)
        elif op == "distinct":
            plan = plans.Distinct(plan)
        elif op == "project":
            k = rng.randint(1, len(schema.columns))
            cols = tuple(rng.sample(schema.names, k))
            plan = plans.Project(cols, plan)
        elif op == "sort":
            plan = plans.Sort(rng.choice(schema.names), rng.random() < 0.5, plan)
        elif op == "groupby":
            sum_col = rng.choice(schema.names)
            k = rng.randint(0, min(2, len(schema.columns)))
            # the synthesized sum_<col> column must not collide with a key
            keys = tuple(n for n in rng.sample(schema.names, k)
                         if n != f"sum_{sum_col}")
            plan = plans.GroupBySum(keys, sum_col, plan)
        elif op in ("union", "intersect", "diff"):
            partner = rng.choice(("a", "b"))
            cls = {"union": plans.Union, "intersect": plans.Intersect,
                   "diff": plans.Diff}[op]
            partner_left = rng.random() < 0.5
            if partner_left:
                plan = cls(plans.TableRef(partner), plan)
            else:
                plan = cls(plan, plans.TableRef(partner))
            if op == "union":
                capacity += len(catalog[partner].rows)
            elif partner_left:
                # intersect/diff keep the left operand's capacity
                capacity = len(catalog[partner].rows)
        elif op == "cross":
            plan = plans.Cross(plan, plans.TableRef("c"))
            capacity *= max(1, len(catalog["c"].rows))
        elif op == "count":
            plan = plans.Count(plan)
        else:
            col = rng.choice(schema.names)
            cls = rng.choice((plans.Sum, plans.Min, plans.Max, plans.Avg))
            plan = cls(col, plan)
    return plan
