"""Plan parsing, typechecking, rendering, literal encryption, and the wire
representation."""

from __future__ import annotations

import hashlib
import random

import pytest

from hequel import dsl, plans, randgen
from hequel.circuits import encrypt_word
from hequel.crypto import SecurityContext, keygen
from hequel.errors import (ParseError, PlanTypeError, SchemaMismatch,
                           UnknownColumn, UnknownTable)
from hequel.relalg import (And, Cmp, ColRef, EncLit, Lit, Not, Or,
                           decrypt_table, encrypt_table)
from hequel.schema import PlainTable, Schema

PC = Schema((("model", 12), ("speed", 4), ("ram", 12),
             ("hd", 10), ("price", 12)))
CATALOG = {"pc": PC}


def test_parse_basic_nodes():
    assert dsl.parse("table(pc)") == plans.TableRef("pc")
    assert dsl.parse("count(table(pc))") == plans.Count(plans.TableRef("pc"))
    assert dsl.parse("select(speed>1, table(pc))") == plans.Select(
        Cmp(">", ColRef("speed"), Lit(1)), plans.TableRef("pc"))
    assert dsl.parse("project([a, b], table(t))") == plans.Project(
        ("a", "b"), plans.TableRef("t"))
    assert dsl.parse("project(a, table(t))") == plans.Project(
        ("a",), plans.TableRef("t"))
    assert dsl.parse("sort(price, desc, table(pc))") == plans.Sort(
        "price", False, plans.TableRef("pc"))
    assert dsl.parse("groupby([ram], price, table(pc))") == plans.GroupBySum(
        ("ram",), "price", plans.TableRef("pc"))
    assert dsl.parse("groupby([], price, table(pc))") == plans.GroupBySum(
        (), "price", plans.TableRef("pc"))
    assert dsl.parse("diff(table(a), table(b))") == plans.Diff(
        plans.TableRef("a"), plans.TableRef("b"))
    assert dsl.parse("avg(price, table(pc))") == plans.Avg(
        "price", plans.TableRef("pc"))


def test_parse_predicates():
    got = dsl.parse("select(a>1 and b<2 or not c=3, table(t))").pred
    want = Or(And(Cmp(">", ColRef("a"), Lit(1)), Cmp("<", ColRef("b"), Lit(2))),
              Not(Cmp("=", ColRef("c"), Lit(3))))
    assert got == want
    # parens override precedence
    got = dsl.parse("select(a>1 and (b<2 or c=3), table(t))").pred
    want = And(Cmp(">", ColRef("a"), Lit(1)),
               Or(Cmp("<", ColRef("b"), Lit(2)), Cmp("=", ColRef("c"), Lit(3))))
    assert got == want
    # == and <> are synonyms for = and !=
    assert dsl.parse("select(a==1, table(t))").pred == Cmp(
        "=", ColRef("a"), Lit(1))
    assert dsl.parse("select(a<>1, table(t))").pred == Cmp(
        "!=", ColRef("a"), Lit(1))
    assert dsl.parse("select(1<=a, table(t))").pred == Cmp(
        "<=", Lit(1), ColRef("a"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        dsl.parse("select(speed >? 1, table(pc))")
    assert err.value.position == 14
    assert "offset 14" in str(err.value)
    with pytest.raises(ParseError):
        dsl.parse("table(pc) trailing")
    with pytest.raises(ParseError):
        dsl.parse("frobnicate(table(pc))")
    with pytest.raises(ParseError):
        dsl.parse("")


def test_typecheck():
    assert plans.typecheck(dsl.parse("table(pc)"), CATALOG) == PC
    agg = plans.typecheck(dsl.parse("count(table(pc))"), CATALOG)
    assert agg.columns == (("count", 8),)
    agg = plans.typecheck(dsl.parse("avg(price, table(pc))"), CATALOG)
    assert agg.columns == (("avg_price", 12),)
    got = plans.typecheck(dsl.parse("groupby([ram], price, table(pc))"),
                          CATALOG)
    assert got.columns == (("ram", 12), ("sum_price", 12))
    with pytest.raises(UnknownTable):
        plans.typecheck(dsl.parse("table(zebra)"), CATALOG)
    with pytest.raises(UnknownColumn):
        plans.typecheck(dsl.parse("sum(nope, table(pc))"), CATALOG)
    with pytest.raises(PlanTypeError):
        plans.typecheck(dsl.parse("select(1=1, table(pc))"), CATALOG)
    with pytest.raises(PlanTypeError):
        # widths differ: speed is 4 bits, price is 12
        plans.typecheck(dsl.parse("select(speed=price, table(pc))"), CATALOG)
    with pytest.raises(SchemaMismatch):
        plans.typecheck(dsl.parse("union(table(pc), project([ram], table(pc)))"),
                        CATALOG)


def test_parse_plan_convenience():
    plan = dsl.parse_plan("select(speed>1, table(pc))", CATALOG)
    assert isinstance(plan, plans.Select)
    with pytest.raises(UnknownColumn):
        dsl.parse_plan("select(nope>1, table(pc))", CATALOG)


def test_render_round_trip_fixed():
    texts = [
        "table(pc)",
        "select(speed > 1 and price <= 600, table(pc))",
        "select(not (speed = 1 or speed = 2), table(pc))",
        "project([ram, price], distinct(table(pc)))",
        "sort(price, asc, table(pc))",
        "groupby([ram, hd], price, table(pc))",
        "union(table(pc), table(pc))",
        "avg(price, select(speed != 2, table(pc)))",
    ]
    for text in texts:
        plan = dsl.parse(text)
        assert dsl.parse(dsl.plan_to_text(plan)) == plan


def test_render_round_trip_random():
    rng = random.Random(5)
    for _ in range(60):
        catalog = randgen.random_catalog(rng)
        plan = randgen.random_plan(rng, catalog)
        assert dsl.parse(dsl.plan_to_text(plan)) == plan


# sha256 of the first 25 plan texts of seed 7, one per line: a seed must
# keep giving the same plans, so any change to the generator's rng calls
# shows up here
RANDOM_PLANS_SHA = (
    "027256b620008bc27fe2e9c7b8cee3167f1e543af3b6958733a60a659ba026b0")


def test_random_plans_are_pinned():
    rng = random.Random(7)
    texts = []
    for _ in range(25):
        catalog = randgen.random_catalog(rng)
        texts.append(dsl.plan_to_text(randgen.random_plan(rng, catalog)))
    data = "\n".join(texts).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == RANDOM_PLANS_SHA


def test_encrypt_plan_literals():
    ladder, keys = keygen(SecurityContext(), seed=b"lit")
    pk = ladder.public_key()
    plan = dsl.parse("select(speed>1 and ram=1024, table(pc))")
    enc = plans.encrypt_plan_literals(plan, CATALOG, pk)
    left = enc.pred.left
    right = enc.pred.right
    assert isinstance(left.right, EncLit) and left.right.word.width == 4
    assert isinstance(right.right, EncLit) and right.right.word.width == 12
    # the original tree is untouched
    assert isinstance(plan.pred.left.right, Lit)


def test_wire_round_trip_preserves_semantics():
    ladder, keys = keygen(SecurityContext(), seed=b"wire")
    pk = ladder.public_key()
    plan = plans.encrypt_plan_literals(
        dsl.parse("select(speed>1, table(pc))"), CATALOG, pk)
    obj = plans.plan_to_obj(plan, ladder)
    back = plans.plan_from_obj(obj, ladder)
    table = encrypt_table(
        pk, PlainTable(PC, [(1001, 3, 1024, 250, 2114),
                            (1002, 1, 512, 80, 478)]), name="pc")
    out = plans.eval_encrypted(back, {"pc": table})
    assert decrypt_table(keys, out).rows == [(1001, 3, 1024, 250, 2114)]


def test_eval_encrypted_all_node_types():
    ladder, keys = keygen(SecurityContext(), seed=b"all")
    pk = ladder.public_key()
    catalog = {"pc": PlainTable(PC, [(1001, 3, 1024, 250, 2114),
                                     (1002, 2, 512, 80, 478),
                                     (1003, 1, 512, 250, 600)])}
    tables = {"pc": encrypt_table(pk, catalog["pc"], name="pc")}
    plan = plans.encrypt_plan_literals(
        dsl.parse("sum(price, select(ram=512, table(pc)))"),
        {"pc": PC}, pk)
    out = plans.eval_encrypted(plan, tables)
    assert decrypt_table(keys, out).rows == [(478 + 600,)]
    assert out.schema.columns == (("sum_price", 12),)


def test_render_refuses_an_operand_it_cannot_write():
    ladder, _ = keygen(SecurityContext(), seed=b"render")
    word = encrypt_word(ladder.public_key(), 5, 4)
    with pytest.raises(ValueError, match="cannot render"):
        dsl.plan_to_text(plans.Select(Cmp("=", ColRef("a"), EncLit(word)),
                                      plans.TableRef("t")))
    with pytest.raises(ValueError, match="cannot render"):
        dsl.plan_to_text(plans.Select(
            Cmp("=", plans.TableRef("t"), Lit(1)), plans.TableRef("t")))
