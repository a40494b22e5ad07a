"""Acceptance gate: seven criteria, one test (and one pass/fail line) each.

Run with -s to see the summary lines; under plain -v each criterion shows
as its own PASSED/FAILED row. Runtime bounds are asserted where a criterion
carries one.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter

import pytest

from hequel import dsl, engine, kernel, plans, randgen, serial
from hequel.circuits import (bit_or, const_word, decrypt_word, encrypt_word,
                             word_add, word_add_bit, word_and_bit, word_div,
                             word_eq, word_gt, word_mux)
from hequel.crypto import SecurityContext, encrypt_bit, keygen
from hequel.errors import LadderExhausted, VerificationFailure
from hequel.oracle import eval_pred_plain
from hequel.protocol import ClientSession, ServerStore, submit_query
from hequel.relalg import (Cmp, ColRef, EncLit, Lit, decrypt_table,
                           encrypt_table, op_avg, op_bag_diff, op_bag_intersect,
                           op_bag_union, op_count, op_cross, op_distinct,
                           op_groupby_sum, op_max, op_min, op_project,
                           op_select, op_sort, op_sum)
from hequel.schema import PlainTable, Schema


def report(n: int, message: str) -> None:
    print(f"criterion {n} PASS: {message}")


# --- criterion 1: gate layer --------------------------------------------------

def test_criterion_1_gate_layer():
    t0 = time.monotonic()
    ctx = SecurityContext(mode="leveled", depth_budget=8, epochs=3)
    ladder, keys = keygen(ctx, seed=b"acc1")
    checks = 0
    for ei in (1, 2, 3):
        for ej in (1, 2, 3):
            for a in (0, 1):
                for b in (0, 1):
                    ea = encrypt_bit(ladder.public_key(ei), a)
                    eb = encrypt_bit(ladder.public_key(ej), b)
                    got = {
                        "xor": keys.decrypt_bit(kernel.xor(ea, eb)),
                        "and": keys.decrypt_bit(kernel.and_(ea, eb)),
                        "or": keys.decrypt_bit(bit_or(ea, eb)),
                    }
                    assert got == {"xor": a ^ b, "and": a & b, "or": a | b}, \
                        (ei, ej, a, b)
                    checks += 3
    for e in (1, 2, 3):
        for a in (0, 1):
            assert keys.decrypt_bit(kernel.not_(
                encrypt_bit(ladder.public_key(e), a))) == 1 - a
            checks += 1

    rng = random.Random(1)
    for _ in range(1000):
        bit = rng.randint(0, 1)
        epoch = rng.randint(1, 2)
        c = encrypt_bit(ladder.public_key(epoch), bit)
        if rng.random() < 0.5:  # give some inputs nonzero depth first
            c = kernel.and_(c, encrypt_bit(ladder.public_key(epoch), 1))
        r = kernel.refresh(c)
        assert (r.epoch, r.depth) == (c.epoch + 1, 0)
        assert keys.decrypt_bit(r) == bit
        checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"gate layer took {elapsed:.1f}s, bound is 5s"
    report(1, f"{checks} exhaustive gate/epoch checks and 1000 refresh "
              f"transparency checks, 0 failures, {elapsed:.2f}s < 5s")


# --- criterion 2: circuits ----------------------------------------------------

def test_criterion_2_circuits_exhaustive_w4():
    t0 = time.monotonic()
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"acc2")
    pk = ladder.public_key()
    enc = [encrypt_word(pk, v, 4) for v in range(16)]
    flag1, flag0 = encrypt_bit(pk, 1), encrypt_bit(pk, 0)
    pairs = 0
    for a in range(16):
        for b in range(16):
            ea, eb = enc[a], enc[b]
            assert decrypt_word(keys, word_add(ea, eb)) == (a + b) % 16
            eq = keys.decrypt_bit(word_eq(ea, eb))
            gt = keys.decrypt_bit(word_gt(ea, eb))
            lt = keys.decrypt_bit(word_gt(eb, ea))
            assert eq == int(a == b) and gt == int(a > b) and lt == int(a < b)
            assert eq + gt + lt == 1  # trichotomy
            assert decrypt_word(keys, word_mux(flag1, ea, eb)) == a
            assert decrypt_word(keys, word_mux(flag0, ea, eb)) == b
            assert decrypt_word(keys, word_and_bit(ea, flag1)) == a
            assert decrypt_word(keys, word_and_bit(ea, flag0)) == 0
            assert decrypt_word(keys, word_add_bit(ea, flag1)) == (a + 1) % 16
            assert decrypt_word(keys, word_add_bit(ea, flag0)) == a
            want_div = a // b if b else 0  # divide-by-zero yields 0
            assert decrypt_word(keys, word_div(ea, eb)) == want_div
            pairs += 1
    elapsed = time.monotonic() - t0
    assert pairs == 256
    assert elapsed < 120.0, f"circuits took {elapsed:.1f}s, bound is 120s"
    report(2, f"add/eq/gt/mux/and_bit/add_bit/div exhaustive on all 256 "
              f"pairs at w=4 plus trichotomy, 0 failures, {elapsed:.2f}s < 120s")


# --- criterion 3: operators vs oracle ----------------------------------------

W = 8
TRIALS = 200


def rand_schema(rng, prefix="c"):
    return Schema(tuple((f"{prefix}{i}", W) for i in range(rng.randint(1, 3))))


def rand_value(rng):
    return rng.choice((0, 1, 2, 3)) if rng.random() < 0.5 else rng.randrange(256)


def rand_rows(rng, schema, max_rows=8):
    return [tuple(rand_value(rng) for _ in schema.columns)
            for _ in range(rng.randint(0, max_rows))]


def rand_input(rng, schema=None, prefix="c"):
    schema = schema or rand_schema(rng, prefix)
    rows = rand_rows(rng, schema)
    presence = [rng.randint(0, 1) for _ in rows]
    return schema, rows, presence


def present(rows, presence):
    return [r for r, p in zip(rows, presence) if p]


def enc(pk, schema, rows, presence, name):
    return encrypt_table(pk, PlainTable(schema, list(rows)),
                         presence=list(presence), name=name)


def rand_pred(rng, schema):
    col = rng.choice(schema.names)
    op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
    if len(schema.names) > 1 and rng.random() < 0.3:
        other = rng.choice([n for n in schema.names if n != col])
        return Cmp(op, ColRef(col), ColRef(other))
    return Cmp(op, ColRef(col), Lit(rand_value(rng)))


def check_select(rng, keys, pk):
    schema, rows, presence = rand_input(rng)
    pred = rand_pred(rng, schema)
    # the server gets the predicate with its literal encrypted, as a client
    # sends it; the oracle reads the plaintext one
    enc_pred = plans.encrypt_plan_literals(
        plans.Select(pred, plans.TableRef("t")), {"t": schema}, pk).pred
    keep = plans.eval_encrypted(enc_pred, schema)
    got = decrypt_table(keys, op_select(keep, enc(pk, schema, rows,
                                                  presence, "t"))).rows
    want = [r for r in present(rows, presence)
            if eval_pred_plain(pred, schema, r)]
    return Counter(got), Counter(want)


def check_project(rng, keys, pk):
    schema, rows, presence = rand_input(rng)
    k = rng.randint(1, len(schema.columns))
    cols = tuple(rng.sample(schema.names, k))
    idx = [schema.index_of(c) for c in cols]
    got = decrypt_table(keys, op_project(cols, enc(pk, schema, rows, presence,
                                                   "t"))).rows
    want = [tuple(r[i] for i in idx) for r in present(rows, presence)]
    return Counter(got), Counter(want)


def check_cross(rng, keys, pk):
    s1, r1, p1 = rand_input(rng, prefix="l")
    s2, r2, p2 = rand_input(rng, prefix="r")
    got = decrypt_table(keys, op_cross(enc(pk, s1, r1, p1, "l"),
                                       enc(pk, s2, r2, p2, "r"))).rows
    want = [a + b for a in present(r1, p1) for b in present(r2, p2)]
    return Counter(got), Counter(want)


def check_count(rng, keys, pk):
    schema, rows, presence = rand_input(rng)
    got = decrypt_word(keys, op_count(enc(pk, schema, rows, presence, "t")))
    return got, len(present(rows, presence)) % 256


def check_sum(rng, keys, pk):
    schema, rows, presence = rand_input(rng)
    col = rng.choice(schema.names)
    i = schema.index_of(col)
    got = decrypt_word(keys, op_sum(col, enc(pk, schema, rows, presence, "t")))
    return got, sum(r[i] for r in present(rows, presence)) % 256


def check_min(rng, keys, pk):
    schema, rows, presence = rand_input(rng)
    col = rng.choice(schema.names)
    i = schema.index_of(col)
    got = decrypt_word(keys, op_min(col, enc(pk, schema, rows, presence, "t")))
    return got, min((r[i] for r in present(rows, presence)), default=0)


def check_max(rng, keys, pk):
    schema, rows, presence = rand_input(rng)
    col = rng.choice(schema.names)
    i = schema.index_of(col)
    got = decrypt_word(keys, op_max(col, enc(pk, schema, rows, presence, "t")))
    return got, max((r[i] for r in present(rows, presence)), default=0)


def check_avg(rng, keys, pk):
    schema, rows, presence = rand_input(rng)
    col = rng.choice(schema.names)
    i = schema.index_of(col)
    got = decrypt_word(keys, op_avg(col, enc(pk, schema, rows, presence, "t")))
    kept = present(rows, presence)
    total = sum(r[i] for r in kept) % 256
    want = total // len(kept) if kept else 0
    return got, want


def check_distinct(rng, keys, pk):
    schema, rows, presence = rand_input(rng)
    got = decrypt_table(keys, op_distinct(enc(pk, schema, rows, presence,
                                              "t"))).rows
    seen, want = set(), []
    for r in present(rows, presence):
        if r not in seen:
            seen.add(r)
            want.append(r)
    return Counter(got), Counter(want)


def check_sort(rng, keys, pk):
    schema, rows, presence = rand_input(rng)
    col = rng.choice(schema.names)
    ascending = rng.random() < 0.5
    i = schema.index_of(col)
    got = decrypt_table(keys, op_sort(col, ascending,
                                      enc(pk, schema, rows, presence,
                                          "t"))).rows
    want = sorted(present(rows, presence), key=lambda r: r[i],
                  reverse=not ascending)
    return got, want  # order matters: stable sort sequence, not just multiset


def check_groupby(rng, keys, pk):
    schema, rows, presence = rand_input(rng)
    sum_col = rng.choice(schema.names)
    k = rng.randint(0, min(2, len(schema.columns)))
    keys_cols = tuple(rng.sample(schema.names, k))
    si = schema.index_of(sum_col)
    ki = [schema.index_of(c) for c in keys_cols]
    got = decrypt_table(keys, op_groupby_sum(
        keys_cols, sum_col, enc(pk, schema, rows, presence, "t"))).rows
    groups: dict = {}
    for r in present(rows, presence):
        key = tuple(r[i] for i in ki)
        groups[key] = (groups.get(key, 0) + r[si]) % 256
    want = [key + (total,) for key, total in groups.items()]
    return Counter(got), Counter(want)


def _two_tables(rng, pk):
    schema = rand_schema(rng)
    r1, p1 = (lambda rows: (rows, [rng.randint(0, 1) for _ in rows]))(
        rand_rows(rng, schema))
    r2, p2 = (lambda rows: (rows, [rng.randint(0, 1) for _ in rows]))(
        rand_rows(rng, schema))
    return (enc(pk, schema, r1, p1, "x"), enc(pk, schema, r2, p2, "y"),
            present(r1, p1), present(r2, p2))


def check_union(rng, keys, pk):
    t1, t2, w1, w2 = _two_tables(rng, pk)
    got = decrypt_table(keys, op_bag_union(t1, t2)).rows
    return Counter(got), Counter(w1) + Counter(w2)


def check_intersect(rng, keys, pk):
    t1, t2, w1, w2 = _two_tables(rng, pk)
    got = decrypt_table(keys, op_bag_intersect(t1, t2)).rows
    return Counter(got), Counter(w1) & Counter(w2)


def check_diff(rng, keys, pk):
    t1, t2, w1, w2 = _two_tables(rng, pk)
    got = decrypt_table(keys, op_bag_diff(t1, t2)).rows
    return Counter(got), Counter(w1) - Counter(w2)


OPERATOR_CHECKS = [
    ("select", check_select), ("project", check_project),
    ("cross", check_cross), ("count", check_count), ("sum", check_sum),
    ("min", check_min), ("max", check_max), ("avg", check_avg),
    ("distinct", check_distinct), ("sort", check_sort),
    ("groupby_sum", check_groupby), ("union", check_union),
    ("intersect", check_intersect), ("diff", check_diff),
]


def test_criterion_3_operators_match_oracle():
    t0 = time.monotonic()
    for name, check in OPERATOR_CHECKS:
        ladder, keys = keygen(SecurityContext(mode="circular", depth_budget=8),
                              seed=f"acc3-{name}")
        pk = ladder.public_key()
        rng = random.Random(f"acc3-{name}")
        for trial in range(TRIALS):
            got, want = check(rng, keys, pk)
            assert got == want, f"{name} trial {trial}: {got} != {want}"
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"operators took {elapsed:.1f}s, bound is 600s"
    report(3, f"{len(OPERATOR_CHECKS)} operators x {TRIALS} random tables "
              f"(<=8 rows, w=8, random presence) match the oracle, "
              f"0 failures, {elapsed:.1f}s < 600s")


# --- criterion 4: obliviousness -----------------------------------------------

def run_counted(op_fn, seed, datasets):
    """Apply op_fn to freshly encrypted inputs; return capacity/gate counts."""
    ladder, _ = keygen(SecurityContext(depth_budget=8), seed=seed)
    pk = ladder.public_key()
    tables = [encrypt_table(pk, PlainTable(schema, list(rows)),
                            presence=list(presence), name=f"t{i}")
              for i, (schema, rows, presence) in enumerate(datasets)]
    state = ladder.state
    before = (state.xor_count, state.and_count, state.refresh_count)
    out = op_fn(*tables)
    capacity = out.capacity if hasattr(out, "capacity") else len(out.bits)
    return (capacity,
            state.xor_count - before[0],
            state.and_count - before[1],
            state.refresh_count - before[2])


def test_criterion_4_oblivious_shapes():
    schema = Schema((("a", 8), ("b", 8)))
    rows_a = [(1, 2), (3, 4), (200, 5), (1, 2)]
    rows_b = [(250, 9), (0, 0), (7, 7), (99, 1)]
    pres_a = [1, 1, 0, 1]
    pres_b = [0, 1, 1, 1]
    d1 = (schema, rows_a, pres_a)
    d2 = (schema, rows_b, pres_b)
    def select_a_gt_50(t):
        # the literal encrypted under the table's ladder, as a client would
        fifty = EncLit(const_word(t.state, 50, 8, 1))
        return op_select(
            plans.eval_encrypted(Cmp(">", ColRef("a"), fifty), t.schema), t)

    single = [
        ("select", select_a_gt_50),
        ("project", lambda t: op_project(("b",), t)),
        ("count", lambda t: op_count(t)),
        ("sum", lambda t: op_sum("a", t)),
        ("min", lambda t: op_min("a", t)),
        ("max", lambda t: op_max("a", t)),
        ("avg", lambda t: op_avg("a", t)),
        ("distinct", op_distinct),
        ("sort", lambda t: op_sort("a", True, t)),
        ("groupby_sum", lambda t: op_groupby_sum(("a",), "b", t)),
    ]
    double = [
        ("cross", op_cross), ("union", op_bag_union),
        ("intersect", op_bag_intersect), ("diff", op_bag_diff),
    ]
    for name, fn in single:
        shape1 = run_counted(fn, b"acc4", [d1])
        shape2 = run_counted(fn, b"acc4", [d2])
        assert shape1 == shape2, f"{name}: {shape1} != {shape2}"
    # cross needs disjoint column names on its right input
    other = Schema((("c", 8),))
    e1 = (other, [(9,), (2,), (77,)], [1, 0, 1])
    e2 = (other, [(0,), (255,), (6,)], [1, 1, 1])
    for name, fn in double:
        right1, right2 = (e1, e2) if name == "cross" else (d2, d1)
        shape1 = run_counted(fn, b"acc4", [d1, right1])
        shape2 = run_counted(fn, b"acc4", [d2, right2])
        assert shape1 == shape2, f"{name}: {shape1} != {shape2}"
    report(4, "all 14 operators: same-shape different-data inputs give "
              "identical capacities, gate counts, and refresh counts")


# --- criterion 5: protocol ----------------------------------------------------

PC_SCHEMA = Schema((("model", 12), ("speed", 4), ("ram", 12),
                    ("hd", 10), ("price", 12)))
PC_ROWS = [
    (1001, 3, 1024, 250, 2114),
    (1002, 2, 512, 80, 478),
    (1003, 1, 512, 250, 600),
]


def test_criterion_5_protocol_compact_return():
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"acc5")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    # fixture table: three physical rows, the third marked absent
    server.tables["pc"] = encrypt_table(
        ladder.public_key(), PlainTable(PC_SCHEMA, list(PC_ROWS)),
        presence=[1, 1, 0], name="pc")
    client.catalog["pc"] = PC_SCHEMA

    plan = dsl.parse("select(speed>1, table(pc))")
    qid, n = submit_query(client, server, plan)
    assert n == 2
    # the server drops a result once it has sent its rows
    full_table_bytes = serial.message_to_bytes("upload_table", qid, {
        "table": serial.table_to_obj(ladder, server.results[qid])})
    fetch_reply = server.handle(client.fetch_message(qid))
    out = client.read_rows_and_verify(fetch_reply)
    assert sorted(out.rows) == [PC_ROWS[0], PC_ROWS[1]]
    assert len(fetch_reply) < len(full_table_bytes)

    # fault injection: a short reply must fail verification, not truncate
    qid2, n2 = submit_query(client, server, plan)
    reply2 = server.handle(client.fetch_message(qid2))
    msg = json.loads(reply2.decode())
    msg["payload"]["rows"].pop()
    short = json.dumps(msg, separators=(",", ":")).encode()
    with pytest.raises(VerificationFailure):
        client.read_rows_and_verify(short)
    report(5, f"select(speed>1) over the 3-row fixture returned exactly "
              f"{n} present rows; fetch reply ({len(fetch_reply)} bytes) < "
              f"full table ({len(full_table_bytes)} bytes); short reply "
              f"raised VerificationFailure")


# --- criterion 6: noise semantics ---------------------------------------------

def depth_chain(ctx, seed):
    ladder, keys = keygen(ctx, seed=seed)
    pk = ladder.public_key()
    acc = encrypt_bit(pk, 1)
    for _ in range(ctx.depth_budget + 1):
        acc = kernel.and_(acc, encrypt_bit(pk, 1))
    return keys.decrypt_bit(acc), ladder.state.refresh_count


def test_criterion_6_noise_semantics():
    budget = 8
    first = depth_chain(SecurityContext(mode="circular", depth_budget=budget),
                        b"acc6")
    second = depth_chain(SecurityContext(mode="circular", depth_budget=budget),
                         b"acc6")
    assert first == second  # deterministic
    value, refreshes = first
    assert value == 1
    assert refreshes >= 1
    with pytest.raises(LadderExhausted):
        depth_chain(SecurityContext(mode="leveled", depth_budget=budget,
                                    epochs=1), b"acc6")
    report(6, f"depth {budget + 1} chain: circular mode correct with "
              f"{refreshes} refreshes (twice, identical); leveled D=1 "
              f"raised LadderExhausted")


# --- criterion 7: composition -------------------------------------------------

def generate_plans(seed: str, n: int):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        catalog = randgen.random_catalog(rng)
        plan = randgen.random_plan(rng, catalog)
        out.append((plan, catalog))
    return out


def test_criterion_7_random_plan_composition():
    t0 = time.monotonic()
    trials = generate_plans("acc7", 100)
    # seed-reproducible: regenerating yields the identical plan list
    again = generate_plans("acc7", 100)
    assert ([dsl.plan_to_text(p) for p, _ in trials]
            == [dsl.plan_to_text(p) for p, _ in again])
    failures = []
    for i, (plan, catalog) in enumerate(trials):
        result = engine.diff_run(plan, catalog, seed=f"acc7-{i}")
        if not result.passed:
            failures.append((i, dsl.plan_to_text(plan), result.detail))
    assert not failures, failures
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"composition took {elapsed:.1f}s, bound is 600s"
    report(7, f"100 seed-reproducible random 2-4 operator plans passed "
              f"diff_run, 0 failures, {elapsed:.1f}s < 600s")
