"""Differential driver: pass/fail reporting, stats, and fault injection."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from hequel import dsl, engine, kernel, plans, relalg, serial
from hequel.circuits import CipherWord
from hequel.crypto import SecurityContext
from hequel.schema import PlainTable, Schema
from test_kernel import splitmix64_finalizer

PC_SCHEMA = Schema((("model", 12), ("speed", 4), ("ram", 12),
                    ("hd", 10), ("price", 12)))


def pc_catalog():
    return {"pc": PlainTable(PC_SCHEMA, [
        (1001, 3, 1024, 250, 2114),
        (1002, 2, 512, 80, 478),
        (1003, 1, 512, 250, 600),
    ])}


def test_diff_run_passes():
    report = engine.diff_run(dsl.parse("select(speed>1, table(pc))"),
                             pc_catalog(), seed=b"e1")
    assert report.passed
    assert report.detail == ""
    assert report.stats.total_gates > 0
    assert report.stats.encryptions > 0
    assert report.stats.wall_ms >= 0


def test_widest_column_sums_to_the_oracle():
    # the sum wraps modulo 2**64, as the oracle's does
    top = (1 << 64) - 1
    catalog = {"t": PlainTable(Schema((("a", 64),)),
                               [(top,), (top - 5,), (1 << 63,)])}
    report = engine.diff_run(dsl.parse("sum(a, table(t))"), catalog,
                             seed=b"e64")
    assert report.passed, report.detail


def test_diff_run_detects_injected_fault():
    plan = dsl.parse("select(speed>1, table(pc))")
    report = engine.diff_run(plan, pc_catalog(), seed=b"e2", fault_gate=50)
    assert not report.passed
    # the report names the first differing multiset element
    assert "row (" in report.detail
    assert "encrypted engine has" in report.detail


def test_failed_verification_reports_what_the_run_spent():
    # the flipped gate surfaces as a wrong count, caught at the fetch
    plan = dsl.parse("select(speed>1, table(pc))")
    report = engine.diff_run(plan, pc_catalog(), seed=b"s", fault_gate=47)
    assert not report.passed
    assert "2 present rows, count said 3" in report.detail
    stats = report.stats
    assert (stats.xor_gates, stats.and_gates, stats.refreshes,
            stats.encryptions) == (350, 173, 3, 8)
    assert stats.wall_ms > 0


def test_fault_sweep_never_crashes():
    plan = dsl.parse("count(table(pc))")
    catalog = pc_catalog()
    outcomes = set()
    for gate in (1, 3, 40, 90, 130):
        report = engine.diff_run(plan, catalog, seed=b"e3", fault_gate=gate)
        outcomes.add(report.passed)
        assert report.detail != "" or report.passed
    assert False in outcomes  # at least one fault was observable


def test_diff_run_same_seed_reproduces_stats():
    plan = dsl.parse("sum(price, table(pc))")
    a = engine.diff_run(plan, pc_catalog(), seed=b"e4")
    b = engine.diff_run(plan, pc_catalog(), seed=b"e4")
    assert a.passed and b.passed
    assert (a.stats.xor_gates, a.stats.and_gates, a.stats.refreshes) == \
           (b.stats.xor_gates, b.stats.and_gates, b.stats.refreshes)


def _kv_catalog(keys, seed):
    rng = random.Random(seed)
    return {"t": PlainTable(KV, [(rng.choice(keys), rng.randrange(256))
                                 for _ in range(16)])}


def test_gate_counts_are_data_independent():
    # the sort-rooted plan is packed: its fetch runs no gate, whatever the
    # number of rows present. groupby hands its sum cells on deep, and the
    # fetch compaction and the running sum refresh a bit by its depth, so
    # that depth must follow the plan's shape alone: the KV catalogs differ
    # in values, in how many rows the selects keep and in how many groups
    # form (few keys, then all distinct keys)
    cat_b = pc_catalog()
    cat_b["pc"].rows[:] = [(9, 1, 9, 9, 9), (8, 2, 8, 8, 8), (7, 3, 7, 7, 7)]
    runs = [(text, pc_catalog(), cat_b)
            for text in ("select(price>600, distinct(table(pc)))",
                         "sort(price, desc, select(price>600, table(pc)))")]
    runs += [(text, _kv_catalog((3, 9, 77), 1),
              _kv_catalog(range(0, 256, 16), 2))
             for text in ("groupby([k], v, select(v>100, table(t)))",
                          "select(sum_v>200, groupby([k], v, table(t)))")]
    for text, cat_a, cat_b in runs:
        plan = dsl.parse(text)
        a = engine.diff_run(plan, cat_a, seed=b"e5")
        b = engine.diff_run(plan, cat_b, seed=b"e5")
        assert a.passed and b.passed
        assert (a.stats.xor_gates, a.stats.and_gates, a.stats.refreshes) == \
               (b.stats.xor_gates, b.stats.and_gates, b.stats.refreshes)


KV = Schema((("k", 8), ("v", 8)))


@pytest.mark.parametrize("plan,ands,refreshes,encryptions", [
    # a sort with presence as its leading key needs no fetch compaction:
    # 9,327 / 4,230 / 196 when it compacted
    (plans.Sort("v", False, plans.TableRef("a")), 6907, 2251, 160),
    # groupby sorts without the index key and its 160 encryptions:
    # 10,327 / 5,457 / 196 with it. Its running sum and the fetch
    # compaction refresh each deep bit once, not in every gate that reads
    # it: 4,810 refreshes before
    (plans.GroupBySum(("k",), "v", plans.TableRef("a")), 8417, 2610, 36),
], ids=["sort", "groupby"])
def test_sort_and_groupby_query_and_fetch_cost(plan, ands, refreshes,
                                               encryptions):
    # the relational benchmark's sort and groupby over 32 rows of k:8, v:8
    # drawn from small pools, circular mode; counts depend on shapes only
    rng = random.Random(7)
    catalog = {"a": PlainTable(KV, [(rng.choice((3, 9, 77)), rng.randrange(256))
                                    for _ in range(32)])}
    report = engine.diff_run(plan, catalog, seed=b"q32")
    assert report.passed, report.detail
    stats = report.stats
    assert (stats.and_gates, stats.refreshes, stats.encryptions) == (
        ands, refreshes, encryptions)


def test_diff_run_checks_sort_order(monkeypatch):
    # a sort that returns the right rows in the wrong order passes the
    # multiset comparison and fails the key-order check
    op_sort = relalg.op_sort
    monkeypatch.setattr(relalg, "op_sort", lambda col, ascending, t: op_sort(
        col, not ascending, t))
    for text in ("sort(price, asc, table(pc))",
                 "project([price], sort(price, desc, table(pc)))"):
        report = engine.diff_run(dsl.parse(text), pc_catalog(), seed=b"e8")
        assert not report.passed
        assert "sort order on 'price'" in report.detail
    # a projection that drops the sort key leaves no order to check
    report = engine.diff_run(
        dsl.parse("project([model], sort(price, asc, table(pc)))"),
        pc_catalog(), seed=b"e8")
    assert report.passed


def test_diff_run_compares_keys_not_tied_rows():
    # groupby emits groups in key order, the oracle in order of first
    # appearance; sorting both on the summed column ties them, so whole
    # rows differ in order while the key sequences agree
    catalog = {"t": PlainTable(KV, [(9, 5), (3, 5), (9, 0), (3, 0)])}
    report = engine.diff_run(
        dsl.parse("sort(sum_v, asc, groupby([k], v, table(t)))"), catalog,
        seed=b"e9")
    assert report.passed, report.detail


def test_diff_run_in_leveled_mode():
    ctx = SecurityContext(mode="leveled", depth_budget=8, epochs=48)
    report = engine.diff_run(dsl.parse("min(price, table(pc))"),
                             pc_catalog(), ctx=ctx, seed=b"e6")
    assert report.passed


def test_run_encrypted_returns_stats():
    server, client = engine.build_session(pc_catalog(), seed=b"e7")
    table, stats = engine.run_encrypted(dsl.parse("count(table(pc))"),
                                        server, client)
    assert table.rows == [(3,)]
    assert stats.total_gates == stats.xor_gates + stats.and_gates


PINNED_RUNS = ((b"m1", "sort(price, asc, table(pc))"),
               (b"m2", "select(speed>1, table(pc))"))

# under a leveled ladder with a small budget the gates meet stale and
# over-budget operands: lifts, overflow settles and cross-epoch gates
LEVELED_CTX = SecurityContext(mode="leveled", depth_budget=3, epochs=64)
LEVELED_RUNS = ((b"l1", "avg(price, table(pc))"),
                (b"l2", "min(price, table(pc))"),
                (b"l3", "sort(price, asc, table(pc))"))


def pinned_messages(runs=PINNED_RUNS, ctx=None):
    """(ladder, bytes) of every message ``server.handle`` takes or returns
    in the pinned ``runs`` of (seed, plan text), in order."""
    out = []
    for seed, text in runs:
        server, client = engine.build_session(pc_catalog(), ctx=ctx, seed=seed)
        handle = server.handle

        def recording(data, handle=handle, ladder=server.ladder):
            reply = handle(data)
            out.extend(((ladder, data), (ladder, reply)))
            return reply

        server.handle = recording
        table, _ = engine.run_encrypted(dsl.parse(text), server, client)
        assert table.rows
    return out


# sha256 over the bytes of every pinned message, in wire format v2 with
# table version 3. The presence-first sort moved the sort runs'
# result_count and fetch_rows replies, here and in both pins below. One
# word per row record moved the fetch_rows replies here alone: every
# query, result_count and fetch_rows_request kept its bytes, and every
# bit its nonce, epoch, depth and payload (the two pins below). Writing
# each nonce as its counter value moved every blob, and the two pins below
# kept theirs.
SERVER_MESSAGES_SHA = (
    "a9184ed43f1934aa5b491239c6154a19087c01edaa1de8228b7300ab245eca22")


def test_server_messages_are_pinned():
    digest = hashlib.sha256()
    for _, data in pinned_messages():
        digest.update(data)
    assert digest.hexdigest() == SERVER_MESSAGES_SHA


def _words(node):
    """Every ciphertext word in a decoded plan, depth first."""
    if isinstance(node, CipherWord):
        yield node
    elif hasattr(node, "__dataclass_fields__"):
        for value in vars(node).values():
            yield from _words(value)


def _message_bits(ladder, data):
    """The ciphertext bits of one message, decoded with ``serial``'s and
    ``plans``' own decoders."""
    msg = serial.message_from_bytes(data)
    kind, payload = msg["type"], msg["payload"]
    if kind == "query":
        words = list(_words(plans.plan_from_obj(payload["plan"], ladder)))
    elif kind == "result_count":
        words = [serial.word_from_obj(ladder, payload["count"])]
    elif kind == "fetch_rows":
        _, rows = serial.table_rows_from_obj(ladder, payload)
        return [b for r in rows
                for b in (*(b for w in r.cells for b in w.bits), r.presence)]
    else:
        words = []
    return [b for w in words for b in w.bits]


# sha256 of (finalized nonce, epoch, depth, payload) of every ciphertext
# bit of those messages, each nonce passed through the reference
# splitmix64 finalizer: it does not depend on the wire form, so it pins
# the nonce stream and the payloads across wire format changes
SERVER_BIT_TUPLES_SHA = (
    "5847a0e548067c46009bbce61765206359d3ec5e5043426ce0bbc79f95d0ebdb")


def _bit_tuples(messages):
    return [(splitmix64_finalizer(kernel._nonce_of(b)), b.epoch, b.depth,
             kernel._reveal(b))
            for ladder, data in messages for b in _message_bits(ladder, data)]


def test_server_message_bit_tuples_are_pinned():
    tuples = _bit_tuples(pinned_messages())
    assert len(tuples) > 100
    text = json.dumps(tuples)
    assert hashlib.sha256(text.encode()).hexdigest() == SERVER_BIT_TUPLES_SHA


# the same tuples for the leveled runs; a lift reused within a request
# mints no nonce, so these nonces differ from those of a kernel that lifts
# in every gate, and the epochs, depths and payloads do not
LEVELED_BIT_TUPLES_SHA = (
    "17c2a054aec4e705045ee3374668824fab6962637dfcd9788dd86e4b255cd081")


def test_leveled_server_message_bit_tuples_are_pinned():
    tuples = _bit_tuples(pinned_messages(LEVELED_RUNS, LEVELED_CTX))
    assert len(tuples) > 100
    assert max(epoch for _, epoch, _, _ in tuples) > 10  # the ladder climbed
    text = json.dumps(tuples)
    assert hashlib.sha256(text.encode()).hexdigest() == LEVELED_BIT_TUPLES_SHA
