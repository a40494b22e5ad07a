"""Differential driver: pass/fail reporting, stats, and fault injection."""

from __future__ import annotations

import hashlib
import json

from hequel import dsl, engine, kernel, plans, serial
from hequel.circuits import CipherWord
from hequel.crypto import SecurityContext
from hequel.schema import PlainTable, Schema

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


def test_diff_run_detects_injected_fault():
    plan = dsl.parse("select(speed>1, table(pc))")
    report = engine.diff_run(plan, pc_catalog(), seed=b"e2", fault_gate=50)
    assert not report.passed
    # the report names the first differing multiset element
    assert "row (" in report.detail
    assert "encrypted engine has" in report.detail


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


def test_gate_counts_are_data_independent():
    plan = dsl.parse("select(price>600, distinct(table(pc)))")
    cat_a = pc_catalog()
    cat_b = pc_catalog()
    cat_b["pc"].rows[:] = [(9, 1, 9, 9, 9), (8, 2, 8, 8, 8), (7, 3, 7, 7, 7)]
    a = engine.diff_run(plan, cat_a, seed=b"e5")
    b = engine.diff_run(plan, cat_b, seed=b"e5")
    assert a.passed and b.passed
    assert (a.stats.xor_gates, a.stats.and_gates, a.stats.refreshes) == \
           (b.stats.xor_gates, b.stats.and_gates, b.stats.refreshes)


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


# sha256 over the bytes of every pinned message, in wire format v2
SERVER_MESSAGES_SHA = (
    "7aab6c0a024bebffeb01ceae1d38733c4bb38285e4e81b697f2ca7cb5e84fe63")


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


# sha256 of (nonce, epoch, depth, payload) of every ciphertext bit of those
# messages: it does not depend on the wire form, so it pins the nonce
# stream and the payloads across wire format changes
SERVER_BIT_TUPLES_SHA = (
    "52c2b710cfa5920874fea783bd1bd813a457663fac45121573f9f1e43d768044")


def _bit_tuples(messages):
    return [(kernel._nonce_of(b), b.epoch, b.depth, kernel._reveal(b))
            for ladder, data in messages for b in _message_bits(ladder, data)]


def test_server_message_bit_tuples_are_pinned():
    tuples = _bit_tuples(pinned_messages())
    assert len(tuples) > 100
    text = json.dumps(tuples)
    assert hashlib.sha256(text.encode()).hexdigest() == SERVER_BIT_TUPLES_SHA


# the same tuples for the leveled runs
LEVELED_BIT_TUPLES_SHA = (
    "0197db148952eca4fadab099fa9593c1eb6eaf9a8d11d09adc6079abe6873799")


def test_leveled_server_message_bit_tuples_are_pinned():
    tuples = _bit_tuples(pinned_messages(LEVELED_RUNS, LEVELED_CTX))
    assert len(tuples) > 100
    assert max(epoch for _, epoch, _, _ in tuples) > 10  # the ladder climbed
    text = json.dumps(tuples)
    assert hashlib.sha256(text.encode()).hexdigest() == LEVELED_BIT_TUPLES_SHA
