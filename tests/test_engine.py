"""Differential driver: pass/fail reporting, stats, and fault injection."""

from __future__ import annotations

import hashlib

from hequel import dsl, engine
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


# sha256 over every message of the two runs below, from the kernel that
# mixed every nonce when it was minted
SERVER_MESSAGES_SHA = (
    "17e76f4ed97b569973095e789ecbff5f2cc700c0f85e8809f1bc1fe012b8de04")


def test_server_messages_are_pinned():
    digest = hashlib.sha256()
    for seed, text in ((b"m1", "sort(price, asc, table(pc))"),
                       (b"m2", "select(speed>1, table(pc))")):
        server, client = engine.build_session(pc_catalog(), seed=seed)
        handle = server.handle

        def recording(data, handle=handle):
            reply = handle(data)
            digest.update(data)
            digest.update(reply)
            return reply

        server.handle = recording
        table, _ = engine.run_encrypted(dsl.parse(text), server, client)
        assert table.rows
    assert digest.hexdigest() == SERVER_MESSAGES_SHA
