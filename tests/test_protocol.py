"""Two-step result return: count round, fetch round, client verification,
and rejection of tampered or malformed replies."""

from __future__ import annotations

import json

import pytest

from hequel import dsl, plans, serial
from hequel.crypto import SecurityContext, keygen
from hequel.errors import (FetchTooLarge, HequelError, ProtocolError,
                           VerificationFailure)
from hequel.protocol import (ClientSession, ServerStore, result_fetch,
                             run_query, setup_upload, submit_query)
from hequel.relalg import encrypt_table
from hequel.schema import PlainTable, Schema

PC_SCHEMA = Schema((("model", 12), ("speed", 4), ("ram", 12),
                    ("hd", 10), ("price", 12)))
PC_ROWS = [
    (1001, 3, 1024, 250, 2114),
    (1002, 2, 512, 80, 478),
    (1003, 1, 512, 250, 600),
]


def make_session(slack=0, presence=(1, 1, 0)):
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"proto")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key(), slack=slack)
    plain = PlainTable(PC_SCHEMA, list(PC_ROWS))
    enc = encrypt_table(ladder.public_key(), plain,
                        presence=list(presence), name="pc")
    server.tables["pc"] = enc
    client.catalog["pc"] = PC_SCHEMA
    return server, client


def test_two_step_flow():
    server, client = make_session()
    plan = dsl.parse("select(speed>1, table(pc))")
    qid, n = submit_query(client, server, plan)
    # rows 1001 and 1002 pass speed>1; row 1003 is absent anyway
    assert n == 2
    shake = client.pending[qid]
    assert shake.capacity == 3
    out = result_fetch(client, server, qid)
    assert shake.n_prime == 2  # slack 0: exactly n rows cross the wire
    assert sorted(out.rows) == [PC_ROWS[0], PC_ROWS[1]]


def test_slack_widens_fetch():
    server, client = make_session(slack=5)
    plan = dsl.parse("select(speed>1, table(pc))")
    qid, n = submit_query(client, server, plan)
    out = result_fetch(client, server, qid)
    # n + slack caps at the public capacity
    assert client.pending[qid].n_prime == 3
    assert sorted(out.rows) == [PC_ROWS[0], PC_ROWS[1]]


def test_run_query_with_explicit_n_prime():
    server, client = make_session()
    out = run_query(client, server, dsl.parse("select(speed>1, table(pc))"),
                    n_prime=3)
    assert sorted(out.rows) == [PC_ROWS[0], PC_ROWS[1]]


def test_upload_round_trip():
    ladder, keys = keygen(SecurityContext(), seed=b"up")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    plain = PlainTable(Schema((("a", 4),)), [(3,), (9,)])
    setup_upload(client, server, "t", plain)
    assert server.tables["t"].capacity == 2
    out = run_query(client, server, dsl.parse("table(t)"))
    assert sorted(out.rows) == [(3,), (9,)]


def test_fetch_too_large():
    server, client = make_session()
    qid, _ = submit_query(client, server,
                          dsl.parse("select(speed>1, table(pc))"))
    with pytest.raises(FetchTooLarge):
        server.handle(client.fetch_message(qid, n_prime=99))
    with pytest.raises(ProtocolError):
        server.handle(serial.message_to_bytes(
            "fetch_rows_request", qid, {"n_prime": -1}))
    # a refused request keeps the result for a valid one
    assert sorted(result_fetch(client, server, qid).rows) == [
        PC_ROWS[0], PC_ROWS[1]]


def test_result_is_dropped_once_fetched():
    server, client = make_session()
    qid, _ = submit_query(client, server,
                          dsl.parse("select(speed>1, table(pc))"))
    request = client.fetch_message(qid)
    server.handle(request)
    assert server.results == {}
    with pytest.raises(ProtocolError):
        server.handle(request)
    run_query(client, server, dsl.parse("table(pc)"))
    assert server.results == {}


def test_fetch_below_count_refused():
    server, client = make_session()
    qid, n = submit_query(client, server,
                          dsl.parse("select(speed>1, table(pc))"))
    assert n == 2
    with pytest.raises(ProtocolError):
        client.fetch_message(qid, n_prime=1)


def test_fetch_before_count_refused():
    server, client = make_session()
    qid, _ = client.query_message(dsl.parse("table(pc)"))
    with pytest.raises(ProtocolError):
        client.fetch_message(qid)


def test_fetch_for_unknown_query_refused():
    _, client = make_session()
    with pytest.raises(ProtocolError):
        client.fetch_message("zz")


def test_client_keeps_open_exchanges_only():
    server, client = make_session()
    plan = dsl.parse("select(speed>1, table(pc))")
    open_qid, _ = submit_query(client, server, plan)  # counted, not fetched
    for _ in range(5):
        qid, _ = submit_query(client, server, plan)
        result_fetch(client, server, qid)
        assert client.pending[qid].verified
    # the last verified exchange stays until the next query
    assert set(client.pending) == {open_qid, qid}
    next_qid, _ = submit_query(client, server, plan)
    assert set(client.pending) == {open_qid, next_qid}
    with pytest.raises(ProtocolError):
        client.fetch_message(qid)
    assert sorted(result_fetch(client, server, open_qid).rows) == [
        PC_ROWS[0], PC_ROWS[1]]


def tamper(reply: bytes, edit) -> bytes:
    msg = json.loads(reply.decode())
    edit(msg)
    return json.dumps(msg, separators=(",", ":")).encode()


def test_short_reply_fails_verification():
    server, client = make_session()
    qid, _ = submit_query(client, server,
                          dsl.parse("select(speed>1, table(pc))"))
    reply = server.handle(client.fetch_message(qid))

    def drop_last_row(msg):
        msg["payload"]["rows"].pop()

    with pytest.raises(VerificationFailure):
        client.read_rows_and_verify(tamper(reply, drop_last_row))


def test_reordered_reply_fails_prefix_check():
    server, client = make_session(slack=5)
    qid, _ = submit_query(client, server,
                          dsl.parse("select(speed>1, table(pc))"))
    reply = server.handle(client.fetch_message(qid))  # 3 rows: p,p,absent

    def move_absent_row_first(msg):
        rows = msg["payload"]["rows"]
        rows.insert(0, rows.pop())

    with pytest.raises(VerificationFailure) as err:
        client.read_rows_and_verify(tamper(reply, move_absent_row_first))
    assert "absent row precedes" in str(err.value)


def test_wrong_schema_fails_verification():
    server, client = make_session()
    qid, _ = submit_query(client, server,
                          dsl.parse("select(speed>1, table(pc))"))
    reply = server.handle(client.fetch_message(qid))

    def rename_column(msg):
        msg["payload"]["schema"][0][0] = "imposter"

    with pytest.raises(VerificationFailure):
        client.read_rows_and_verify(tamper(reply, rename_column))


def test_overstated_count_fails_verification():
    server, client = make_session()
    plan = dsl.parse("select(speed>1, table(pc))")
    qid, msg = client.query_message(plan)
    reply = server.handle(msg)
    ladder = server.ladder
    from hequel.circuits import const_word
    fake = const_word(ladder.state, 7, 3, 1)  # claims 7 > capacity 3

    def inflate(m):
        m["payload"]["count"] = serial.word_to_obj(ladder, fake)

    with pytest.raises(VerificationFailure):
        client.read_count(tamper(reply, inflate))


MALFORMED_COUNTS = {
    "no count": lambda p: p.pop("count"),
    "no capacity": lambda p: p.pop("capacity"),
    "capacity a string": lambda p: p.update(capacity="3"),
}


@pytest.mark.parametrize("edit", list(MALFORMED_COUNTS.values()) + [None],
                         ids=list(MALFORMED_COUNTS) + ["list payload"])
def test_malformed_count_reply_raises_protocol_error(edit):
    server, client = make_session()
    qid, msg = client.query_message(dsl.parse("select(speed>1, table(pc))"))
    reply = server.handle(msg)

    def forge(m):
        if edit is None:
            m["payload"] = [m["payload"]["count"], m["payload"]["capacity"]]
        else:
            edit(m["payload"])

    with pytest.raises(ProtocolError):
        client.read_count(tamper(reply, forge))
    shake = client.pending[qid]
    assert shake.n is None and shake.capacity is None


def test_server_rejects_malformed_traffic():
    server, client = make_session()
    with pytest.raises(ProtocolError):
        server.handle(serial.message_to_bytes("exfiltrate", "q9", {}))
    with pytest.raises(ProtocolError):
        server.handle(b"\xff\xfe garbage")
    # uploads must name the table
    ladder = server.ladder
    anon = encrypt_table(ladder.public_key(),
                         PlainTable(Schema((("a", 4),)), [(1,)]))
    with pytest.raises(ProtocolError):
        server.handle(serial.message_to_bytes(
            "upload_table", "q8", {"table": serial.table_to_obj(ladder, anon)}))
    # count replies for queries the client never sent are rejected
    qid, msg = client.query_message(dsl.parse("table(pc)"))
    reply = server.handle(msg)

    def misdirect(m):
        m["query_id"] = "q999"

    with pytest.raises(ProtocolError):
        client.read_count(tamper(reply, misdirect))


TABLE = {"node": "table", "name": "pc"}
SPEED_GT_1 = {"node": "cmp", "op": ">", "left": {"node": "col", "name": "speed"},
              "right": {"node": "lit", "value": 1}}


def projections(n):
    """TABLE under n nested projections: the table node is n levels deep."""
    plan = TABLE
    for _ in range(n):
        plan = {"node": "project", "cols": ["speed"], "child": plan}
    return plan


def negations(n):
    pred = SPEED_GT_1
    for _ in range(n):
        pred = {"node": "not", "child": pred}
    return {"node": "select", "pred": pred, "child": TABLE}

MALFORMED_QUERIES = {
    "plan is a number": {"plan": 3},
    "plan missing": {},
    "node is a list": {"plan": [TABLE]},
    "unknown tag": {"plan": {"node": "frobnicate", "child": TABLE}},
    "tag not a string": {"plan": {"node": ["table"], "name": "pc"}},
    "pred missing": {"plan": {"node": "select", "child": TABLE}},
    "child missing": {"plan": {"node": "count"}},
    "extra key": {"plan": {"node": "table", "name": "pc", "rows": 3}},
    "cols not a list": {"plan": {"node": "project", "cols": 5, "child": TABLE}},
    "col not a string": {"plan": {"node": "project", "cols": ["ram", 5],
                                  "child": TABLE}},
    "ascending not a bool": {"plan": {"node": "sort", "col": "ram",
                                      "ascending": 1, "child": TABLE}},
    "predicate as plan": {"plan": SPEED_GT_1},
    "plan as predicate": {"plan": {"node": "select", "pred": TABLE,
                                   "child": TABLE}},
    "literal not an int": {"plan": {"node": "select", "child": TABLE, "pred": {
        **SPEED_GT_1, "right": {"node": "lit", "value": "1"}}}},
    "enclit word not an object": {"plan": {"node": "select", "child": TABLE,
                                           "pred": {**SPEED_GT_1, "right": {
                                               "node": "enclit", "word": 7}}}},
    "enclit word empty": {"plan": {"node": "select", "child": TABLE,
                                   "pred": {**SPEED_GT_1, "right": {
                                       "node": "enclit", "word": {}}}}},
    # deep enough to exhaust the interpreter's stack if walked
    "plan nested 600 deep": {"plan": projections(600)},
    "predicate nested 600 deep": {"plan": negations(600)},
    "plan nested one past the bound": {
        "plan": projections(plans.MAX_PLAN_DEPTH + 1)},
}


def test_server_accepts_plan_at_the_nesting_bound():
    server, client = make_session()
    reply = server.handle(serial.message_to_bytes(
        "query", "q1", {"plan": projections(plans.MAX_PLAN_DEPTH)}))
    assert serial.message_from_bytes(reply)["type"] == "result_count"


@pytest.mark.parametrize("payload", MALFORMED_QUERIES.values(),
                         ids=MALFORMED_QUERIES.keys())
def test_server_rejects_malformed_plans(payload):
    server, _ = make_session()
    with pytest.raises(HequelError):
        server.handle(serial.message_to_bytes("query", "q1", payload))
    if "plan" in payload:
        with pytest.raises(ProtocolError):
            plans.plan_from_obj(payload["plan"], server.ladder)


@pytest.mark.parametrize("mtype", ["upload_table", "query",
                                   "fetch_rows_request"])
@pytest.mark.parametrize("payload", [{}, [], "plan", None],
                         ids=["empty", "list", "string", "null"])
def test_server_rejects_payload_without_its_key(mtype, payload):
    server, _ = make_session()
    with pytest.raises(ProtocolError):
        server.handle(serial.message_to_bytes(mtype, "q1", payload))


@pytest.mark.parametrize("data", [b"3", b"[]", b'"query"',
                                  b'{"type":["query"],"query_id":"q","payload":{}}',
                                  b'{"type":"query","query_id":[1],"payload":{}}'])
def test_server_rejects_malformed_envelopes(data):
    server, _ = make_session()
    with pytest.raises(ProtocolError):
        server.handle(data)


def test_server_rejects_deeply_nested_json():
    # deeper than the JSON decoder's recursion limit
    server, _ = make_session()
    with pytest.raises(ProtocolError):
        server.handle(b"[" * 100000)


def _cell(t):
    return t["rows"][0]["cells"][0]


def _bit(t):
    return _cell(t)["bits"][0]


# each edit forges one part of an otherwise valid upload of a table with
# two 4-bit columns, under a circular ladder with depth budget 8
FORGED_UPLOADS = {
    "row without presence": lambda t: t["rows"][0].pop("p"),
    "presence not an object": lambda t: t["rows"][0].update(p="1"),
    "bit not an object": lambda t: _cell(t)["bits"].__setitem__(0, 5),
    "blob not hex": lambda t: _bit(t).update(blob="zz" * 9),
    "blob not a string": lambda t: _bit(t).update(blob=7),
    "bit without epoch": lambda t: _bit(t).pop("epoch"),
    "epoch 99": lambda t: _bit(t).update(epoch=99),
    "epoch 0": lambda t: _bit(t).update(epoch=0),
    "epoch a bool": lambda t: _bit(t).update(epoch=True),
    "depth -5": lambda t: _bit(t).update(depth=-5),
    "depth past budget": lambda t: _bit(t).update(depth=9),
    "bits not a list": lambda t: _cell(t).update(bits="0101"),
    "width not an int": lambda t: _cell(t).update(width="4"),
    "1-bit cell in a 4-bit column": lambda t: _cell(t).update(
        width=1, bits=_cell(t)["bits"][:1]),
    "cell missing": lambda t: t["rows"][0]["cells"].pop(),
    "cells not a list": lambda t: t["rows"][0].update(cells=None),
    "rows not a list": lambda t: t.update(rows={"0": t["rows"][0]}),
    "schema entry [a]": lambda t: t["schema"].__setitem__(0, ["a"]),
    "schema width a string": lambda t: t["schema"][0].__setitem__(1, "4"),
    "name not a string": lambda t: t.update(name=["pc"]),
    "bit version 7": lambda t: _bit(t).update(v=7),
    "bit without version": lambda t: _bit(t).pop("v"),
    "bit version a bool": lambda t: _bit(t).update(v=True),
    "word version 2": lambda t: _cell(t).update(v=2),
    "word without version": lambda t: _cell(t).pop("v"),
    "table version 0": lambda t: t.update(v=0),
}


@pytest.mark.parametrize("edit", FORGED_UPLOADS.values(),
                         ids=FORGED_UPLOADS.keys())
def test_server_rejects_forged_uploads(edit):
    server, client = make_session()
    original = server.tables["pc"]
    upload = client.upload_message(
        "pc", PlainTable(Schema((("a", 4), ("b", 4))), [(3, 9), (1, 2)]))
    with pytest.raises(ProtocolError):
        server.handle(tamper(upload, lambda m: edit(m["payload"]["table"])))
    assert server.tables["pc"] is original


def test_compact_fetch_is_smaller_than_full_table():
    server, client = make_session()
    qid, n = submit_query(client, server,
                          dsl.parse("select(speed>1, table(pc))"))
    reply = server.handle(client.fetch_message(qid))
    full = serial.message_to_bytes("upload_table", "x", {
        "table": serial.table_to_obj(server.ladder, server.tables["pc"])})
    assert n == 2
    assert len(reply) < len(full)


def _fetch_counts(presence):
    """Kernel counter deltas of the server's fetch phase for a query
    returning a two-column table with this presence, all rows requested."""
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"fetch")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    s = Schema((("a", 4), ("b", 4)))
    plain = PlainTable(s, [(i, 15 - i) for i in range(len(presence))])
    server.tables["t"] = encrypt_table(ladder.public_key(), plain,
                                       presence=list(presence), name="t")
    client.catalog["t"] = s
    qid, _ = submit_query(client, server, dsl.parse("table(t)"))
    st = ladder.state
    before = (st.and_count, st.xor_count, st.refresh_count, st.encrypt_count)
    reply = server.handle(client.fetch_message(qid, n_prime=len(presence)))
    after = (st.and_count, st.xor_count, st.refresh_count, st.encrypt_count)
    out = client.read_rows_and_verify(reply)
    assert out.rows == [r for r, p in zip(plain.rows, presence) if p]
    return tuple(b - a for a, b in zip(before, after))


def test_fetch_gates_do_not_depend_on_presence():
    counts = {_fetch_counts(p) for p in
              ([1] * 7, [0] * 7, [0, 1, 1, 0, 1, 0, 0], [1, 0, 0, 1, 1, 1, 0])}
    assert len(counts) == 1
    assert next(iter(counts))[0] > 0


def test_capacity_one_fetch_costs_nothing():
    assert _fetch_counts([1]) == (0, 0, 0, 0)
    assert _fetch_counts([0]) == (0, 0, 0, 0)


def test_protocol_in_leveled_mode():
    ctx = SecurityContext(mode="leveled", depth_budget=8, epochs=24)
    ladder, keys = keygen(ctx, seed=b"lev")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    plain = PlainTable(Schema((("a", 8),)), [(5,), (200,), (7,)])
    setup_upload(client, server, "t", plain)
    out = run_query(client, server, dsl.parse("select(a<100, table(t))"))
    assert sorted(out.rows) == [(5,), (7,)]
