"""Two-step result return: count round, fetch round, client verification,
and rejection of tampered or malformed replies; a stored table that
builds only the cells a query reads, and the compaction's bound on the
shapes it has seen once."""

from __future__ import annotations

import base64
import dataclasses
import json

import pytest

from hequel import dsl, kernel, oracle, plans, protocol, relalg, serial
from hequel.circuits import encrypt_word
from hequel.crypto import SecurityContext, encrypt_bit, keygen
from hequel.errors import (FetchTooLarge, HequelError, ProtocolError,
                           VerificationFailure)
from hequel.protocol import (MAX_PENDING_RESULTS, ClientSession, ServerStore,
                             result_fetch, run_query, setup_upload,
                             submit_query)
from hequel.relalg import encrypt_table
from hequel.schema import MAX_WIDTH, PlainTable, Schema
from test_serial import _counting

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
    shake = client.pending[qid]
    out = result_fetch(client, server, qid)
    # n + slack caps at the public capacity
    assert shake.n_prime == 3
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
    for bad in (-1, True):
        with pytest.raises(ProtocolError):
            server.handle(serial.message_to_bytes(
                "fetch_rows_request", qid, {"n_prime": bad}))
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


def test_pending_results_are_capped():
    server, client = make_session()
    plan = dsl.parse("table(pc)")
    qids = [submit_query(client, server, plan)[0]
            for _ in range(MAX_PENDING_RESULTS)]
    with pytest.raises(ProtocolError):
        submit_query(client, server, plan)
    assert len(server.results) == MAX_PENDING_RESULTS
    # a fetch frees a slot for the next query
    result_fetch(client, server, qids[0])
    qid, _ = submit_query(client, server, plan)
    assert sorted(result_fetch(client, server, qid).rows) == [
        PC_ROWS[0], PC_ROWS[1]]


def test_refused_query_leaves_no_exchange():
    server, client = make_session()
    plan = dsl.parse("table(pc)")
    qids = {submit_query(client, server, plan)[0]
            for _ in range(MAX_PENDING_RESULTS)}
    with pytest.raises(ProtocolError):
        submit_query(client, server, plan)
    assert set(client.pending) == qids


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
        # a verified exchange is dropped at once
        assert set(client.pending) == {open_qid}
    with pytest.raises(ProtocolError, match="out of sequence"):
        client.fetch_message(qid)
    assert sorted(result_fetch(client, server, open_qid).rows) == [
        PC_ROWS[0], PC_ROWS[1]]


def test_replayed_count_is_refused():
    server, client = make_session()
    qid, msg = client.query_message(dsl.parse("select(speed>1, table(pc))"))
    count = server.handle(msg)
    client.read_count(count)
    shake = client.pending[qid]
    for stage in ("counted", "requested"):
        assert shake.stage == stage
        with pytest.raises(ProtocolError, match="out of sequence"):
            client.read_count(count)
        assert (shake.n, shake.capacity, shake.stage) == (2, 3, stage)
        request = client.fetch_message(qid)
    client.read_rows_and_verify(server.handle(request))
    with pytest.raises(ProtocolError, match="out of sequence"):
        client.read_count(count)
    assert qid not in client.pending
    assert (shake.n, shake.capacity, shake.stage) == (2, 3, "requested")


def test_replayed_rows_are_refused():
    server, client = make_session()
    qid, _ = submit_query(client, server,
                          dsl.parse("select(speed>1, table(pc))"))
    rows = server.handle(client.fetch_message(qid))
    assert sorted(client.read_rows_and_verify(rows).rows) == [
        PC_ROWS[0], PC_ROWS[1]]
    with pytest.raises(ProtocolError, match="out of sequence"):
        client.read_rows_and_verify(rows)
    with pytest.raises(ProtocolError, match="out of sequence"):
        client.fetch_message(qid)
    assert client.pending == {}


def test_replayed_query_is_refused_before_any_gate():
    server, client = make_session()
    qid, msg = client.query_message(dsl.parse("distinct(table(pc))"))
    server.handle(msg)
    held = server.results[qid]
    before = _counters(server.ladder.state)
    with pytest.raises(ProtocolError, match="already awaits a fetch"):
        server.handle(msg)
    assert _counters(server.ladder.state) == before
    assert server.results[qid] is held


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


def test_readers_refuse_a_reply_of_the_wrong_type():
    # each reply keeps a payload its reader accepts; only its type is wrong
    def retype(mtype):
        return lambda m: m.update(type=mtype)

    server, client = make_session()
    qid, msg = client.query_message(dsl.parse("select(speed>1, table(pc))"))
    count = server.handle(msg)
    with pytest.raises(ProtocolError):
        client.read_count(tamper(count, retype("fetch_rows")))
    assert client.pending[qid].n is None
    assert client.read_count(count) == (qid, 2)
    rows = server.handle(client.fetch_message(qid))
    with pytest.raises(ProtocolError):
        client.read_rows_and_verify(tamper(rows, retype("result_count")))
    assert sorted(client.read_rows_and_verify(rows).rows) == [
        PC_ROWS[0], PC_ROWS[1]]


def test_rows_for_a_query_never_issued_are_refused():
    server, client = make_session()
    qid, _ = submit_query(client, server,
                          dsl.parse("select(speed>1, table(pc))"))
    reply = server.handle(client.fetch_message(qid))

    def misdirect(m):
        m["query_id"] = "q999"

    with pytest.raises(ProtocolError):
        client.read_rows_and_verify(tamper(reply, misdirect))
    assert client.pending[qid].stage == "requested"
    assert sorted(client.read_rows_and_verify(reply).rows) == [
        PC_ROWS[0], PC_ROWS[1]]


def test_present_row_made_absent_fails_verification():
    # the reply keeps the requested number of rows, so only the count of
    # present rows can catch it
    server, client = make_session()
    qid, n = submit_query(client, server,
                          dsl.parse("select(speed>1, table(pc))"))
    reply = server.handle(client.fetch_message(qid))
    ladder = server.ladder
    zero = encrypt_bit(ladder.public_key(), 0)

    def drop_presence(m):
        rows = m["payload"]["rows"]
        cells = serial.row_from_obj(ladder, rows[0]).cells
        rows[0] = serial.row_to_obj(ladder, relalg.EncRow(cells, zero))

    with pytest.raises(VerificationFailure, match=f"count said {n}"):
        client.read_rows_and_verify(tamper(reply, drop_presence))


def test_setup_upload_refuses_a_reply_other_than_upload_ok():
    _, client = make_session()

    class RefusingServer:
        def handle(self, data: bytes) -> bytes:
            return serial.message_to_bytes("result_count", "q1", {})

    with pytest.raises(ProtocolError):
        setup_upload(client, RefusingServer(), "t",
                     PlainTable(Schema((("a", 4),)), [(3,)]))


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
    assert (shake.stage, shake.n, shake.capacity) == ("queried", None, None)


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
# speed > 1 with its literal in clear, as no client sends it
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
    "plaintext literal": {"plan": {"node": "select", "child": TABLE,
                                   "pred": SPEED_GT_1}},
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


def _kv_server():
    """A server holding a(k:8, v:8) with 32 rows and b(k:8) with 2."""
    ladder, _ = keygen(SecurityContext(depth_budget=8), seed=b"typed")
    pk = ladder.public_key()
    server = ServerStore(ladder)
    kv = PlainTable(Schema((("k", 8), ("v", 8))),
                    [((i * 37) % 256, i) for i in range(32)])
    server.tables["a"] = encrypt_table(pk, kv, name="a")
    server.tables["b"] = encrypt_table(
        pk, PlainTable(Schema((("k", 8),)), [(1,), (2,)]), name="b")
    return server


def _counters(state):
    return (state.and_count, state.xor_count, state.refresh_count,
            state.encrypt_count)


TABLE_A = {"node": "table", "name": "a"}
COL_K = {"node": "col", "name": "k"}


def _enclit(ladder, width):
    return {"node": "enclit", "word": serial.word_to_obj(
        ladder, encrypt_word(ladder.public_key(), 1, width))}


def _cmp(op, right):
    return {"node": "cmp", "op": op, "left": COL_K, "right": right}


def _select_after_valid(ladder, bad_cmp):
    """select(k > 1 and <bad_cmp>, table(a)): the valid comparison comes
    first, so an evaluator that checks as it goes spends gates on it."""
    return {"node": "select", "child": TABLE_A, "pred": {
        "node": "and", "left": _cmp(">", _enclit(ladder, 8)),
        "right": bad_cmp}}


# well-formed wire plans that break a typing rule, each as a function of the
# server's ladder, which its encrypted literals need
ILL_TYPED = {
    "unknown column above distinct": lambda ladder: {
        "node": "project", "cols": ["nope"],
        "child": {"node": "distinct", "child": TABLE_A}},
    "8-bit column against a 12-bit literal": lambda ladder: (
        _select_after_valid(ladder, _cmp("=", _enclit(ladder, 12)))),
    "union of two schemas": lambda ladder: {
        "node": "union", "left": {"node": "distinct", "child": TABLE_A},
        "right": {"node": "table", "name": "b"}},
    "and node as an operand": lambda ladder: _select_after_valid(
        ladder, _cmp("=", {"node": "and",
                           "left": _cmp(">", _enclit(ladder, 8)),
                           "right": _cmp("<", _enclit(ladder, 8))})),
    "operator ~": lambda ladder: _select_after_valid(
        ladder, _cmp("~", _enclit(ladder, 8))),
    "col node as the select predicate": lambda ladder: {
        "node": "select", "pred": COL_K, "child": TABLE_A},
    "col node under and": lambda ladder: _select_after_valid(ladder, COL_K),
    "cmp node as an operand": lambda ladder: _select_after_valid(
        ladder, _cmp("=", _cmp(">", _enclit(ladder, 8)))),
}


@pytest.mark.parametrize("forge", ILL_TYPED.values(), ids=ILL_TYPED.keys())
def test_server_typechecks_a_plan_before_any_gate(forge):
    server = _kv_server()
    plan = forge(server.ladder)
    before = _counters(server.ladder.state)
    with pytest.raises(HequelError):
        server.handle(serial.message_to_bytes("query", "q1", {"plan": plan}))
    assert _counters(server.ladder.state) == before
    assert server.results == {}


def test_server_refuses_a_plaintext_literal():
    # a query constant sent in clear is refused before it is evaluated
    server, _ = make_session()
    with pytest.raises(ProtocolError, match="bad predicate tag 'lit'"):
        server.handle(serial.message_to_bytes("query", "q1", {
            "plan": {"node": "select", "pred": SPEED_GT_1, "child": TABLE}}))
    assert server.results == {}


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


def _row(t):
    """The first row's record: one word over its cells and presence bit."""
    return t["rows"][0]


def _blob(word, edit):
    """Re-encode ``word``'s blob after ``edit`` changes its raw bytes."""
    raw = bytearray(base64.b64decode(word["blob"]))
    edit(raw)
    word["blob"] = base64.b64encode(bytes(raw)).decode()


def _stepped_row(t):
    """The first row's record rewritten in the stepped layout (v4), as the
    server writes rows, so an edit forges a field of that layout."""
    ladder, _ = keygen(SecurityContext(depth_budget=8), seed=b"proto")
    row = t["rows"][0]
    bits = serial.word_from_obj(ladder, row).bits
    nonces = [b._nonce for b in bits]
    _, _, *parts = kernel._wire_parts(bits)
    t["rows"][0] = serial._row_obj(ladder, row["cells"], nonces,
                                   kernel._nonce_steps(nonces), *parts)
    return t["rows"][0]


def _record(width, cells):
    """An edit making the first row a well-formed ``width``-bit word under
    the ladder of ``make_session``, with ``cells`` as its cell widths."""
    def edit(t):
        ladder, _ = keygen(SecurityContext(depth_budget=8), seed=b"proto")
        t["rows"][0] = dict(serial.word_to_obj(
            ladder, encrypt_word(ladder.public_key(), 1, width)), cells=cells)
    return edit


# each edit forges one part of an otherwise valid upload of a table with
# two 4-bit columns, under a circular ladder with depth budget 8; a row is
# one 9-bit word, its cells' 8 bits and then the presence bit, seeded as
# the client writes it; an edit of a field only the stepped layout has
# rewrites the row in that layout first. The cases from table version 2,
# which made each cell and each presence bit its own word, keep their
# names and forge the same part of the row record.
FORGED_UPLOADS = {
    # a well-formed word whose cells take every bit
    "row without presence": _record(8, [4, 4]),
    "presence not an object": lambda t: t["rows"].__setitem__(0, "1"),
    "word not an object": lambda t: t["rows"].__setitem__(0, 5),
    "blob not base64": lambda t: _row(t).update(blob="z!" * 30),
    "blob not a string": lambda t: _row(t).update(blob=7),
    "blob a list": lambda t: _row(t).update(blob=[_row(t)["blob"]]),
    "bit without epoch": lambda t: _row(t).pop("epoch"),
    "epoch 99": lambda t: _row(t).update(epoch=99),
    "epoch 0": lambda t: _row(t).update(epoch=0),
    "epoch a bool": lambda t: _row(t).update(epoch=True),
    "depth -5": lambda t: _stepped_row(t).update(depth=-5),
    "depth past budget": lambda t: _stepped_row(t).update(depth=9),
    "width not an int": lambda t: _row(t).update(width="9"),
    "1-bit cell in a 4-bit column": _record(6, [1, 4]),
    "cell missing": _record(5, [4]),
    "cells not a list": lambda t: _row(t).update(cells=None),
    "rows not a list": lambda t: t.update(rows={"0": t["rows"][0]}),
    "schema entry [a]": lambda t: t["schema"].__setitem__(0, ["a"]),
    "schema width a string": lambda t: t["schema"][0].__setitem__(1, "4"),
    "name not a string": lambda t: t.update(name=["pc"]),
    "bit version 7": lambda t: _row(t).update(v=7),
    "bit without version": lambda t: _row(t).pop("v"),
    "bit version a bool": lambda t: _row(t).update(v=True),
    "word version 1": lambda t: _row(t).update(v=1),
    "word without version": lambda t: _row(t).pop("v"),
    "table version 0": lambda t: t.update(v=0),
    # wire format v4 (the server's row layout) and v3 (the client's seeded
    # one): per-bit metadata lists, blob size, padding, width
    "table version 1": lambda t: t.update(v=1),
    "epoch list too short": lambda t: _stepped_row(t).update(epoch=[1] * 8),
    "epoch list holding a bool": lambda t: _stepped_row(t).update(
        epoch=[1, True] + [1] * 7),
    "depth list too long": lambda t: _stepped_row(t).update(depth=[0] * 10),
    "depth list holding a bool": lambda t: _stepped_row(t).update(
        depth=[0, 0, False] + [0] * 6),
    "blob one byte short": lambda t: _blob(_row(t), bytearray.pop),
    # a 9-bit word's last payload byte has 7 padding bits, and flipping a
    # masked bit flips the same bit after unmasking
    "padding bit set": lambda t: _blob(
        _row(t), lambda raw: raw.__setitem__(-1, raw[-1] ^ 0x10)),
    # a well-formed word whose cells leave two bits over
    "presence word of width 2": _record(10, [4, 4]),
    "width 2**40": lambda t: _row(t).update(width=2 ** 40),
    # table version 3: one record per row, split by its cell widths
    "table version 2": lambda t: t.update(v=2),
    # a v4 record relabelled seeded: its blob is a byte a step too long
    "row word version 3": lambda t: _stepped_row(t).update(v=3),
    "cells missing": lambda t: _row(t).pop("cells"),
    "cells a string": lambda t: _row(t).update(cells="44"),
    "cells an object": lambda t: _row(t).update(cells={"a": 4, "b": 4}),
    "cell width a string": lambda t: _row(t).update(cells=["4", 4]),
    "cell width a float": lambda t: _row(t).update(cells=[4.0, 4]),
    "cell width null": lambda t: _row(t).update(cells=[None, 4]),
    # the widths below sum to 8, so only the kind of one width refuses them
    "cell width a bool": lambda t: _row(t).update(cells=[True, 3, 4]),
    "cell width 0": lambda t: _row(t).update(cells=[0, 4, 4]),
    "cell width -1": lambda t: _row(t).update(cells=[-1, 5, 4]),
    "cells short of the width": lambda t: _row(t).update(cells=[4, 3]),
    "cells past the width": lambda t: _row(t).update(cells=[4, 5, 1]),
    "no cells": lambda t: _row(t).update(cells=[]),
    # the row splits cleanly, but not as the schema's columns
    "cells [2, 6] for columns [4, 4]": lambda t: _row(t).update(cells=[2, 6]),
    "cells [8] for columns [4, 4]": lambda t: _row(t).update(cells=[8]),
    "cells [4, 2, 2] for columns [4, 4]": lambda t: _row(t).update(
        cells=[4, 2, 2]),
    "second row's cells [4, 3, 1]": lambda t: t["rows"][1].update(
        cells=[4, 3, 1]),
}


@pytest.mark.parametrize("edit", FORGED_UPLOADS.values(),
                         ids=FORGED_UPLOADS.keys())
def test_server_rejects_forged_uploads(edit):
    server, client = make_session()
    before = dict(server.tables)
    upload = client.upload_message(
        "up", PlainTable(Schema((("a", 4), ("b", 4))), [(3, 9), (1, 2)]))
    with pytest.raises(ProtocolError):
        server.handle(tamper(upload, lambda m: edit(m["payload"]["table"])))
    assert server.tables == before
    # the same upload untampered is stored, so the edit made the refusal
    server.handle(upload)
    assert set(server.tables) == set(before) | {"up"}


def test_server_refuses_a_column_wider_than_the_bound():
    # an empty table carries no ciphertext, so only the schema bounds the
    # words its aggregates would build
    server, _ = make_session()

    def upload(width):
        return serial.message_to_bytes("upload_table", "q1", {"table": {
            "v": serial.TABLE_VERSION, "name": f"w{width}",
            "schema": [["a", width]], "rows": []}})

    with pytest.raises(HequelError):
        server.handle(upload(MAX_WIDTH + 1))
    assert set(server.tables) == {"pc"}
    server.handle(upload(MAX_WIDTH))
    stored = server.tables[f"w{MAX_WIDTH}"]
    assert stored.schema.columns == (("a", MAX_WIDTH),)


def test_server_refuses_to_replace_a_stored_table():
    server, client = make_session()
    original = server.tables["pc"]
    plain = PlainTable(Schema((("a", 4), ("b", 4))), [(3, 9), (1, 2)])
    # a second client on the same keys, whose catalog lacks "pc", so the
    # duplicate reaches the server
    other = ClientSession(client.keys, client.pk)
    with pytest.raises(ProtocolError, match="'pc' is already stored"):
        server.handle(other.upload_message("pc", plain))
    assert server.tables["pc"] is original
    setup_upload(client, server, "pc2", plain)
    assert server.tables["pc2"].capacity == 2


@pytest.mark.parametrize("name, refusal", [("pc", "'pc' is already stored"),
                                           ("", "needs a name")])
def test_upload_name_is_refused_before_any_row_is_decoded(name, refusal):
    server, client = make_session()
    original = server.tables["pc"]
    # a second client on the same keys, so "pc" reaches the server
    upload = ClientSession(client.keys, client.pk).upload_message(
        name, PlainTable(Schema((("a", 4), ("b", 4))), [(3, 9), (1, 2)]))

    def corrupt(m):
        m["payload"]["table"]["rows"] = [0, {"cells": "x"}]

    state = server.ladder.state
    before = (state.encrypt_count, state.nonce_state)
    with pytest.raises(ProtocolError, match=refusal):
        server.handle(tamper(upload, corrupt))
    assert set(server.tables) == {"pc"} and server.tables["pc"] is original
    assert (state.encrypt_count, state.nonce_state) == before


def test_row_widths_are_refused_before_any_row_is_decoded(monkeypatch):
    server, client = make_session()
    upload = client.upload_message(
        "t", PlainTable(Schema((("a", 8),)), [(1,), (2,), (3,)]))
    # a valid 9-bit word, as a's 8 bits and presence would be, split [4, 4]
    last = serial.encrypt_table_obj(
        client.pk, PlainTable(Schema((("x", 4), ("y", 4))), [(5, 6)]))
    word_from_parts, calls = kernel.word_from_parts, []

    def counted(*args):
        calls.append(args)
        return word_from_parts(*args)

    def append(m):
        m["payload"]["table"]["rows"].append(last["rows"][0])

    monkeypatch.setattr(kernel, "word_from_parts", counted)
    with pytest.raises(ProtocolError, match=r"\[4, 4\] do not match .*\[8\]"):
        server.handle(tamper(upload, append))
    assert calls == [] and set(server.tables) == {"pc"}


def test_client_refuses_a_name_it_already_uploaded():
    server, client = make_session()
    plain = PlainTable(Schema((("a", 4),)), [(3,), (9,)])
    setup_upload(client, server, "t", plain)
    state = server.ladder.state
    before = (state.encrypt_count, state.nonce_state)
    with pytest.raises(ProtocolError):
        setup_upload(client, server, "t",
                     PlainTable(Schema((("b", 8),)), [(200,)]))
    assert client.catalog["t"] == plain.schema
    assert (state.encrypt_count, state.nonce_state) == before
    assert run_query(client, server, dsl.parse("table(t)")).rows == plain.rows


def test_upload_the_server_refuses_leaves_no_catalog_entry(monkeypatch):
    server, client = make_session()
    monkeypatch.setattr(protocol, "MAX_STORED_TABLES", 1)
    with pytest.raises(ProtocolError, match="1 tables are stored"):
        setup_upload(client, server, "t",
                     PlainTable(Schema((("a", 4),)), [(3,)]))
    assert set(client.catalog) == {"pc"} and set(server.tables) == {"pc"}


def test_a_refused_direct_upload_leaves_no_catalog_entry(monkeypatch):
    # the message goes through ServerStore.handle itself, not setup_upload
    server, client = make_session()
    monkeypatch.setattr(protocol, "MAX_STORED_TABLES", 0)
    upload = client.upload_message("t", PlainTable(Schema((("a", 4),)),
                                                   [(3,)]))
    with pytest.raises(ProtocolError, match="1 tables are stored"):
        server.handle(upload)
    assert set(client.catalog) == {"pc"} and set(server.tables) == {"pc"}


def test_the_client_records_an_upload_once_the_server_accepts_it():
    server, client = make_session()
    plain = PlainTable(Schema((("a", 4),)), [(3,), (9,)])
    reply = server.handle(client.upload_message("t", plain))
    assert "t" not in client.catalog
    assert client.read_upload(reply) == "t"
    assert client.catalog["t"] == plain.schema
    assert run_query(client, server, dsl.parse("table(t)")).rows == plain.rows
    # a reply for a name this client is not uploading records nothing
    for forged in (reply, tamper(reply, lambda m: m["payload"].update(
            name="pc2"))):
        with pytest.raises(ProtocolError, match="not an upload"):
            client.read_upload(forged)
    assert set(client.catalog) == {"pc", "t"}


def test_compact_fetch_is_smaller_than_full_table():
    server, client = make_session()
    qid, n = submit_query(client, server,
                          dsl.parse("select(speed>1, table(pc))"))
    held = server.results[qid]
    reply = server.handle(client.fetch_message(qid))
    # every row of the held result, as a fetch without compaction would
    # carry them
    full = serial.message_to_bytes("fetch_rows", qid, {
        "schema": serial.schema_to_obj(held.schema),
        "rows": [serial.row_to_obj(server.ladder, r) for r in held.rows]})
    assert n == 2 < len(held.rows)
    assert len(reply) < len(full)


def test_scalar_count_word_travels_seeded():
    # a scalar aggregate's result is one row whose presence bit the server
    # encrypts fresh; its count is that bit, a one-bit run at depth 0, so it
    # travels seeded, while the fetched row holds gate outputs
    server, client = make_session()
    qid, query = client.query_message(dsl.parse("sum(price, table(pc))"))
    reply = server.handle(query)
    (row,) = server.results[qid].rows
    count = serial.message_from_bytes(reply)["payload"]["count"]
    assert (count["v"], count["width"]) == (serial.SEEDED_VERSION, 1)
    (bit,) = serial.word_from_obj(server.ladder, count).bits
    p = row.presence
    assert (bit._nonce, bit.epoch, bit.depth, kernel._reveal(bit)) == \
        (p._nonce, p.epoch, 0, kernel._reveal(p))
    assert client.read_count(reply) == (qid, 1)
    fetched = server.handle(client.fetch_message(qid))
    (record,) = serial.message_from_bytes(fetched)["payload"]["rows"]
    assert record["v"] == serial.STEPPED_VERSION
    assert client.read_rows_and_verify(fetched).rows == [(2114 + 478,)]


FETCH_SCHEMA = Schema((("a", 4), ("b", 4)))


def _fetch_counts(presence, text="table(t)", n_prime=None):
    """Kernel counter deltas of the server's fetch phase for the query
    ``text`` over a two-column table ``t`` with this presence, and the
    rows it returns; all rows are requested unless ``n_prime`` is given."""
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"fetch")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    plain = PlainTable(FETCH_SCHEMA,
                       [(i, 15 - i) for i in range(len(presence))])
    server.tables["t"] = encrypt_table(ladder.public_key(), plain,
                                       presence=list(presence), name="t")
    client.catalog["t"] = FETCH_SCHEMA
    qid, _ = submit_query(client, server, dsl.parse(text))
    if n_prime is None:
        n_prime = len(presence)
    st = ladder.state
    before = (st.and_count, st.xor_count, st.refresh_count, st.encrypt_count)
    reply = server.handle(client.fetch_message(qid, n_prime=n_prime))
    after = (st.and_count, st.xor_count, st.refresh_count, st.encrypt_count)
    out = client.read_rows_and_verify(reply)
    return tuple(b - a for a, b in zip(before, after)), out.rows


def _present(presence):
    return [(i, 15 - i) for i, p in enumerate(presence) if p]


PRESENCES = ([1] * 7, [0] * 7, [0, 1, 1, 0, 1, 0, 0], [1, 0, 0, 1, 1, 1, 0])


def test_fetch_gates_do_not_depend_on_presence():
    counts = set()
    for p in PRESENCES:
        spent, rows = _fetch_counts(p)
        assert rows == _present(p)
        counts.add(spent)
    assert len(counts) == 1
    assert next(iter(counts))[0] > 0


def test_capacity_one_fetch_costs_nothing():
    assert _fetch_counts([1])[0] == (0, 0, 0, 0)
    assert _fetch_counts([0])[0] == (0, 0, 0, 0)


@pytest.mark.parametrize("presence", PRESENCES)
def test_packed_fetch_costs_nothing(presence):
    """A sort puts its present rows in front, so its fetch sends the first
    n' rows as they are: no gate, refresh or encryption, for every n' and
    every presence pattern."""
    n = sum(presence)
    for n_prime in range(n, len(presence) + 1):
        spent, rows = _fetch_counts(presence, "sort(a, desc, table(t))",
                                    n_prime)
        assert spent == (0, 0, 0, 0)
        assert rows == _present(presence)[::-1]


def test_packed_follows_the_plan_shape():
    """project keeps a sort's packing, select loses it and compacts."""
    presence = [0, 1, 1, 0, 1, 0, 0]
    ladder, _ = keygen(SecurityContext(depth_budget=8), seed=b"shape")
    pk = ladder.public_key()
    t = encrypt_table(pk, PlainTable(FETCH_SCHEMA, _present([1] * 7)),
                      presence=presence, name="t")

    def evaluate(text):
        plan = plans.encrypt_plan_literals(dsl.parse(text),
                                           {"t": FETCH_SCHEMA}, pk)
        return plans.eval_encrypted(plan, {"t": t})

    packed = {text: evaluate(text).packed
              for text in ("table(t)", "sort(a, asc, table(t))",
                           "project([b], sort(a, asc, table(t)))",
                           "select(a>1, sort(a, asc, table(t)))",
                           "sort(a, asc, select(a>1, table(t)))")}
    assert packed == {"table(t)": False, "sort(a, asc, table(t))": True,
                      "project([b], sort(a, asc, table(t)))": True,
                      "select(a>1, sort(a, asc, table(t)))": False,
                      "sort(a, asc, select(a>1, table(t)))": True}
    spent, rows = _fetch_counts(presence, "project([b], sort(a, asc, table(t)))")
    assert (spent, rows) == ((0, 0, 0, 0), [(14,), (13,), (11,)])
    spent, rows = _fetch_counts(presence, "select(a>1, sort(a, asc, table(t)))")
    # the compaction of any 7-row result: its gates, not its refreshes,
    # which follow the depth of the sorted cells
    assert spent[:2] == _fetch_counts(presence)[0][:2]
    assert spent[0] > 0
    assert rows == [(2, 13), (4, 11)]


def test_forged_packed_flag_fails_verification(monkeypatch):
    """A server that marks an unsorted result packed skips the compaction
    and sends an absent row first; the client's prefix check catches it."""
    op_select = relalg.op_select
    monkeypatch.setattr(relalg, "op_select", lambda pred, t: dataclasses.replace(
        op_select(pred, t), packed=True))
    server, client = make_session(presence=(1, 1, 1))
    # speeds 3, 2, 1: the first row is dropped, the other two are present
    qid, n = submit_query(client, server, dsl.parse("select(speed<3, table(pc))"))
    assert n == 2
    with pytest.raises(VerificationFailure):
        result_fetch(client, server, qid)


def _phase_counts(ctx, text="select(k > 50, table(t))"):
    """(ANDs, refreshes, encryptions) of the query and of the fetch phase
    of the plan ``text`` over a table t of 32 rows, k:8, v:8."""
    ladder, keys = keygen(ctx, seed=b"phases")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    s = Schema((("k", 8), ("v", 8)))
    plain = PlainTable(s, [((i * 53) % 256, i) for i in range(32)])
    server.tables["t"] = encrypt_table(ladder.public_key(), plain, name="t")
    client.catalog["t"] = s
    st = ladder.state

    def counts():
        return st.and_count, st.refresh_count, st.encrypt_count

    plan = dsl.parse(text)
    before = counts()
    qid, _ = submit_query(client, server, plan)
    query = counts()
    reply = server.handle(client.fetch_message(qid))
    fetch = counts()
    assert sorted(client.read_rows_and_verify(reply).rows) == sorted(
        oracle.eval_plan(plan, {"t": plain}).rows)
    return (tuple(b - a for a, b in zip(before, query)),
            tuple(b - a for a, b in zip(query, fetch)))


def test_select_phase_costs():
    """Fetch compaction passes each mover through ``kernel.fan_out`` once,
    so in circular mode it is refreshed to depth 0 before it reaches the
    cells, count bits and presence of its rows: 165 fetch refreshes, where
    settling only an overflowing AND's operands spent 368."""
    assert _phase_counts(SecurityContext(depth_budget=8)) == (
        (319, 32, 8), (2611, 165, 36))


def test_select_phase_costs_leveled():
    """In leveled mode ``fan_out`` settles each mover once, and all its
    cells share that copy; a row bit lifted to a mover's epoch is lifted
    once per fetch, however many gates read it: 1,178 fetch refreshes,
    where lifting in every gate spent 2,034 and settling a copy per
    cell's ``word_mux`` 2,076."""
    ctx = SecurityContext(mode="leveled", depth_budget=8, epochs=24)
    assert _phase_counts(ctx) == ((319, 64, 8), (2611, 1178, 36))


def test_deep_result_compaction_costs():
    """groupby hands its sum cells on at the depth budget. The compaction
    passes each cell bit through ``kernel.fan_out`` once on entry, and the
    running sum does the same once per step, so no round of the compaction
    refreshes a cell bit again: 455 fetch refreshes at the gates of any
    32-row compaction, where refreshing in every round spent 2,276.
    Under leveled:256 ``fan_out`` only settles, and query plus fetch spend
    15,339 refreshes, where the gates' own settles spent 15,363."""
    text = "groupby([k], v, table(t))"
    assert _phase_counts(SecurityContext(depth_budget=8), text)[1] == (
        2611, 455, 36)
    ctx = SecurityContext(mode="leveled", depth_budget=8, epochs=256)
    query, fetch = _phase_counts(ctx, text)
    assert (query[0], fetch[0]) == (5806, 2611)
    assert query[1] + fetch[1] == 15339


def test_protocol_in_leveled_mode():
    ctx = SecurityContext(mode="leveled", depth_budget=8, epochs=24)
    ladder, keys = keygen(ctx, seed=b"lev")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    plain = PlainTable(Schema((("a", 8),)), [(5,), (200,), (7,)])
    setup_upload(client, server, "t", plain)
    out = run_query(client, server, dsl.parse("select(a<100, table(t))"))
    assert sorted(out.rows) == [(5,), (7,)]


def test_repeated_leveled_query_spends_the_same_counts():
    """Each message the server handles is a lift scope of its own, so a
    second min over the same stored table lifts that table's bits again
    and spends what the first spent."""
    ctx = SecurityContext(mode="leveled", depth_budget=8, epochs=128)
    ladder, keys = keygen(ctx, seed=b"scope")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    plain = PlainTable(Schema((("w", 12),)),
                       [((i * 1237) % 4096,) for i in range(32)])
    setup_upload(client, server, "t", plain)
    plan = dsl.parse("min(w, table(t))")
    spent = []
    for _ in range(2):
        before = _counters(ladder.state)
        qid, _ = submit_query(client, server, plan)
        spent.append(tuple(b - a for a, b in
                           zip(before, _counters(ladder.state))))
        assert result_fetch(client, server, qid).rows == [(min(plain.rows)[0],)]
    assert spent[0] == spent[1]
    assert spent[0][2] > 0  # the tournament climbs epochs, so it lifts


WIDE = Schema((("a", 8), ("b", 8), ("c", 12), ("d", 16)))


def test_a_stored_table_builds_only_the_cells_a_query_reads(monkeypatch):
    # an upload's rows keep their cells as wire parts and build only
    # their presence bits; sum(a) then builds column a and no other, and
    # the client decrypts its count and its row from their parts
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"late")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    plain = PlainTable(WIDE, [(i, 3 * i % 256, 5 * i % 4096, 7 * i)
                              for i in range(64)])
    built = _counting(monkeypatch)
    setup_upload(client, server, "t", plain)
    assert built == [1] * 64
    built.clear()
    got = run_query(client, server, plans.Sum("a", plans.TableRef("t")))
    assert got.rows == [(sum(range(64)) % 256,)]
    # the server's 64 cells of a, then the presence of the fetched row
    assert built == [8] * 64 + [1]


SHAPED = Schema((("k", 4), ("v", 4)))


def _shape_rounds(server, client, shapes: int, rounds: int) -> None:
    """Fetch ``shapes`` select results of 2, 3, ... rows, each its own
    compaction shape, ``rounds`` times over, checking the server's bounds
    after each fetch."""
    for i in range(shapes):
        setup_upload(client, server, f"t{i}", PlainTable(
            SHAPED, [(j % 16, 3 * j % 16) for j in range(i + 2)]))
    for _ in range(rounds):
        for i in range(shapes):
            got = run_query(client, server,
                            dsl.parse(f"select(k > 3, table(t{i}))"))
            assert got.rows == [(j % 16, 3 * j % 16) for j in range(i + 2)
                                if j % 16 > 3]
            assert len(server.tapes) <= protocol.MAX_TAPES
            assert len(server.sightings) <= protocol.MAX_SIGHTINGS
            assert all(type(seen) is int for seen in server.sightings)


def test_a_server_cycling_over_more_shapes_than_tapes_records_them():
    # one shape more than the tapes a server keeps, in three rounds: each
    # shape records its tape at its second sighting, and the third round
    # replays the 16 tapes kept and runs the kernel for the one dropped
    assert protocol.MAX_TAPES == 16
    server, client = make_session()
    _shape_rounds(server, client, 17, 3)
    assert server.compactions == {"kernel": 18, "recorded": 17,
                                  "replayed": 16}


def test_sightings_past_their_bound_drop_the_oldest(monkeypatch):
    # six shapes cycling through four remembered sightings: each is
    # dropped before its second sighting, so none records, and the
    # sightings never pass their bound
    monkeypatch.setattr(protocol, "MAX_SIGHTINGS", 4)
    server, client = make_session()
    _shape_rounds(server, client, 6, 2)
    assert len(server.sightings) == 4
    assert server.compactions == {"kernel": 12, "recorded": 0,
                                  "replayed": 0}
