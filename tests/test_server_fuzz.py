"""Property: whatever bytes reach ``ServerStore.handle``, it returns a reply
or raises a ``HequelError``; no other exception escapes, and a refused
message spends no gate, refresh or encryption.

Inputs are arbitrary bytes, byte-level corruptions of valid messages,
structural mutations of valid ``upload_table`` / ``query`` /
``fetch_rows_request`` messages (one JSON value replaced, one key or list
item dropped), and uploads whose row records carry forged cell widths. A
refused message also leaves the server's tables and results as they were.
Mutated and corrupted sort and groupby queries also go to a server that
already holds both sort networks' tapes.
Examples are derandomized so Tier-1 runs the same inputs on every run, and
nothing is written to a hypothesis database. Two further tests send an
upload past each of the server's upload bounds. The valid upload and
query carry seeded words (word layout v3), so the mutations cover that
layout; fixed forgeries of it, of the same words rewritten stepped at
depth 1 (word layout v4, the server's own; at depth 0 they would be a
fresh run, which travels seeded only), among them steps written wider
than they need, and a schema past ``MAX_COLUMNS``, are each refused before
``kernel.word_from_parts`` builds a bit. A stepped word decodes at its
writer's step width alone, and re-encodes byte for byte.
"""

from __future__ import annotations

import base64
import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hequel import dsl, kernel, plans, serial
from hequel.crypto import SecurityContext, keygen
from hequel.errors import HequelError
from hequel.protocol import (MAX_STORED_TABLES, MAX_UPLOAD_ROWS,
                             ClientSession, ServerStore, setup_upload)
from hequel.relalg import encrypt_table
from hequel.schema import MAX_COLUMNS, PlainTable, Schema

SCHEMA = Schema((("a", 4), ("b", 6)))
ROWS = [(3, 9), (1, 40), (7, 2)]
LADDER, KEYS = keygen(SecurityContext(depth_budget=8), seed=b"fuzz")
CLIENT = ClientSession(KEYS, LADDER.public_key())
CLIENT.catalog["t"] = SCHEMA
TABLE = encrypt_table(LADDER.public_key(), PlainTable(SCHEMA, ROWS), name="t")

# a name the server does not hold, so the unmutated upload is stored
UPLOAD = CLIENT.upload_message("u", PlainTable(SCHEMA, ROWS[:2]))
PLAN = dsl.parse("select(a>2 or not b=9, table(t))")
QUERY_ID, QUERY = CLIENT.query_message(PLAN)
# a second id, as the server refuses a query whose result awaits its fetch
_, FUZZED_QUERY = CLIENT.query_message(PLAN)
FETCH = serial.message_to_bytes("fetch_rows_request", QUERY_ID,
                                {"n_prime": 2})
VALID = {"upload_table": UPLOAD, "query": FUZZED_QUERY,
         "fetch_rows_request": FETCH}

FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def fresh_server() -> ServerStore:
    """A server holding table ``t`` and the pending result of QUERY, so a
    valid fetch succeeds; each example gets its own."""
    server = ServerStore(LADDER)
    server.tables["t"] = TABLE
    server.handle(QUERY)
    return server


# a sort and a groupby over t, each sent twice to prime a server, so it
# holds both sort networks' tapes, and once more to be fuzzed
SORTS = {"sort": "sort(b, desc, table(t))",
         "groupby": "groupby([a], b, table(t))"}
PRIMING = [CLIENT.query_message(dsl.parse(text))[1]
           for text in SORTS.values() for _ in "ab"]
TAPED = {name: CLIENT.query_message(dsl.parse(text))[1]
         for name, text in SORTS.items()}


def taped_server() -> ServerStore:
    """``fresh_server``'s state, plus the tapes of a sort and a groupby
    network and their pending results; each example gets its own."""
    server = fresh_server()
    for query in PRIMING:
        server.handle(query)
    assert server.sorts == {"kernel": 2, "recorded": 2, "replayed": 0}
    return server


def counters(state) -> tuple[int, int, int, int]:
    return (state.and_count, state.xor_count, state.refresh_count,
            state.encrypt_count)


def handle_or_hequel_error(data: bytes, make=fresh_server):
    server = make()
    before = counters(LADDER.state)
    held = dict(server.tables), dict(server.results)
    try:
        reply = server.handle(data)
    except HequelError:
        assert counters(LADDER.state) == before
        assert (server.tables, server.results) == held
        return
    assert isinstance(reply, bytes)


def paths(obj, prefix=()):
    """Every (container path, key) in a decoded JSON message."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix, key
        yield from paths(value, prefix + (key,))


@pytest.mark.parametrize("mtype", sorted(VALID))
def test_unmutated_messages_are_answered(mtype):
    # so the mutations below start from messages that reach their handler
    reply = serial.message_from_bytes(fresh_server().handle(VALID[mtype]))
    assert reply["type"] == {"upload_table": "upload_ok",
                             "query": "result_count",
                             "fetch_rows_request": "fetch_rows"}[mtype]


@FUZZ
@given(st.binary(max_size=200))
def test_arbitrary_bytes(data):
    handle_or_hequel_error(data)


def _corrupted(message: bytes, data) -> bytes:
    """``message`` with one to four bytes overwritten."""
    raw = bytearray(message)
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(raw) - 1))
        raw[i] = data.draw(st.integers(0, 255))
    return bytes(raw)


def _mutated(message: bytes, data) -> bytes:
    """``message`` with one JSON value replaced, or one key or list item
    dropped."""
    msg = json.loads(message)
    prefix, key = data.draw(st.sampled_from(list(paths(msg))))
    parent = msg
    for step in prefix:
        parent = parent[step]
    if data.draw(st.booleans()):
        parent[key] = data.draw(JSON_VALUES)
    elif isinstance(parent, dict):
        del parent[key]
    else:
        parent.pop(key)
    return json.dumps(msg).encode()


@FUZZ
@given(st.sampled_from(sorted(VALID)), st.data())
def test_corrupted_bytes(mtype, data):
    handle_or_hequel_error(_corrupted(VALID[mtype], data))


@FUZZ
@given(st.sampled_from(sorted(VALID)), st.data())
def test_mutated_messages(mtype, data):
    handle_or_hequel_error(_mutated(VALID[mtype], data))


def test_a_server_holding_sort_tapes_replays_them():
    # so the fuzzing below reaches a server whose sort networks replay
    for name in TAPED:
        server = taped_server()
        server.handle(TAPED[name])
        assert server.sorts == {"kernel": 2, "recorded": 2, "replayed": 1}


@FUZZ
@given(st.sampled_from(sorted(TAPED)), st.booleans(), st.data())
def test_sort_queries_to_a_server_holding_sort_tapes(name, corrupt, data):
    message = (_corrupted if corrupt else _mutated)(TAPED[name], data)
    handle_or_hequel_error(message, taped_server)


# cell widths of a row record over columns of 4 and 6 bits: the schema's
# own, near misses, lists of small ints with bools among them, and any JSON
CELL_WIDTHS = (st.sampled_from([[4, 6], [6, 4], [10], [4, 5], [True, 3, 6],
                                [0, 4, 6], [4, 6, 0]])
               | st.lists(st.integers(-1, 11) | st.booleans(), max_size=4)
               | JSON_VALUES)


@FUZZ
@given(st.integers(0, 1), CELL_WIDTHS)
def test_forged_row_cells(row, cells):
    msg = json.loads(UPLOAD)
    msg["payload"]["table"]["rows"][row]["cells"] = cells
    handle_or_hequel_error(json.dumps(msg).encode())


def test_upload_past_the_row_bound_is_refused_before_any_decode():
    msg = json.loads(UPLOAD)
    server = fresh_server()
    tables = dict(server.tables)
    before = counters(LADDER.state), LADDER.state.nonce_state
    # rows no decoder accepts, so only the bound can refuse them first
    msg["payload"]["table"]["rows"] = [0] * (MAX_UPLOAD_ROWS + 1)
    with pytest.raises(HequelError, match=f"at most {MAX_UPLOAD_ROWS}"):
        server.handle(json.dumps(msg).encode())
    # at the bound the rows reach the row decoder, which refuses them
    msg["payload"]["table"]["rows"].pop()
    with pytest.raises(HequelError, match="row lacks"):
        server.handle(json.dumps(msg).encode())
    assert server.tables == tables
    assert (counters(LADDER.state), LADDER.state.nonce_state) == before


def test_upload_past_the_table_bound_is_refused():
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"bounds")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    tiny = PlainTable(Schema((("a", 1),)), [(1,)])
    for i in range(MAX_STORED_TABLES):
        setup_upload(client, server, f"t{i}", tiny)
    msg = client.upload_message("last", tiny)
    before = counters(ladder.state), ladder.state.nonce_state
    with pytest.raises(HequelError, match=f"{MAX_STORED_TABLES} tables"):
        server.handle(msg)
    assert len(server.tables) == MAX_STORED_TABLES
    assert "last" not in server.tables
    assert (counters(ladder.state), ladder.state.nonce_state) == before


def _seeded_blob(word: dict, width: int, extra: int = 0) -> dict:
    """``word`` made ``width`` bits wide, its blob the first nonce and
    ``extra`` bytes past the payload bytes of that width."""
    raw = base64.b64decode(word["blob"])[:8]
    raw += bytes((width + 7) // 8 + extra)
    return dict(word, width=width, blob=base64.b64encode(raw).decode())


def _literal(msg: dict) -> dict:
    """The first literal word the server decodes from the query's plan:
    the first in field order, depth first."""
    def first(node):
        if isinstance(node, dict):
            if "blob" in node:
                return node
            return next(filter(None, map(first, node.values())), None)
    return first(msg["payload"]["plan"])


def _upload_row(msg: dict) -> dict:
    return msg["payload"]["table"]["rows"][0]


WIDEST = serial.MAX_WORD_WIDTH
# each edit forges the seeded word it is given in place; beside it, the
# refusal it must meet
SEEDED_FORGERIES = {
    "blob one byte long": (
        lambda w: w.update(_seeded_blob(w, w["width"], 1)), "blob has"),
    "blob one byte short": (lambda w: w.update(blob=base64.b64encode(
        base64.b64decode(w["blob"])[:-1]).decode()), "blob has"),
    "blob of a per-bit word": (lambda w: w.update(blob=base64.b64encode(
        bytes(8 * w["width"] + (w["width"] + 7) // 8)).decode()), "blob has"),
    "epoch a list": (lambda w: w.update(epoch=[1] * w["width"]),
                     "'epoch' is not int"),
    "epoch a one-item list": (lambda w: w.update(epoch=[1]),
                              "'epoch' is not int"),
    "epoch a bool": (lambda w: w.update(epoch=True), "'epoch' is not int"),
    "an unknown version": (lambda w: w.update(v=5), "version 5"),
    "wider than a row of the widest schema": (
        lambda w: w.update(_seeded_blob(w, WIDEST + 1)), f"{WIDEST + 1}"),
}


@pytest.mark.parametrize("where", ["upload row", "query literal"])
@pytest.mark.parametrize("forgery, refusal", SEEDED_FORGERIES.values(),
                         ids=SEEDED_FORGERIES.keys())
def test_seeded_forgeries_are_refused_before_any_bit(where, forgery, refusal,
                                                     monkeypatch):
    valid, find = {"upload row": (UPLOAD, _upload_row),
                   "query literal": (FUZZED_QUERY, _literal)}[where]
    msg = json.loads(valid)
    word = find(msg)
    assert word["v"] == serial.SEEDED_VERSION
    forgery(word)
    if where == "upload row" and word["width"] == WIDEST + 1:
        # a lone row under the widest schema, so the row check before any
        # decode passes it on to the word decoder
        word["cells"] = [64] * MAX_COLUMNS
        msg["payload"]["table"].update(
            schema=[[f"c{i}", 64] for i in range(MAX_COLUMNS)], rows=[word])
    server = fresh_server()
    built = []
    monkeypatch.setattr(kernel, "word_from_parts",
                        lambda *args: built.append(args))
    before = counters(LADDER.state), LADDER.state.nonce_state
    with pytest.raises(HequelError, match=refusal):
        server.handle(json.dumps(msg).encode())
    assert built == []
    assert (counters(LADDER.state), LADDER.state.nonce_state) == before


def _restep(word: dict) -> None:
    """Rewrite the seeded ``word`` in place as a stepped word (v4) of the
    same payloads, epochs and nonces at depth 1: the first nonce, steps of
    1, and v2's masked payload. At depth 0 the bits would be one fresh
    run, which travels seeded only."""
    bits = serial.word_from_obj(LADDER, word).bits
    nonces = [b._nonce for b in bits]
    _, _, payload, epochs, _ = kernel._wire_parts(bits)
    word.update(serial._word_obj(LADDER, nonces, kernel._nonce_steps(nonces),
                                 payload, epochs, [1] * len(bits)))


def _blob_bytes(edit):
    def forge(w):
        raw = bytearray(base64.b64decode(w["blob"]))
        edit(raw, w["width"])
        w["blob"] = base64.b64encode(bytes(raw)).decode()
    return forge


def _widened(size: int):
    """A forgery that writes a word's one-byte steps at ``size`` bytes
    each, the mask and payload kept: the same nonces, so only the step
    width check can refuse it."""
    def edit(raw, w):
        steps = struct.unpack_from(f">{w - 1}b", raw, 8)
        raw[8:8 + w - 1] = struct.pack(
            f">{w - 1}{serial._STEP_CODES[size]}", *steps)
    return _blob_bytes(edit)


# each edit forges a stepped word in place; beside it, the refusal it must
# meet. Every word here has steps of 1, one byte each.
STEPPED_FORGERIES = {
    **{f"steps written {size} bytes wide": (
        _widened(size), "more than the widest needs") for size in (2, 4, 8)},
    # two more bytes a step would make steps of 3 bytes, no step width
    "a blob length that fits no step width": (_blob_bytes(
        lambda raw, w: raw.__setitem__(slice(8, 8), bytes(2 * (w - 1)))),
        "fit no step width"),
    "a blob one byte long": (_blob_bytes(lambda raw, w: raw.append(0)),
                             "blob has"),
    "a blob one byte short": (_blob_bytes(lambda raw, w: raw.pop()),
                              "blob has"),
    "a blob shorter than a nonce": (_blob_bytes(
        lambda raw, w: raw.__delitem__(slice(4, None))), "fit no step width"),
    "a 1-bit word with extra bytes": (
        lambda w: w.update(_seeded_blob(w, 1, 1)), "blob has"),
    "padding bits set": (_blob_bytes(
        lambda raw, w: raw.__setitem__(-1, raw[-1] ^ 0x80)), "padding"),
    "an epoch list too short": (
        lambda w: w.update(epoch=[1] * (w["width"] - 1)), "epoch"),
    "an epoch list holding a bool": (
        lambda w: w.update(epoch=[True] + [1] * (w["width"] - 1)), "epoch"),
    "a depth list too long": (
        lambda w: w.update(depth=[0] * (w["width"] + 1)), "depth"),
    "a depth list past the budget": (
        lambda w: w.update(depth=[0] * (w["width"] - 1) + [9]), "depth"),
    "no depth": (lambda w: w.pop("depth"), "lacks 'depth'"),
}


@pytest.mark.parametrize("where", ["upload row", "query literal"])
@pytest.mark.parametrize("forgery, refusal", STEPPED_FORGERIES.values(),
                         ids=STEPPED_FORGERIES.keys())
def test_stepped_forgeries_are_refused_before_any_bit(where, forgery,
                                                      refusal, monkeypatch):
    valid, find = {"upload row": (UPLOAD, _upload_row),
                   "query literal": (FUZZED_QUERY, _literal)}[where]
    msg = json.loads(valid)
    word = find(msg)
    _restep(word)
    assert word["v"] == serial.STEPPED_VERSION
    # the rewrite alone is answered, so each refusal is its forgery's
    fresh_server().handle(json.dumps(msg).encode())
    forgery(word)
    server = fresh_server()
    built = []
    monkeypatch.setattr(kernel, "word_from_parts",
                        lambda *args: built.append(args))
    before = counters(LADDER.state), LADDER.state.nonce_state
    with pytest.raises(HequelError, match=refusal):
        server.handle(json.dumps(msg).encode())
    assert built == []
    assert (counters(LADDER.state), LADDER.state.nonce_state) == before


@FUZZ
@given(st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=12),
       st.data())
def test_a_stepped_word_has_one_encoding(nonces, data):
    # a word of two bits or more whose first bit has depth, so it is
    # never one fresh run and always travels stepped, written at each
    # step width its steps fit:
    # the decoder accepts the writer's width alone, and an accepted word
    # re-encodes byte for byte
    w = len(nonces)
    depths = [1] + data.draw(st.lists(st.integers(0, 8), min_size=w - 1,
                                      max_size=w - 1))
    payload = data.draw(st.integers(0, (1 << w) - 1))
    steps = kernel._nonce_steps(nonces)
    written = serial._word_obj(LADDER, nonces, steps, payload, [1] * w,
                               depths)
    tail = base64.b64decode(written["blob"])[-((w + 7) // 8):]
    accepted = []
    for code in serial._STEP_CODES.values():
        try:
            head = struct.pack(f">Q{w - 1}{code}", nonces[0], *steps)
        except struct.error:  # a step this width cannot hold
            continue
        obj = dict(written, blob=base64.b64encode(head + tail).decode())
        try:
            word = serial.word_from_obj(LADDER, obj)
        except HequelError:
            continue
        assert serial.word_to_obj(LADDER, word) == obj
        accepted.append(obj)
    assert accepted == [written]


def test_widest_seeded_row_is_decoded():
    # the width bound admits a row of the widest schema
    ladder, _ = keygen(SecurityContext(depth_budget=8), seed=b"widest")
    plain = PlainTable(Schema(tuple((f"c{i}", 64)
                                    for i in range(MAX_COLUMNS))),
                       [tuple(range(MAX_COLUMNS))])
    obj = serial.encrypt_table_obj(ladder.public_key(), plain, "w")
    assert obj["rows"][0]["width"] == WIDEST
    table = serial.table_from_obj(ladder, obj)
    assert len(table.rows[0].cells) == MAX_COLUMNS


def test_a_schema_past_the_column_bound_is_refused_before_any_row():
    msg = json.loads(UPLOAD)
    table = msg["payload"]["table"]
    table["schema"] = [[f"c{i}", 1] for i in range(MAX_COLUMNS + 1)]
    # rows no decoder accepts, so only the schema can refuse them first
    table["rows"] = [0]
    server = fresh_server()
    tables = dict(server.tables)
    before = counters(LADDER.state), LADDER.state.nonce_state
    with pytest.raises(HequelError, match=f"at most {MAX_COLUMNS}"):
        server.handle(json.dumps(msg).encode())
    assert server.tables == tables
    assert (counters(LADDER.state), LADDER.state.nonce_state) == before


def test_a_cross_past_the_column_bound_is_refused_before_any_gate():
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"cross")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    for name in "tu":
        schema = Schema(tuple((f"{name}{i}", 1) for i in range(33)))
        setup_upload(client, server, name, PlainTable(schema, [(0,) * 33]))
    plan = dsl.parse("cross(table(t), table(u))")  # 66 columns
    with pytest.raises(HequelError, match=f"at most {MAX_COLUMNS}"):
        client.query_message(plan)
    before = counters(ladder.state), ladder.state.nonce_state
    with pytest.raises(HequelError, match=f"at most {MAX_COLUMNS}"):
        server.handle(serial.message_to_bytes(
            "query", "q", {"plan": plans.plan_to_obj(plan, ladder)}))
    assert server.results == {}
    assert (counters(ladder.state), ladder.state.nonce_state) == before
