"""Property: whatever bytes reach ``ServerStore.handle``, it returns a reply
or raises a ``HequelError``; no other exception escapes, and a refused
message spends no gate, refresh or encryption.

Inputs are arbitrary bytes, byte-level corruptions of valid messages,
structural mutations of valid ``upload_table`` / ``query`` /
``fetch_rows_request`` messages (one JSON value replaced, one key or list
item dropped), and uploads whose row records carry forged cell widths. A
refused message also leaves the server's tables and results as they were.
Examples are derandomized so Tier-1 runs the same inputs on every run, and
nothing is written to a hypothesis database. Two further tests send an
upload past each of the server's upload bounds.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hequel import dsl, serial
from hequel.crypto import SecurityContext, keygen
from hequel.errors import HequelError
from hequel.protocol import (MAX_STORED_TABLES, MAX_UPLOAD_ROWS,
                             ClientSession, ServerStore, setup_upload)
from hequel.relalg import encrypt_table
from hequel.schema import PlainTable, Schema

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


def counters(state) -> tuple[int, int, int, int]:
    return (state.and_count, state.xor_count, state.refresh_count,
            state.encrypt_count)


def handle_or_hequel_error(data: bytes):
    server = fresh_server()
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


@FUZZ
@given(st.sampled_from(sorted(VALID)), st.data())
def test_corrupted_bytes(mtype, data):
    raw = bytearray(VALID[mtype])
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(raw) - 1))
        raw[i] = data.draw(st.integers(0, 255))
    handle_or_hequel_error(bytes(raw))


@FUZZ
@given(st.sampled_from(sorted(VALID)), st.data())
def test_mutated_messages(mtype, data):
    msg = json.loads(VALID[mtype])
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
    handle_or_hequel_error(json.dumps(msg).encode())


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
