"""Property: whatever bytes reach ``ServerStore.handle``, it returns a reply
or raises a ``HequelError``; no other exception escapes.

Inputs are arbitrary bytes, byte-level corruptions of valid messages, and
structural mutations of valid ``upload_table`` / ``query`` /
``fetch_rows_request`` messages (one JSON value replaced, one key or list
item dropped). Examples are derandomized so Tier-1 runs the same inputs on
every run, and nothing is written to a hypothesis database.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hequel import dsl, serial
from hequel.crypto import SecurityContext, keygen
from hequel.errors import HequelError
from hequel.protocol import ClientSession, ServerStore
from hequel.relalg import encrypt_table
from hequel.schema import PlainTable, Schema

SCHEMA = Schema((("a", 4), ("b", 6)))
ROWS = [(3, 9), (1, 40), (7, 2)]
LADDER, KEYS = keygen(SecurityContext(depth_budget=8), seed=b"fuzz")
CLIENT = ClientSession(KEYS, LADDER.public_key())
CLIENT.catalog["t"] = SCHEMA
TABLE = encrypt_table(LADDER.public_key(), PlainTable(SCHEMA, ROWS), name="t")

UPLOAD = CLIENT.upload_message("t", PlainTable(SCHEMA, ROWS[:2]))
QUERY_ID, QUERY = CLIENT.query_message(
    dsl.parse("select(a>2 or not b=9, table(t))"))
FETCH = serial.message_to_bytes("fetch_rows_request", QUERY_ID,
                                {"n_prime": 2})
VALID = {"upload_table": UPLOAD, "query": QUERY, "fetch_rows_request": FETCH}

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


def handle_or_hequel_error(data: bytes):
    server = fresh_server()
    try:
        reply = server.handle(data)
    except HequelError:
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
