"""Wire formats: byte-exact round trips, ciphertext opacity on the wire,
message framing, and key-material persistence."""

from __future__ import annotations

import base64
import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hequel import kernel, serial, tape
from hequel.circuits import CipherWord, decrypt_word, encrypt_word, word_add
from hequel.crypto import SecurityContext, encrypt_bit, keygen
from hequel.errors import LadderMismatch, ProtocolError, ValueOverflow
from hequel.relalg import EncRow, decrypt_table, encrypt_table, op_sort
from hequel.schema import PlainTable, Schema


@pytest.fixture()
def session():
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"serial")
    return ladder, keys, ladder.public_key()


def bit_obj(ladder, c) -> dict:
    """A ciphertext bit in its wire form, a width-1 word."""
    return serial.word_to_obj(ladder, CipherWord((c,)))


def stepped_obj(ladder, bits) -> dict:
    """``bits`` written as a stepped word (v4) whatever their nonces: the
    nonces go to ``serial._word_obj`` as a list with their steps, not as
    a run."""
    nonces = [b._nonce for b in bits]
    _, _, *parts = kernel._wire_parts(bits)
    return serial._word_obj(ladder, nonces, kernel._nonce_steps(nonces),
                            *parts)


def v2_obj(ladder, bits) -> dict:
    """``bits`` in the per-bit layout (v2), which nothing writes any more
    but a stored session may hold: every nonce in full, then the payload
    masked over the nonces and epochs, as v4 masks it."""
    width = len(bits)
    _, _, payload, epochs, depths = kernel._wire_parts(bits)
    head = struct.pack(f">{width}Q", *[b._nonce for b in bits])
    payload ^= serial._mask(ladder, head, epochs, width)
    blob = head + payload.to_bytes((width + 7) // 8, "little")
    return {"v": serial.WIRE_VERSION, "width": width,
            "epoch": serial._uniform(epochs),
            "depth": serial._uniform(depths),
            "blob": base64.b64encode(blob).decode()}


def test_bit_round_trip_byte_exact(session):
    ladder, keys, pk = session
    for b in (0, 1):
        c = encrypt_bit(pk, b)
        obj = bit_obj(ladder, c)
        (back,) = serial.word_from_obj(ladder, obj).bits
        assert keys.decrypt_bit(back) == b
        assert (back.epoch, back.depth) == (c.epoch, c.depth)
        # re-serialization reproduces the exact bytes
        assert json.dumps(bit_obj(ladder, back)) == json.dumps(obj)


def test_same_literal_serializes_differently(session):
    ladder, _, pk = session
    a = serial.word_to_obj(ladder, encrypt_word(pk, 202, width=8))
    b = serial.word_to_obj(ladder, encrypt_word(pk, 202, width=8))
    assert a["blob"] != b["blob"]


def test_blob_does_not_expose_payload(session):
    ladder, _, pk = session
    # over many encryptions of the same word, each masked payload bit takes
    # both values, so the blob alone does not determine the plaintext
    seen = [set() for _ in range(8)]
    for _ in range(64):
        obj = stepped_obj(ladder, encrypt_word(pk, 202, width=8).bits)
        masked = base64.b64decode(obj["blob"])[-1]
        for i in range(8):
            seen[i].add(masked >> i & 1)
    assert seen == [{0, 1}] * 8


def _blob_edit(obj, edit):
    raw = bytearray(base64.b64decode(obj["blob"]))
    edit(raw)
    return dict(obj, blob=base64.b64encode(bytes(raw)).decode())


def test_bad_blob_rejected(session):
    ladder, _, pk = session
    obj = serial.word_to_obj(ladder, encrypt_word(pk, 9, width=4))
    bad = [_blob_edit(obj, lambda raw: raw.pop()),  # one byte short
           _blob_edit(obj, lambda raw: raw.append(0)),  # one byte long
           _blob_edit(obj, lambda raw: raw.__setitem__(-1, raw[-1] ^ 0x10)),
           dict(obj, blob=obj["blob"][:-1]),  # not base64
           dict(obj, blob="*" * len(obj["blob"])),
           dict(obj, blob=obj["blob"].encode()),  # not a string
           dict(obj, width=2 ** 40)]
    for forged in bad:
        with pytest.raises(ProtocolError):
            serial.word_from_obj(ladder, forged)
    # flipping a payload bit inside the width is not detectable: the mask
    # hides the payload, it does not authenticate it
    flipped = _blob_edit(obj, lambda raw: raw.__setitem__(-1, raw[-1] ^ 1))
    assert serial.word_from_obj(ladder, flipped).width == 4


def _at_depth(bits, depth: int = 1) -> tuple:
    """``bits``' payloads, epochs and nonces at ``depth``: no longer a
    fresh run, so they travel stepped (v4)."""
    nonces, _, payload, epochs, _ = kernel._wire_parts(bits)
    return kernel.word_from_parts(bits[0]._state, payload, epochs,
                                  [depth] * len(bits), nonces)


def test_word_metadata_lists(session):
    # a stepped word's epoch and depth are one int where its bits agree
    # and a list where they differ; a list of one value is refused
    ladder, keys, pk = session
    w = encrypt_word(pk, 5, width=3)
    obj = stepped_obj(ladder, _at_depth(w.bits))
    assert (obj["v"], obj["width"], obj["epoch"], obj["depth"]) == (4, 3, 1, 1)
    assert len(base64.b64decode(obj["blob"])) == 8 + 2 + 1
    listed = dict(obj, depth=[1, 0, 1])
    back = serial.word_from_obj(ladder, listed)
    assert decrypt_word(keys, back) == 5
    assert serial.word_to_obj(ladder, back) == listed
    for key, value in (("epoch", [1, 1]), ("epoch", [1, True, 1]),
                       ("depth", [0, 0, 0, 0]), ("depth", [0, 9, 0]),
                       ("epoch", [1, 1, 1]), ("depth", [1, 1, 1]),
                       ("epoch", 1.0), ("v", 1), ("width", True)):
        with pytest.raises(ProtocolError):
            serial.word_from_obj(ladder, dict(obj, **{key: value}))


def test_a_stepped_fresh_run_is_refused(session):
    # bits that are one fresh run at depth 0 under one epoch travel seeded
    # (v3), so their stepped form is refused: a word has one layout
    ladder, _, pk = session
    for width in (1, 3, 8):
        w = encrypt_word(pk, 1, width=width)
        run = stepped_obj(ladder, w.bits)
        assert (run["v"], run["epoch"], run["depth"]) == (4, 1, 0)
        with pytest.raises(ProtocolError, match="one fresh run"):
            serial.word_from_obj(ladder, run)
        for listed in (dict(run, depth=[0] * width),
                       dict(run, epoch=[1] * width)):
            with pytest.raises(ProtocolError, match="list holds one value"):
                serial.word_from_obj(ladder, listed)
        assert serial.word_from_obj(
            ladder, serial.word_to_obj(ladder, w)).width == width


def test_word_round_trip(session):
    ladder, keys, pk = session
    w = encrypt_word(pk, 202, width=8)
    obj = serial.word_to_obj(ladder, w)
    back = serial.word_from_obj(ladder, obj)
    assert decrypt_word(keys, back) == 202
    assert serial.word_to_obj(ladder, back) == obj
    obj["width"] = 9
    with pytest.raises(ProtocolError):
        serial.word_from_obj(ladder, obj)


def test_seeded_word_round_trip(session):
    # a literal the client encrypted in one run travels as its first nonce
    ladder, keys, pk = session
    w = encrypt_word(pk, 202, width=8)
    obj = serial.word_to_obj(ladder, w)
    assert list(obj) == ["v", "width", "epoch", "blob"]
    assert (obj["v"], obj["width"], obj["epoch"]) == (3, 8, 1)
    assert base64.b64decode(obj["blob"])[:8] == w.bits[0]._nonce.to_bytes(
        8, "big")
    assert len(base64.b64decode(obj["blob"])) == 8 + 1
    back = serial.word_from_obj(ladder, obj)
    assert [(b._nonce, b.epoch, b.depth, kernel._reveal(b))
            for b in back.bits] == [(b._nonce, b.epoch, b.depth,
                                     kernel._reveal(b)) for b in w.bits]
    assert decrypt_word(keys, back) == 202
    assert serial.word_to_obj(ladder, back) == obj


def test_a_run_past_2_to_the_64_is_seeded(session):
    ladder, keys, pk = session
    ladder.state.nonce_state = 2**64 - 3 * 0x9E3779B97F4A7C15 % 2**64
    w = encrypt_word(pk, 5, width=6)
    nonces = [b._nonce for b in w.bits]
    assert nonces != sorted(nonces)  # the run wraps modulo 2^64
    obj = serial.word_to_obj(ladder, w)
    assert obj["v"] == serial.SEEDED_VERSION
    back = serial.word_from_obj(ladder, obj)
    assert [b._nonce for b in back.bits] == nonces
    assert decrypt_word(keys, back) == 5


def test_only_fresh_runs_are_seeded():
    ladder, _ = keygen(SecurityContext(mode="leveled", depth_budget=4,
                                       epochs=6), seed=b"runs")
    pk = ladder.public_key()
    a, b = encrypt_word(pk, 9, width=4), encrypt_word(pk, 3, width=4)
    lifted = CipherWord(a.bits[:2] + tuple(kernel.lift(x, 2)
                                           for x in a.bits[2:]))
    # nonces in one run, but above depth 0 or over two epochs
    deep = tuple(kernel.and_(x, x) for x in a.bits)
    deep_run = CipherWord(kernel.bits_xor(deep, b.bits))
    f = kernel.fresh_bit(ladder.state, 1, 1)
    two_epochs = CipherWord((f, kernel.refresh(f)))
    for w in (deep_run, two_epochs):
        z = w.bits[0]._nonce
        assert [x._nonce for x in w.bits] == [
            (z + i * kernel._GAMMA) % 2**64 for i in range(w.width)]
    words = {
        "a gate output": word_add(a, b),
        "two runs": CipherWord(a.bits[:2] + b.bits[:2]),
        "a run out of order": CipherWord(a.bits[::-1]),
        "mixed epochs": lifted,
        "a run above depth 0": deep_run,
        "a run over two epochs": two_epochs,
    }
    for name, w in words.items():
        obj = serial.word_to_obj(ladder, w)
        assert obj["v"] == serial.STEPPED_VERSION, name
    # a row whose presence bit comes from another run is written per bit
    t = encrypt_table(pk, PlainTable(Schema((("a", 4),)), [(1,)]), name="t")
    mixed = EncRow(t.rows[0].cells, b.bits[0])
    assert serial.row_to_obj(ladder, mixed)["v"] == 4
    assert serial.row_to_obj(ladder, t.rows[0])["v"] == 3


def test_a_run_of_gate_outputs_at_depth_0_is_seeded(session):
    # XORs of fresh bits sit at depth 0 and take consecutive nonces: the
    # bits are one run, so the word travels seeded whoever writes it, and
    # decodes to the same bits
    ladder, keys, pk = session
    a, b = encrypt_word(pk, 202, width=8), encrypt_word(pk, 77, width=8)
    w = CipherWord(kernel.bits_xor(a.bits, b.bits))
    assert {x.depth for x in w.bits} == {0}
    obj = serial.word_to_obj(ladder, w)
    assert obj["v"] == serial.SEEDED_VERSION
    back = serial.word_from_obj(ladder, obj)
    assert [(x._nonce, x.epoch, x.depth) for x in back.bits] == \
        [(x._nonce, x.epoch, x.depth) for x in w.bits]
    assert decrypt_word(keys, back) == 202 ^ 77
    assert json.dumps(serial.word_to_obj(ladder, back)) == json.dumps(obj)


def test_seeded_blob_does_not_expose_payload(session):
    ladder, _, pk = session
    seen = [set() for _ in range(8)]
    for _ in range(64):
        obj = serial.word_to_obj(ladder, encrypt_word(pk, 202, width=8))
        masked = base64.b64decode(obj["blob"])[8]
        for i in range(8):
            seen[i].add(masked >> i & 1)
    assert seen == [{0, 1}] * 8


def test_bad_seeded_word_rejected(session):
    ladder, _, pk = session
    obj = serial.word_to_obj(ladder, encrypt_word(pk, 9, width=4))
    bad = [_blob_edit(obj, lambda raw: raw.pop()),  # one byte short
           _blob_edit(obj, lambda raw: raw.append(0)),  # one byte long
           _blob_edit(obj, lambda raw: raw.__setitem__(-1, raw[-1] ^ 0x10)),
           _blob_edit(obj, lambda raw: raw.extend(bytes(8 * 3))),  # v2 size
           dict(obj, epoch=[1, 1, 1, 1]), dict(obj, epoch=True),
           dict(obj, epoch=0), dict(obj, epoch=2),
           dict(obj, v=5), dict(obj, width=serial.MAX_WORD_WIDTH + 1),
           dict(obj, width=0)]
    for forged in bad:
        with pytest.raises(ProtocolError):
            serial.word_from_obj(ladder, forged)
    # a depth key is not read: a seeded word is at depth 0
    (b,) = serial.word_from_obj(ladder, dict(obj, depth=5)).bits[:1]
    assert b.depth == 0


# --- stepped words (v4) -------------------------------------------------------

def _walked_word(ladder, first: int, steps, depth: int = 1) -> CipherWord:
    """A word whose nonces walk ``steps`` from ``first``, at ``depth``
    under epoch 1, with payload bits 1, 0, 1, ..."""
    nonces = kernel._nonce_walk(first, steps)
    n = len(nonces)
    return CipherWord(kernel.word_from_parts(
        ladder.state, int("01" * n, 2) >> n, [1] * n, [depth] * n, nonces))


def _tuples(w: CipherWord) -> list:
    return [(b._nonce, b.epoch, b.depth, kernel._reveal(b)) for b in w.bits]


# (steps, the bytes each step takes): each width's edges, and a negative
# step in each
STEP_WIDTHS = [
    ([3, 4, -128, 127, 3], 1),
    ([3, 128, -1], 2),
    ([-129, 4], 2),
    ([2**15, 3, -2**15 - 1], 4),
    ([-2**31], 4),
    ([2**31, -3], 8),
    ([-2**63, 2**63 - 1, 3], 8),
]


@pytest.mark.parametrize("first", [0x0123456789ABCDEF, 2**64 - 1])
@pytest.mark.parametrize("steps, size", STEP_WIDTHS)
def test_stepped_word_round_trips_at_each_step_width(session, steps, size,
                                                     first):
    ladder, _, _ = session
    w = _walked_word(ladder, first, steps)
    obj = serial.word_to_obj(ladder, w)
    assert list(obj) == ["v", "width", "epoch", "depth", "blob"]
    assert (obj["v"], obj["width"], obj["epoch"], obj["depth"]) == \
        (serial.STEPPED_VERSION, len(steps) + 1, 1, 1)
    raw = base64.b64decode(obj["blob"])
    # the first nonce, the steps big-endian at ``size`` bytes, the payload
    assert raw[:8] == first.to_bytes(8, "big")
    assert len(raw) == 8 + len(steps) * size + 1
    assert [int.from_bytes(raw[8 + i * size:8 + (i + 1) * size], "big",
                           signed=True) for i in range(len(steps))] == steps
    back = serial.word_from_obj(ladder, json.loads(json.dumps(obj)))
    assert _tuples(back) == _tuples(w)
    assert json.dumps(serial.word_to_obj(ladder, back)) == json.dumps(obj)


def test_a_stepped_run_past_2_to_the_64_round_trips(session):
    # the steps of bit_mux outputs, from a first nonce near the top of the
    # stream, so the nonces wrap modulo 2^64
    ladder, _, _ = session
    w = _walked_word(ladder, 2**64 - 5 * kernel._GAMMA % 2**64, [3] * 6)
    nonces = [b._nonce for b in w.bits]
    assert nonces != sorted(nonces)
    obj = serial.word_to_obj(ladder, w)
    assert obj["v"] == serial.STEPPED_VERSION
    assert len(base64.b64decode(obj["blob"])) == 8 + 6 + 1
    back = serial.word_from_obj(ladder, obj)
    assert _tuples(back) == _tuples(w)
    assert serial.word_to_obj(ladder, back) == obj


def test_a_one_bit_stepped_word_is_nine_bytes(session):
    ladder, keys, pk = session
    a, b = encrypt_bit(pk, 1), encrypt_bit(pk, 1)
    c = kernel.and_(a, b)  # depth 1, so not a fresh run
    obj = bit_obj(ladder, c)
    assert (obj["v"], obj["width"], obj["depth"]) == (4, 1, 1)
    raw = base64.b64decode(obj["blob"])
    assert raw[:8] == c._nonce.to_bytes(8, "big") and len(raw) == 9
    # a 1-bit word has no steps, so its blob is v2's
    assert obj["blob"] == v2_obj(ladder, (c,))["blob"]
    (back,) = serial.word_from_obj(ladder, obj).bits
    assert keys.decrypt_bit(back) == 1
    assert bit_obj(ladder, back) == obj


def _gate_output_row(pk) -> EncRow:
    """A 17-bit row of ``bits_mux`` outputs and a gate-output presence bit,
    as a fetch returns rows."""
    a, b = encrypt_word(pk, 9, width=8), encrypt_word(pk, 3, width=8)
    c, d = encrypt_word(pk, 19, width=8), encrypt_word(pk, 30, width=8)
    f = kernel.and_(a.bits[0], b.bits[1])
    return EncRow((CipherWord(kernel.bits_mux(f, a.bits, b.bits)),
                   CipherWord(kernel.bits_mux(f, c.bits, d.bits))),
                  kernel.bit_mux(f, a.bits[2], b.bits[3]))


def test_stepped_payload_bytes_equal_the_v2_bytes(session):
    # v4 re-encodes v2's nonce column only: the first nonce and the masked
    # payload bytes are v2's, since the mask is keyed over the same nonces
    # and epochs
    ladder, _, pk = session
    row = _gate_output_row(pk)
    obj = serial.row_to_obj(ladder, row)
    bits = serial.row_from_obj(ladder, obj)
    bits = [b for c in bits.cells for b in c.bits] + [bits.presence]
    stepped = base64.b64decode(obj["blob"])
    legacy = base64.b64decode(v2_obj(ladder, bits)["blob"])
    assert obj["v"] == serial.STEPPED_VERSION
    assert stepped[:8] == legacy[:8]
    assert stepped[-3:] == legacy[-3:]
    assert len(stepped) == 8 + 16 + 3 < len(legacy) == 17 * 8 + 3


def test_v2_words_still_decode(session):
    # a stored session may hold v2 words: they decode to the same bits, and
    # are written back stepped
    ladder, keys, pk = session
    row = _gate_output_row(pk)
    bits = [b for c in row.cells for b in c.bits] + [row.presence]
    legacy = v2_obj(ladder, bits)
    back = serial.word_from_obj(ladder, legacy)
    assert _tuples(back) == _tuples(CipherWord(tuple(bits)))
    assert decrypt_word(keys, CipherWord(back.bits[:8])) == \
        decrypt_word(keys, row.cells[0])
    assert serial.word_to_obj(ladder, back) == \
        serial.word_to_obj(ladder, CipherWord(tuple(bits)))
    listed = dict(legacy, depth=[b.depth for b in bits])
    assert _tuples(serial.word_from_obj(ladder, listed)) == _tuples(back)


def test_table_round_trip_byte_exact(session):
    ladder, keys, pk = session
    plain = PlainTable(Schema((("a", 4), ("b", 8))), [(1, 200), (15, 0)])
    t = encrypt_table(pk, plain, presence=[1, 0], name="t")
    obj = serial.table_to_obj(ladder, t)
    data = json.dumps(obj, separators=(",", ":"))
    back = serial.table_from_obj(ladder, json.loads(data))
    assert back.name == "t"
    assert back.schema == t.schema
    assert decrypt_table(keys, back).rows == [(1, 200)]
    assert json.dumps(serial.table_to_obj(ladder, back),
                      separators=(",", ":")) == data


def _bit_tuples(row) -> list:
    """(nonce, epoch, depth, payload) of a row's bits, cells then presence."""
    return [(b._nonce, b.epoch, b.depth, kernel._reveal(b))
            for b in (*(b for c in row.cells for b in c.bits), row.presence)]


@pytest.mark.parametrize("context", [
    SecurityContext(depth_budget=4),
    SecurityContext(mode="leveled", depth_budget=4, epochs=6)],
    ids=["circular", "leveled"])
def test_row_record_keeps_every_bit(context):
    ladder, keys = keygen(context, seed=b"row")
    pk = ladder.public_key()
    a, b = encrypt_word(pk, 9, width=4), encrypt_word(pk, 3, width=4)
    total = word_add(a, b)
    # refreshed bits sit a depth (and, leveled, an epoch) apart from the rest
    mixed = CipherWord(tuple(kernel.refresh(x) if i % 2 else x
                             for i, x in enumerate(total.bits)))
    presence = kernel.and_(a.bits[0], kernel.refresh(b.bits[1]))
    row = EncRow((a, mixed, encrypt_word(pk, 5, width=3)), presence)
    obj = json.loads(json.dumps(serial.row_to_obj(ladder, row)))
    assert (obj["v"], obj["width"], obj["cells"]) == (4, 12, [4, 4, 3])
    assert isinstance(obj["depth"], list)
    assert isinstance(obj["epoch"], list) == (context.mode == "leveled")
    back = serial.row_from_obj(ladder, obj)
    assert [c.width for c in back.cells] == [4, 4, 3]
    assert _bit_tuples(back) == _bit_tuples(row)
    assert [decrypt_word(keys, c) for c in back.cells] == [9, 12, 5]
    assert serial.row_to_obj(ladder, back) == obj


def test_row_record_is_one_word(session):
    # the row's bits read as one word: cells in column order, then presence;
    # a fresh row travels seeded, and the same bits at depth 1, written
    # stepped (v4), decode to the same word
    ladder, keys, pk = session
    t = encrypt_table(pk, PlainTable(Schema((("a", 4), ("b", 8))),
                                     [(9, 200)]), presence=[0], name="t")
    obj = serial.table_to_obj(ladder, t)
    (row,) = obj["rows"]
    assert obj["v"] == serial.TABLE_VERSION == 3
    assert list(row) == ["v", "width", "epoch", "blob", "cells"]
    assert len(base64.b64decode(row["blob"])) == 8 + 2
    deep = _at_depth(serial.word_from_obj(ladder, row).bits)
    stepped = dict(stepped_obj(ladder, deep), cells=row["cells"])
    assert list(stepped) == ["v", "width", "epoch", "depth", "blob", "cells"]
    # the first nonce, 12 one-byte steps of 1, the payload
    assert len(base64.b64decode(stepped["blob"])) == 8 + 12 + 2
    for record in (row, stepped):
        word = serial.word_from_obj(ladder, record)
        assert decrypt_word(keys, word) == (9 << 9) | (200 << 1)


def test_table_to_obj_rejects_foreign_ladder(session):
    ladder, _, pk = session
    other, _ = keygen(SecurityContext(), seed=b"other")
    t = encrypt_table(other.public_key(),
                      PlainTable(Schema((("a", 4),)), [(1,)]), name="t")
    with pytest.raises(LadderMismatch):
        serial.table_to_obj(ladder, t)


def test_message_framing():
    data = serial.message_to_bytes("query", "q1", {"x": 1})
    msg = serial.message_from_bytes(data)
    assert msg == {"type": "query", "query_id": "q1", "payload": {"x": 1}}
    with pytest.raises(ProtocolError):
        serial.message_from_bytes(b"not json")
    with pytest.raises(ProtocolError):
        serial.message_from_bytes(b'{"type": "query"}')


def test_ladder_persistence_continues_nonce_stream(session):
    ladder, keys, pk = session
    before = encrypt_bit(pk, 1)
    obj = serial.ladder_to_obj(ladder)
    reloaded, _ = serial.ladder_from_obj(obj)
    assert reloaded.ladder_id == ladder.ladder_id
    assert reloaded.mask_key == ladder.mask_key
    assert reloaded.state.nonce_state == ladder.state.nonce_state
    # a ciphertext serialized before the reload is readable after it
    (back,) = serial.word_from_obj(reloaded, bit_obj(ladder, before)).bits
    assert keys.decrypt_bit(back) == 1
    # new encryptions continue the stream rather than repeating nonces
    after = encrypt_bit(reloaded.public_key(), 1)
    assert after._nonce != before._nonce


def test_plan_wire_objects_are_json(session):
    from hequel import dsl, plans
    ladder, _, pk = session
    catalog = {"t": Schema((("a", 8),))}
    plan = plans.encrypt_plan_literals(
        dsl.parse("select(a>3, table(t))"), catalog, pk)
    obj = plans.plan_to_obj(plan, ladder)
    data = json.dumps(obj, separators=(",", ":"))
    back = plans.plan_from_obj(json.loads(data), ladder)
    assert plans.plan_to_obj(back, ladder) == obj


def test_decoded_table_is_never_packed(session):
    # packing is the server's record of how a result was built; the wire
    # form carries no flag, so a decoded table is compacted if fetched
    ladder, keys, pk = session
    plain = PlainTable(Schema((("a", 4),)), [(3,), (1,), (2,)])
    t = encrypt_table(pk, plain, presence=[0, 1, 1], name="s")
    assert not t.packed
    ordered = op_sort("a", True, t)
    assert ordered.packed
    back = serial.table_from_obj(ladder, serial.table_to_obj(ladder, ordered))
    assert not back.packed
    assert decrypt_table(keys, back).rows == [(1,), (2,)]


# --- the upload encoder, held equal to the object path ------------------------

@st.composite
def plain_tables(draw):
    widths = draw(st.lists(st.integers(1, 64), min_size=1, max_size=4))
    values = [st.sampled_from([0, (1 << w) - 1]) | st.integers(0, (1 << w) - 1)
              for w in widths]
    rows = draw(st.lists(st.tuples(*values), max_size=5))
    return PlainTable(Schema(tuple((f"c{i}", w)
                                   for i, w in enumerate(widths))), rows)


# (context, public-key epoch): the encoder writes the key's epoch
CONTEXTS = [(SecurityContext(), 1),
            (SecurityContext(mode="leveled", epochs=3), 2)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plain_tables(), st.integers(0, 2**64 - 1), st.sampled_from(CONTEXTS))
def test_encrypt_table_obj_equals_the_object_path(plain, nonce_state, ctx):
    context, epoch = ctx
    sides = []
    for encode in (
            lambda pk: serial.encrypt_table_obj(pk, plain, "t"),
            lambda pk: serial.table_to_obj(
                pk.ladder, encrypt_table(pk, plain, name="t"))):
        ladder, _ = keygen(context, seed=b"encoder")
        ladder.state.nonce_state = nonce_state
        table = encode(ladder.public_key(epoch))
        sides.append((serial.message_to_bytes("upload_table", "q",
                                              {"table": table}),
                      ladder.state.encrypt_count, ladder.state.nonce_state))
    assert sides[0] == sides[1]


@pytest.mark.parametrize("row", [(16, 0), (3, 64), (-1, 0), (3,)])
def test_encrypt_table_obj_refuses_a_row_past_its_schema(session, row):
    ladder, _, pk = session
    plain = PlainTable(Schema((("a", 4), ("b", 6))), [(3, 9)])
    plain.rows.append(row)  # past the checks of PlainTable.append
    state = ladder.state
    before = (state.encrypt_count, state.nonce_state)
    with pytest.raises(ValueOverflow):
        serial.encrypt_table_obj(pk, plain, "t")
    # refused before any nonce is drawn
    assert (state.encrypt_count, state.nonce_state) == before


# --- late-built words ---------------------------------------------------------

def _counting(monkeypatch) -> list:
    """The width of each word ``kernel.word_from_parts`` builds from now
    on, in order."""
    word_from_parts, built = kernel.word_from_parts, []

    def counted(s, payload, epochs, *rest):
        built.append(len(epochs))
        return word_from_parts(s, payload, epochs, *rest)

    monkeypatch.setattr(kernel, "word_from_parts", counted)
    return built


def test_a_decoded_row_builds_a_cell_once_when_it_is_read(session,
                                                         monkeypatch):
    ladder, keys, pk = session
    t = encrypt_table(pk, PlainTable(Schema((("a", 4), ("b", 8), ("c", 3))),
                                     [(9, 200, 5), (1, 2, 3)]), name="t")
    obj = serial.table_to_obj(ladder, t)
    built = _counting(monkeypatch)
    back = serial.table_from_obj(ladder, obj)
    # the presence bits are built at once, the cells not yet
    assert built == [1, 1]
    row = back.rows[0]
    assert [c.width for c in row.cells] == [4, 8, 3]
    assert [decrypt_word(keys, c) for c in row.cells] == [9, 200, 5]
    assert built == [1, 1]
    bits = row.cells[1].bits
    assert built == [1, 1, 8]
    # every later read returns the same bit objects
    assert row.cells[1].bits is bits
    assert decrypt_word(keys, row.cells[1]) == 200
    # a compaction's shape, read twice, sees one bit object per position
    first, key = tape.shape(back.rows)
    again, same = tape.shape(back.rows)
    assert key == same and list(map(id, first)) == list(map(id, again))
    assert built == [1, 1, 8, 4, 3, 4, 8, 3]
    assert serial.table_to_obj(ladder, back) == obj
    assert _tuples(row.cells[0]) == _tuples(t.rows[0].cells[0])


def test_a_decoded_word_is_built_only_when_read(session, monkeypatch):
    ladder, keys, pk = session
    obj = serial.word_to_obj(ladder, encrypt_word(pk, 202, width=8))
    built = _counting(monkeypatch)
    word = serial.word_from_obj(ladder, obj)
    assert (word.width, decrypt_word(keys, word), built) == (8, 202, [])
    assert serial.word_to_obj(ladder, word) == obj
    assert built == [8]
    assert word.bits is word.bits and built == [8]
