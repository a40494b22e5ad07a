"""Wire formats: ciphertexts, tables, protocol messages, key material.

Everything serializes to JSON with fixed key insertion order and compact
separators, so equal values produce byte-identical messages (golden tests
rely on this). A ciphertext word of w bits is written as one object in
one of two layouts, and read in those and a third.

- **Stepped (v4):** ``{"v": 4, "width": w, "epoch": e, "depth": d,
  "blob": b64}``, the per-bit layout. ``epoch`` and ``depth`` are one
  int when every bit agrees, else a w-long list. The base64 blob holds
  the first bit's nonce, 8 bytes big-endian, then the w - 1 signed
  stream steps k_i with z_{i+1} = z_i + k_i·γ mod 2^64 (the kernel's
  ``_nonce_steps``), big-endian at the narrowest of 1, 2, 4 or 8 bytes
  that holds the widest (a blob whose steps a narrower width holds is
  refused, so a word has one step width), then ceil(w/8) bytes of
  payload bits packed LSB-first and XORed with one shake-256 digest
  keyed by the ladder's mask key, the w 8-byte nonces and the 2-byte
  epochs. The blob's length implies the step width, so there is no
  width byte, and a 1-bit word's blob is 9 bytes. A row of ``bit_mux``
  outputs steps by about 3, so it takes a byte a step where v2 took 8.
- **Per bit (v2), read only:** ``{"v": 2, ...}`` as v4, its blob the w
  nonces, 8 bytes each, then the payload bytes masked as v4 masks them.
  Nothing writes it; tables a stored session wrote before v4 hold it.
- **Seeded (v3):** ``{"v": 3, "width": w, "epoch": e, "blob": b64}``, for
  a word whose bits are one run of the nonce stream, as fresh encryptions
  drawn in one call are. Bit i has nonce (z + i·γ) mod 2^64 (the
  kernel's ``_nonce_run``), epoch e and depth 0, so the blob holds the
  first nonce z alone, 8 bytes big-endian, then the payload bytes, masked
  by a digest keyed by the mask key, z, e and w. A 45-bit row takes 20
  base64 characters where v2 takes 488.

Every payload bit is masked by a keyed pseudorandom bit whose key
material fixes its own nonce, unique in its ladder's stream (a seeded
word's first nonce and width fix all of its bits'), so without the mask
key the blob does not reveal the plaintext; round-trips are byte-exact
because the nonces are preserved. A v4 word's steps follow from its
nonces and the public γ, so it reveals nothing a nonce per bit does not.

A word's layout follows its bits, whoever writes it: the kernel's
``_wire_parts`` gives a word's nonces as a run when its bits are one run
at depth 0 under one epoch, and ``_word_obj`` writes such a word seeded
and any other word stepped. The client's uploads and query literals are
fresh runs, and so is the one-bit count word of a scalar aggregate, which
is the server's own fresh presence bit; fetched rows, and the count word
of a result of two or more rows, hold gate outputs above depth 0 and
travel stepped. ``word_from_obj`` reads all three layouts, and refuses a
word wider than ``MAX_WORD_WIDTH`` (a row of the widest schema) before
it decodes the blob, since a seeded blob no longer bounds the width. It
refuses a stepped word the writer would write otherwise: a fresh run at
depth 0 under one epoch, or an epoch or depth list of one value, so a
word has one encoding.

A table row travels as one such word over its flat bits: the cells in
column order, each MSB first, then the presence bit. The row's object adds
one key, ``"cells"``, the list of cell widths, which sum to the word's
width less one. Every bit keeps its own nonce, epoch and depth, so a row
record is still one ciphertext per bit; it only shares one header, one
blob and one digest among them. A table object (``TABLE_VERSION`` 3) holds
its name, schema and row records; version 2 made each cell and each
presence bit its own word, and is refused with its version.

One writer, ``_word_obj``, holds both written layouts. ``word_to_obj``
and ``row_to_obj`` feed it bits as the kernel reads them off
(``kernel._wire_parts``), and ``encrypt_table_obj`` feeds it straight from
a plaintext table, each row's nonces a slice of the run it draws from the
kernel's stream: the client's upload builds no ciphertext object, yet its
bytes, nonces and counts are those of ``table_to_obj`` over
``relalg.encrypt_table``. ``word_from_obj`` and ``row_from_obj`` run
every check of a word before they return, a stepped word's nonces
walked back from its steps once (``kernel._nonce_walk``) for both the
mask and the bits. They build no cell: a decoded word, and each cell of
a decoded row (its parts split by cell width), is a
``CipherWord.from_parts``, whose bits ``kernel.word_from_parts`` builds
once when they are first read. Only a row's presence bit is built at
decode. Decoding moves no counter and no nonce stream, whenever the
bits are built.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct

from hequel import kernel
from hequel.circuits import CipherWord
from hequel.crypto import (ClientKeys, KeyLadder, PublicKey, SecurityContext,
                           keygen)
from hequel.errors import LadderMismatch, ProtocolError
from hequel.relalg import EncRow, EncTable
from hequel.schema import MAX_COLUMNS, MAX_WIDTH, PlainTable, Schema

# the word layouts: per bit (read only), seeded, and stepped; and the
# table object whose rows are one word each
WIRE_VERSION = 2
SEEDED_VERSION = 3
STEPPED_VERSION = 4
TABLE_VERSION = 3
# the widest word a decoder builds: a row of the widest schema, its cells
# and its presence bit. A seeded word's blob holds about 1/8 byte per bit,
# so its length does not bound the width.
MAX_WORD_WIDTH = MAX_COLUMNS * MAX_WIDTH + 1
# a stepped word's struct code by the bytes each of its steps takes
_STEP_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
_MASK64 = (1 << 64) - 1  # a wire nonce is 8 bytes


def _mask(ladder: KeyLadder, head: bytes, keys, width: int) -> int:
    """Shake-256 mask of one word's ``width`` payload bits, keyed by the
    mask key, ``head`` and the 2-byte ``keys``: a stepped or v2 word's
    nonces and per-bit epochs, or a seeded word's first nonce, epoch and
    width. The material after the mask key is 10·w bytes long for a
    stepped or v2 word and 12 for a seeded one, so a seeded word never
    keys a mask as a per-bit word does."""
    material = ladder.mask_key + head + struct.pack(f">{len(keys)}H", *keys)
    digest = hashlib.shake_256(material).digest((width + 7) // 8)
    return int.from_bytes(digest, "little")


def _step_bytes(steps) -> int:
    """The bytes each of a non-empty list of signed steps takes on the
    wire: the narrowest of 1, 2, 4 or 8 that holds the widest."""
    need = (max(max(steps), ~min(steps)).bit_length() + 8) // 8
    return 1 << (need - 1).bit_length()


def _uniform(values: list):
    return values[0] if values.count(values[0]) == len(values) else values


def _word_obj(ladder: KeyLadder, nonces, steps, payload: int,
              epochs: list, depths: list) -> dict:
    """The object of one word from its wire parts (``kernel._wire_parts``):
    the bits' wire nonces and the steps between them, their payloads
    packed LSB first in bit order, and their per-bit epochs and depths.
    Steps of None mark nonces given as a run (a ``range``, see
    ``kernel._nonce_run``) of bits at depth 0 under ``epochs[0]``, and the
    word is written seeded (v3); otherwise it is written stepped (v4).
    Both layouts are written here alone."""
    width = len(nonces)
    if steps is None:
        first, epoch = nonces[0] & _MASK64, epochs[0]
        head = struct.pack(">Q", first)
        payload ^= _mask(ladder, head, (epoch, width), width)
        obj = {"v": SEEDED_VERSION, "width": width, "epoch": epoch}
    else:
        payload ^= _mask(ladder, struct.pack(f">{width}Q", *nonces), epochs,
                         width)
        try:
            head = struct.pack(f">Q{width - 1}b", nonces[0], *steps)
        except struct.error:  # a step past one byte
            code = _STEP_CODES[_step_bytes(steps)]
            head = struct.pack(f">Q{width - 1}{code}", nonces[0], *steps)
        obj = {"v": STEPPED_VERSION, "width": width,
               "epoch": _uniform(epochs), "depth": _uniform(depths)}
    blob = head + payload.to_bytes((width + 7) // 8, "little")
    obj["blob"] = base64.b64encode(blob).decode("ascii")
    return obj


def word_to_obj(ladder: KeyLadder, w: CipherWord) -> dict:
    """The object of ``w``, seeded when its bits are one run (read off by
    ``kernel._wire_parts``) and stepped otherwise."""
    return _word_obj(ladder, *kernel._wire_parts(w.bits))


def _per_bit(value, width: int, lo: int, top: int, what: str) -> list:
    """``value`` as ``width`` ints in ``lo..top``; one int stands for all."""
    if type(value) is int:
        if lo <= value <= top:
            return [value] * width
    elif type(value) is list and len(value) == width and all(
            type(v) is int and lo <= v <= top for v in value):
        return value
    raise ProtocolError(
        f"ciphertext {what} {value!r} is not {width} ints in {lo}..{top}")


def _word_parts(ladder: KeyLadder, obj: dict) -> tuple:
    """The parts of a word of any layout, as ``kernel.word_from_parts``
    takes them: (payload, epochs, depths, nonces), the nonces a list, or
    for a seeded word its run (``kernel._nonce_run``). A malformed word,
    or a stepped one that another form writes (a fresh run, or a list
    of one epoch or one depth), raises ProtocolError."""
    what = "ciphertext word"
    version = field(obj, "v", int, what)
    if version not in (WIRE_VERSION, SEEDED_VERSION, STEPPED_VERSION):
        raise ProtocolError(f"ciphertext word version {version!r}, want "
                            f"{WIRE_VERSION}, {SEEDED_VERSION} or "
                            f"{STEPPED_VERSION}")
    seeded = version == SEEDED_VERSION
    width = field(obj, "width", int, what)
    if not 1 <= width <= MAX_WORD_WIDTH:
        raise ProtocolError(
            f"ciphertext word width {width!r}, not in 1..{MAX_WORD_WIDTH}")
    blob = field(obj, "blob", str, what)
    # a seeded word is fresh: one epoch, depth 0 and no depth key
    epoch = field(obj, "epoch", int if seeded else object, what)
    depth = 0 if seeded else field(obj, "depth", object, what)
    try:
        raw = base64.b64decode(blob, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise ProtocolError("ciphertext blob is not base64") from None
    tail = (width + 7) // 8
    if version == STEPPED_VERSION:
        # the blob's length implies the step width; a 1-bit word has none
        step = (len(raw) - 8 - tail) // (width - 1) if width > 1 else 1
        code = _STEP_CODES.get(step)
        if code is None:
            raise ProtocolError(
                f"ciphertext blob has {len(raw)} bytes, which fit no step "
                "width")
        at = 8 + (width - 1) * step
    else:
        at = 8 if seeded else 8 * width
    if len(raw) != at + tail:
        raise ProtocolError(
            f"ciphertext blob has {len(raw)} bytes, want {at + tail}")
    epochs = _per_bit(epoch, width, 1, ladder.ctx.epochs, "epoch")
    depths = _per_bit(depth, width, 0, ladder.ctx.depth_budget, "depth")
    payload = int.from_bytes(raw[at:], "little")
    if seeded:
        head = raw[:8]
        payload ^= _mask(ladder, head, (epoch, width), width)
        nonces = kernel._nonce_run(int.from_bytes(head, "big"), width)
    else:
        if version == STEPPED_VERSION:
            # the writer gives a list only where the bits disagree
            for value, name in ((epoch, "epoch"), (depth, "depth")):
                if type(value) is list and value.count(value[0]) == width:
                    raise ProtocolError(
                        f"ciphertext {name} list holds one value")
            steps = struct.unpack_from(f">{width - 1}{code}", raw, 8)
            # only a blob of wider steps can be one a narrower one holds
            if step > 1 and _step_bytes(steps) < step:
                raise ProtocolError(
                    f"ciphertext steps take {step} bytes each, more than "
                    "the widest needs")
            if depth == 0 and type(epoch) is int and \
                    steps.count(1) == width - 1:
                raise ProtocolError(
                    "ciphertext word is one fresh run, which travels seeded")
            # expanded once, for both the mask and the bits
            nonces = kernel._nonce_walk(int.from_bytes(raw[:8], "big"), steps)
            head = struct.pack(f">{width}Q", *nonces)
        else:
            head = raw[:at]
            nonces = struct.unpack(f">{width}Q", head)
        payload ^= _mask(ladder, head, epochs, width)
    if payload >> width:
        raise ProtocolError("ciphertext blob has padding bits set")
    return payload, epochs, depths, nonces


def word_from_obj(ladder: KeyLadder, obj: dict) -> CipherWord:
    """A word of any layout, its bits built when first read
    (``CipherWord.from_parts``); a malformed one raises ProtocolError."""
    return CipherWord.from_parts(ladder.state, *_word_parts(ladder, obj))


def field(obj, key: str, kind: type, what: str):
    """``obj[key]`` when ``obj`` is an object holding a ``kind`` there (a
    JSON bool is not an int; ``object`` takes any value); any other shape
    raises ProtocolError."""
    if not isinstance(obj, dict) or key not in obj:
        raise ProtocolError(f"{what} lacks {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and type(value) is bool):
        raise ProtocolError(f"{what} field {key!r} is not {kind.__name__}")
    return value


def _row_obj(ladder: KeyLadder, widths: list, *parts) -> dict:
    """The record of one row: the word of its flat bits' wire parts, and
    its cell widths."""
    obj = _word_obj(ladder, *parts)
    obj["cells"] = list(widths)
    return obj


def row_to_obj(ladder: KeyLadder, row: EncRow) -> dict:
    """The record of ``row``, laid out as ``word_to_obj`` lays out a
    word."""
    return _row_obj(ladder, [c.width for c in row.cells], *kernel._wire_parts(
        [b for c in row.cells for b in c.bits] + [row.presence]))


def row_from_obj(ladder: KeyLadder, obj: dict) -> EncRow:
    """A row record decoded with every check of a word and split by its
    cell widths into one word per cell, each built when first read
    (``CipherWord.from_parts``), and its presence bit, built here; it
    needs no schema."""
    widths = field(obj, "cells", list, "row")
    payload, epochs, depths, nonces = _word_parts(ladder, obj)
    end = len(epochs) - 1
    if not all(type(w) is int and w > 0 for w in widths) or (
            sum(widths) != end):
        raise ProtocolError(
            f"row cells do not split its {end + 1} bits into cells of "
            "positive width and one presence bit")
    state, cells, at = ladder.state, [], 0
    for w in widths:
        cut = slice(at, at + w)
        cells.append(CipherWord.from_parts(
            state, payload >> at & (1 << w) - 1, epochs[cut], depths[cut],
            nonces[cut]))
        at += w
    presence, = kernel.word_from_parts(state, payload >> end, epochs[end:],
                                       depths[end:], nonces[end:])
    return EncRow(tuple(cells), presence)


def schema_to_obj(schema: Schema) -> list:
    return [[name, width] for name, width in schema.columns]


def schema_from_obj(obj: list) -> Schema:
    if not isinstance(obj, list) or not all(
            isinstance(col, list) and len(col) == 2
            and isinstance(col[0], str) and type(col[1]) is int
            for col in obj):
        raise ProtocolError("schema is not a list of [name, width] pairs")
    return Schema(tuple((name, width) for name, width in obj))


def table_to_obj(ladder: KeyLadder, t: EncTable) -> dict:
    if t.state is not ladder.state:
        raise LadderMismatch("table belongs to a different ladder")
    return {"v": TABLE_VERSION, "name": t.name,
            "schema": schema_to_obj(t.schema),
            "rows": [row_to_obj(ladder, r) for r in t.rows]}


def encrypt_table_obj(pk: PublicKey, plain: PlainTable,
                      name: str = "") -> dict:
    """The wire object of ``plain`` encrypted under ``pk`` with every row
    present, built straight from the plaintext: byte for byte
    ``table_to_obj(ladder, relalg.encrypt_table(pk, plain, name=name))``,
    with the same nonces drawn in the same order, and no ciphertext
    object made. A row that does not fit the schema raises ValueOverflow
    (``PlainTable.check_row``) before any nonce is drawn."""
    for row in plain.rows:
        plain.check_row(row)
    widths = [w for _, w in plain.schema.columns]
    ladder, epoch = pk.ladder, pk.epoch
    width = sum(widths) + 1
    run = kernel._fresh_wire_nonces(ladder.state, len(plain.rows) * width)
    epochs, depths = [epoch] * width, [0] * width
    rows = []
    for at, row in zip(range(0, len(run), width), plain.rows):
        # the row's bits in order, each cell MSB first, then presence 1;
        # bit i of the payload is bit i of the row, and its nonces are the
        # row's slice of the run, itself a run
        bits = "".join([f"{v:0{w}b}" for v, w in zip(row, widths)]) + "1"
        rows.append(_row_obj(ladder, widths, run[at:at + width], None,
                             int(bits[::-1], 2), epochs, depths))
    return {"v": TABLE_VERSION, "name": name,
            "schema": schema_to_obj(plain.schema), "rows": rows}


def table_rows_from_obj(ladder: KeyLadder, obj: dict):
    """Decode the ``schema`` and ``rows`` of a table or fetch payload into
    (Schema, rows); every row needs one cell per column at its width."""
    schema = schema_from_obj(field(obj, "schema", list, "table"))
    records = field(obj, "rows", list, "table")
    widths = [w for _, w in schema.columns]
    for r in records:
        cells = field(r, "cells", list, "row")
        if cells != widths:
            raise ProtocolError(
                f"row cell widths {cells} do not match schema widths {widths}")
    return schema, tuple(row_from_obj(ladder, r) for r in records)


def table_from_obj(ladder: KeyLadder, obj: dict) -> EncTable:
    version = field(obj, "v", int, "table")
    if version != TABLE_VERSION:
        raise ProtocolError(f"table version {version}, want {TABLE_VERSION}")
    name = field(obj, "name", str, "table")
    schema, rows = table_rows_from_obj(ladder, obj)
    return EncTable(name, schema, rows, ladder.state)


# --- message envelope --------------------------------------------------------

def message_to_bytes(msg_type: str, query_id: str, payload) -> bytes:
    obj = {"type": msg_type, "query_id": query_id, "payload": payload}
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def message_from_bytes(data: bytes, *types: str) -> dict:
    """Decode a message envelope; given ``types``, a message of any other
    type raises ProtocolError."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"unreadable message: {exc}") from None
    mtype = field(obj, "type", str, "message")
    field(obj, "query_id", str, "message")
    field(obj, "payload", object, "message")
    if types and mtype not in types:
        raise ProtocolError(f"message type {mtype!r}, want one of {types}")
    return obj


# --- key material (CLI persistence) ------------------------------------------

def ladder_to_obj(ladder: KeyLadder) -> dict:
    """The ladder's parameters, seed and nonce cursor. The seed derives
    both key halves, so no key token is stored beside it."""
    return {
        "mode": ladder.ctx.mode,
        "depth_budget": ladder.ctx.depth_budget,
        "epochs": ladder.ctx.epochs,
        "seed": ladder.seed.hex(),
        "nonce_state": ladder.state.nonce_state,
    }


def ladder_from_obj(obj: dict) -> tuple[KeyLadder, ClientKeys]:
    """Both key halves rebuilt from a saved ladder; fields it does not
    read (an older layout's ``v`` and ``wrapped``) are ignored. A bad
    parameter or seed raises ValueError."""
    what = "ladder"
    ctx = SecurityContext(field(obj, "mode", str, what),
                          field(obj, "depth_budget", int, what),
                          field(obj, "epochs", int, what))
    seed = bytes.fromhex(field(obj, "seed", str, what))
    ladder, keys = keygen(ctx, seed=seed)
    # continue the nonce stream where the previous session stopped
    ladder.state.nonce_state = field(obj, "nonce_state", int, what)
    return ladder, keys
