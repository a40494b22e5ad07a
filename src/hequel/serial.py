"""Wire formats: ciphertexts, tables, protocol messages, key material.

Everything serializes to JSON with fixed key insertion order and compact
separators, so equal values produce byte-identical messages (golden tests
rely on this). A ciphertext bit becomes an 18-hex-char blob: an 8-byte
nonce followed by the payload byte XOR-masked with a digest keyed by the
ladder's mask key, the nonce, and the epoch. Without the mask key the
payload byte is unreadable; round-trips are byte-exact because the nonce
is preserved.
"""

from __future__ import annotations

import hashlib
import json

from hequel import kernel
from hequel.circuits import CipherWord
from hequel.crypto import ClientKeys, KeyLadder, SecretKey, SecurityContext
from hequel.errors import LadderMismatch, ProtocolError
from hequel.relalg import EncRow, EncTable
from hequel.schema import Schema


def _mask(ladder: KeyLadder, nonce: int, epoch: int) -> int:
    material = ladder.mask_key + nonce.to_bytes(8, "big") + epoch.to_bytes(2, "big")
    return hashlib.sha256(material).digest()[0] & 1


def bit_to_obj(ladder: KeyLadder, c) -> dict:
    nonce = kernel._nonce_of(c)
    masked = kernel._reveal(c) ^ _mask(ladder, nonce, c.epoch)
    blob = nonce.to_bytes(8, "big").hex() + bytes([masked]).hex()
    return {"v": 1, "epoch": c.epoch, "depth": c.depth, "blob": blob}


def _field(obj, key: str, kind: type, what: str):
    """``obj[key]`` when ``obj`` is an object holding a ``kind`` there (a
    JSON bool is not an int); any other shape raises ProtocolError."""
    if not isinstance(obj, dict) or key not in obj:
        raise ProtocolError(f"{what} lacks {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and type(value) is bool):
        raise ProtocolError(f"{what} field {key!r} is not {kind.__name__}")
    return value


def _check_version(obj, what: str) -> None:
    version = _field(obj, "v", int, what)
    if version != 1:
        raise ProtocolError(f"{what} has version {version}, want 1")


def bit_from_obj(ladder: KeyLadder, obj: dict):
    # inline checks, no helper calls: table uploads decode every bit here
    try:
        version = obj["v"]
        blob = bytes.fromhex(obj["blob"])
        epoch, depth = obj["epoch"], obj["depth"]
    except (KeyError, TypeError, ValueError):
        raise ProtocolError("malformed ciphertext bit") from None
    if type(version) is not int or version != 1:
        raise ProtocolError(f"ciphertext bit version {version!r}, want 1")
    if len(blob) != 9:
        raise ProtocolError(f"ciphertext blob has {len(blob)} bytes, want 9")
    ctx = ladder.ctx
    if type(epoch) is not int or not 1 <= epoch <= ctx.epochs:
        raise ProtocolError(
            f"ciphertext epoch {epoch!r} outside 1..{ctx.epochs}")
    if type(depth) is not int or not 0 <= depth <= ctx.depth_budget:
        raise ProtocolError(
            f"ciphertext depth {depth!r} outside 0..{ctx.depth_budget}")
    nonce = int.from_bytes(blob[:8], "big")
    payload = blob[8] ^ _mask(ladder, nonce, epoch)
    return kernel.bit_from_parts(ladder.state, payload, epoch, depth, nonce)


def word_to_obj(ladder: KeyLadder, w: CipherWord) -> dict:
    return {"v": 1, "width": w.width,
            "bits": [bit_to_obj(ladder, b) for b in w.bits]}


def word_from_obj(ladder: KeyLadder, obj: dict) -> CipherWord:
    _check_version(obj, "ciphertext word")
    bits = _field(obj, "bits", list, "ciphertext word")
    if not bits or len(bits) != _field(obj, "width", int, "ciphertext word"):
        raise ProtocolError("word width disagrees with bit count")
    return CipherWord(tuple(bit_from_obj(ladder, b) for b in bits))


def row_to_obj(ladder: KeyLadder, row: EncRow) -> dict:
    return {"cells": [word_to_obj(ladder, c) for c in row.cells],
            "p": bit_to_obj(ladder, row.presence)}


def row_from_obj(ladder: KeyLadder, obj: dict) -> EncRow:
    cells = _field(obj, "cells", list, "row")
    return EncRow(tuple(word_from_obj(ladder, c) for c in cells),
                  bit_from_obj(ladder, _field(obj, "p", dict, "row")))


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
    return {"v": 1, "name": t.name, "schema": schema_to_obj(t.schema),
            "rows": [row_to_obj(ladder, r) for r in t.rows]}


def table_rows_from_obj(ladder: KeyLadder, obj: dict):
    """Decode the ``schema`` and ``rows`` of a table or fetch payload into
    (Schema, rows); every row needs one cell per column at its width."""
    schema = schema_from_obj(_field(obj, "schema", list, "table"))
    rows = tuple(row_from_obj(ladder, r)
                 for r in _field(obj, "rows", list, "table"))
    widths = [w for _, w in schema.columns]
    for row in rows:
        if [c.width for c in row.cells] != widths:
            raise ProtocolError(
                f"row cell widths {[c.width for c in row.cells]} do not "
                f"match schema widths {widths}")
    return schema, rows


def table_from_obj(ladder: KeyLadder, obj: dict) -> EncTable:
    _check_version(obj, "table")
    name = _field(obj, "name", str, "table")
    schema, rows = table_rows_from_obj(ladder, obj)
    return EncTable(name, schema, rows, ladder.state)


# --- message envelope --------------------------------------------------------

def message_to_bytes(msg_type: str, query_id: str, payload) -> bytes:
    obj = {"type": msg_type, "query_id": query_id, "payload": payload}
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def message_from_bytes(data: bytes) -> dict:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"unreadable message: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("message is not a JSON object")
    for key in ("type", "query_id", "payload"):
        if key not in obj:
            raise ProtocolError(f"message lacks {key!r}")
    if not isinstance(obj["type"], str) or not isinstance(obj["query_id"], str):
        raise ProtocolError("message type and query id must be strings")
    return obj


# --- key material (CLI persistence) ------------------------------------------

def ladder_to_obj(ladder: KeyLadder) -> dict:
    return {
        "v": 1,
        "mode": ladder.ctx.mode,
        "depth_budget": ladder.ctx.depth_budget,
        "epochs": ladder.ctx.epochs,
        "seed": ladder.seed.hex(),
        "nonce_state": ladder.state.nonce_state,
        "wrapped": [w.hex() for w in ladder.wrapped_secret_keys],
    }


def ladder_from_obj(obj: dict) -> KeyLadder:
    ctx = SecurityContext(obj["mode"], obj["depth_budget"], obj["epochs"])
    ladder = KeyLadder(ctx, bytes.fromhex(obj["seed"]))
    # continue the nonce stream where the previous session stopped
    ladder.state.nonce_state = _field(obj, "nonce_state", int, "ladder")
    return ladder


def client_keys_to_obj(keys: ClientKeys) -> dict:
    return {"v": 1, "ladder_id": keys.ladder_id,
            "keys": [{"epoch": sk.epoch, "token": sk.token.hex()}
                     for sk in keys.secret_keys]}


def client_keys_from_obj(obj: dict) -> ClientKeys:
    return ClientKeys(obj["ladder_id"], tuple(
        SecretKey(obj["ladder_id"], e["epoch"], bytes.fromhex(e["token"]))
        for e in obj["keys"]))
