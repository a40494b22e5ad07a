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

from hequel.circuits import CipherWord
from hequel.crypto import ClientKeys, KeyLadder, SecretKey, SecurityContext
from hequel.errors import LadderMismatch, ProtocolError
from hequel.relalg import EncRow, EncTable
from hequel.schema import Schema


def _mask(ladder: KeyLadder, nonce: int, epoch: int) -> int:
    material = ladder.mask_key + nonce.to_bytes(8, "big") + epoch.to_bytes(2, "big")
    return hashlib.sha256(material).digest()[0] & 1


def bit_to_obj(ladder: KeyLadder, c) -> dict:
    k = ladder.kernel
    nonce = k._nonce_of(c)
    masked = k._reveal(c) ^ _mask(ladder, nonce, c.epoch)
    blob = nonce.to_bytes(8, "big").hex() + bytes([masked]).hex()
    return {"v": 1, "epoch": c.epoch, "depth": c.depth, "blob": blob}


def bit_from_obj(ladder: KeyLadder, obj: dict):
    blob = bytes.fromhex(obj["blob"])
    if len(blob) != 9:
        raise ProtocolError(f"ciphertext blob has {len(blob)} bytes, want 9")
    nonce = int.from_bytes(blob[:8], "big")
    epoch, depth = obj["epoch"], obj["depth"]
    payload = blob[8] ^ _mask(ladder, nonce, epoch)
    return ladder.kernel.bit_from_parts(ladder.state, payload, epoch, depth, nonce)


def word_to_obj(ladder: KeyLadder, w: CipherWord) -> dict:
    return {"v": 1, "width": w.width,
            "bits": [bit_to_obj(ladder, b) for b in w.bits]}


def word_from_obj(ladder: KeyLadder, obj: dict) -> CipherWord:
    bits = tuple(bit_from_obj(ladder, b) for b in obj["bits"])
    if len(bits) != obj["width"]:
        raise ProtocolError("word width disagrees with bit count")
    return CipherWord(bits)


def row_to_obj(ladder: KeyLadder, row: EncRow) -> dict:
    return {"cells": [word_to_obj(ladder, c) for c in row.cells],
            "p": bit_to_obj(ladder, row.presence)}


def row_from_obj(ladder: KeyLadder, obj: dict) -> EncRow:
    return EncRow(tuple(word_from_obj(ladder, c) for c in obj["cells"]),
                  bit_from_obj(ladder, obj["p"]))


def schema_to_obj(schema: Schema) -> list:
    return [[name, width] for name, width in schema.columns]


def schema_from_obj(obj: list) -> Schema:
    return Schema(tuple((name, width) for name, width in obj))


def table_to_obj(ladder: KeyLadder, t: EncTable) -> dict:
    if t.state is not ladder.state:
        raise LadderMismatch("table belongs to a different ladder")
    return {"v": 1, "name": t.name, "schema": schema_to_obj(t.schema),
            "rows": [row_to_obj(ladder, r) for r in t.rows]}


def table_from_obj(ladder: KeyLadder, obj: dict) -> EncTable:
    return EncTable(obj["name"], schema_from_obj(obj["schema"]),
                    tuple(row_from_obj(ladder, r) for r in obj["rows"]),
                    ladder.state)


# --- message envelope --------------------------------------------------------

def message_to_bytes(msg_type: str, query_id: str, payload) -> bytes:
    obj = {"type": msg_type, "query_id": query_id, "payload": payload}
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def message_from_bytes(data: bytes) -> dict:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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


def ladder_from_obj(obj: dict, kernel=None) -> KeyLadder:
    ctx = SecurityContext(obj["mode"], obj["depth_budget"], obj["epochs"])
    ladder = KeyLadder(ctx, bytes.fromhex(obj["seed"]), kernel=kernel)
    # continue the nonce stream where the previous session stopped
    ladder.state.nonce_state = obj["nonce_state"]
    return ladder


def client_keys_to_obj(keys: ClientKeys) -> dict:
    return {"v": 1, "ladder_id": keys.ladder_id,
            "keys": [{"epoch": sk.epoch, "token": sk.token.hex()}
                     for sk in keys.secret_keys]}


def client_keys_from_obj(obj: dict) -> ClientKeys:
    return ClientKeys(obj["ladder_id"], tuple(
        SecretKey(obj["ladder_id"], e["epoch"], bytes.fromhex(e["token"]))
        for e in obj["keys"]))
