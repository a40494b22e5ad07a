"""Obliviousness of the whole transcript: for a fixed plan, what the server
spends and sends depends on the catalog's shape only, never on its values.

Each seed draws a ``randgen`` catalog and plan, plus a second catalog of the
same shape (schemas and row counts) with every value redrawn. Both run
through ``ServerStore.handle`` under the same key seed, with a slack larger
than any result's capacity, so the client asks for every row either way.
Per message, the two transcripts must agree on the request and reply byte
lengths, the counters moved since the previous reply (client work
included), and the width, epoch and depth of every word in the reply.
"""

from __future__ import annotations

import random

import pytest

from hequel import randgen, serial
from hequel.crypto import SecurityContext, keygen
from hequel.errors import HequelError
from hequel.protocol import ClientSession, ServerStore
from hequel.schema import PlainTable

PLANS = 40
SLACK = 1 << 16  # more than any randgen plan's capacity
CONTEXTS = {
    "circular": SecurityContext(),
    "leveled:64": SecurityContext(mode="leveled", depth_budget=3, epochs=64),
}


def _counters(state) -> tuple[int, ...]:
    return (state.and_count, state.xor_count, state.refresh_count,
            state.encrypt_count)


def _words(obj) -> list:
    """(width, epoch, depth) of every ciphertext word in a decoded message."""
    if isinstance(obj, dict):
        if "blob" in obj:
            return [(obj["width"], obj["epoch"], obj["depth"])]
        return [w for value in obj.values() for w in _words(value)]
    if isinstance(obj, list):
        return [w for value in obj for w in _words(value)]
    return []


def _transcript(ctx: SecurityContext, catalog: dict, plan) -> list:
    """One entry per message: its lengths, counter deltas and reply words;
    a refusal ends the transcript with its error class."""
    ladder, keys = keygen(ctx, seed=b"transcript")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key(1), slack=SLACK)
    out, last = [], _counters(ladder.state)

    def send(request: bytes) -> bytes:
        nonlocal last
        reply = server.handle(request)
        now = _counters(ladder.state)
        out.append((len(request), len(reply),
                    tuple(b - a for a, b in zip(last, now)),
                    _words(serial.message_from_bytes(reply))))
        last = now
        return reply

    try:
        for name, plain in catalog.items():
            send(client.upload_message(name, plain))
        qid, query = client.query_message(plan)
        client.read_count(send(query))
        client.read_rows_and_verify(send(client.fetch_message(qid)))
    except HequelError as exc:
        out.append(type(exc).__name__)
    return out


def _redrawn(catalog: dict, rng: random.Random) -> dict:
    return {name: PlainTable(t.schema, [
        tuple(rng.randrange(1 << w) for _, w in t.schema.columns)
        for _ in t.rows]) for name, t in catalog.items()}


@pytest.mark.parametrize("mode", CONTEXTS)
def test_transcript_depends_on_shapes_only(mode):
    differ = []
    for seed in range(PLANS):
        rng = random.Random(seed)
        catalog = randgen.random_catalog(rng)
        plan = randgen.random_plan(rng, catalog)
        a, b = (_transcript(CONTEXTS[mode], cat, plan)
                for cat in (catalog, _redrawn(catalog, rng)))
        if a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                      min(len(a), len(b)))
            differ.append(f"seed {seed}, message {at}: {plan!r}")
    assert not differ, "\n".join(differ)
