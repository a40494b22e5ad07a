"""Obliviousness of the whole transcript: for a fixed plan, what the server
spends and sends depends on the catalog's shape only, never on its values.

Each seed draws a ``randgen`` catalog and plan, plus a second catalog of the
same shape (schemas and row counts) with every value redrawn. Both run
through ``ServerStore.handle`` under the same key seed, with a slack larger
than any result's capacity, so the client asks for every row either way.
Per message, the two transcripts must agree on the request and reply byte
lengths, the counters moved since the previous reply (client work
included), and the layout, width, epoch and depth of every word in the
request and in the reply, and the stream steps between the nonces of
each reply word's bits, which set a stepped word's byte length.

Beside the random plans, five fixed plans take the shapes of the
benchmark's relational-fetch templates at n=32, under its circular ladder
and under aggregate-leveled's ``leveled:128`` at depth budget 8. A census
over the same plans checks the word layouts: a word in either direction
is seeded (v3) exactly when its decoded bits are one run of the nonce
stream at depth 0 under one epoch, and is stepped (v4) otherwise.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from hequel import dsl, kernel, randgen, serial
from hequel.crypto import SecurityContext, keygen
from hequel.errors import HequelError
from hequel.protocol import ClientSession, ServerStore
from hequel.schema import PlainTable, Schema

PLANS = 40
SLACK = 1 << 16  # more than any randgen plan's capacity
CONTEXTS = {
    "circular": SecurityContext(),
    "leveled:64": SecurityContext(mode="leveled", depth_budget=3, epochs=64),
}


def _counters(state) -> tuple[int, ...]:
    return (state.and_count, state.xor_count, state.refresh_count,
            state.encrypt_count)


def _word_objs(obj) -> list:
    """Every ciphertext word object in a decoded message, in order."""
    if isinstance(obj, dict):
        if "blob" in obj:
            return [obj]
        return [w for value in obj.values() for w in _word_objs(value)]
    if isinstance(obj, list):
        return [w for value in obj for w in _word_objs(value)]
    return []


def _words(ladder, obj) -> list:
    """(layout version, width, epoch, depth) of every ciphertext word in a
    decoded message; a seeded word has no depth key, so None."""
    return [(w["v"], w["width"], w["epoch"], w.get("depth"))
            for w in _word_objs(obj)]


def _stepped_words(ladder, obj) -> list:
    """``_words``, each with the stream steps between its decoded bits'
    nonces."""
    return [(*word, tuple(kernel._nonce_steps(
        [b._nonce for b in serial.word_from_obj(ladder, w).bits])))
        for word, w in zip(_words(ladder, obj), _word_objs(obj))]


def _transcript(ctx: SecurityContext, catalog: dict, plan,
                words=_words, reply_words=_stepped_words) -> list:
    """One entry per message: its lengths, counter deltas, request words
    and reply words, as ``words`` and ``reply_words`` read them off each
    decoded message; a refusal ends the transcript with its error
    class."""
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
                    words(ladder, serial.message_from_bytes(request)),
                    reply_words(ladder, serial.message_from_bytes(reply))))
        last = now
        return reply

    try:
        for name, plain in catalog.items():
            client.read_upload(send(client.upload_message(name, plain)))
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
        elif isinstance(a[-1], str):
            # two equal refusals would compare equal and check nothing
            differ.append(f"seed {seed}: refused with {a[-1]}: {plan!r}")
    assert not differ, "\n".join(differ)


SHAPED_CONTEXTS = {
    "circular": SecurityContext(),
    "leveled:128": SecurityContext(mode="leveled", depth_budget=8,
                                   epochs=128),
}
KV = Schema((("k", 8), ("v", 8)))
SHAPED_PLANS = (
    "select(k > 100 or v = 7, table(a))",
    "sort(v, desc, table(a))",
    "groupby([k], v, table(a))",
    "distinct(table(a))",  # its duplicate test is an OR tree
    "intersect(table(b), table(c))",
)


def _pooled_catalog(rng: random.Random) -> dict:
    """32 rows in a and 16 each in b and c, drawn from small value pools
    so duplicates, groups and bag overlaps occur, as in the benchmark."""
    kpool, vpool = rng.sample(range(256), 6), rng.sample(range(256), 5)
    return {name: PlainTable(KV, [(rng.choice(kpool), rng.choice(vpool))
                                  for _ in range(n)])
            for name, n in (("a", 32), ("b", 16), ("c", 16))}


@pytest.mark.parametrize("mode", SHAPED_CONTEXTS)
def test_benchmark_shaped_transcript_depends_on_shapes_only(mode):
    differ = []
    for text in SHAPED_PLANS:
        rng = random.Random(text)
        catalog = _pooled_catalog(rng)
        plan = dsl.parse(text)
        a, b = (_transcript(SHAPED_CONTEXTS[mode], cat, plan)
                for cat in (catalog, _redrawn(catalog, rng)))
        if a != b:
            differ.append(text)
        elif isinstance(a[-1], str):
            differ.append(f"{text}: refused with {a[-1]}")
    assert not differ, "\n".join(differ)


def _layouts(ladder, obj) -> list:
    """(layout version, whether the decoded bits are one fresh run) of
    every ciphertext word in a decoded message. A fresh run is what
    ``fresh_word`` mints: bit i has nonce (z + i·γ) mod 2^64, every bit
    sits at depth 0, and all share one epoch."""
    out = []
    for w in _word_objs(obj):
        bits = serial.word_from_obj(ladder, w).bits
        z, e = bits[0]._nonce, bits[0].epoch
        run = all(b._nonce == (z + i * kernel._GAMMA) % 2**64
                  and b.depth == 0 and b.epoch == e
                  for i, b in enumerate(bits))
        out.append((w["v"], run))
    return out


@pytest.mark.parametrize("mode", ["circular", "leveled"])
def test_a_word_is_seeded_exactly_when_its_bits_are_one_fresh_run(mode):
    random_ctx, shaped_ctx = {
        "circular": (CONTEXTS["circular"], SHAPED_CONTEXTS["circular"]),
        "leveled": (CONTEXTS["leveled:64"], SHAPED_CONTEXTS["leveled:128"]),
    }[mode]
    runs = []
    for seed in range(PLANS):
        rng = random.Random(seed)
        catalog = randgen.random_catalog(rng)
        runs.append((random_ctx, catalog,
                     randgen.random_plan(rng, catalog)))
    for text in SHAPED_PLANS:
        runs.append((shaped_ctx, _pooled_catalog(random.Random(text)),
                     dsl.parse(text)))
    census = Counter()
    for ctx, catalog, plan in runs:
        for entry in _transcript(ctx, catalog, plan, _layouts, _layouts):
            if not isinstance(entry, str):
                census.update(("sent", *word) for word in entry[3])
                census.update(("replied", *word) for word in entry[4])
    seeded, stepped = serial.SEEDED_VERSION, serial.STEPPED_VERSION
    # the client's uploads and literals are fresh runs; the server's fetched
    # rows are gate outputs, and a scalar result's count word is its own
    # fresh presence bit
    assert set(census) == {("sent", seeded, True), ("replied", seeded, True),
                           ("replied", stepped, False)}, census
