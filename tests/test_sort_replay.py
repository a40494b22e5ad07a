"""Sort-network tapes: a sort or groupby whose network the server replays
from a tape answers byte for byte as the kernel does.

Three identical queries go to one server, so its sort runs the kernel,
then records the shape's tape and replays it, then replays it. Every
message's reply, counters and nonce state must equal those of the same
message sent to a fresh server, which sees each shape once and so always
runs the kernel. In leveled mode a lift copy made in the current scope
must be reused as the kernel reuses it, so every leveled sort runs its
network once, on the kernel, and records no tape. An armed gate fault
runs the kernel even when a tape is recorded, and sort and compaction
tapes share the server's bounds.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from hequel import dsl, oracle, protocol, relalg
from hequel.crypto import SecurityContext, keygen
from hequel.errors import HequelError
from hequel.kernel import lift, open_scope
from hequel.protocol import (MAX_TAPES, ClientSession, ServerStore,
                             run_query, setup_upload)
from hequel.relalg import EncTable, decrypt_table, encrypt_table, op_sort
from hequel.schema import PlainTable, Schema
from test_oblivious_transcript import _pooled_catalog
from test_tape import THREE, _state

CONTEXTS = {
    "circular": SecurityContext(),
    "leveled:256 budget 8": SecurityContext(mode="leveled", depth_budget=8,
                                            epochs=256),
    "leveled:256 budget 3": SecurityContext(mode="leveled", depth_budget=3,
                                            epochs=256),
}
# over the 32-row table a: its sort, a sort of a partly absent result,
# and a groupby, which sorts with adjacent_only and then compacts
PLANS = {
    "sort": "sort(v, desc, table(a))",
    "sort of a select": "sort(k, asc, select(v > 100, table(a)))",
    "groupby": "groupby([k], v, table(a))",
}
KV = Schema((("k", 4), ("v", 4)))


def _three_queries(ctx, plan, fresh: bool) -> tuple[list, ServerStore]:
    """Every reply, with the counters and nonce stream after it, of the
    catalog's uploads and three runs of ``plan``. With ``fresh``, each
    run goes to a new server holding the stored tables."""
    ladder, keys = keygen(ctx, seed=b"sort tapes")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key(1))
    log = []

    def send(request: bytes) -> bytes:
        log.append((server.handle(request), _state(ladder)))
        return log[-1][0]

    for name, plain in _pooled_catalog(random.Random("sort tapes")).items():
        client.read_upload(send(client.upload_message(name, plain)))
    for _ in range(3):
        if fresh:
            tables, server = server.tables, ServerStore(ladder)
            server.tables = tables
        qid, query = client.query_message(plan)
        client.read_count(send(query))
        client.read_rows_and_verify(send(client.fetch_message(qid)))
    return log, server


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("mode", CONTEXTS)
def test_a_replayed_sort_answers_as_the_kernel(mode, plan):
    got, server = _three_queries(CONTEXTS[mode], dsl.parse(PLANS[plan]),
                                 False)
    want, twin = _three_queries(CONTEXTS[mode], dsl.parse(PLANS[plan]), True)
    assert got == want
    assert twin.sorts == {"kernel": 1, "recorded": 0, "replayed": 0}
    if mode == "circular":
        assert server.sorts == THREE
    else:
        assert server.sorts == {"kernel": 3, "recorded": 0, "replayed": 0}


def _session():
    ladder, keys = keygen(SecurityContext(), seed=b"sort tapes")
    server = ServerStore(ladder)
    return ladder, server, ClientSession(keys, ladder.public_key(1))


def test_each_sort_network_of_one_table_keeps_its_own_tape():
    # one shape of rows under five networks: two keys, two directions,
    # and a groupby's adjacent_only sort, each recorded on its own
    _, server, client = _session()
    catalog = _pooled_catalog(random.Random("networks"))
    for name, plain in catalog.items():
        setup_upload(client, server, name, plain)
    texts = [f"sort({col}, {way}, table(a))" for col in "kv"
             for way in ("asc", "desc")] + ["groupby([k], v, table(a))"]
    for _ in range(3):
        for text in texts:
            plan = dsl.parse(text)
            got, want = run_query(client, server, plan), oracle.eval_plan(
                plan, catalog)
            assert Counter(got.rows) == Counter(want.rows), text
            if text.startswith("sort"):
                assert got.rows == want.rows, text
    assert server.sorts == {"kernel": 5, "recorded": 5, "replayed": 5}


def test_a_bit_at_two_positions_makes_its_own_shape():
    # union(t, t) holds each bit of t at two positions, union(t, u) the
    # bits of two tables with the same epochs and depths: were the key
    # blind to that, the tape recorded on the first would read t's
    # payloads for u's rows
    _, server, client = _session()
    catalog = {name: PlainTable(KV, [(m * i % 16, (m + 2) * i % 16)
                                     for i in range(8)])
               for name, m in (("t", 3), ("u", 5))}
    for name, plain in catalog.items():
        setup_upload(client, server, name, plain)
    for outer in ("select(k > 3, {})", "sort(v, asc, {})"):
        for inner in ("union(table(t), table(t))",
                      "union(table(t), table(u))"):
            plan = dsl.parse(outer.format(inner))
            want = oracle.eval_plan(plan, catalog).rows
            for _ in range(3):
                assert run_query(client, server, plan).rows == want, plan
    assert server.compactions == {"kernel": 2, "recorded": 2, "replayed": 2}
    assert server.sorts == {"kernel": 2, "recorded": 2, "replayed": 2}


def _leveled(seed: bytes, taped: bool):
    """A leveled ladder, its client keys and public key of epoch 1, with a
    server's tape store on its state when ``taped``."""
    ladder, keys = keygen(SecurityContext(mode="leveled", depth_budget=8,
                                          epochs=8), seed=seed)
    server = ServerStore(ladder) if taped else None
    return ladder, keys, server


def _bits(t: EncTable) -> list:
    return [(b.epoch, b.depth, b._nonce) for r in t.rows
            for b in (*(b for c in r.cells for b in c.bits), r.presence)]


def _sorts_with_a_lift(taped: bool, epochs) -> tuple[list, ServerStore]:
    """Four sorts of two rows, each in its own scope and followed by a
    lift of row 0's presence, which reuses any copy the sort left; the
    fourth sort also follows such a lift. The counters, output bits and
    plaintext after each. Row i is encrypted under ``epochs[i]``."""
    ladder, keys, server = _leveled(b"lifted sort", taped)
    plain = [(9, 1), (3, 5)]
    rows = tuple(encrypt_table(ladder.public_key(e),
                               PlainTable(KV, [p])).rows[0]
                 for e, p in zip(epochs, plain))
    table = EncTable("t", KV, rows, ladder.state)
    top = max(epochs) + 1
    seen = []
    for round_ in range(4):
        open_scope(ladder.state)
        if round_ == 3:
            lift(rows[0].presence, top)
        out = op_sort("k", True, table)
        lift(rows[0].presence, top)
        seen.append((_state(ladder), _bits(out),
                     decrypt_table(keys, out).rows))
    return seen, server


@pytest.mark.parametrize("epochs", [(1, 1), (1, 2)],
                         ids=["one epoch", "two epochs"])
def test_a_leveled_sort_runs_its_network_once_on_the_kernel(epochs,
                                                             monkeypatch):
    # rows under one epoch: one comparator on fresh rows stays within the
    # depth budget and lifts nothing. Under two, the network lifts the
    # older inputs, and a copy the kernel leaves is what the lift after
    # the sort reuses. Either way no sort records or replays, and no dry
    # run enters the network.
    network, runs = relalg._sort_network, []

    def counted(*args):
        runs.append(len(args[0]))
        return network(*args)

    monkeypatch.setattr(relalg, "_sort_network", counted)
    got, server = _sorts_with_a_lift(True, epochs)
    assert runs == [2] * 4
    want, _ = _sorts_with_a_lift(False, epochs)
    assert got == want
    assert got[0][2] == [(3, 5), (9, 1)]
    assert server.sorts == {"kernel": 4, "recorded": 0, "replayed": 0}
    assert server.tapes == {}


def test_an_armed_fault_in_a_taped_sort_runs_the_kernel_and_surfaces():
    ladder, server, client = _session()
    plain = PlainTable(KV, [(3 * i % 16, 5 * i % 16) for i in range(8)])
    setup_upload(client, server, "t", plain)
    plan = dsl.parse("sort(v, desc, table(t))")
    expected = sorted(plain.rows, key=lambda r: -r[1])
    for _ in range(2):
        assert run_query(client, server, plan).rows == expected
    assert server.sorts == {"kernel": 1, "recorded": 1, "replayed": 0}
    before = ladder.state.gate_total()
    assert run_query(client, server, plan).rows == expected
    gates = ladder.state.gate_total() - before
    faults = range(1, gates + 1, max(1, gates // 8))
    surfaced = 0
    for at in faults:
        start = ladder.state.gate_total()
        ladder.inject_gate_fault(at)
        try:
            rows = run_query(client, server, plan).rows
        except HequelError:
            rows = None
            client.pending.clear()
        finally:
            ladder.clear_gate_fault()
        surfaced += rows != expected
        if rows is not None:
            # the kernel ran it, with the gates a clean query runs
            assert ladder.state.gate_total() - start == gates
    assert surfaced > 0
    assert server.sorts == {"kernel": 1 + len(faults), "recorded": 1,
                            "replayed": 1}


def _shape_rounds(server, client, shapes: int, rounds: int,
                  repeats: int) -> None:
    """A select and a sort over each of ``shapes`` tables of 2, 3, ...
    rows, each its own compaction or sort shape and each sent
    ``repeats`` times in a row, ``rounds`` times over, checking the
    results and the server's bounds after each query."""
    for i in range(shapes):
        setup_upload(client, server, f"t{i}", PlainTable(
            KV, [(j % 16, 3 * j % 16) for j in range(i + 2)]))
    for _ in range(rounds):
        for i in range(shapes):
            rows = [(j % 16, 3 * j % 16) for j in range(i + 2)]
            for text, want in (
                    (f"select(k > 3, table(t{i}))",
                     [r for r in rows if r[0] > 3]),
                    (f"sort(v, asc, table(t{i}))",
                     sorted(rows, key=lambda r: r[1]))):
                for _ in range(repeats):
                    got = run_query(client, server, dsl.parse(text))
                    assert got.rows == want
                    assert len(server.tapes) <= protocol.MAX_TAPES
                    assert len(server.sightings) <= protocol.MAX_SIGHTINGS


def test_sort_and_compaction_tapes_share_the_tape_bound():
    # ten shapes of each kind, each queried twice in a row: all twenty
    # record a tape, and the store keeps the last MAX_TAPES of them
    _, server, client = _session()
    _shape_rounds(server, client, 10, 1, 2)
    assert server.compactions == {"kernel": 10, "recorded": 10,
                                  "replayed": 0}
    assert server.sorts == {"kernel": 10, "recorded": 10, "replayed": 0}
    assert len(server.tapes) == MAX_TAPES
    assert {key[0] for key in server.tapes} == {"compact", "sort"}


def test_sort_and_compaction_sightings_share_the_sighting_bound(
        monkeypatch):
    # six shapes cycling through four remembered sightings: each is
    # dropped before its second sighting, so none records
    monkeypatch.setattr(protocol, "MAX_SIGHTINGS", 4)
    _, server, client = _session()
    _shape_rounds(server, client, 3, 2, 1)
    assert len(server.sightings) == 4
    assert server.compactions == {"kernel": 6, "recorded": 0, "replayed": 0}
    assert server.sorts == {"kernel": 6, "recorded": 0, "replayed": 0}
    assert server.tapes == {}
