"""Compaction tapes (``hequel.tape``): a fetch the server answers from its
shape's tape is byte for byte the fetch the kernel answers.

Each plan of the transcript test (40 ``randgen`` plans per mode and the
five benchmark-shaped plans per mode) runs its query and fetch three
times on one server: the first fetch runs the kernel, the second records
the shape's tape and replays it, the third replays it. Every reply must
equal the reply of a kernel-only twin, made here by patching the twin's
compaction back to ``relalg.compact_rows``, and so must the counters and
the nonce stream after each message. Further tests hold that an armed
gate fault runs the kernel and still surfaces, that a compaction that
exhausts its ladder raises as the kernel does and keeps no tape, that the
tape store and the map of first sightings stay within ``MAX_TAPES``
whatever shapes arrive, that a compaction past ``MAX_TAPE_NODES`` never
records, and that malformed fetches still raise only ``HequelError``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hequel import dsl, protocol, randgen, serial, tape
from hequel.crypto import SecurityContext, keygen
from hequel.errors import HequelError, LadderExhausted
from hequel.protocol import MAX_TAPES, ClientSession, ServerStore
from hequel.relalg import bits_of_rows, compact_rows, rows_of_bits
from hequel.schema import PlainTable, Schema
from test_oblivious_transcript import (CONTEXTS, PLANS, SHAPED_CONTEXTS,
                                       SHAPED_PLANS, SLACK, _pooled_catalog)

KV = Schema((("k", 4), ("v", 4)))
SELECT = dsl.parse("select(k > 3, table(t))")
NONE = {"kernel": 0, "recorded": 0, "replayed": 0}
# the paths of three fetches of one shape
THREE = {"kernel": 1, "recorded": 1, "replayed": 1}


def _state(ladder) -> tuple:
    s = ladder.state
    return (s.and_count, s.xor_count, s.refresh_count, s.encrypt_count,
            s.nonce_state)


def _endpoints(ctx, kernel_only: bool, monkeypatch, slack: int = 0):
    ladder, keys = keygen(ctx, seed=b"tape")
    server = ServerStore(ladder)
    if kernel_only:
        monkeypatch.setattr(server, "_compact",
                            lambda rows, n_prime: compact_rows(rows)[:n_prime])
    return ladder, server, ClientSession(keys, ladder.public_key(1),
                                         slack=slack)


def _three_runs(ctx, catalog: dict, plan, slack: int, kernel_only: bool,
                monkeypatch) -> tuple[list, dict]:
    """Every reply, with the counters and nonce stream after it, of the
    catalog's uploads and three runs of ``plan``; a refusal ends the list
    with its error class. Also the server's compaction paths."""
    ladder, server, client = _endpoints(ctx, kernel_only, monkeypatch, slack)
    out = []

    def send(request: bytes) -> bytes:
        reply = server.handle(request)
        out.append((reply, _state(ladder)))
        return reply

    try:
        for name, plain in catalog.items():
            client.read_upload(send(client.upload_message(name, plain)))
        for _ in range(3):
            qid, query = client.query_message(plan)
            client.read_count(send(query))
            client.read_rows_and_verify(send(client.fetch_message(qid)))
    except HequelError as exc:
        out.append((type(exc).__name__, _state(ladder)))
    return out, server.compactions


def _replays_as_the_kernel(ctx, catalog, plan, slack, monkeypatch) -> dict:
    """The tape server's compaction paths, once its transcript has matched
    the kernel-only twin's."""
    got, paths = _three_runs(ctx, catalog, plan, slack, False, monkeypatch)
    want, _ = _three_runs(ctx, catalog, plan, slack, True, monkeypatch)
    assert got == want, plan
    if isinstance(got[-1][0], str):
        return None
    # no compaction at all (a packed or one-row result), or one per path
    assert paths in (NONE, THREE), (plan, paths)
    return paths


@pytest.mark.parametrize("mode", CONTEXTS)
def test_random_plans_replay_as_the_kernel(mode, monkeypatch):
    replayed = 0
    for seed in range(PLANS):
        rng = random.Random(seed)
        catalog = randgen.random_catalog(rng)
        plan = randgen.random_plan(rng, catalog)
        paths = _replays_as_the_kernel(CONTEXTS[mode], catalog, plan, SLACK,
                                       monkeypatch)
        replayed += paths == THREE
    # 16 of the 40 in either mode: the others are scalar aggregates,
    # sorts, or results of fewer than two rows
    assert replayed >= PLANS // 4, replayed


@pytest.mark.parametrize("slack", [0, SLACK])
@pytest.mark.parametrize("mode", SHAPED_CONTEXTS)
def test_benchmark_shaped_plans_replay_as_the_kernel(mode, slack,
                                                     monkeypatch):
    for text in SHAPED_PLANS:
        paths = _replays_as_the_kernel(
            SHAPED_CONTEXTS[mode], _pooled_catalog(random.Random(text)),
            dsl.parse(text), slack, monkeypatch)
        # a sort's result is packed and needs no compaction
        assert paths == (NONE if text.startswith("sort") else THREE), text


def _small_catalog(n: int = 8) -> dict:
    return {"t": PlainTable(KV, [(i % 16, 3 * i % 16) for i in range(n)])}


def _query(server, client, plan=SELECT) -> str:
    qid, query = client.query_message(plan)
    client.read_count(server.handle(query))
    return qid


def test_an_armed_fault_runs_the_kernel_and_surfaces(monkeypatch):
    ladder, server, client = _endpoints(SecurityContext(), False, monkeypatch)
    plain = _small_catalog()
    protocol.setup_upload(client, server, "t", plain["t"])
    expected = [r for r in plain["t"].rows if r[0] > 3]
    for _ in range(2):
        assert protocol.run_query(client, server, SELECT).rows == expected
    assert server.compactions == {"kernel": 1, "recorded": 1, "replayed": 0}
    qid = _query(server, client)
    before = ladder.state.gate_total()
    assert protocol.result_fetch(client, server, qid).rows == expected
    gates = ladder.state.gate_total() - before
    faults = range(1, gates + 1, max(1, gates // 8))
    surfaced = 0
    for at in faults:
        qid = _query(server, client)
        start = ladder.state.gate_total()
        ladder.inject_gate_fault(at)
        try:
            rows = protocol.result_fetch(client, server, qid).rows
        except HequelError:
            rows = None
        finally:
            ladder.clear_gate_fault()
        surfaced += rows != expected
        # the kernel ran it, with the gates a clean fetch runs
        assert ladder.state.gate_total() - start == gates
    assert surfaced > 0
    assert server.compactions == {"kernel": 1 + len(faults), "recorded": 1,
                                  "replayed": 1}


def test_an_exhausting_compaction_raises_as_the_kernel_and_keeps_no_tape(
        monkeypatch):
    # at 4 epochs and budget 2 the select's query fits and its compaction
    # runs past the top of the ladder
    ctx = SecurityContext(mode="leveled", depth_budget=2, epochs=4)
    seen = []
    for kernel_only in (False, True):
        ladder, server, client = _endpoints(ctx, kernel_only, monkeypatch)
        protocol.setup_upload(client, server, "t", _small_catalog()["t"])
        qid = _query(server, client)
        states = []
        # the refused fetch keeps its result, so it is sent three times
        for _ in range(3):
            with pytest.raises(LadderExhausted):
                server.handle(client.fetch_message(qid))
            states.append(_state(ladder))
        seen.append(states)
        if not kernel_only:
            assert server.tapes == {}
            assert server.compactions == {"kernel": 3, "recorded": 0,
                                          "replayed": 0}
    assert seen[0] == seen[1]


SHAPES = MAX_TAPES + 4
FUZZ = settings(max_examples=8, deadline=None, derandomize=True,
                database=None, suppress_health_check=[
                    HealthCheck.too_slow,
                    HealthCheck.function_scoped_fixture])


@FUZZ
@given(st.lists(st.integers(0, SHAPES - 1), min_size=SHAPES,
                max_size=4 * SHAPES))
def test_tapes_and_sightings_stay_bounded(monkeypatch, picks):
    # table t<i> has i + 2 rows, so each select result is its own shape;
    # every shape is fetched twice in a row first, so more than MAX_TAPES
    # shapes record a tape, then the drawn order follows
    servers = []
    for kernel_only in (False, True):
        ladder, server, client = _endpoints(SecurityContext(), kernel_only,
                                            monkeypatch)
        for i in range(SHAPES):
            protocol.setup_upload(client, server, f"t{i}",
                                  _small_catalog(i + 2)["t"])
        replies = []
        for i in [i for i in range(SHAPES) for _ in "ab"] + picks:
            qid = _query(server, client, dsl.parse(f"select(k > 3, table(t{i}))"))
            replies.append(server.handle(client.fetch_message(qid)))
            client.read_rows_and_verify(replies[-1])
            assert len(server.tapes) <= MAX_TAPES
            assert len(server.sightings) <= MAX_TAPES
        servers.append((replies, _state(ladder), server.compactions))
    (got, end, paths), (want, want_end, _) = servers
    assert (got, end) == (want, want_end)
    assert paths["recorded"] > MAX_TAPES


def test_a_compaction_past_the_node_bound_never_records(monkeypatch):
    ladder, server, client = _endpoints(SecurityContext(), False, monkeypatch)
    protocol.setup_upload(client, server, "t", _small_catalog()["t"])
    result = _query(server, client)
    rows = server.results[result].rows
    inputs, _ = tape.shape(rows)

    def run(clones, _):
        return bits_of_rows(compact_rows(rows_of_bits(clones, rows[0].cells)))

    nodes = tape.record(ladder.state, inputs, run, 1 << 20).nodes
    assert tape.record(ladder.state, inputs, run, nodes - 1) is None
    assert tape.record(ladder.state, inputs, run, nodes).nodes == nodes
    monkeypatch.setattr(protocol, "MAX_TAPE_NODES", nodes - 1)
    protocol.result_fetch(client, server, result)
    for _ in range(3):
        protocol.run_query(client, server, SELECT)
    assert server.tapes == {}
    assert server.compactions == {"kernel": 4, "recorded": 0, "replayed": 0}


FETCH_PAYLOADS = (st.fixed_dictionaries({"n_prime": st.integers(-3, 12)})
                  | st.fixed_dictionaries({"n_prime": st.none()
                                           | st.booleans() | st.text(max_size=3)
                                           | st.floats(allow_nan=False)})
                  | st.dictionaries(st.text(max_size=3), st.integers(),
                                    max_size=2))


@FUZZ
@given(FETCH_PAYLOADS)
def test_malformed_fetches_of_a_taped_shape_raise_only_hequel_errors(
        monkeypatch, payload):
    ladder, server, client = _endpoints(SecurityContext(), False, monkeypatch)
    protocol.setup_upload(client, server, "t", _small_catalog()["t"])
    for _ in range(2):
        protocol.run_query(client, server, SELECT)
    assert len(server.tapes) == 1
    qid = _query(server, client)
    before = _state(ladder)
    try:
        server.handle(serial.message_to_bytes("fetch_rows_request", qid,
                                              payload))
    except HequelError:
        assert _state(ladder) == before
        assert qid in server.results
        return
    assert server.compactions["replayed"] == 1
