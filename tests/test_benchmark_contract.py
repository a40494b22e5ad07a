"""The library surface that the benchmark under ``benchmark/`` relies on:
the names its modules import, the functions its tracer wraps, and the
attributes its layer timings and workloads read. A change that renames or
removes one of them fails here, not only in a benchmark run.
``bench.bench_gates`` is covered in ``test_kernel``."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from hequel import dsl, kernel, serial
from hequel.circuits import decrypt_word
from hequel.crypto import SecurityContext, encrypt_bit, keygen
from hequel.protocol import (ClientSession, ServerStore, setup_upload,
                             submit_query)
from hequel.schema import PlainTable, Schema

BENCHMARK = str(Path(__file__).resolve().parent.parent / "benchmark")


def benchmark_module(name: str):
    sys.path.insert(0, BENCHMARK)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCHMARK)


def test_benchmark_modules_import():
    # each import resolves every name the module takes from hequel
    for name in ("spans", "probe", "workloads", "loop", "layers"):
        benchmark_module(name)


def test_traced_functions_are_own_attributes():
    # the tracer patches and restores each target through its owner's
    # __dict__, so an inherited or re-exported name would not do
    spans = benchmark_module("spans")
    for owner, attr, _ in spans._targets():
        assert attr in owner.__dict__, (owner, attr)


def test_state_exposes_the_kernel_and_server_results_clear():
    ladder, keys = keygen(SecurityContext(mode="circular", depth_budget=8),
                          seed=b"contract")
    assert ladder.state.impl is kernel
    bit = ladder.state.impl.refresh(encrypt_bit(ladder.public_key(), 1))
    assert (bit.depth, keys.decrypt_bit(bit)) == (0, 1)
    server = ServerStore(ladder)
    server.results.clear()


def test_a_fetched_row_decodes_without_its_schema():
    # the benchmark's wire accounting decodes each fetch_rows row alone
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"contract")
    server = ServerStore(ladder)
    client = ClientSession(keys, ladder.public_key())
    setup_upload(client, server, "t", PlainTable(
        Schema((("a", 4), ("b", 6))), [(3, 9), (1, 40), (7, 2)]))
    qid, n = submit_query(client, server, dsl.parse("select(a<7, table(t))"))
    reply = serial.message_from_bytes(
        server.handle(client.fetch_message(qid, n_prime=3)), "fetch_rows")
    rows = [serial.row_from_obj(ladder, r) for r in reply["payload"]["rows"]]
    assert [[decrypt_word(keys, c) for c in r.cells] for r in rows[:n]] == [
        [3, 9], [1, 40]]
    assert [keys.decrypt_bit(r.presence) for r in rows] == [1, 1, 0]
    loop = benchmark_module("loop")
    bits = loop._cipher_bits(ladder, "fetch_rows", reply["payload"])
    assert len(bits) == 3 * (4 + 6 + 1)
