"""The library surface that the benchmark under ``benchmark/`` relies on:
the names its modules import, the functions its tracer wraps, and the
attributes its layer timings and workloads read. A change that renames or
removes one of them fails here, not only in a benchmark run.
``bench.bench_gates`` is covered in ``test_kernel``."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from hequel import kernel
from hequel.crypto import SecurityContext, encrypt_bit, keygen
from hequel.protocol import ServerStore

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
