"""Seeded workload generators.

Each workload turns ``--seed`` into plaintext tables and a fixed cycle of
op templates. Seeds change values and plan literals only; table sizes,
widths and plan shapes are fixed per workload. Execution is oblivious, so
every op of one template costs the same gates on every seed, and the
benchmark checks that it does.

The program sees only what an op hands it: plaintext tables to upload and
plans to run.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from hequel import engine, oracle, plans, protocol
from hequel.crypto import SecurityContext, keygen
from hequel.relalg import And, Cmp, ColRef, Lit, Not, Or, decrypt_table
from hequel.schema import PlainTable, Schema

T = plans.TableRef


class LoggingServer(protocol.ServerStore):
    """A ServerStore that keeps the bytes of every message it handles, so
    wire size, result epochs and depths can be read after the timed
    region."""

    def __init__(self, ladder):
        super().__init__(ladder)
        self.log: list[tuple[bytes, bytes]] = []

    def handle(self, data: bytes) -> bytes:
        reply = super().handle(data)
        self.log.append((data, reply))
        return reply


@dataclass
class Session:
    ladder: object
    keys: object
    server: LoggingServer | None
    client: protocol.ClientSession | None

    def drop_results(self) -> None:
        """Drop the server's query results, which it keeps after a fetch,
        so that memory does not grow with the number of ops a run does."""
        self.server.results.clear()

    def fresh_endpoints(self) -> None:
        """New server and client on the same keys: stored state is dropped."""
        self.server = LoggingServer(self.ladder)
        self.client = protocol.ClientSession(
            self.keys, self.ladder.public_key(1))


@dataclass
class Op:
    """One timed operation and what its result must equal."""

    template: str
    run: Callable[[Session], PlainTable]
    expected: Callable[[], PlainTable]
    # an extra check after the timed region; returns a failure or None
    check: Callable[[Session], str | None] | None = None


@dataclass
class Workload:
    name: str
    mode: str
    epochs: int
    depth_budget: int
    tail_pct: int
    why: str
    templates: tuple[str, ...]
    tables: dict[str, str]
    make: Callable[[random.Random], "Instance"]

    def context(self) -> SecurityContext:
        return SecurityContext(self.mode, self.depth_budget, self.epochs)

    def describe(self) -> dict:
        return {"mode": self.mode if self.mode == "circular"
                else f"{self.mode}:{self.epochs}",
                "depth_budget": self.depth_budget,
                "op_mix": list(self.templates),
                "tables": self.tables,
                "tail_percentile": self.tail_pct,
                "why": self.why}


@dataclass
class Instance:
    """A workload's generated inputs for one seed."""

    catalog: dict[str, PlainTable]
    # cycle index -> the ops of that cycle
    cycle: Callable[[int], list[Op]]
    # untimed step before each cycle
    before_cycle: Callable[[Session], None] = Session.drop_results


def new_session(ctx: SecurityContext, catalog: dict[str, PlainTable],
                key_seed: str) -> Session:
    """Key a ladder and upload the catalog through ServerStore.handle."""
    ladder, keys = keygen(ctx, seed=key_seed)
    session = Session(ladder, keys, None, None)
    session.fresh_endpoints()
    for name, table in catalog.items():
        protocol.setup_upload(session.client, session.server, name, table)
    return session


def query_op(template: str, plan, catalog: dict[str, PlainTable]) -> Op:
    return Op(template,
              lambda s: engine.run_encrypted(plan, s.server, s.client)[0],
              lambda: oracle.eval_plan(plan, catalog))


# --- relational-fetch --------------------------------------------------------

KV = Schema((("k", 8), ("v", 8)))
VARIANTS = 4  # catalogs with equal shapes and different data, alternated


def _pooled_table(rng: random.Random, n: int, kpool, vpool) -> PlainTable:
    return PlainTable(KV, [(rng.choice(kpool), rng.choice(vpool))
                           for _ in range(n)])


def _relational(rng: random.Random) -> Instance:
    catalog = {}
    for v in range(VARIANTS):
        # small value pools so duplicates, group collisions and bag
        # overlaps occur
        kpool, vpool = rng.sample(range(256), 6), rng.sample(range(256), 5)
        for name, rows in (("a", 32), ("b", 16), ("c", 16), ("d", 12),
                           ("e", 12)):
            catalog[f"{name}{v}"] = _pooled_table(rng, rows, kpool, vpool)

    def cycle(i: int) -> list[Op]:
        a, b, c = (T(f"{name}{i % VARIANTS}") for name in "abc")
        lit = lambda: Lit(rng.randrange(256))  # noqa: E731
        pred = Or(And(Cmp(">=", ColRef("k"), lit()),
                      Cmp("!=", ColRef("v"), lit())),
                  Not(Cmp("<", ColRef("v"), lit())))
        planned = [
            ("select", plans.Select(pred, a)),
            ("union", plans.Union(b, c)),
            ("distinct", plans.Distinct(a)),
        ] + [
            ("diff", plans.Diff(T(f"d{(i + j) % VARIANTS}"),
                                T(f"e{(i + j) % VARIANTS}")))
            for j in range(3)
        ] + [
            ("sort", plans.Sort("v", False, a)),
            ("groupby", plans.GroupBySum(("k",), "v", a)),
            ("intersect", plans.Intersect(b, c)),
        ]
        return [query_op(name, plan, catalog) for name, plan in planned]

    return Instance(catalog, cycle)


# Three cheap op kinds, one alone in the middle, three dear ones: the
# median then falls inside one kind's latencies, and p80 inside the dear
# group, not on a boundary between kinds, where the machine's changing
# speed would move them most. diff runs on 12-row tables for that reason,
# three times a cycle so the median rests on more samples.
RELATIONAL = Workload(
    name="relational-fetch", mode="circular", epochs=1, depth_budget=8,
    tail_pct=80,
    why=("oblivious_sort_rows does most gate work, inside operators and as "
         "the fetch compaction; every op runs the full two-step fetch"),
    templates=("select", "union", "distinct", "diff", "diff", "diff", "sort",
               "groupby", "intersect"),
    tables={"a": "32 rows k:8 v:8", "b": "16 rows k:8 v:8",
            "c": "16 rows k:8 v:8", "d": "12 rows k:8 v:8",
            "e": "12 rows k:8 v:8",
            "variants": f"{VARIANTS} catalogs alternated by cycle"},
    make=_relational)


# --- aggregate-leveled -------------------------------------------------------

XYW = Schema((("x", 8), ("y", 8), ("w", 12)))


def _aggregate(rng: random.Random) -> Instance:
    catalog = {}
    for v in range(VARIANTS):
        ypool = rng.sample(range(256), 8)
        catalog[f"m{v}"] = PlainTable(XYW, [
            (rng.randrange(256), rng.choice(ypool), rng.randrange(4096))
            for _ in range(32)])

    def cycle(i: int) -> list[Op]:
        m = T(f"m{i % VARIANTS}")
        x, y, w = ColRef("x"), ColRef("y"), ColRef("w")
        b8 = lambda: Lit(rng.randrange(256))  # noqa: E731
        b12 = lambda: Lit(rng.randrange(4096))  # noqa: E731
        planned = [
            ("count", plans.Count(plans.Select(Cmp(">", x, b8()), m))),
            ("sum", plans.Sum("w", plans.Select(Cmp("<", y, b8()), m))),
            ("avg_select", plans.Avg("x", plans.Select(
                Or(Cmp("!=", y, b8()), Cmp("<=", w, b12())), m))),
            ("avg", plans.Avg("w", m)),
            ("min", plans.Min("w", m)),
            ("max_select", plans.Max("w", plans.Select(
                And(Cmp(">=", x, b8()), Not(Cmp("=", y, b8()))), m))),
            ("min_select", plans.Min("w", plans.Select(
                Cmp("<=", w, b12()), m))),
        ]
        return [query_op(name, plan, catalog) for name, plan in planned]

    return Instance(catalog, cycle)


# As for relational-fetch: three cheap kinds, avg(w) alone in the middle,
# three dear 12-bit extremes.
AGGREGATE = Workload(
    name="aggregate-leveled", mode="leveled", epochs=128, depth_budget=8,
    tail_pct=95,
    why=("single-row aggregates skip compaction and sorting: linear circuit "
         "scans plus the kernel's refresh and epoch-alignment path"),
    templates=("count", "sum", "avg_select", "avg", "min", "max_select",
               "min_select"),
    tables={"m": "32 rows x:8 y:8 w:12",
            "variants": f"{VARIANTS} catalogs alternated by cycle"},
    make=_aggregate)


# --- ingest ------------------------------------------------------------------

WIDE = Schema((("a", 8), ("b", 8), ("c", 12), ("d", 16)))
INGEST_ROWS = 64
# uploads per server before it is replaced, so the stored-table count and
# memory stay bounded whatever the run length
INGEST_BLOCK = 16


def _ingest(rng: random.Random) -> Instance:
    names = itertools.count(1)

    def one(i: int) -> Op:
        name = f"t{i}"
        table = PlainTable(WIDE, [
            tuple(rng.randrange(1 << w) for _, w in WIDE.columns)
            for _ in range(INGEST_ROWS)])
        checksum = plans.Sum("a", T(name))

        def run(s: Session) -> PlainTable:
            protocol.setup_upload(s.client, s.server, name, table)
            return engine.run_encrypted(checksum, s.server, s.client)[0]

        def stored(s: Session) -> str | None:
            got = decrypt_table(s.keys, s.server.tables[name])
            return None if got.rows == table.rows else "stored rows differ"

        return Op("upload", run,
                  lambda: oracle.eval_plan(checksum, {name: table}), stored)

    def cycle(i: int) -> list[Op]:
        return [one(next(names)) for _ in range(INGEST_BLOCK)]

    return Instance({}, cycle, Session.fresh_endpoints)


INGEST = Workload(
    name="ingest", mode="circular", epochs=1, depth_budget=8, tail_pct=95,
    why=("write side of crypto and serial: fresh 64-row tables encrypted, "
         "encoded and uploaded, then a sum checksum read back"),
    templates=("upload",),
    tables={"t<i>": f"{INGEST_ROWS} rows a:8 b:8 c:12 d:16, fresh name each op",
            "block": f"{INGEST_BLOCK} uploads per server"},
    make=_ingest)


WORKLOADS = {w.name: w for w in (RELATIONAL, AGGREGATE, INGEST)}
