"""Client/server roles and the two-step compact result return.

Both roles run in one process but talk only through serialized messages,
so the trust boundary is the API: the server side holds public keys and
wrapped secret keys and can never decrypt.

Result return is two round trips. The server first answers a query with
the encrypted presence-count of the result table plus its public capacity.
The client decrypts the count to n and asks for n' rows (n' >= n; the
server sees only n'). The server compacts the result under encryption
(``relalg.compact_rows``: present rows to the front in their order, with a
gate sequence fixed by the capacity) and returns its first n' rows. The
client decrypts the presence bits and accepts only if exactly n present
rows arrive, all before any absent row: a short or padded-wrong reply
fails verification instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hequel import plans, serial
from hequel.circuits import decrypt_word
from hequel.crypto import ClientKeys, KeyLadder, PublicKey
from hequel.errors import FetchTooLarge, ProtocolError, VerificationFailure
# the benchmark's tracer wraps oblivious_sort_rows and op_count by name
# as attributes of this module, so both stay imported here
from hequel.relalg import (
    EncTable,
    compact_rows,
    encrypt_table,
    oblivious_sort_rows,  # noqa: F401
    op_count,
)
from hequel.schema import PlainTable, Schema


class ServerStore:
    """Server half: encrypted tables, query results, and the key ladder's
    public part. No method here can read a plaintext value."""

    # message type -> (handler method, the payload key it reads)
    _HANDLERS = {"upload_table": ("_handle_upload", "table"),
                "query": ("_handle_query", "plan"),
                "fetch_rows_request": ("_handle_fetch", "n_prime")}

    def __init__(self, ladder: KeyLadder):
        self.ladder = ladder
        self.tables: dict[str, EncTable] = {}
        self.results: dict[str, EncTable] = {}

    def handle(self, data: bytes) -> bytes:
        msg = serial.message_from_bytes(data)
        mtype, qid, payload = msg["type"], msg["query_id"], msg["payload"]
        if mtype not in self._HANDLERS:
            raise ProtocolError(f"unknown message type {mtype!r}")
        method, key = self._HANDLERS[mtype]
        if not isinstance(payload, dict) or key not in payload:
            raise ProtocolError(f"{mtype} payload lacks {key!r}")
        return getattr(self, method)(qid, payload)

    def _handle_upload(self, qid: str, payload) -> bytes:
        table = serial.table_from_obj(self.ladder, payload["table"])
        if not table.name:
            raise ProtocolError("uploaded table needs a name")
        self.tables[table.name] = table
        return serial.message_to_bytes(
            "upload_ok", qid, {"name": table.name, "capacity": table.capacity})

    def _handle_query(self, qid: str, payload) -> bytes:
        plan = plans.plan_from_obj(payload["plan"], self.ladder)
        result = plans.eval_encrypted(plan, self.tables)
        self.results[qid] = result
        # width chosen from the public capacity, so the count cannot wrap
        width = max(1, result.capacity.bit_length())
        count = op_count(result, width)
        return serial.message_to_bytes("result_count", qid, {
            "count": serial.word_to_obj(self.ladder, count),
            "capacity": result.capacity,
        })

    def _handle_fetch(self, qid: str, payload) -> bytes:
        if qid not in self.results:
            raise ProtocolError(f"no pending result for query {qid!r}")
        result = self.results[qid]
        n_prime = payload["n_prime"]
        if not isinstance(n_prime, int) or n_prime < 0:
            raise ProtocolError(f"bad row request {n_prime!r}")
        if n_prime > result.capacity:
            raise FetchTooLarge(
                f"{n_prime} rows requested, capacity is {result.capacity}")
        epoch = max((r.presence.epoch for r in result.rows), default=1)
        top = compact_rows(result.rows, result.state, epoch)[:n_prime]
        reply = serial.message_to_bytes("fetch_rows", qid, {
            "schema": serial.schema_to_obj(result.schema),
            "rows": [serial.row_to_obj(self.ladder, r) for r in top],
        })
        # a result is fetched once; a refused request above keeps it
        del self.results[qid]
        return reply


@dataclass
class ResultHandshake:
    """Client-side record of one query's result exchange."""

    query_id: str
    schema: Schema
    capacity: int | None = None
    n: int | None = None
    n_prime: int | None = None
    verified: bool = False


@dataclass
class ClientSession:
    """Client half: the only holder of secret keys."""

    keys: ClientKeys
    pk: PublicKey
    slack: int = 0
    catalog: dict[str, Schema] = field(default_factory=dict)
    pending: dict[str, ResultHandshake] = field(default_factory=dict)
    _next_qid: int = 0

    @property
    def _ladder(self) -> KeyLadder:
        return self.pk.ladder

    def _new_qid(self) -> str:
        self._next_qid += 1
        return f"q{self._next_qid}"

    def upload_message(self, name: str, plain: PlainTable) -> bytes:
        """Step 1.a: encrypt a table for upload; every row present."""
        enc = encrypt_table(self.pk, plain, name=name)
        self.catalog[name] = plain.schema
        return serial.message_to_bytes(
            "upload_table", self._new_qid(),
            {"table": serial.table_to_obj(self._ladder, enc)})

    def query_message(self, plan) -> tuple[str, bytes]:
        """Step 2.a: typecheck, encrypt literals, send the plan."""
        schema = plans.typecheck(plan, self.catalog)
        enc_plan = plans.encrypt_plan_literals(plan, self.catalog, self.pk)
        qid = self._new_qid()
        # an exchange whose rows were verified is kept until the next
        # query only, so the client's state does not grow with its queries
        self.pending = {q: s for q, s in self.pending.items()
                        if not s.verified}
        self.pending[qid] = ResultHandshake(qid, schema)
        return qid, serial.message_to_bytes(
            "query", qid, {"plan": plans.plan_to_obj(enc_plan, self._ladder)})

    def read_count(self, reply: bytes) -> tuple[str, int]:
        msg = serial.message_from_bytes(reply)
        if msg["type"] != "result_count":
            raise ProtocolError(f"expected result_count, got {msg['type']!r}")
        qid = msg["query_id"]
        if qid not in self.pending:
            raise ProtocolError(f"count for unknown query {qid!r}")
        payload = msg["payload"]
        if not isinstance(payload, dict) or "count" not in payload:
            raise ProtocolError("result_count payload lacks 'count'")
        capacity = payload.get("capacity")
        if type(capacity) is not int or capacity < 0:
            raise ProtocolError(f"bad result capacity {capacity!r}")
        n = decrypt_word(self.keys,
                         serial.word_from_obj(self._ladder, payload["count"]))
        if n > capacity:
            raise VerificationFailure(f"count {n} exceeds capacity {capacity}")
        # recorded only once the whole reply has passed
        shake = self.pending[qid]
        shake.n, shake.capacity = n, capacity
        return qid, n

    def fetch_message(self, qid: str, n_prime: int | None = None) -> bytes:
        shake = self.pending.get(qid)
        if shake is None:
            raise ProtocolError(f"fetch for unknown query {qid!r}")
        if shake.n is None:
            raise ProtocolError("fetch before count round")
        if n_prime is None:
            n_prime = min(shake.capacity, shake.n + self.slack)
        if n_prime < shake.n:
            raise ProtocolError(
                f"{n_prime} rows would drop results: count is {shake.n}")
        shake.n_prime = n_prime
        return serial.message_to_bytes(
            "fetch_rows_request", qid, {"n_prime": n_prime})

    def read_rows_and_verify(self, reply: bytes) -> PlainTable:
        """Step 2.b client side: decrypt and verify the presence prefix."""
        msg = serial.message_from_bytes(reply)
        if msg["type"] != "fetch_rows":
            raise ProtocolError(f"expected fetch_rows, got {msg['type']!r}")
        qid = msg["query_id"]
        shake = self.pending.get(qid)
        if shake is None or shake.n_prime is None:
            raise ProtocolError(f"rows for unknown query {qid!r}")
        schema, rows = serial.table_rows_from_obj(self._ladder, msg["payload"])
        if schema != shake.schema:
            raise VerificationFailure(
                f"schema {schema.columns} does not match plan's {shake.schema.columns}")
        if len(rows) != shake.n_prime:
            raise VerificationFailure(
                f"{len(rows)} rows returned, {shake.n_prime} requested")
        presences = [self.keys.decrypt_bit(r.presence) for r in rows]
        if sum(presences) != shake.n:
            raise VerificationFailure(
                f"{sum(presences)} present rows, count said {shake.n}")
        if presences != sorted(presences, reverse=True):
            raise VerificationFailure("an absent row precedes a present row")
        out = PlainTable(schema)
        for row, p in zip(rows, presences):
            if p:
                out.append(tuple(decrypt_word(self.keys, c) for c in row.cells))
        shake.verified = True
        return out


# --- one-call conveniences ----------------------------------------------------

def setup_upload(client: ClientSession, server: ServerStore,
                 name: str, plain: PlainTable) -> None:
    reply = serial.message_from_bytes(server.handle(
        client.upload_message(name, plain)))
    if reply["type"] != "upload_ok":
        raise ProtocolError(f"upload failed: {reply['type']!r}")


def submit_query(client: ClientSession, server: ServerStore, plan) -> tuple[str, int]:
    qid, msg = client.query_message(plan)
    return client.read_count(server.handle(msg))


def result_fetch(client: ClientSession, server: ServerStore, qid: str,
                 n_prime: int | None = None) -> PlainTable:
    return client.read_rows_and_verify(
        server.handle(client.fetch_message(qid, n_prime)))


def run_query(client: ClientSession, server: ServerStore, plan,
              n_prime: int | None = None) -> PlainTable:
    qid, _ = submit_query(client, server, plan)
    return result_fetch(client, server, qid, n_prime)
