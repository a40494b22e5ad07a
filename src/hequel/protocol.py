"""Client/server roles and the two-step compact result return.

Both roles run in one process but talk only through serialized messages,
so the trust boundary is the API: the server holds the ladder's public
half, no ``ClientKeys``, and can never decrypt. Each message is checked once,
where it enters: ``serial.message_from_bytes`` refuses a message of a type
its reader does not take, every payload field is read through
``serial.field``, and the server typechecks a decoded plan against its
stored schemas with the client's own rules before any gate runs. The
server's state is bounded: it refuses an upload of more than
``MAX_UPLOAD_ROWS`` rows, or once it stores ``MAX_STORED_TABLES`` tables,
before any row is decoded, and a query once ``MAX_PENDING_RESULTS``
results await their fetch. An upload without a name, or under a name
already stored, is refused before any row is decoded too; a client
refuses a name already in its catalog before it draws a nonce, and adds a
name to its catalog only once it reads the server's ``upload_ok`` for it.

Result return is two round trips. The server first answers a query with
the encrypted presence-count of the result table plus its public capacity.
The client decrypts the count to n and asks for n' rows (n' >= n; the
server sees only n'). The server compacts the result under encryption
(``relalg.compact_rows``: present rows to the front in their order, with a
gate sequence fixed by the capacity) and returns its first n' rows. That
gate sequence is fixed by public data alone, and so is the sort network
a query's ``sort`` or ``groupby`` runs (``relalg.oblivious_sort_rows``,
which reaches this server through its ladder's ``KernelState.taped``).
The server records either circuit as a tape (``hequel.tape``) the second
time it sees its shape and replays the tape from then on, with every
count, nonce and byte the kernel's. Both go through one admission rule
(``tape.admit``) into one store: at most ``MAX_TAPES`` tapes and the
hashes of ``MAX_SIGHTINGS`` shapes seen once, each key led by its
circuit's kind. An armed gate fault always runs the kernel, and so does
every sort in leveled mode, where a later gate of its query may reuse a
lift copy the kernel leaves (see ``hequel.tape``). A packed result
(``EncTable.packed``: a sort at the plan's root, through projections)
already has its present rows in front, so its first n' rows go out with
no gate at all; the flag follows the public plan shape. The client
decrypts the presence bits and accepts only if exactly n present rows
arrive, all before any absent row: a short or padded-wrong reply fails
verification instead of silently truncating. A client exchange goes from
"queried" to "counted" to "requested" and is dropped once its rows
verify; a reply or fetch out of that order is refused, and so is a query
whose id already has a result awaiting its fetch on the server.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hequel import plans, serial, tape
from hequel.circuits import decrypt_word
from hequel.crypto import ClientKeys, KeyLadder, PublicKey
from hequel.errors import (FetchTooLarge, HequelError, ProtocolError,
                           VerificationFailure)
from hequel.kernel import open_scope
# the benchmark's tracer wraps oblivious_sort_rows and op_count by name
# as attributes of this module, so both stay imported here
from hequel.relalg import (
    EncTable,
    bits_of_rows,
    compact_rows,
    oblivious_sort_rows,  # noqa: F401
    op_count,
    rows_of_bits,
)
from hequel.schema import PlainTable, Schema

# results counted but not yet fetched that one server holds at most; a
# query past the cap is refused before its plan is evaluated
MAX_PENDING_RESULTS = 64
# tapes one server keeps at most, of compactions and sorts together; past
# it, the oldest goes. A circuit whose tape would pass MAX_TAPE_NODES
# payload nodes always runs the kernel.
MAX_TAPES = 16
MAX_TAPE_NODES = 1 << 16
# shapes seen once that one server remembers, by the hash of their key;
# past it, the oldest goes. An entry is one int where a tape is a circuit,
# so this bound is far looser, and a server that cycles over more shapes
# than it keeps tapes still sees each shape's second sighting.
MAX_SIGHTINGS = 1024
# rows one upload may hold, and tables one server stores at most; an
# upload past either is refused before any of its words is decoded
MAX_UPLOAD_ROWS = 4096
MAX_STORED_TABLES = 256


class ServerStore:
    """Server half: encrypted tables, query results, and the key ladder's
    public part. No method here can read a plaintext value."""

    _HANDLERS = {"upload_table": "_handle_upload", "query": "_handle_query",
                 "fetch_rows_request": "_handle_fetch"}

    def __init__(self, ladder: KeyLadder):
        self.ladder = ladder
        self.tables: dict[str, EncTable] = {}
        self.results: dict[str, EncTable] = {}
        # circuit shape -> its tape; hash of a shape seen once -> whether
        # it may be recorded; fetches by the path their compaction took,
        # and sort networks by theirs
        self.tapes: dict[tuple, tape.Tape] = {}
        self.sightings: dict[int, bool] = {}
        self.compactions = {"kernel": 0, "recorded": 0, "replayed": 0}
        self.sorts = {"kernel": 0, "recorded": 0, "replayed": 0}
        self._paths = {"compact": self.compactions, "sort": self.sorts}
        # the sort network, run inside a query's plan, reaches the store
        # through the ladder's state
        ladder.state.taped = self._taped

    def handle(self, data: bytes) -> bytes:
        # each message is its own lift scope: a lifted copy is reused
        # within the request that made it and never by a later one, so
        # no input of a fetch's compaction holds a copy its replay skips
        open_scope(self.ladder.state)
        msg = serial.message_from_bytes(data, *self._HANDLERS)
        return getattr(self, self._HANDLERS[msg["type"]])(
            msg["query_id"], msg["payload"])

    def _handle_upload(self, qid: str, payload) -> bytes:
        obj = serial.field(payload, "table", dict, "upload_table")
        name = serial.field(obj, "name", str, "table")
        if not name:
            raise ProtocolError("uploaded table needs a name")
        if name in self.tables:
            raise ProtocolError(f"table {name!r} is already stored")
        rows = len(serial.field(obj, "rows", list, "table"))
        if rows > MAX_UPLOAD_ROWS:
            raise ProtocolError(
                f"upload of {rows} rows, at most {MAX_UPLOAD_ROWS} allowed")
        if len(self.tables) >= MAX_STORED_TABLES:
            raise ProtocolError(
                f"{len(self.tables)} tables are stored, the most one server "
                "holds")
        table = serial.table_from_obj(self.ladder, obj)
        self.tables[name] = table
        return serial.message_to_bytes(
            "upload_ok", qid, {"name": table.name, "capacity": table.capacity})

    def _handle_query(self, qid: str, payload) -> bytes:
        if qid in self.results:
            raise ProtocolError(f"query {qid!r} already awaits a fetch")
        if len(self.results) >= MAX_PENDING_RESULTS:
            raise ProtocolError(
                f"{len(self.results)} results await a fetch; fetch one first")
        plan = plans.plan_from_obj(
            serial.field(payload, "plan", dict, "query"), self.ladder)
        # the client's typing rules, so an ill-typed plan spends no gate
        plans.typecheck(plan, {name: t.schema
                               for name, t in self.tables.items()})
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
        n_prime = serial.field(payload, "n_prime", int, "fetch_rows_request")
        if n_prime < 0:
            raise ProtocolError(f"bad row request {n_prime!r}")
        if n_prime > result.capacity:
            raise FetchTooLarge(
                f"{n_prime} rows requested, capacity is {result.capacity}")
        top = (result.rows[:n_prime] if result.packed
               else self._compact(result.rows, n_prime))
        reply = serial.message_to_bytes("fetch_rows", qid, {
            "schema": serial.schema_to_obj(result.schema),
            "rows": [serial.row_to_obj(self.ladder, r) for r in top],
        })
        # a result is fetched once; a refused request above keeps it
        del self.results[qid]
        return reply

    def _compact(self, rows, n_prime: int) -> list:
        """The first ``n_prime`` rows of ``compact_rows(rows)``, every
        count, nonce and byte the kernel's, through the tape store
        (``_taped``). ``compactions`` counts each path of a result of two
        rows or more."""
        if len(rows) < 2:  # no row moves and no gate runs
            return list(rows[:n_prime])
        inputs, key = tape.shape(rows)
        cells = rows[0].cells

        def run(clones, _):
            return bits_of_rows(compact_rows(rows_of_bits(clones, cells)))

        found = self._taped(("compact", key), inputs, run)
        if found is None:
            return compact_rows(rows)[:n_prime]
        k = n_prime * len(inputs) // len(rows)
        return rows_of_bits(found.replay(self.ladder.state, inputs, k), cells)

    def _taped(self, key: tuple, inputs: list, run):
        """The tape to replay for one run of the circuit ``key`` names,
        its kind tag first, or None when the kernel runs it: the fetch
        compaction and the sort network share one admission rule
        (``tape.admit``) and one store, ``tapes`` and ``sightings``, each
        bounded with the oldest entry dropped first. The path is counted
        in ``compactions`` or ``sorts``."""
        path, found = tape.admit(self.tapes, self.sightings,
                                 self.ladder.state, key, inputs, run,
                                 (MAX_TAPES, MAX_SIGHTINGS, MAX_TAPE_NODES))
        self._paths[key[0]][path] += 1
        return found


@dataclass
class ResultHandshake:
    """Client-side record of one query's result exchange and its stage."""

    query_id: str
    schema: Schema
    stage: str = "queried"
    capacity: int | None = None
    n: int | None = None
    n_prime: int | None = None


@dataclass
class ClientSession:
    """Client half: the only holder of ``ClientKeys``."""

    keys: ClientKeys
    pk: PublicKey
    slack: int = 0
    catalog: dict[str, Schema] = field(default_factory=dict)
    # schemas of uploads sent, by name, until the server accepts them
    uploading: dict[str, Schema] = field(default_factory=dict)
    pending: dict[str, ResultHandshake] = field(default_factory=dict)
    _next_qid: int = 0

    @property
    def _ladder(self) -> KeyLadder:
        return self.pk.ladder

    def _new_qid(self) -> str:
        self._next_qid += 1
        return f"q{self._next_qid}"

    def upload_message(self, name: str, plain: PlainTable) -> bytes:
        """Step 1.a: encrypt a table for upload; every row present. The
        name enters the catalog once ``read_upload`` reads its reply."""
        if name in self.catalog:
            raise ProtocolError(f"table {name!r} is already in the catalog")
        table = serial.encrypt_table_obj(self.pk, plain, name)
        self.uploading[name] = plain.schema
        return serial.message_to_bytes("upload_table", self._new_qid(),
                                       {"table": table})

    def read_upload(self, reply: bytes) -> str:
        """Step 1.b: record the schema of the table the server says it
        stored, and return its name."""
        payload = serial.message_from_bytes(reply, "upload_ok")["payload"]
        name = serial.field(payload, "name", str, "upload_ok")
        if name not in self.uploading:
            raise ProtocolError(f"upload_ok for {name!r}, not an upload "
                                "this client awaits")
        self.catalog[name] = self.uploading.pop(name)
        return name

    def query_message(self, plan) -> tuple[str, bytes]:
        """Step 2.a: typecheck, encrypt literals, send the plan."""
        schema = plans.typecheck(plan, self.catalog)
        enc_plan = plans.encrypt_plan_literals(plan, self.catalog, self.pk)
        qid = self._new_qid()
        self.pending[qid] = ResultHandshake(qid, schema)
        return qid, serial.message_to_bytes(
            "query", qid, {"plan": plans.plan_to_obj(enc_plan, self._ladder)})

    def _exchange(self, qid: str, what: str, *stages: str) -> ResultHandshake:
        """The pending exchange ``qid``, if ``what`` may come at its stage."""
        shake = self.pending.get(qid)
        stage = shake.stage if shake else "unknown"
        if stage not in stages:
            raise ProtocolError(f"{what} out of sequence: {qid!r} is {stage}")
        return shake

    def _reply(self, data: bytes, mtype: str,
               stage: str) -> tuple[ResultHandshake, dict]:
        """The exchange and payload of an ``mtype`` reply due at ``stage``."""
        msg = serial.message_from_bytes(data, mtype)
        return self._exchange(msg["query_id"], mtype, stage), msg["payload"]

    def read_count(self, reply: bytes) -> tuple[str, int]:
        shake, payload = self._reply(reply, "result_count", "queried")
        count = serial.field(payload, "count", dict, "result_count")
        capacity = serial.field(payload, "capacity", int, "result_count")
        if capacity < 0:
            raise ProtocolError(f"bad result capacity {capacity!r}")
        n = decrypt_word(self.keys, serial.word_from_obj(self._ladder, count))
        if n > capacity:
            raise VerificationFailure(f"count {n} exceeds capacity {capacity}")
        # recorded only once the whole reply has passed
        shake.n, shake.capacity, shake.stage = n, capacity, "counted"
        return shake.query_id, n

    def fetch_message(self, qid: str, n_prime: int | None = None) -> bytes:
        # "requested" too, so a fetch the server refused can be sent again
        shake = self._exchange(qid, "fetch", "counted", "requested")
        if n_prime is None:
            n_prime = min(shake.capacity, shake.n + self.slack)
        if n_prime < shake.n:
            raise ProtocolError(
                f"{n_prime} rows would drop results: count is {shake.n}")
        shake.n_prime, shake.stage = n_prime, "requested"
        return serial.message_to_bytes(
            "fetch_rows_request", qid, {"n_prime": n_prime})

    def read_rows_and_verify(self, reply: bytes) -> PlainTable:
        """Step 2.b client side: decrypt and verify the presence prefix."""
        shake, payload = self._reply(reply, "fetch_rows", "requested")
        schema, rows = serial.table_rows_from_obj(self._ladder, payload)
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
        out = PlainTable(schema, [
            tuple(decrypt_word(self.keys, c) for c in row.cells)
            for row, p in zip(rows, presences) if p])
        del self.pending[shake.query_id]
        return out


# --- one-call conveniences ----------------------------------------------------

def setup_upload(client: ClientSession, server: ServerStore,
                 name: str, plain: PlainTable) -> None:
    client.read_upload(server.handle(client.upload_message(name, plain)))


def submit_query(client: ClientSession, server: ServerStore, plan) -> tuple[str, int]:
    qid, msg = client.query_message(plan)
    try:
        reply = server.handle(msg)
    except HequelError:
        # a refused query has no exchange to continue
        del client.pending[qid]
        raise
    return client.read_count(reply)


def result_fetch(client: ClientSession, server: ServerStore,
                 qid: str) -> PlainTable:
    return client.read_rows_and_verify(
        server.handle(client.fetch_message(qid)))


def run_query(client: ClientSession, server: ServerStore, plan) -> PlainTable:
    qid, _ = submit_query(client, server, plan)
    return result_fetch(client, server, qid)
