"""Model-based test of the result exchange, in the style of Hughes,
*QuickCheck testing for fun and profit* (PADL 2007).

One client and one server run upload, query, count and fetch steps in any
order; any earlier message may be replayed to either side, a reply may
arrive with its type changed, and a fetch or reply may name a query id
never issued. A model of both sides predicts whether each step is
accepted. The checks:

- the model's prediction holds, and the model's stages and held results
  match the client's and the server's;
- every refusal is a ``HequelError``;
- a refused step changes no kernel counter, no key of
  ``ClientSession.pending``, ``ServerStore.results`` or
  ``ServerStore.tables``, and no field of a handshake;
- the server holds at most ``MAX_PENDING_RESULTS`` results (3 here);
- every verified result equals ``oracle.eval_plan``.

Runs are derandomized, and nothing is written to a hypothesis database.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from hequel import dsl, oracle, protocol, serial
from hequel.crypto import SecurityContext, keygen
from hequel.errors import HequelError
from hequel.protocol import ClientSession, ServerStore, setup_upload
from hequel.schema import PlainTable, Schema

CAP = 3
TABLE = PlainTable(Schema((("a", 4), ("b", 4))), [(3, 9), (1, 4), (7, 2)])
CATALOG = {"t": TABLE}
LADDER, KEYS = keygen(SecurityContext(depth_budget=8), seed=b"model")
# plan text -> the capacity of its result
PLANS = {"table(t)": 3, "select(a>2 or b=4, table(t))": 3,
         "distinct(project([b], table(t)))": 3, "count(table(t))": 1}
READERS = {"result_count": ClientSession.read_count,
           "fetch_rows": ClientSession.read_rows_and_verify}
OTHER_TYPE = {"result_count": "fetch_rows", "fetch_rows": "result_count"}


def retag(reply: bytes, **fields) -> bytes:
    msg = json.loads(reply)
    msg.update(fields)
    return json.dumps(msg).encode()


class ExchangeModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.server = ServerStore(LADDER)
        self.client = ClientSession(KEYS, LADDER.public_key())
        setup_upload(self.client, self.server, "t", TABLE)
        self.uploads = 0
        # the model: stored table names, query ids with a held result, and
        # each open exchange's stage, plan, true count and last request
        self.tables = {"t"}
        self.results: set[str] = set()
        self.stage: dict[str, str] = {}
        self.plan: dict[str, str] = {}
        self.count: dict[str, int] = {}
        self.n_prime: dict[str, int] = {}
        # (message, type, query id, table name or n') of every message sent
        # to the server, and (reply, type, query id, n') of every reply
        self.sent: list[tuple[bytes, str, str, object]] = []
        self.replies: list[tuple[bytes, str, str, int]] = []

    def snapshot(self):
        s = LADDER.state
        return ((s.and_count, s.xor_count, s.refresh_count, s.encrypt_count),
                sorted(self.server.results), sorted(self.server.tables),
                {q: dataclasses.astuple(h)
                 for q, h in self.client.pending.items()})

    def attempt(self, accepted: bool, step):
        """``step()``, which must succeed exactly when the model says it is
        ``accepted``; a refusal must be a HequelError and change nothing."""
        before = self.snapshot()
        try:
            out = step()
        except HequelError:
            assert not accepted, "the model accepts a refused step"
            assert self.snapshot() == before
            return None
        assert accepted, "the model refuses an accepted step"
        return out

    def _at(self, *stages: str) -> list[str]:
        return sorted(q for q, s in self.stage.items() if s in stages)

    def _counts_due(self) -> list:
        """The count replies of exchanges that await their count."""
        queried = self._at("queried")
        return [r for r in self.replies
                if r[1] == "result_count" and r[2] in queried]

    # --- the server side -----------------------------------------------------

    def serve(self, data: bytes, mtype: str, qid: str, extra):
        """The server's reply to ``data``, or None if it is refused."""
        if mtype == "upload_table":
            accepted = extra not in self.tables
        elif mtype == "query":
            accepted = qid not in self.results and len(self.results) < CAP
        else:
            accepted = (qid in self.results
                        and extra <= PLANS[self.plan[qid]])
        reply = self.attempt(accepted, lambda: self.server.handle(data))
        if reply is None:
            return None
        if mtype == "upload_table":
            self.tables.add(extra)
        elif mtype == "query":
            self.results.add(qid)
            self.replies.append((reply, "result_count", qid, 0))
        else:
            self.results.discard(qid)
            self.replies.append((reply, "fetch_rows", qid, extra))
        return reply

    def send(self, *message):
        self.sent.append(message)
        return self.serve(*message)

    @rule(rows=st.integers(0, len(TABLE.rows)))
    def upload(self, rows):
        self.uploads += 1
        name = f"u{self.uploads}"
        plain = PlainTable(TABLE.schema, TABLE.rows[:rows])
        self.send(self.client.upload_message(name, plain), "upload_table",
                  "", name)

    @rule(text=st.sampled_from(sorted(PLANS)))
    def query(self, text):
        qid, msg = self.client.query_message(dsl.parse(text))
        self.stage[qid], self.plan[qid] = "queried", text
        self.count[qid] = len(oracle.eval_plan(dsl.parse(text), CATALOG).rows)
        self.send(msg, "query", qid, None)

    @precondition(lambda self: self.stage)
    @rule(data=st.data(), size=st.sampled_from(["at", "below", "above"]),
          read=st.booleans())
    def fetch(self, data, size, read):
        """One fetch round trip: the client's request, the server's rows
        and, if ``read``, the client's verification; unread rows can reach
        the client later as a replay. An exchange past its count is picked
        if there is one."""
        qid = data.draw(st.sampled_from(
            self._at("counted", "requested") or sorted(self.stage)))
        n = self.count[qid]
        n_prime = {"below": n - 1, "at": n,
                   "above": PLANS[self.plan[qid]] + 1}[size]
        accepted = self.stage[qid] != "queried" and n_prime >= n
        msg = self.attempt(accepted,
                           lambda: self.client.fetch_message(qid, n_prime))
        if msg is None:
            return
        self.stage[qid], self.n_prime[qid] = "requested", n_prime
        rows = self.send(msg, "fetch_rows_request", qid, n_prime)
        if rows is not None and read:
            self.deliver(rows, "fetch_rows", qid, n_prime)

    @precondition(lambda self: self.sent)
    @rule(data=st.data())
    def replay_to_server(self, data):
        self.serve(*data.draw(st.sampled_from(self.sent)))

    # --- the client side -----------------------------------------------------

    def deliver(self, reply: bytes, mtype: str, qid: str, n_prime: int):
        if mtype == "result_count":
            accepted = self.stage.get(qid) == "queried"
        else:
            accepted = (self.stage.get(qid) == "requested"
                        and n_prime == self.n_prime[qid])
        out = self.attempt(accepted,
                           lambda: READERS[mtype](self.client, reply))
        if out is None:
            return
        if mtype == "result_count":
            assert out == (qid, self.count[qid])
            assert self.client.pending[qid].capacity == PLANS[self.plan[qid]]
            self.stage[qid] = "counted"
        else:
            want = oracle.eval_plan(dsl.parse(self.plan[qid]), CATALOG)
            assert out.schema == want.schema
            assert sorted(out.rows) == sorted(want.rows)
            del self.stage[qid]

    @precondition(lambda self: self._counts_due())
    @rule(data=st.data())
    def count(self, data):
        self.deliver(*data.draw(st.sampled_from(self._counts_due())))

    @precondition(lambda self: self.replies)
    @rule(data=st.data())
    def replay_to_client(self, data):
        self.deliver(*data.draw(st.sampled_from(self.replies)))

    @precondition(lambda self: self.replies)
    @rule(data=st.data(), to_new_reader=st.booleans())
    def retyped_reply(self, data, to_new_reader):
        """A reply with its type changed, for an exchange at the stage its
        new type is due at if there is one, or else for its own."""
        reply, mtype, qid, _ = data.draw(st.sampled_from(self.replies))
        due = {"result_count": "queried", "fetch_rows": "requested"}
        target = data.draw(st.sampled_from(
            self._at(due[OTHER_TYPE[mtype]]) + [qid]))
        forged = retag(reply, type=OTHER_TYPE[mtype], query_id=target)
        reader = READERS[OTHER_TYPE[mtype] if to_new_reader else mtype]
        self.attempt(False, lambda: reader(self.client, forged))

    @rule(data=st.data(), to=st.sampled_from(["server", "client", "reply"]))
    def unknown_id(self, data, to):
        """A fetch request to the server or from the client, or a reply,
        under a query id never issued."""
        if to == "server":
            self.serve(serial.message_to_bytes(
                "fetch_rows_request", "zz", {"n_prime": 0}),
                "fetch_rows_request", "zz", 0)
        elif to == "client" or not self.replies:
            self.attempt(False, lambda: self.client.fetch_message("zz", 1))
        else:
            reply, mtype, _, n_prime = data.draw(st.sampled_from(self.replies))
            self.deliver(retag(reply, query_id="zz"), mtype, "zz", n_prime)

    @invariant()
    def model_matches(self):
        assert len(self.server.results) <= protocol.MAX_PENDING_RESULTS == CAP
        assert set(self.server.results) == self.results
        assert {q: h.stage for q, h in self.client.pending.items()} == self.stage


def test_exchange_model(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_PENDING_RESULTS", CAP)
    run_state_machine_as_test(ExchangeModel, settings=settings(
        max_examples=50, stateful_step_count=25, deadline=None,
        derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow]))
