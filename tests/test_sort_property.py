"""Property: ``op_sort`` matches the plaintext oracle row for row, with
every present row before every absent one, and ``op_groupby_sum`` matches
it as a bag; over at most 8 rows with few distinct keys and random
presence, ascending and descending, in circular and leveled mode.

Examples are derandomized so Tier-1 runs the same inputs on every run, and
nothing is written to a hypothesis database.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hequel import oracle, plans
from hequel.crypto import SecurityContext, keygen
from hequel.relalg import (decrypt_table, decrypt_table_full, encrypt_table,
                           op_groupby_sum, op_sort)
from hequel.schema import PlainTable, Schema

SCHEMA = Schema((("k", 2), ("v", 4)))
LADDERS = {name: keygen(ctx, seed=b"sort-prop") for name, ctx in (
    ("circular", SecurityContext(depth_budget=8)),
    ("leveled", SecurityContext(mode="leveled", depth_budget=3, epochs=64)))}

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])

# (k, v, present): k from three values, so most tables hold ties
ROWS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 15),
                          st.booleans()), max_size=8)


def _tables(mode, rows):
    """The encrypted table, its keys, and the oracle's catalog of its
    present rows."""
    ladder, keys = LADDERS[mode]
    plain = PlainTable(SCHEMA, [(k, v) for k, v, _ in rows])
    presence = [int(p) for _, _, p in rows]
    t = encrypt_table(ladder.public_key(), plain, presence=presence, name="t")
    present = PlainTable(SCHEMA, [(k, v) for k, v, p in rows if p])
    return t, keys, {"t": present}


@pytest.mark.parametrize("mode", sorted(LADDERS))
@PROPERTY
@given(rows=ROWS, ascending=st.booleans())
def test_sort_matches_the_oracle_in_order(mode, rows, ascending):
    t, keys, catalog = _tables(mode, rows)
    out = op_sort("k", ascending, t)
    got, presence = decrypt_table_full(keys, out)
    want = oracle.eval_plan(
        plans.Sort("k", ascending, plans.TableRef("t")), catalog).rows
    m = len(want)
    assert out.packed
    assert presence == [1] * m + [0] * (len(rows) - m)
    assert got[:m] == want
    assert Counter(got[m:]) == Counter((k, v) for k, v, p in rows if not p)


@pytest.mark.parametrize("mode", sorted(LADDERS))
@PROPERTY
@given(rows=ROWS, keyed=st.booleans())
def test_groupby_matches_the_oracle_as_a_bag(mode, rows, keyed):
    t, keys, catalog = _tables(mode, rows)
    group = ("k",) if keyed else ()
    out = op_groupby_sum(group, "v", t)
    want = oracle.eval_plan(
        plans.GroupBySum(group, "v", plans.TableRef("t")), catalog).rows
    assert not out.packed
    assert Counter(decrypt_table(keys, out).rows) == Counter(want)
