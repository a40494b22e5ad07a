"""CLI verbs end to end: ingest, query, diff, exit codes, stats."""

from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from hequel import dsl, oracle, serial
from hequel.cli import main
from hequel.crypto import SecurityContext, keygen
from hequel.relalg import encrypt_table
from hequel.schema import read_csv

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PC_CSV = ("model:12,speed:4,ram:12,hd:10,price:12\n"
          "1001,3,1024,250,2114\n"
          "1002,2,512,80,478\n"
          "1003,1,512,250,600\n")


@pytest.fixture()
def pc_csv(tmp_path):
    path = tmp_path / "pc.csv"
    path.write_text(PC_CSV)
    return str(path)


def ingest(tmp_path, pc_csv, *extra):
    db = str(tmp_path / "db")
    code = main(["ingest", "--db", db, "--seed", "cli-test", *extra, pc_csv])
    assert code == 0
    return db


def test_ingest_and_query_round_trip(tmp_path, pc_csv, capsys):
    db = ingest(tmp_path, pc_csv)
    out = capsys.readouterr().out
    assert "ingested pc: capacity=3 columns=5" in out
    assert main(["query", "--db", db, "table(pc)"]) == 0
    got = capsys.readouterr().out.splitlines()
    assert got[0] == "model:12,speed:4,ram:12,hd:10,price:12"
    assert Counter(got[1:]) == Counter(PC_CSV.splitlines()[1:])


def test_ingest_writes_what_the_object_path_writes(tmp_path, pc_csv):
    other = tmp_path / "laptop.csv"
    other.write_text("model:12,screen:5\n2001,17\n2002,15\n")
    db = tmp_path / "db"
    assert main(["ingest", "--db", str(db), "--seed", "cli-test", pc_csv,
                 str(other)]) == 0
    # the object path under the same seed, table by table in argument order
    ladder, _ = keygen(SecurityContext(), seed="cli-test")
    for name, path in (("pc", pc_csv), ("laptop", other)):
        table = encrypt_table(ladder.public_key(), read_csv(path), name=name)
        want = json.dumps(serial.table_to_obj(ladder, table),
                          separators=(",", ":"))
        assert (db / "tables" / f"{name}.json").read_text() == want
    session = json.loads((db / "session.json").read_text())
    assert session["ladder"]["nonce_state"] == ladder.state.nonce_state


def test_query_select_and_stats(tmp_path, pc_csv, capsys):
    db = ingest(tmp_path, pc_csv)
    capsys.readouterr()
    assert main(["query", "--db", db, "--stats",
                 "select(speed>1, table(pc))"]) == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert Counter(rows) == Counter(
        ["1001,3,1024,250,2114", "1002,2,512,80,478"])
    stats = dict(line.split("=", 1) for line in captured.err.splitlines())
    assert int(stats["total_gates"]) == (int(stats["xor_gates"])
                                         + int(stats["and_gates"]))
    assert float(stats["wall_ms"]) >= 0


def test_query_aggregate(tmp_path, pc_csv, capsys):
    db = ingest(tmp_path, pc_csv)
    capsys.readouterr()
    assert main(["query", "--db", db, "avg(price, table(pc))"]) == 0
    assert capsys.readouterr().out == "avg_price:12\n1064\n"


def test_successive_queries_reuse_session(tmp_path, pc_csv, capsys):
    db = ingest(tmp_path, pc_csv)
    capsys.readouterr()
    assert main(["query", "--db", db, "count(table(pc))"]) == 0
    first = capsys.readouterr().out
    assert main(["query", "--db", db, "count(table(pc))"]) == 0
    assert capsys.readouterr().out == first == "count:8\n3\n"


def test_query_parse_error_exits_2(tmp_path, pc_csv, capsys):
    db = ingest(tmp_path, pc_csv)
    capsys.readouterr()
    assert main(["query", "--db", db, "select(speed >? 1, table(pc))"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["query", "--db", db, "sum(nope, table(pc))"]) == 2


def test_diff_pass_and_exit_codes(pc_csv, capsys):
    assert main(["diff", "select(ram=512, table(pc))", pc_csv]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["diff", "--seed", "s1",
                 "groupby([ram], price, table(pc))", pc_csv]) == 0


def test_diff_fault_injection_exits_1(pc_csv, capsys):
    assert main(["diff", "--inject-fault", "50",
                 "select(speed>1, table(pc))", pc_csv]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert "row (" in out  # names the first differing element


def test_diff_random_is_seed_reproducible(capsys):
    assert main(["diff", "--random", "3", "--seed", "r7"]) == 0
    first = capsys.readouterr().out
    assert main(["diff", "--random", "3", "--seed", "r7"]) == 0
    assert capsys.readouterr().out == first
    assert first.count("PASS") == 3


def test_diff_reports_every_plan_when_one_errors(capsys):
    # a 3-epoch ladder under budget 2 runs out on some of these plans
    assert main(["diff", "--random", "6", "--seed", "3",
                 "--mode", "leveled:3", "--depth-budget", "2"]) == 2
    lines = capsys.readouterr().out.splitlines()
    results = [line for line in lines
               if line.split(" ")[0] in ("PASS", "MISMATCH", "ERROR")]
    assert len(results) == 6
    assert any(line.startswith("ERROR ") for line in results)
    assert lines[-1].endswith("/6 plans matched the oracle")


def test_diff_without_inputs_exits_2(capsys):
    assert main(["diff"]) == 2
    assert "error" in capsys.readouterr().err


def test_width_default_flag(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    path.write_text("a,b:6\n3,60\n")
    db = str(tmp_path / "db")
    assert main(["ingest", "--db", db, "--width-default", "4",
                 str(path)]) == 0
    capsys.readouterr()
    assert main(["query", "--db", db, "table(bare)"]) == 0
    assert capsys.readouterr().out == "a:4,b:6\n3,60\n"


def test_mode_flag(tmp_path, pc_csv, capsys):
    db = ingest(tmp_path, pc_csv, "--mode", "leveled:32", "--depth-budget", "6")
    capsys.readouterr()
    assert main(["query", "--db", db, "max(hd, table(pc))"]) == 0
    assert capsys.readouterr().out == "max_hd:10\n250\n"
    with pytest.raises(SystemExit):
        main(["ingest", "--db", db, "--mode", "sideways", pc_csv])


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_depth_budget_below_one_exits_2(tmp_path, pc_csv, capsys, budget):
    db = tmp_path / "db"
    for argv in (["diff", "--random", "1", "--depth-budget", budget],
                 ["ingest", "--db", str(db), "--depth-budget", budget,
                  pc_csv]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "depth budget must be an integer >= 1" in err
        assert "Traceback" not in err
    assert not db.exists()


def test_mode_past_the_wire_epoch_range_exits_2(tmp_path, pc_csv, capsys):
    db = tmp_path / "db"
    for argv in (["diff", "--random", "1", "--mode", "leveled:65536"],
                 ["ingest", "--db", str(db), "--mode", "leveled:65536",
                  pc_csv]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "1 <= D <= 65535, got 'leveled:65536'" in err
        assert "Traceback" not in err
    assert not db.exists()


def test_slack_flag(tmp_path, pc_csv, capsys):
    db = ingest(tmp_path, pc_csv)
    capsys.readouterr()
    assert main(["query", "--db", db, "--slack", "2",
                 "select(price<500, table(pc))"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["1002,2,512,80,478"]


def _string_nonce(text: str) -> str:
    session = json.loads(text)
    session["ladder"]["nonce_state"] = "7"
    return json.dumps(session)


def _epochs_past_the_wire(text: str) -> str:
    # a wire epoch is two bytes, so 65,535 is the largest ladder
    session = json.loads(text)
    session["ladder"].update(mode="leveled", epochs=65536)
    return json.dumps(session)


# file in the session directory -> edit that corrupts its text
CORRUPT_FILES = {
    "session without keys": ("session.json", lambda _: '{"v":1}'),
    "session not JSON": ("session.json", lambda _: "not json"),
    "session nonce a string": ("session.json", _string_nonce),
    "session epochs past the wire": ("session.json", _epochs_past_the_wire),
    "table not JSON": ("tables/pc.json", lambda _: "{"),
}


@pytest.mark.parametrize("name, edit", CORRUPT_FILES.values(),
                         ids=CORRUPT_FILES.keys())
def test_corrupt_session_exits_2(tmp_path, pc_csv, capsys, name, edit):
    db = ingest(tmp_path, pc_csv)
    path = tmp_path / "db" / name
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert main(["query", "--db", db, "table(pc)"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["session.json", "tables/pc.json"])
def test_deeply_nested_json_exits_2(tmp_path, pc_csv, capsys, name):
    db = ingest(tmp_path, pc_csv)
    (tmp_path / "db" / name).write_text("[" * 100_000)
    capsys.readouterr()
    assert main(["query", "--db", db, "table(pc)"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert name.split("/")[-1] in err


def test_query_refuses_a_v1_table(tmp_path, pc_csv, capsys):
    db = ingest(tmp_path, pc_csv)
    # a table as the v1 wire format wrote it: one object per ciphertext bit
    bit = {"v": 1, "epoch": 1, "depth": 0, "blob": "00" * 9}
    v1 = {"v": 1, "name": "t", "schema": [["a", 1]],
          "rows": [{"cells": [{"v": 1, "width": 1, "bits": [bit]}], "p": bit}]}
    # and as table version 2 wrote it: a word per cell and per presence bit
    word = {"v": 2, "width": 1, "epoch": 1, "depth": 0, "blob": "A" * 12}
    v2 = {"v": 2, "name": "t", "schema": [["a", 1]],
          "rows": [{"cells": [word], "p": word}]}
    for version, table in ((1, v1), (2, v2)):
        (tmp_path / "db" / "tables" / "t.json").write_text(json.dumps(table))
        capsys.readouterr()
        assert main(["query", "--db", db, "table(pc)"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "t.json" in err and f"version {version}, want 3" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_diff_random_below_one_exits_2(capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["diff", "--random", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "plan count must be an integer >= 1" in captured.err
    assert "plans matched" not in captured.out


def test_ingest_rejected_csv_leaves_no_session(tmp_path, pc_csv, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a:4\n3\nseven\n")
    db = tmp_path / "db"
    assert main(["ingest", "--db", str(db), pc_csv, str(bad)]) == 2
    assert "non-integer cell" in capsys.readouterr().err
    assert not db.exists()


def test_ingest_refuses_a_column_past_the_width_bound(tmp_path, capsys):
    wide = tmp_path / "wide.csv"
    wide.write_text("a:65\n3\n")
    db = tmp_path / "db"
    assert main(["ingest", "--db", str(db), str(wide)]) == 2
    assert "not in 1..64" in capsys.readouterr().err
    assert not db.exists()


@pytest.mark.parametrize("verb", ["query", "diff"])
def test_negative_slack_exits_2_before_any_work(tmp_path, pc_csv, capsys,
                                                 verb):
    db = ingest(tmp_path, pc_csv)
    capsys.readouterr()
    argv = ["query", "--db", db] if verb == "query" else ["diff"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--slack", "-2", "select(speed>1, table(pc))", pc_csv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "slack must be an integer >= 0" in captured.err
    assert captured.out == ""


def test_ingest_refuses_an_existing_session(tmp_path, pc_csv, capsys):
    db = ingest(tmp_path, pc_csv)
    files = [tmp_path / "db" / "session.json",
             tmp_path / "db" / "tables" / "pc.json"]
    before = [path.read_bytes() for path in files]
    other = tmp_path / "other.csv"
    other.write_text("a:4\n3\n")
    capsys.readouterr()
    assert main(["ingest", "--db", db, "--seed", "again", str(other)]) == 2
    assert "error:" in capsys.readouterr().err
    assert [path.read_bytes() for path in files] == before
    assert not (tmp_path / "db" / "tables" / "other.json").exists()
    assert main(["query", "--db", db, "table(pc)"]) == 0
    got = capsys.readouterr().out.splitlines()
    assert Counter(got[1:]) == Counter(PC_CSV.splitlines()[1:])


@pytest.mark.parametrize("verb", ["ingest", "diff"])
def test_two_csv_files_with_one_stem_exit_2(tmp_path, capsys, verb):
    paths = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        paths.append(tmp_path / folder / "t.csv")
        paths[-1].write_text("x:4\n3\n")
    db = tmp_path / "db"
    argv = (["ingest", "--db", str(db)] if verb == "ingest"
            else ["diff", "table(t)"])
    assert main([*argv, *map(str, paths)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "'t'" in captured.err
    assert captured.out == ""
    assert not db.exists()


@pytest.mark.parametrize("verb", ["ingest", "diff"])
def test_csv_stem_a_plan_cannot_name_exits_2(tmp_path, capsys, verb):
    path = tmp_path / "my-t.csv"
    path.write_text("x:4\n3\n")
    db = tmp_path / "db"
    argv = (["ingest", "--db", str(db)] if verb == "ingest"
            else ["diff", "count(table(my-t))"])
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert captured.out == ""
    assert not db.exists()


def test_query_refuses_two_table_files_with_one_name(tmp_path, pc_csv,
                                                     capsys):
    db = ingest(tmp_path, pc_csv)
    tables = tmp_path / "db" / "tables"
    (tables / "pc2.json").write_bytes((tables / "pc.json").read_bytes())
    capsys.readouterr()
    assert main(["query", "--db", db, "table(pc)"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "pc2.json" in err and "already stored" in err


def test_query_reads_a_session_that_stores_client_keys(tmp_path, pc_csv,
                                                       capsys):
    db = ingest(tmp_path, pc_csv)
    path = tmp_path / "db" / "session.json"
    session = json.loads(path.read_text())
    assert set(session) == {"v", "ladder"}
    assert set(session["ladder"]) == {"mode", "depth_budget", "epochs",
                                      "seed", "nonce_state"}
    # the older layout: the client's key tokens and the wrapped keys
    # stored beside the seed they derive from, as such a release wrote
    # them for seed "cli-test"
    session["ladder"].update(v=1, wrapped=[
        "bc78d9db8ae01d91a892a441fb2a34bf29ccd0e4073c47cf72faa6dae52eb00e"])
    session["client"] = {
        "v": 1,
        "ladder_id": "a85fb4b51be2ab30439eb2baf3b1f07e"
                     "a1000996cfc18671296ab02176417096",
        "keys": [{"epoch": 1, "token": "b3f653e48ebd2acceefd1d0bac320fb6"
                                       "19819e31d07a624db1f0e44c5fc07041"}]}
    path.write_text(json.dumps(session))
    capsys.readouterr()
    assert main(["query", "--db", db, "select(speed>1, table(pc))"]) == 0
    assert Counter(capsys.readouterr().out.splitlines()[1:]) == Counter(
        ["1001,3,1024,250,2114", "1002,2,512,80,478"])
    assert "client" not in json.loads(path.read_text())


def test_query_reads_a_session_whose_tables_hold_finalized_nonces(
        tmp_path, capsys):
    # written by ``hequel ingest --db <dir> --seed compat fixtures/pc.csv``
    # at a release that wrote each wire nonce as splitmix64's finalizer
    # over its counter value. The kernel mints the counter value itself
    # under the same table version, so the query mixes both kinds of
    # nonce. It rewrites the session, so it runs on a copy.
    db = tmp_path / "db"
    shutil.copytree(FIXTURES / "finalized_nonces_db", db)
    text = "select(speed>1, table(pc))"
    assert main(["query", "--db", str(db), text]) == 0
    want = oracle.eval_plan(dsl.parse(text),
                            {"pc": read_csv(str(FIXTURES / "pc.csv"))})
    assert Counter(capsys.readouterr().out.splitlines()[1:]) == Counter(
        ",".join(map(str, row)) for row in want.rows)
    assert len(want.rows) == 2
