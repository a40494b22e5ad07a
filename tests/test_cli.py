"""CLI verbs end to end: ingest, query, diff, exit codes, stats."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from hequel.cli import main

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


# file in the session directory -> edit that corrupts its text
CORRUPT_FILES = {
    "session without keys": ("session.json", lambda _: '{"v":1}'),
    "session not JSON": ("session.json", lambda _: "not json"),
    "session nonce a string": ("session.json", _string_nonce),
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
