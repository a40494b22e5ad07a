"""Command-line driver.

Verbs:
  ingest  encrypt CSV tables into an on-disk session directory
  query   run a plan over an ingested session via the message protocol
  diff    compare encrypted execution against the plaintext oracle

Result rows go to stdout as CSV; stats go to stderr as key=value lines.
Exit codes: 0 success (diff: all plans matched), 1 diff mismatch, 2 error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from hequel import dsl, engine, randgen, serial
from hequel.crypto import MAX_EPOCHS, SecurityContext, keygen
from hequel.errors import HequelError, ProtocolError
from hequel.protocol import ClientSession, ServerStore
from hequel.schema import csv_text, read_csv


def _parse_mode(text: str) -> tuple[str, int]:
    if text == "circular":
        return "circular", 1
    head, sep, tail = text.partition(":")
    if head == "leveled" and sep:
        try:
            epochs = int(tail)
        except ValueError:
            epochs = 0
        if 1 <= epochs <= MAX_EPOCHS:
            return "leveled", epochs
    raise argparse.ArgumentTypeError(
        f"mode must be 'circular' or 'leveled:D' with 1 <= D <= {MAX_EPOCHS},"
        f" got {text!r}")


def _int_at_least(minimum: int, what: str):
    """An argparse type for an integer >= ``minimum``; ``what`` names the
    value in the error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value >= minimum:
            return value
        raise argparse.ArgumentTypeError(
            f"{what} must be an integer >= {minimum}, got {text!r}")
    return parse


def _context(args) -> SecurityContext:
    mode, epochs = args.mode
    return SecurityContext(mode=mode, depth_budget=args.depth_budget,
                           epochs=epochs)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _save_session(db: Path, ladder) -> None:
    session = {"v": 1, "ladder": serial.ladder_to_obj(ladder)}
    (db / "session.json").write_text(_dumps(session))


def _load_session(db: Path):
    """The session's ladder and client keys, both rebuilt from its seed."""
    path = db / "session.json"
    try:
        session = json.loads(path.read_text())
        return serial.ladder_from_obj(
            serial.field(session, "ladder", dict, "session"))
    except (ValueError, RecursionError, ProtocolError) as exc:
        raise HequelError(f"corrupt session file {path}: {exc}") from None


def _upload_tables(db: Path, server: ServerStore) -> None:
    """Upload each stored table through the server's own checks."""
    for path in sorted((db / "tables").glob("*.json")):
        try:
            table = json.loads(path.read_text())
            msg = serial.message_to_bytes("upload_table", path.stem,
                                          {"table": table})
            serial.message_from_bytes(server.handle(msg), "upload_ok")
        except (ValueError, RecursionError, HequelError) as exc:
            raise HequelError(f"refused table file {path}: {exc}") from None


def _read_csvs(paths: list[str], width_default) -> dict:
    """Each CSV file as the table its stem names; a stem no plan can name,
    or two files with one stem, are refused before any is read."""
    stems = [Path(path).stem for path in paths]
    for path, stem in zip(paths, stems):
        if not dsl.is_name(stem):
            raise HequelError(f"CSV file {path} names table {stem!r}, which "
                              "a plan cannot name; rename the file")
        if stems.count(stem) > 1:
            raise HequelError(f"{stems.count(stem)} CSV files name table "
                              f"{stem!r}; each table needs its own file stem")
    return {stem: read_csv(path, default_width=width_default)
            for stem, path in zip(stems, paths)}


def _emit_stats(stats) -> None:
    for key, value in (("xor_gates", stats.xor_gates),
                       ("and_gates", stats.and_gates),
                       ("total_gates", stats.total_gates),
                       ("refreshes", stats.refreshes),
                       ("encryptions", stats.encryptions),
                       ("wall_ms", f"{stats.wall_ms:.1f}")):
        print(f"{key}={value}", file=sys.stderr)


def cmd_ingest(args) -> int:
    db = Path(args.db)
    # new keys would leave the stored tables unreadable
    if (db / "session.json").exists():
        raise HequelError(f"{db} already holds a session; "
                          "ingest into a new --db")
    # read every CSV before making --db, so a rejected one leaves nothing
    plains = _read_csvs(args.csv, args.width_default)
    tables_dir = db / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    ladder, _ = keygen(_context(args), seed=args.seed)
    pk = ladder.public_key()
    summaries = []
    for name, plain in plains.items():
        (tables_dir / f"{name}.json").write_text(
            _dumps(serial.encrypt_table_obj(pk, plain, name)))
        summaries.append((name, len(plain.rows), len(plain.schema.columns)))
    # session is saved after encryption so the nonce stream continues
    _save_session(db, ladder)
    for name, capacity, ncols in summaries:
        print(f"ingested {name}: capacity={capacity} columns={ncols}")
    return 0


def cmd_query(args) -> int:
    db = Path(args.db)
    ladder, keys = _load_session(db)
    server = ServerStore(ladder)
    _upload_tables(db, server)
    catalog = {name: table.schema for name, table in server.tables.items()}
    client = ClientSession(keys, ladder.public_key(), slack=args.slack,
                           catalog=catalog)
    plan = dsl.parse_plan(args.plan, catalog)
    try:
        result, stats = engine.run_encrypted(plan, server, client)
    finally:
        # a failed query's nonces are spent too: the next draws none again
        _save_session(db, ladder)
    sys.stdout.write(csv_text(result))
    if args.stats:
        _emit_stats(stats)
    return 0


def cmd_diff(args) -> int:
    ctx = _context(args)
    trials = []
    if args.random is not None:
        rng = random.Random(args.seed if args.seed is not None else 0)
        for _ in range(args.random):
            catalog = randgen.random_catalog(rng)
            plan = randgen.random_plan(rng, catalog)
            trials.append((dsl.plan_to_text(plan), plan, catalog))
    else:
        if args.plan is None or not args.csv:
            raise HequelError("diff needs a plan and CSV files, or --random N")
        catalog = _read_csvs(args.csv, args.width_default)
        schemas = {name: t.schema for name, t in catalog.items()}
        plan = dsl.parse_plan(args.plan, schemas)
        trials.append((args.plan, plan, catalog))

    failures = errors = 0
    for label, plan, catalog in trials:
        try:
            report = engine.diff_run(plan, catalog, ctx=ctx, seed=args.seed,
                                     slack=args.slack,
                                     fault_gate=args.inject_fault)
        except HequelError as exc:
            errors += 1
            print(f"ERROR {label}")
            print(f"  {exc}")
            continue
        if report.passed:
            print(f"PASS {label}")
        else:
            failures += 1
            print(f"MISMATCH {label}")
            print(f"  {report.detail}")
        if args.stats:
            _emit_stats(report.stats)
    passed = len(trials) - failures - errors
    print(f"{passed}/{len(trials)} plans matched the oracle")
    return 2 if errors else 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hequel",
        description="Run relational-algebra queries over encrypted tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    db = argparse.ArgumentParser(add_help=False)
    db.add_argument("--db", required=True, help="session directory")
    keys = argparse.ArgumentParser(add_help=False)
    keys.add_argument("--mode", type=_parse_mode, default=("circular", 1),
                      help="circular or leveled:D (default: circular)")
    keys.add_argument("--depth-budget",
                      type=_int_at_least(1, "depth budget"), default=8,
                      help="max multiplicative depth per epoch (default: 8)")
    keys.add_argument("--seed", default=None,
                      help="key-generation seed; diff --random also seeds "
                      "its plans with it")
    keys.add_argument("--width-default", type=int, default=None,
                      help="width for CSV header cells without ':width'")
    fetch = argparse.ArgumentParser(add_help=False)
    fetch.add_argument("--slack", type=_int_at_least(0, "slack"), default=0,
                       help="extra rows fetched beyond the true count")
    fetch.add_argument("--stats", action="store_true",
                       help="print key=value stats to stderr")

    ingest = sub.add_parser(
        "ingest", parents=[db, keys],
        help="encrypt CSV tables into a session directory")
    ingest.add_argument("csv", nargs="+",
                        help="CSV files; the table name is the file stem")
    ingest.set_defaults(func=cmd_ingest)

    query = sub.add_parser("query", parents=[db, fetch],
                           help="run a plan over an ingested session")
    query.add_argument("plan",
                       help="plan text, e.g. 'select(speed>1, table(pc))'")
    query.set_defaults(func=cmd_query)

    diff = sub.add_parser(
        "diff", parents=[keys, fetch],
        help="differential test: encrypted engine vs plaintext oracle")
    diff.add_argument("--inject-fault", type=int, default=None, metavar="N",
                      help="flip the N-th gate output (testing hook)")
    diff.add_argument("--random", type=_int_at_least(1, "plan count"),
                      default=None, metavar="N",
                      help="run N generated plans instead of an explicit one")
    diff.add_argument("plan", nargs="?", help="plan text")
    diff.add_argument("csv", nargs="*", help="CSV files naming the tables")
    diff.set_defaults(func=cmd_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HequelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
