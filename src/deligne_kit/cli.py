"""Command line interface: `deligne-kit run <file> [--replay <report>]
[--out <path>]`; `-h`/`--help` prints that usage.

Exit codes: 0 on success (every task acceptable, or every certificate
re-verified) or help, 1 on an exhausted search the task does not allow
(a stderr line names each such task and its stages) or a failed replay
(whose output gives each failing record's reason), 2 on any other
command line, parse or structural errors, an unreadable session or report
file or an unwritable ``--out`` path, 3 on an internal error (a broken
invariant, named with the task it broke in).  Report format: versioned
JSON, documented in docs/report-schema.md; timing fields are excluded
from the content digests.
"""

from __future__ import annotations

import json
import sys
import time

try:  # hashlib loads OpenSSL; CPython's own SHA-256 gives the same digests
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import tasks  # the producers, a lazy module that a replay never reads
from .check import record_acceptable, replay_record
from .errors import InternalError, ParseError, StructuralError
from .session import parse_session

SCHEMA = "deligne-kit/report/v4"
USAGE = "usage: deligne-kit run FILE [--replay REPORT] [--out PATH]"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def record_digest(record: dict) -> str:
    body = {k: v for k, v in record.items() if k not in ("digest", "time_ms")}
    return "sha256:" + sha256(_canonical(body).encode()).hexdigest()


def build_report(session_text: str, session) -> dict:
    records = []
    for task in session.tasks:
        start = time.monotonic()
        try:
            record = tasks.run_task(task, session)
        except (InternalError, StructuralError) as ex:
            raise type(ex)(f"{task.pretty()}: {ex}") from ex
        record["digest"] = record_digest(record)
        record["time_ms"] = round((time.monotonic() - start) * 1000.0, 3)
        records.append(record)

    ok = all(record_acceptable(r, t) for r, t in zip(records, session.tasks))
    return {
        "schema": SCHEMA,
        "session_sha256": sha256(session_text.encode()).hexdigest(),
        "records": records,
        "ok": ok,
    }


def replay_report(session_text: str, session, report: dict) -> dict:
    """Re-verify certificates only; no searches, no sampling.  A record that
    is not a JSON object fails its own replay, and each result that does
    not verify carries the reason.  The report's ``ok``, which no digest
    covers, must be what the verified outcomes give."""
    if not isinstance(report, dict):
        raise StructuralError("report is not a JSON object")
    if report.get("schema") != SCHEMA:
        raise StructuralError(f"unknown report schema {report.get('schema')!r}")
    expected = sha256(session_text.encode()).hexdigest()
    if report.get("session_sha256") != expected:
        raise StructuralError("report was produced from a different session")
    records = report.get("records", [])
    if not isinstance(records, list):
        raise StructuralError("report records are not a list")
    if len(records) != len(session.tasks):
        raise StructuralError("record count does not match the task list")
    results = []
    for record, task in zip(records, session.tasks):
        if not isinstance(record, dict):
            record, reason = {}, "the record is not a JSON object"
        elif record_digest(record) != record.get("digest"):
            reason = "the digest does not match the record"
        else:
            reason = replay_record(record, task, session)
        result = {"label": record.get("label"),
                  "outcome": record.get("outcome"), "verified": reason is None}
        if reason is not None:
            result["reason"] = reason
        results.append(result)
    # every record verified, so each carries one of the documented outcomes
    ok = all(r["verified"] for r in results) and report.get("ok") is all(
        record_acceptable(r, t) for r, t in zip(records, session.tasks)
    )
    return {"schema": SCHEMA + "/replay", "results": results, "ok": ok}


def _read_argv(argv: list) -> tuple | None:
    """(FILE, REPORT, PATH) from ``run FILE [--replay REPORT] [--out PATH]``,
    options as ``--opt VALUE`` or ``--opt=VALUE`` before or after FILE, None
    for one not given; None for -h/--help, ValueError for any other form."""
    if "-h" in argv or "--help" in argv:
        return None
    if argv[:1] != ["run"]:
        raise ValueError("expected the command 'run'")
    args, found = iter(argv[1:]), {}
    for arg in args:
        name, eq, value = arg.partition("=")
        if name not in ("--replay", "--out"):
            if arg.startswith("-") or "FILE" in found:
                raise ValueError(f"unrecognized argument {arg!r}")
            name, value = "FILE", arg
        elif not eq:
            value = next(args, None)
            if value is None:
                raise ValueError(f"{name} expects a value")
        if name in found:
            raise ValueError(f"{name} given more than once")
        found[name] = value
    if "FILE" not in found:
        raise ValueError("the session FILE is missing")
    return found["FILE"], found.get("--replay"), found.get("--out")


def main(argv=None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
    except ValueError as ex:
        print(f"{USAGE}\ndeligne-kit: error: {ex}", file=sys.stderr)
        return 2
    if args is None:
        print(USAGE)
        return 0
    file, replay, out = args

    try:
        with open(file, "r", encoding="utf-8") as fh:
            text = fh.read()
        session = parse_session(text)
    except (OSError, UnicodeDecodeError) as ex:
        print(f"error: cannot read session: {ex}", file=sys.stderr)
        return 2
    except (ParseError, StructuralError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2

    try:
        if replay is not None:
            try:
                with open(replay, "r", encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, ValueError, RecursionError) as ex:
                print(f"error: cannot read report: {ex}", file=sys.stderr)
                return 2
            result = replay_report(text, session, report)
        else:
            result = build_report(text, session)
    except (ParseError, StructuralError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except InternalError as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        return 3

    payload = json.dumps(result, sort_keys=True, indent=2)
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as ex:
            print(f"error: cannot write report: {ex}", file=sys.stderr)
            return 2
    else:
        print(payload)
    if replay is None:
        # only a prozero search exhausted without allow-exhausted is not
        # acceptable, since ``decide`` gives each other kind one outcome
        for record, task in zip(result["records"], session.tasks):
            if not record_acceptable(record, task):
                print(f"exhausted: {record['label']}: no certificate at "
                      f"stages {task.from_n}..{task.cap}", file=sys.stderr)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
