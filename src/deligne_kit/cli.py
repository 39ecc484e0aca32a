"""Command line interface: `deligne-kit run <file> [--replay <report>]
[--out <path>]`.

Exit codes: 0 on success (every task acceptable, or every certificate
re-verified), 1 on task failure or failed replay, 2 on parse or structural
errors, an unreadable session or report file or an unwritable ``--out``
path, 3 on an internal error (a broken invariant, named with the task it
broke in).  Report format: versioned JSON, documented in
docs/report-schema.md; timing fields are excluded from the content digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .errors import InternalError, ParseError, StructuralError
from .session import parse_session
from .tasks import record_acceptable, replay_record, run_task

SCHEMA = "deligne-kit/report/v2"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def record_digest(record: dict) -> str:
    body = {k: v for k, v in record.items() if k not in ("digest", "time_ms")}
    return "sha256:" + hashlib.sha256(_canonical(body).encode()).hexdigest()


def build_report(session_text: str, session) -> dict:
    records = []
    for task in session.tasks:
        start = time.monotonic()
        try:
            record = run_task(task, session)
        except InternalError as ex:
            raise InternalError(f"{task.pretty()}: {ex}") from ex
        record["digest"] = record_digest(record)
        record["time_ms"] = round((time.monotonic() - start) * 1000.0, 3)
        records.append(record)

    ok = all(record_acceptable(r, t) for r, t in zip(records, session.tasks))
    return {
        "schema": SCHEMA,
        "session_sha256": hashlib.sha256(session_text.encode()).hexdigest(),
        "records": records,
        "ok": ok,
    }


def replay_report(session_text: str, session, report: dict) -> dict:
    """Re-verify certificates only; no searches, no sampling.  A record that
    is not a JSON object fails its own replay.  The report's ``ok``, which
    no digest covers, must be what the verified outcomes give."""
    if not isinstance(report, dict):
        raise StructuralError("report is not a JSON object")
    if report.get("schema") != SCHEMA:
        raise StructuralError(f"unknown report schema {report.get('schema')!r}")
    expected = hashlib.sha256(session_text.encode()).hexdigest()
    if report.get("session_sha256") != expected:
        raise StructuralError("report was produced from a different session")
    records = report.get("records", [])
    if not isinstance(records, list):
        raise StructuralError("report records are not a list")
    if len(records) != len(session.tasks):
        raise StructuralError("record count does not match the task list")
    results = []
    ok = True
    for record, task in zip(records, session.tasks):
        if not isinstance(record, dict):
            record = {}
        if record_digest(record) != record.get("digest"):
            verified = False
        else:
            verified = replay_record(record, task, session)
        ok = ok and verified
        results.append(
            {"label": record.get("label"), "outcome": record.get("outcome"),
             "verified": verified}
        )
    # every record verified, so each carries one of the documented outcomes
    ok = ok and report.get("ok") is all(
        record_acceptable(r, t) for r, t in zip(records, session.tasks)
    )
    return {"schema": SCHEMA + "/replay", "results": results, "ok": ok}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="deligne-kit",
        description="Run certificate-producing checks from a session file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a session file")
    run_p.add_argument("file", help="session file in the input language")
    run_p.add_argument("--replay", metavar="REPORT",
                       help="verify the certificates of an existing report")
    run_p.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")
    args = parser.parse_args(argv)

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        session = parse_session(text)
    except OSError as ex:
        print(f"error: cannot read session: {ex}", file=sys.stderr)
        return 2
    except (ParseError, StructuralError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2

    try:
        if args.replay:
            try:
                with open(args.replay, "r", encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as ex:
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
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as ex:
            print(f"error: cannot write report: {ex}", file=sys.stderr)
            return 2
    else:
        print(payload)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
