"""Replay verdicts on forged certificates of the seed-1 bench sessions.

Each mutant changes one thing in one record's certificate: a polynomial
becomes 0 (and 0 becomes 1), an integer gains 1, a flag is negated, one
list element is deleted, or a whole list becomes empty.  The mutant is
re-digested, as a forger would, and replayed in process.  A mutant that
replay accepts is a gap: a field that replay never reads, or a claim it
does not check.

KNOWN_GAPS pins the accepted set, keyed by kind, mutation and field path
(`#` for a list index).  The test fails when a mutant outside the list is
accepted, and when a listed path is no longer accepted, so the list only
shrinks and a change that closes a gap removes its entry.  Every listed
field is named on its kind's "Not checked" line of docs/report-schema.md.

A forger who knows the checks changes several fields at once, so each
sampled kind also has one whole-record forger on the transform session:
it writes the cheapest certificate that is consistent with itself (zero
values, an element of its own choosing, zero lifts).  COORDINATED_GAPS
pins the kinds whose forgery replay accepts, under the KNOWN_GAPS rule:
the set only shrinks.

Every transform mutant is replayed, about 700 in 1 s.  A tower mutant
costs more, since prozero replay checks Koszul identities, and all 2,000
take over 10 s, so the test replays the first tower mutant of each path
and a seeded sample of the rest.
"""

import copy
import random
import re
from pathlib import Path

import pytest

from deligne_kit.cli import build_report, record_digest
from deligne_kit.session import parse_session
from deligne_kit.tasks import replay_record
from test_cli import BENCH_TOWER, BENCH_TRANSFORM

SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "report-schema.md"

SAMPLED = 100

KNOWN_GAPS = {
    ("prozero", "drop", "entries.#"),
    ("prozero", "empty", "entries"),
    ("deligne-roundtrip", "drop", "samples.#.values.#"),
    ("deligne-roundtrip", "drop", "samples.#.values.#.#"),
    ("deligne-roundtrip", "empty", "samples.#.values"),
    ("deligne-roundtrip", "empty", "samples.#.values.#"),
    ("deligne-roundtrip", "leaf", "samples.#.probes.#.sigma.exponent"),
    ("deligne-roundtrip", "leaf", "samples.#.values.#.#"),
    ("sheaf-glue", "leaf", "samples.#.glued.exponent"),
}

COORDINATED_GAPS = {"deligne-roundtrip", "diagram", "sheaf-glue"}


def _sites(node, path=()):
    """(mutation, path) for every mutation of the certificate `node`."""
    if isinstance(node, dict):
        for name, value in node.items():
            yield from _sites(value, path + (name,))
    elif isinstance(node, list):
        if node:
            yield "empty", path
        for i, value in enumerate(node):
            yield "drop", path + (i,)
            yield from _sites(value, path + (i,))
    elif node is not None:
        yield "leaf", path


def _mutant(record: dict, op: str, path: tuple) -> dict:
    forged = copy.deepcopy(record)
    parent = forged["certificate"]
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if op == "empty":
        parent[last] = []
    elif op == "drop":
        del parent[last]
    else:
        leaf = parent[last]
        if isinstance(leaf, bool):
            parent[last] = not leaf
        elif isinstance(leaf, int):
            parent[last] = leaf + 1
        else:
            parent[last] = "1" if leaf == "0" else "0"
    forged["digest"] = record_digest(forged)
    return forged


def _key(kind: str, op: str, path: tuple) -> tuple:
    return kind, op, ".".join("#" if isinstance(s, int) else s for s in path)


@pytest.fixture(scope="module")
def accepted():
    """The keys of the replayed mutants that replay accepts."""
    cases, seen, rest = [], set(), []
    for text, every in ((BENCH_TOWER, False), (BENCH_TRANSFORM, True)):
        session = parse_session(text)
        report = build_report(text, session)
        for record, task in zip(report["records"], session.tasks):
            for op, path in _sites(record["certificate"]):
                case = (record, task, session, op, path)
                key = _key(task.kind, op, path)
                if key in seen and not every:
                    rest.append(case)
                else:
                    seen.add(key)
                    cases.append(case)
    cases += random.Random(1).sample(rest, SAMPLED)
    return {
        _key(task.kind, op, path)
        for record, task, session, op, path in cases
        if replay_record(_mutant(record, op, path), task, session) is None
    }


def test_accepted_mutants_are_the_known_gaps(accepted):
    assert sorted(accepted - KNOWN_GAPS) == [], "newly accepted"
    assert sorted(KNOWN_GAPS - accepted) == [], "no longer accepted"


def _not_checked(kind: str) -> str:
    """The "Not checked" line of `kind` in the report schema."""
    text = SCHEMA.read_text(encoding="utf-8")
    section = re.search(rf"^- \*\*{kind}\*\*.*?(?=^- \*\*|^## )", text,
                        re.M | re.S).group(0)
    return re.search(r"Not checked:.*", section, re.S).group(0)


@pytest.mark.parametrize("kind", sorted({k for k, _, _ in KNOWN_GAPS}))
def test_known_gaps_are_documented(kind):
    named = set()
    for span in re.findall(r"`([^`]*)`", _not_checked(kind)):
        named.update(re.findall(r"\w+", span))
    fields = {path.replace(".#", "").rsplit(".", 1)[-1]
              for k, _, path in KNOWN_GAPS if k == kind}
    assert sorted(fields - named) == []


def _zeros(vec: list) -> list:
    return ["0"] * len(vec)


def _forge_roundtrip(sample, session, task):
    """Zero hom values, zero fractions, zero lifts."""
    sample["values"] = [_zeros(v) for v in sample["values"]]
    for probe in sample["probes"]:
        probe["sigma"]["numerator"] = _zeros(probe["sigma"]["numerator"])
        probe["theta"] = _zeros(probe["theta"])
        probe["lift"] = _zeros(probe["lift"])


def _forge_diagram(sample, session, task):
    """Both torsion flags flipped."""
    sample["in_torsion"] = not sample["in_torsion"]
    sample["zero_cocycle"] = not sample["zero_cocycle"]


def _forge_sheaf(sample, session, task):
    """A zero element, primed components and lifts, and c = 0."""
    sample["element"] = _zeros(sample["element"])
    glued = sample["glued"]
    glued["primed"] = [_zeros(p) for p in glued["primed"]]
    glued["restriction_lifts"] = [_zeros(lift)
                                  for lift in glued["restriction_lifts"]]
    glued["recover_certificate"] = {
        "c": 0, "lift": _zeros(glued["recover_certificate"]["lift"])}


FORGERS = {
    "deligne-roundtrip": _forge_roundtrip,
    "diagram": _forge_diagram,
    "sheaf-glue": _forge_sheaf,
}


def test_accepted_coordinated_forgeries_are_the_known_gaps():
    session = parse_session(BENCH_TRANSFORM)
    report = build_report(BENCH_TRANSFORM, session)
    assert sorted(task.kind for task in session.tasks) == sorted(FORGERS)
    accepted = set()
    for record, task in zip(report["records"], session.tasks):
        forged = copy.deepcopy(record)
        for sample in forged["certificate"]["samples"]:
            FORGERS[task.kind](sample, session, task)
        assert forged["certificate"] != record["certificate"]
        forged["digest"] = record_digest(forged)
        if replay_record(forged, task, session) is None:
            accepted.add(task.kind)
    assert sorted(accepted - COORDINATED_GAPS) == [], "newly accepted"
    assert sorted(COORDINATED_GAPS - accepted) == [], "no longer accepted"
