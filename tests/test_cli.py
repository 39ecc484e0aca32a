import ast
import gc
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
import types
import weakref

import pytest

import deligne_kit
from deligne_kit import check, tasks
from deligne_kit.cli import (
    SCHEMA,
    build_report,
    main,
    record_digest,
    replay_report,
)
from deligne_kit import idealization
from deligne_kit.check import LocEqualCertificate, de_poly
from deligne_kit.deligne import IncompatibleWitness
from deligne_kit.errors import (
    DimensionError,
    InternalError,
    NameResolutionError,
    ParseError,
    StructuralError,
)
from deligne_kit.modules import FpModule
from deligne_kit.rings import GF, MAX_DIGITS, QQ, Poly, PolyRing
from deligne_kit.session import (
    DiagramTask,
    SheafGlueTask,
    parse_poly,
    parse_session,
    tokenize,
)
from deligne_kit.tasks import replay_record

GOOD = """\
# demo session
ring Q[x,y] order grevlex;
module M = coker [[x, 0], [0, y]];
ideal J = (x, y);
sequence s = (x, x);
task prozero s degree 1 from 1 cap 10;
task deligne-roundtrip J R samples 3 seed 7;
task sheaf-glue J R samples 2 seed 3;
task diagram J M samples 4 seed 11;
task idealization poles (1, 3) cap 6;
"""


# ---------------------------------------------------------------- parsing


def test_parse_good_session():
    s = parse_session(GOOD)
    assert s.ring.variables == ("x", "y")
    assert "M" in s.modules and "R" in s.modules
    assert [t.kind for t in s.tasks] == [
        "prozero", "deligne-roundtrip", "sheaf-glue", "diagram", "idealization",
    ]


def test_parse_builtin_R():
    s = parse_session("ring Q[x]; ideal J=(x); task deligne-roundtrip J R samples 5 seed 1;")
    assert s.modules["R"].rank == 1
    assert s.tasks[0].samples == 5


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_session("ring Q[x];\nmodule M = coker [[x]]\nideal J=(x);")
    assert exc.value.line == 3  # missing semicolon noticed at next statement


@pytest.mark.parametrize(
    "text, line, column",
    [("ring Q[x];\nideal J = (x^\u00b2);", 2, 14),
     ("ring Q[x, \u00e9];\nideal J = (x);", 1, 11)],
    ids=["superscript-digit", "non-ascii-letter"],
)
def test_tokens_are_ascii(tmp_path, capsys, text, line, column):
    with pytest.raises(ParseError) as exc:
        parse_session(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    f = tmp_path / "s.dk"
    f.write_text(text, encoding="utf-8")
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert f"{line}:{column}: unexpected character" in err
    assert "Traceback" not in err


_LONG = "7" * 5000


@pytest.mark.parametrize(
    "text, line, column",
    [(f"ring Q[x];\nideal J = ({_LONG}*x);\n", 2, 12),
     (f"ring Q[x];\nideal J = (x^{_LONG});\n", 2, 14),
     (f"ring F{_LONG}[x];\n", 1, 6)],
    ids=["coefficient", "exponent", "field"],
)
def test_main_long_integer_literal_exits_2(tmp_path, capsys, text, line, column):
    f = tmp_path / "s.dk"
    f.write_text(text)
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert f"{line}:{column}: integer literal longer than 4300 digits" in err


_NINES = "9" * 4300


@pytest.mark.parametrize(
    "body, task",
    [(f"ring Q[x];\nsequence s = ({_NINES}*x^2 + x, x);\n",
      "task prozero s degree 1 from 1 cap 3 allow-exhausted;"),
     (f"ring Q[x,y];\nideal J = (x + {_NINES}*y, y);\n",
      "task deligne-roundtrip J R samples 1 seed 1;")],
    ids=["prozero", "roundtrip"],
)
def test_main_refuses_coefficient_replay_cannot_read(tmp_path, capsys, body, task):
    # every literal is within the limit, but the result's coefficients are
    # not: the run is refused, naming the task, instead of a traceback
    f = tmp_path / "s.dk"
    f.write_text(body + task + "\n")
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {task}: ")
    assert "more than 4300 digits" in err
    assert "Traceback" not in err


def test_main_idealization_cap_0_exits_2(tmp_path, capsys):
    # a cap of 0 certifies no stage, so there is no obstruction to claim
    task = "task idealization poles (1) cap 0;"
    f = tmp_path / "s.dk"
    f.write_text(f"ring Q[x];\n{task}\n")
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {task}: cap must be >= 1")
    assert "Traceback" not in err


_NOTHING_CHECKED = [
    ("task deligne-roundtrip J R samples 0 seed 1;", "samples",
     {"samples": []}),
    ("task deligne-roundtrip J R samples 1 seed 1 probes 0;", "probes",
     {"samples": [{"stage": 1, "values": [["x"]], "probes": []}]}),
    ("task sheaf-glue J R samples 0 seed 1;", "samples",
     {"samples": []}),
    ("task diagram J R samples 0 seed 1;", "samples", {"samples": []}),
]


@pytest.mark.parametrize("task, bound, _", _NOTHING_CHECKED,
                         ids=["roundtrip", "probes", "sheaf", "diagram"])
def test_main_nothing_to_check_exits_2(tmp_path, capsys, task, bound, _):
    # no sample or no probe checks nothing, so there is no pass to claim
    f = tmp_path / "s.dk"
    f.write_text(f"ring Q[x,y];\nideal J = (x, y);\n{task}\n")
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {task}: {bound} must be >= 1")
    assert "Traceback" not in err


@pytest.mark.parametrize("task, bound, certificate", _NOTHING_CHECKED,
                         ids=["roundtrip", "probes", "sheaf", "diagram"])
def test_replay_refuses_pass_with_nothing_checked(task, bound, certificate):
    # a written record of such a task, empty as its bounds allow, does not
    # verify either
    session = parse_session(f"ring Q[x,y];\nideal J = (x, y);\n{task}\n")
    t = session.tasks[0]
    record = {"kind": t.kind, "label": t.pretty(), "outcome": "pass",
              "bounds": t.bounds(), "certificate": certificate}
    assert replay_record(record, t, session) == f"{bound} must be >= 1"


@pytest.mark.parametrize("nested", ["(" * 5000 + "x" + ")" * 5000,
                                    "- " * 5000 + "x"],
                         ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_a_parse_error(tmp_path, capsys, nested):
    # no depth limit of its own: the parser reports where Python's
    # recursion limit stopped it, inside the nesting
    text = f"ring Q[x];\nideal J = ({nested});\n"
    with pytest.raises(ParseError, match="nested too deeply") as exc:
        parse_session(text)
    assert exc.value.line == 2 and 12 < exc.value.column < 12 + len(nested)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_poly(PolyRing(QQ, ("x",)), nested)
    f = tmp_path / "s.dk"
    f.write_text(text)
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert re.match(r"error: 2:\d+: expression nested too deeply$", err)
    assert "Traceback" not in err


def test_token_positions():
    # tabs and '\r' are one column each; a comment ends at the newline, and
    # end of input after a final comment is at the comment's '#'
    text = "task\tsheaf-glue J;# c\r\n[](),;=^*+-/ x1 42\r\n\t_y #end"
    assert [(t.kind, t.text, t.line, t.col) for t in tokenize(text)] == [
        ("name", "task", 1, 1), ("name", "sheaf", 1, 6),
        ("punct", "-", 1, 11), ("name", "glue", 1, 12), ("name", "J", 1, 17),
        ("punct", ";", 1, 18),
        *[("punct", ch, 2, col) for col, ch in enumerate("[](),;=^*+-/", 1)],
        ("name", "x1", 2, 14), ("int", "42", 2, 17),
        ("name", "_y", 3, 2), ("eof", "", 3, 5),
    ]


def test_parse_poly_sums_terms_once(monkeypatch):
    # a sum is built once from its terms, not by one Poly addition per
    # term, each of which copies the running sum
    ring = PolyRing(QQ, ("x", "y", "z", "w"))
    p = parse_poly(ring, "(x + y + z + w + 1)^12")
    assert len(p.terms) >= 1000
    text, x_minus_p = str(p), ring.gen(0) - p
    calls = []
    for name in ("__add__", "__sub__"):
        def counted(a, b, op=getattr(Poly, name)):
            calls.append(name)
            return op(a, b)
        monkeypatch.setattr(Poly, name, counted)
    assert parse_poly(ring, text).terms == p.terms
    assert parse_poly(ring, f"x - ({text})").terms == x_minus_p.terms
    assert calls == []


def test_parse_accepts_literal_at_digit_limit():
    s = parse_session(f"ring Q[x]; ideal J = ({'7' * 4300}*x);")
    assert s.ideals["J"][0].terms[(1,)] == int("7" * 4300)


def test_parse_unknown_name():
    with pytest.raises(NameResolutionError):
        parse_session("ring Q[x]; task prozero nosuch degree 1 from 1 cap 2;")


def test_parse_unknown_variable():
    with pytest.raises(NameResolutionError):
        parse_session("ring Q[x]; ideal J = (z);")


def test_parse_ragged_matrix():
    with pytest.raises(DimensionError):
        parse_session("ring Q[x,y]; module M = coker [[x, y], [x]];")


def test_parse_poly_subtraction_not_a_kind():
    s = parse_session("ring Q[x,y]; ideal J = (x - y, y);")
    assert str(s.ideals["J"][0]) == "x - y"


def test_parse_print_parse_fixpoint():
    s1 = parse_session(GOOD)
    s2 = parse_session(s1.pretty())
    assert s1 == s2
    assert s1.pretty() == s2.pretty()


@pytest.mark.parametrize(
    "old, new",
    [("cap 10;", "cap 11;"),
     ("seed 7;", "seed 8;"),
     ("cap 10;", "cap 10 allow-exhausted;"),
     ("[0, y]]", "[0, x]]"),
     ("J = (x, y)", "J = (x, y^2)"),
     ("seed 3;", "seed 4;"),
     ("samples 4", "samples 5")],
    ids=["cap", "seed", "allow-exhausted", "matrix-entry", "ideal-generator",
         "sheaf-glue-seed", "diagram-samples"],
)
def test_sessions_differing_in_one_field_are_unequal(old, new):
    assert GOOD.count(old) == 1
    assert parse_session(GOOD) == parse_session(GOOD)
    assert parse_session(GOOD) != parse_session(GOOD.replace(old, new))


def test_tasks_of_different_kinds_are_unequal():
    assert SheafGlueTask("J", "R", 2, 3) == SheafGlueTask("J", "R", 2, 3)
    assert SheafGlueTask("J", "R", 2, 3) != DiagramTask("J", "R", 2, 3)
    assert DiagramTask("J", "R", 2, 3) != SheafGlueTask("J", "R", 2, 3)


def test_prime_field_ring():
    s = parse_session("ring F5[x,y,z]; sequence s = (x, y, z); task prozero s degree 1 from 1 cap 6;")
    assert s.ring.field.characteristic == 5


def test_prozero_session_doubled_sequence_from_two():
    text = "ring Q[x,y]; sequence s = (x, x); task prozero s degree 1 from 2 cap 10;"
    session = parse_session(text)
    rep = build_report(text, session)
    assert rep["records"][0]["bounds"]["witness_m"] == 4


# ---------------------------------------------------------------- reports


@pytest.fixture(scope="module")
def report():
    session = parse_session(GOOD)
    return build_report(GOOD, session), session


def test_report_outcomes(report):
    rep, session = report
    outcomes = [r["outcome"] for r in rep["records"]]
    assert outcomes == ["pass", "pass", "pass", "pass", "obstruction"]
    assert [r["label"] for r in rep["records"]] == [
        t.pretty() for t in session.tasks
    ]
    assert rep["ok"] is True


def test_prozero_record_carries_certificate(report):
    rep, _ = report
    rec = rep["records"][0]
    assert rec["bounds"]["witness_m"] == 2
    assert rec["certificate"]["entries"]


def test_report_deterministic():
    session = parse_session(GOOD)
    a = build_report(GOOD, session)
    b = build_report(GOOD, parse_session(GOOD))

    def strip(rep):
        return [
            {k: v for k, v in r.items() if k != "time_ms"} for r in rep["records"]
        ]

    assert strip(a) == strip(b)
    assert [r["digest"] for r in a["records"]] == [r["digest"] for r in b["records"]]


def test_digest_excludes_timing(report):
    rep, _ = report
    for rec in rep["records"]:
        assert record_digest(rec) == rec["digest"]


def test_replay_verifies(report):
    rep, session = report
    out = replay_report(GOOD, session, rep)
    assert out["ok"] is True
    assert all(r["verified"] for r in out["results"])


def test_replay_rejects_tampering(report):
    rep, session = report
    broken = json.loads(json.dumps(rep))
    broken["records"][0]["certificate"]["entries"][0]["preimage_chain"][0] = "x + 1"
    out = replay_report(GOOD, session, broken)
    assert out["ok"] is False


def test_replay_rejects_wrong_session(report):
    rep, _ = report
    other = "ring Q[x];\ntask idealization poles (1) cap 2;\n"
    session = parse_session(other)
    with pytest.raises(Exception):
        replay_report(other, session, rep)


def _forge(rep, index, mutate):
    """A copy of the report whose record ``index`` is changed by ``mutate``
    and re-digested, so only the replay checks can catch it."""
    forged = json.loads(json.dumps(rep))
    mutate(forged["records"][index])
    forged["records"][index]["digest"] = record_digest(forged["records"][index])
    return forged


def _forge_idealization(rep, mutate):
    assert rep["records"][4]["kind"] == "idealization"
    return _forge(rep, 4, mutate)


def _set_certificate(rec):
    rec["certificate"] = {"targets": []}


def _set_poles(rec):
    rec["bounds"]["poles"] = [1]


def _set_cap(rec):
    rec["bounds"]["cap"] = 5


def _set_fail(rec):
    rec["outcome"] = "fail"


@pytest.mark.parametrize(
    "mutate",
    [_set_cap, _set_certificate, _set_poles, _set_fail],
    ids=["cap", "certificate", "poles", "outcome-fail"],
)
def test_replay_rejects_forged_idealization(report, mutate):
    rep, session = report
    out = replay_report(GOOD, session, _forge_idealization(rep, mutate))
    assert out["ok"] is False
    assert [r["verified"] for r in out["results"]] == [True] * 4 + [False]


def test_main_replay_rejects_forged_idealization(report, tmp_path, capsys):
    rep, _ = report
    f = tmp_path / "s.dk"
    f.write_text(GOOD)
    out = tmp_path / "forged.json"
    out.write_text(json.dumps(_forge_idealization(rep, _set_certificate)))
    assert main(["run", str(f), "--replay", str(out)]) == 1
    capsys.readouterr()


def _drop_certificate(rec):
    del rec["certificate"]


def test_replay_malformed_record_fails_that_record(report, tmp_path, capsys):
    rep, session = report
    forged = _forge_idealization(rep, _drop_certificate)
    out = replay_report(GOOD, session, forged)
    assert out["ok"] is False
    assert [r["verified"] for r in out["results"]] == [True] * 4 + [False]
    f = tmp_path / "s.dk"
    f.write_text(GOOD)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(forged))
    assert main(["run", str(f), "--replay", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def _entry(rec):
    return rec["certificate"]["entries"][0]


def _samples(rec):
    return rec["certificate"]["samples"]


def _each_not_recovered(rec):
    for sample in _samples(rec):
        sample["glued"]["recover_certificate"] = None


def _claim_fail(mutate):
    """A forgery that claims the outcome "fail" for a record whose evidence
    `mutate` nulls or contradicts: no outcome rests on a null field, so
    each must fail its replay."""
    def forged(rec):
        rec["outcome"] = "fail"
        mutate(rec)
    return forged


def _flip_first_flag(rec):
    sample = _samples(rec)[0]
    sample["in_torsion"] = not sample["in_torsion"]


def _zero_probe(rec):
    # M_0 = 0, so over the base 0 any two fractions are equal
    probe = _samples(rec)[0]["probes"][0]
    probe["y"] = "0"
    probe["sigma"]["numerator"] = ["x + 7"]
    probe["theta"] = ["y"]


# (record index in GOOD, mutation): each forgery re-digested, so only replay
# can reject it; records 0-3 are prozero, roundtrip, sheaf-glue and diagram
FORGERIES = {
    "label": (1, lambda r: r.update(label="anything")),
    "bounds-samples": (1, lambda r: r["bounds"].update(samples=99)),
    "roundtrip-no-samples": (1, lambda r: r["certificate"].update(samples=[])),
    "sheaf-no-samples": (2, lambda r: r["certificate"].update(samples=[])),
    "diagram-no-samples": (3, lambda r: r["certificate"].update(samples=[])),
    "probe-dropped": (1, lambda r: _samples(r)[0]["probes"].pop()),
    "primed-dropped": (2, lambda r: _samples(r)[0]["glued"]["primed"].pop()),
    "restriction-lift-dropped":
        (2, lambda r: _samples(r)[0]["glued"]["restriction_lifts"].pop()),
    "primed-long": (2, lambda r: _samples(r)[0]["glued"]["primed"][0]
                    .append("x")),
    "restriction-lift-long": (2, lambda r: _samples(r)[0]["glued"]
                              ["restriction_lifts"].__setitem__(0, ["x"])),
    "zero-probe": (1, _zero_probe),
    "witness-m": (0, lambda r: r["bounds"].update(witness_m=1)),
    "prozero-fail": (0, lambda r: r.update(outcome="fail")),
    "prozero-unknown-outcome": (0, lambda r: r.update(outcome="proven")),
    "cycle-short": (0, lambda r: _entry(r)["cycle"].pop()),
    "relation-lift-long":
        (0, lambda r: _entry(r).update(relation_lift=["x"] * 5)),
    "junk-polynomial": (0, lambda r: _entry(r)["cycle"].__setitem__(0, "x +")),
    "sigma-long": (1, lambda r: _samples(r)[0]["probes"][0]["sigma"]
                   ["numerator"].append("x + 1")),
    "loc-lift-long": (1, lambda r: _samples(r)[0]["probes"][0]
                      .update(lift=["x"] * 3)),
    "null-outcome": (1, lambda r: r.update(outcome=None,
                                          certificate={"samples": []})),
    "not-recovered": (2, _each_not_recovered),
    # a field of the wrong JSON type, with a value that compares or parses
    # like the right one
    "seed-float": (1, lambda r: r["bounds"].update(seed=7.0)),
    "witness-m-float": (0, lambda r: r["bounds"].update(witness_m=2.0)),
    "exponent-true": (1, lambda r: _samples(r)[1]["probes"][0]["sigma"]
                      .update(exponent=True)),
    "stage-true": (1, lambda r: _samples(r)[1].update(stage=True)),
    "c-false": (2, lambda r: _samples(r)[0]["glued"]["recover_certificate"]
                .update(c=False)),
    # a lift is a list of polynomial strings, and no other JSON value
    # stands for one
    "equal-one": (1, lambda r: _samples(r)[0]["probes"][0].update(lift=1)),
    "compat-false": (2, lambda r: _samples(r)[0]["glued"].update(exponent=True)),
    "recovers-element-one":
        (2, lambda r: _samples(r)[0]["glued"].update(recover_certificate=1)),
    "in-torsion-zero": (3, lambda r: _samples(r)[1].update(in_torsion=0)),
    "preimage-chain-string":
        (0, lambda r: _entry(r).update(preimage_chain="1")),
    "restriction-lifts-strings":
        (2, lambda r: _samples(r)[0]["glued"]
         .update(restriction_lifts=["", ""])),
    "fail-null-lift": (1, _claim_fail(
        lambda r: _samples(r)[0]["probes"][0].update(lift=None))),
    "fail-null-glued": (2, _claim_fail(
        lambda r: _samples(r)[0].update(glued=None))),
    "fail-null-recovery": (2, _claim_fail(
        lambda r: _samples(r)[0]["glued"].update(recover_certificate=None))),
    "fail-flipped-flag": (3, _claim_fail(_flip_first_flag)),
}


@pytest.mark.parametrize("name", list(FORGERIES))
def test_replay_rejects_forged_record(report, name):
    rep, session = report
    index, mutate = FORGERIES[name]
    out = replay_report(GOOD, session, _forge(rep, index, mutate))
    assert out["ok"] is False
    assert [r["verified"] for r in out["results"]] == [
        i != index for i in range(5)
    ]


@pytest.mark.parametrize("name", ["cycle-short", "junk-polynomial"])
def test_main_replay_forged_record_exits_1(report, tmp_path, capsys, name):
    rep, _ = report
    assert _main_replay(tmp_path, _forge(rep, *FORGERIES[name])) == 1
    assert "Traceback" not in capsys.readouterr().err


# replay work is bounded by degrees (docs/report-schema.md): a record that
# inflates an exponent fails its replay without the power being raised.
# This session's probes have bases such as 2*x^3 + 2*y*z^2 + 3*z*w, whose
# 10^6-th power no replay could form.
SIZED = """\
ring Q[x,y,z,w] order grevlex;
module M = coker [[x*y - z*w, 0, z^2], [0, y*z, x^2 - w^2]];
module T = coker [[x*y*z, x*w^2]];
ideal J = (x, y, z, w);
ideal K = (x^2, y*z, w);
task deligne-roundtrip K T samples 3 seed 7;
task sheaf-glue J T samples 3 seed 3;
task diagram J M samples 2 seed 11;
"""


def _longest_probe(rec):
    probes = [p for sample in _samples(rec) for p in sample["probes"]]
    return max(probes, key=lambda p: len(p["y"]))


def _first_nonzero_glue(rec):
    return next(s["glued"] for s in _samples(rec) if s["element"] != ["0"])


def _probe_over(rec, y):
    return next(p for sample in _samples(rec) for p in sample["probes"]
                if p["y"] == y)


def _lift_447(probe):
    # a right side of degree 450 from a few bytes; with c = 0 and sigma's
    # exponent bounded, no left side over this y reaches that degree
    probe.update(sigma=dict(probe["sigma"], numerator=["1"]), theta=["0"],
                 lift=["x^447", "0"])


def _inflate_sigma(probe):
    # theta's numerator has degree 5 over y^1, so x^242/y^80 gives both
    # terms of the cross difference degree 242, where only forming y^79
    # could tell them apart: 1.4 s without the pigeonhole bound
    probe["sigma"].update(numerator=["x^242"], exponent=80)


CUBIC = "2*x^3 + 2*y*z^2 - 3*z*w"

INFLATED = {
    # a roundtrip record sets no kill exponent; sigma's is bounded by the
    # pigeonhole bound of the sample's stage
    "roundtrip-probe-c": (0, lambda r: _longest_probe(r)["sigma"]
                          .update(exponent=10**6)),
    "roundtrip-sigma-exponent":
        (0, lambda r: _inflate_sigma(_probe_over(r, CUBIC))),
    "roundtrip-lift-degree": (0, lambda r: _lift_447(_probe_over(r, CUBIC))),
    "sheaf-recovery-c": (1, lambda r: _first_nonzero_glue(r)
                         ["recover_certificate"].update(c=10**6)),
    "sheaf-compat": (1, lambda r: _first_nonzero_glue(r).update(exponent=10**6)),
    # text that the record's writer never emits, whose parse alone would
    # expand a power: 135,751 terms, and a 10^10-bit integer over Q
    "roundtrip-lift-power": (0, lambda r: _longest_probe(r)["lift"]
                             .__setitem__(0, "(x + y + z + w + 1)^40")),
    "diagram-numerator-power": (1, lambda r: _samples(r)[0]["glued"]["primed"]
                                [0].__setitem__(0, "2^10000000000")),
}


@pytest.fixture(scope="module")
def sized_report():
    session = parse_session(SIZED)
    rep = build_report(SIZED, session)
    assert replay_report(SIZED, session, rep)["ok"] is True
    return rep


@pytest.mark.parametrize("name", list(INFLATED))
def test_main_replay_rejects_inflated_exponent_quickly(sized_report, tmp_path,
                                                       capsys, name):
    index, mutate = INFLATED[name]
    f = tmp_path / "s.dk"
    f.write_text(SIZED)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(_forge(sized_report, index, mutate)))
    out = tmp_path / "replay.json"
    start = time.monotonic()
    assert main(["run", str(f), "--replay", str(forged), "--out", str(out)]) == 1
    assert time.monotonic() - start < 1.0
    results = json.loads(out.read_text())["results"]
    assert [r["verified"] for r in results] == [i != index for i in range(3)]


# a session whose ideals hold a unit, and covers whose top-degree forms
# share a leading monomial
UNIT = """\
ring Q[x,y];
module M = coker [[x, 0], [0, y]];
module T = coker [[x*y^2]];
ideal U = (1, x);
ideal D = (x + y, x - y);
task deligne-roundtrip U M samples 2 seed 3;
task diagram U M samples 2 seed 5;
task sheaf-glue U M samples 2 seed 1;
task sheaf-glue D T samples 3 seed 2;
"""


def test_constant_bases_and_shared_leads_replay(tmp_path, capsys):
    f = tmp_path / "s.dk"
    f.write_text(UNIT)
    path = tmp_path / "report.json"
    assert main(["run", str(f), "--out", str(path)]) == 0
    assert main(["run", str(f), "--replay", str(path)]) == 0
    capsys.readouterr()


def _no_power(*_):
    raise AssertionError("the base was formed before the degree test")


def test_replay_loc_degree_rules():
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.gens()
    M = FpModule.quotient_ring(R, [x * y])
    zero = ((R.zero(),), 0)

    def verify(base_degree, base, fa, c, lift):
        cert = LocEqualCertificate(c, tuple(lift))
        return cert.verify(M, base_degree, base, *fa, *zero)

    # a unit kills no nonzero vector, so the run records c = 0 over a
    # constant base: 2^c*(x*y) is 2^c times the relation for every c, and
    # only c = 0 verifies
    xy = ((x * y,), 0)
    two = R.const(2)
    assert verify(0, lambda: two, xy, 0, [R.one()])
    assert not verify(0, lambda: two, xy, 1, [R.const(2)])
    # x^c*y/x = 0/1 in M_x: x*y is the relation at c = 1
    y_x = ((y,), 1)
    assert verify(1, lambda: x, y_x, 1, [R.one()])
    # a left side of degree 10^9 + 1 against a right side of degree 2:
    # rejected before the base is formed
    assert not verify(1, _no_power, y_x, 10**9, [R.one()])
    # D = 0 for every c, and the run writes c = 0 there
    zero_x = ((R.zero(),), 5)
    assert verify(1, _no_power, zero_x, 0, [R.zero()])
    assert not verify(1, _no_power, zero_x, 9, [R.zero()])
    # the zero base
    assert not verify(-1, _no_power, y_x, 0, [R.zero()])


EXHAUSTED = ("ring Q[x];\nsequence s = (x, x);\n"
             "task prozero s degree 1 from 4 cap 5 allow-exhausted;\n")


@pytest.mark.parametrize("mutate", [
    lambda r: r["bounds"].update(cap=9),
    lambda r: r.update(certificate={"m_max": 99}),
], ids=["cap", "certificate"])
def test_replay_rejects_forged_exhausted_record(mutate):
    session = parse_session(EXHAUSTED)
    rep = build_report(EXHAUSTED, session)
    assert replay_report(EXHAUSTED, session, rep)["ok"] is True
    out = replay_report(EXHAUSTED, session, _forge(rep, 0, mutate))
    assert [r["verified"] for r in out["results"]] == [False]


def test_main_replay_checks_report_ok(report, tmp_path, capsys):
    # no digest covers the report's ok, so replay recomputes it from the
    # verified outcomes: an honest failing report replays, a forged ok fails
    f = tmp_path / "ex.dk"
    f.write_text(EXHAUSTED.replace(" allow-exhausted", ""))
    out = tmp_path / "report.json"
    assert main(["run", str(f), "--out", str(out)]) == 1
    failing = json.loads(out.read_text())
    assert failing["ok"] is False
    assert main(["run", str(f), "--replay", str(out)]) == 0
    out.write_text(json.dumps(dict(failing, ok=True)))
    assert main(["run", str(f), "--replay", str(out)]) == 1
    rep, _ = report
    assert _main_replay(tmp_path, dict(rep, ok=False)) == 1
    capsys.readouterr()


def test_replay_rejects_witness_beyond_cap(report):
    # the tower of (x, x) is pro-zero at m = 2: a genuine stage-2
    # certificate cannot turn a search capped at 1 into a pass
    rep, _ = report
    text = "ring Q[x,y];\nsequence s = (x, x);\n" \
           "task prozero s degree 1 from 1 cap 1 allow-exhausted;\n"
    session = parse_session(text)
    capped = build_report(text, session)
    assert capped["records"][0]["outcome"] == "exhausted"

    def claim_pass(rec):
        rec["outcome"] = "pass"
        rec["bounds"]["witness_m"] = 2
        rec["certificate"] = rep["records"][0]["certificate"]

    out = replay_report(text, session, _forge(capped, 0, claim_pass))
    assert [r["verified"] for r in out["results"]] == [False]


def test_main_replay_v1_report_exits_2(report, tmp_path, capsys):
    rep, _ = report
    assert _main_replay(tmp_path, dict(rep, schema="deligne-kit/report/v1")) == 2
    assert "unknown report schema" in capsys.readouterr().err
    assert _main_replay(tmp_path, dict(rep, schema="deligne-kit/report/v2")) == 2
    assert "unknown report schema" in capsys.readouterr().err
    assert _main_replay(tmp_path, dict(rep, schema="deligne-kit/report/v3")) == 2
    assert "unknown report schema" in capsys.readouterr().err


def _main_replay(tmp_path, report):
    f = tmp_path / "s.dk"
    f.write_text(GOOD)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return main(["run", str(f), "--replay", str(path)])


def test_replay_report_not_an_object_exits_2(tmp_path, capsys):
    with pytest.raises(StructuralError):
        replay_report(GOOD, parse_session(GOOD), [])
    assert _main_replay(tmp_path, []) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_replay_records_not_a_list_exits_2(report, tmp_path, capsys):
    rep, session = report
    forged = dict(rep, records=5)
    with pytest.raises(StructuralError):
        replay_report(GOOD, session, forged)
    assert _main_replay(tmp_path, forged) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_replay_record_not_an_object_fails_that_record(report, tmp_path, capsys):
    rep, session = report
    forged = dict(rep, records=[7] + rep["records"][1:])
    out = replay_report(GOOD, session, forged)
    assert out["ok"] is False
    assert [r["verified"] for r in out["results"]] == [False] + [True] * 4
    assert _main_replay(tmp_path, forged) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_replay_says_why_a_record_fails(report):
    """Each unverified result carries a reason; a verified one carries
    none, so its result is what it was before reasons."""
    rep, session = report
    forged = json.loads(json.dumps(rep))
    records = forged["records"]
    records[0] = 7
    records[1]["certificate"]["samples"][0]["probes"][0]["theta"] = ["1"]
    records[2]["certificate"]["samples"][1]["glued"]["exponent"] = "2"
    del records[3]["certificate"]
    records[4]["outcome"] = "pass"
    for record in records[1:]:
        record["digest"] = record_digest(record)
    out = replay_report(GOOD, session, forged)
    assert out["ok"] is False
    assert [r.get("reason") for r in out["results"]] == [
        "the record is not a JSON object",
        "sample 0, probe 0: sigma = theta fails",
        "a field of the wrong type: '2' is not an integer",
        "the field 'certificate' is missing",
        "the evidence gives obstruction",
    ]
    records[4]["outcome"] = "obstruction"
    out = replay_report(GOOD, session, forged)
    assert out["results"][4] == {"label": records[4]["label"],
                                 "outcome": "obstruction",
                                 "reason": "the digest does not match the "
                                           "record", "verified": False}
    verified = replay_report(GOOD, session, rep)["results"]
    assert [sorted(r) for r in verified] == [["label", "outcome", "verified"]] * 5


TOWER = """\
ring F32003[a,b,c] order grevlex;
module N = coker [[a*b, c^2]];
sequence t = (a, b, c);
sequence xx = (a, a);
task prozero xx degree 1 from 1 cap 3;
task prozero t degree 1 from 1 cap 2 module N allow-exhausted;
"""

TRANSFORM = """\
ring Q[u,v] order grevlex;
module T = coker [[u*v]];
ideal J = (u, v);
task deligne-roundtrip J T samples 2 seed 7;
task sheaf-glue J T samples 2 seed 3;
task diagram J T samples 2 seed 11;
"""


# a rank-2 module in degrees 0..k: degree 0 runs to its cap (exhausted),
# degree 1 passes at m = 4 and degree 2 at m = 3
RANK2_TOWER = """\
ring F32003[x,y] order grevlex;
module P = coker [[x^2, y^2, 0, 0], [0, 0, x, y^3]];
sequence s = (x, y);
task prozero s degree 0 from 1 cap 3 module P allow-exhausted;
task prozero s degree 1 from 1 cap 6 module P;
task prozero s degree 2 from 1 cap 4 module P;
"""

# the seed-1 sessions of the tower and transform benchmark workloads
BENCH_TOWER = """\
ring F32003[x,y,z,w] order grevlex;
module T = coker [[(21179*x)*(23593*y)*(18686*z), (21179*x)*(29011*w)^2]];
module N = coker [[(21179*x)*(23593*y), (18686*z)^2]];
module P = coker [[(21179*x)^2, (23593*y)*(18686*z)], [(18686*z)*(29011*w), 0]];
module M = coker [[(21179*x)*(23593*y) - (18686*z)*(29011*w), 0, (18686*z)^2], [0, (23593*y)*(18686*z), (21179*x)^2 - (29011*w)^2]];
sequence d = ((21179*x)^2, (21179*x)*(23593*y), (23593*y)^2);
sequence s = ((21179*x), (23593*y), (18686*z), (29011*w));
sequence t = ((21179*x), (23593*y), (18686*z));
sequence u = ((21179*x)*(23593*y), (18686*z)*(29011*w));
sequence xx = ((21179*x), (21179*x));
task prozero d degree 1 from 1 cap 4;
task prozero s degree 2 from 1 cap 3 module T allow-exhausted;
task prozero t degree 3 from 1 cap 3 module N;
task prozero t degree 1 from 1 cap 3 module P;
task prozero u degree 1 from 1 cap 3 module M allow-exhausted;
task prozero xx degree 1 from 1 cap 3;
"""

BENCH_TRANSFORM = """\
ring Q[x,y,z,w] order grevlex;
module M = coker [[x*y - z*w, 0, z^2], [0, y*z, x^2 - w^2]];
module T = coker [[x*y*z, x*w^2]];
ideal J = (x, y, z, w);
ideal K = (x^2, y*z, w);
task deligne-roundtrip K T samples 3 seed 7;
task sheaf-glue J T samples 3 seed 3;
task diagram J M samples 2 seed 11;
"""

# Record digests pinned across changes that must not move a certificate; a
# change that legitimately changes lift coefficients, or a new report schema
# version, updates them and says so in CHANGES.md.
PINNED_DIGESTS = {
    "good": (GOOD, [
        "97fabbb9c2b232becea1a9b1cbec07982da13e786c13841d64e28da17915d439",
        "6c8f2b6eddc10062f191a60718d06d5228de4b16115edaafc7d4e4a2c742f7c7",
        "c9057461721ba997c47ee1103147ac94e2e7b044a564bc613db52b227d3010d5",
        "75b0ba2d8654b147316b255f3517845f75823e8cb80b4142a57d5e4c4e5046b6",
        "a3586096cb2b68a41f88bdb142cdb13913ddb85b33b5f46bdd208d1bc8283673",
    ]),
    "rank2-tower": (RANK2_TOWER, [
        "2bb5bea71c53f28a36e804af43073d771f782ea4ff37f5dff4aaf2ff7023f7c8",
        "3481edcdc5771321e4176137c4cb3264dad67105aacc21b678516e98039b11b3",
        "d1edce147c6e704d3c74cfcacf03cc80eb51e3ac3d0f2fc15f33d2b9df53eccc",
    ]),
    "bench-tower": (BENCH_TOWER, [
        "982dd7c324f296e122738e875439377a3c267dc455fb8535b0521b01e5b2c50c",
        "fbb2aab4a22d74ef8de1762e6ac7bf6f0869459e5263b4f72bebf68532619f03",
        "7aae3c84347e81c07174730b53dcf90155c1e5015c1d8ebb8cc11c64967d23cb",
        "1edf8f7affb4cfb2d2a48b4f5bcd232d64352daf671a9f62c672e11aa814b55d",
        "ec162f7ac123b12fdf724b25436f1ca29d3c5ee618b13ab8f8fbfd946acd227f",
        "0d159c0563cfaa7f634e64daf441e5033f1216b34367b76213cd9198199c179b",
    ]),
    "bench-transform": (BENCH_TRANSFORM, [
        "cf8460395b7d39443d855b26151fedf9dc2e229bf2a1a88203a6296b132c8106",
        "3ab84ff23621d37cfc5f1620b20080b03113f914ef5b4962fbc8c3fdd1e8a84c",
        "232a587c4c0a26e35cf22d056b7f8e7e9ad74881730ae42d97d7eadd14cc3bc0",
    ]),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_pinned_digests(name):
    text, digests = PINNED_DIGESTS[name]
    rep = build_report(text, parse_session(text))
    assert [r["digest"] for r in rep["records"]] == [
        "sha256:" + d for d in digests
    ]


def test_bench_transform_work_counts(monkeypatch):
    """The Gröbner work of the seed-1 transform session: 11 computed bases
    and 5 ``kernel_mod`` calls, counted by wrapping
    ``FreeSubmodule._compute_basis`` and every module's binding of
    ``kernel_mod``, so that work added or removed anywhere shows here.

    The counts move with any change to the algebra.  When one moves them
    on purpose, recount at the change's parent: copy this test into a
    ``git archive`` copy of the parent commit and run it there with
    ``-k test_bench_transform_work_counts``; the failed assertion shows the
    parent's counts.  Record both pairs in CHANGES.md, then pin the new
    counts here."""
    from deligne_kit import groebner, koszul, modules
    from deligne_kit.groebner import FreeSubmodule

    bases, kernels = [], []
    real_compute = FreeSubmodule._compute_basis
    real_kernel = groebner.kernel_mod

    def counting_compute(self):
        bases.append(self)
        return real_compute(self)

    def counting_kernel(*args):
        kernels.append(args)
        return real_kernel(*args)

    monkeypatch.setattr(FreeSubmodule, "_compute_basis", counting_compute)
    for mod in (groebner, koszul, modules):
        monkeypatch.setattr(mod, "kernel_mod", counting_kernel)
    rep = build_report(BENCH_TRANSFORM, parse_session(BENCH_TRANSFORM))
    assert rep["ok"] is True
    assert (len(bases), len(kernels)) == (11, 5)


def test_bench_tower_work_counts(monkeypatch):
    """The Gröbner work of the seed-1 tower session: 22 computed bases, 12
    ``kernel_mod`` calls and 678 ``_reduce_full`` calls, counted by
    wrapping ``FreeSubmodule._compute_basis``, every module's binding of
    ``kernel_mod`` and ``groebner._reduce_full``.  A change to the
    arithmetic kernel alone leaves all three where they are.  Recount at a
    change's parent as ``test_bench_transform_work_counts`` says."""
    from deligne_kit import groebner, koszul, modules
    from deligne_kit.groebner import FreeSubmodule

    bases, kernels, reductions = [], [], []
    real_compute = FreeSubmodule._compute_basis
    real_kernel = groebner.kernel_mod
    real_reduce = groebner._reduce_full

    def counting_compute(self):
        bases.append(self)
        return real_compute(self)

    def counting_kernel(*args):
        kernels.append(args)
        return real_kernel(*args)

    def counting_reduce(*args):
        reductions.append(args)
        return real_reduce(*args)

    monkeypatch.setattr(FreeSubmodule, "_compute_basis", counting_compute)
    for mod in (groebner, koszul, modules):
        monkeypatch.setattr(mod, "kernel_mod", counting_kernel)
    monkeypatch.setattr(groebner, "_reduce_full", counting_reduce)
    rep = build_report(BENCH_TOWER, parse_session(BENCH_TOWER))
    assert rep["ok"] is True
    assert (len(bases), len(kernels), len(reductions)) == (22, 12, 678)


# the seed-1 transform session under order lex, with x renamed t
TRANSFORM_LEX = os.path.join(os.path.dirname(__file__), "data",
                             "transform-lex.dk")


def _answers(text):
    rep = build_report(text, parse_session(text))
    return (
        [(r["kind"], r["outcome"]) for r in rep["records"]],
        [(s["in_torsion"], s["zero_cocycle"])
         for r in rep["records"] if r["kind"] == "diagram"
         for s in r["certificate"]["samples"]],
    )


def _rewritten(text, sequence=None, row=None):
    """`text` printed by ``Session.pretty`` with each sequence's elements
    mapped by ``sequence(ring, polys)`` and each row of each module matrix
    by ``row(ring, row)``."""
    session = parse_session(text)
    ring = session.ring
    if sequence is not None:
        for name, polys in session.sequences.items():
            session.sequences[name] = sequence(ring, polys)
    if row is not None:
        for name, rows in session.module_matrices.items():
            session.module_matrices[name] = tuple(row(ring, r) for r in rows)
    return session.pretty()


def _rotated_by_units(ring, polys):
    """The sequence rotated one place, with its j-th element times the unit
    j + 2: the same Koszul homology up to isomorphism."""
    return tuple(ring.const(j + 2) * p
                 for j, p in enumerate(polys[1:] + polys[:1]))


def _redundant_relation(ring, row):
    """The row with one more entry, row[0]*y + row[-1]*z: the new relation
    column is y times the first plus z times the last, so the module is the
    same."""
    y, z = (ring.gen(ring.variables.index(v)) for v in "yz")
    return row + (row[0] * y + row[-1] * z,)


def test_transform_answers_do_not_depend_on_order_or_names():
    """A metamorphic guard: the seed-1 transform session under order lex,
    with its variable list reversed, with x renamed t, with both lex and t
    (``TRANSFORM_LEX``), and with every module given a redundant relation
    column gives every task the same outcome and every diagram sample the
    same ``in_torsion`` and ``zero_cocycle`` flags as the session as
    written.  The name t is the one the localization kernel's own variable
    must never clash with."""
    lex = BENCH_TRANSFORM.replace("order grevlex", "order lex")
    variants = [
        lex,
        BENCH_TRANSFORM.replace("Q[x,y,z,w]", "Q[w,z,y,x]"),
        re.sub(r"\bx\b", "t", BENCH_TRANSFORM),
        re.sub(r"\bx\b", "t", lex),
    ]
    with open(TRANSFORM_LEX, encoding="utf-8") as fh:
        assert fh.read() == variants[-1]
    variants.append(_rewritten(BENCH_TRANSFORM, row=_redundant_relation))
    expected = _answers(BENCH_TRANSFORM)
    assert [o for _, o in expected[0]] == ["pass"] * 3
    for text in variants:
        assert text != BENCH_TRANSFORM
        assert _answers(text) == expected


def _task_answers(text):
    rep = build_report(text, parse_session(text))
    return [(r["kind"], r["outcome"], r["bounds"].get("witness_m"))
            for r in rep["records"]]


def test_tower_answers_do_not_depend_on_sequence_order():
    """A metamorphic guard: H_i of the Koszul complex depends neither on
    the order of the sequence nor on units on its elements, and M neither
    on its presentation, so the seed-1 tower session with every
    ``sequence`` reversed, with every ``sequence`` rotated and scaled by
    ``_rotated_by_units``, and with every module given a redundant
    relation column gives each task the same kind, outcome and
    ``witness_m``."""
    variants = [
        _rewritten(BENCH_TOWER,
                   sequence=lambda ring, polys: tuple(reversed(polys))),
        _rewritten(BENCH_TOWER, sequence=_rotated_by_units),
        _rewritten(BENCH_TOWER, row=_redundant_relation),
    ]
    expected = _task_answers(BENCH_TOWER)
    assert [o for _, o, _ in expected] == ["pass"] * 4 + ["exhausted", "pass"]
    for text in variants:
        assert parse_session(text) != parse_session(BENCH_TOWER)
        assert _task_answers(text) == expected


# a session whose diagram samples are J-torsion and whose sheaf-glue
# sections carry nonzero torsion tweaks
TORSION = os.path.join(os.path.dirname(__file__), "data", "torsion.dk")


def test_torsion_session_runs_and_replays(tmp_path, capsys):
    """The diagram decides J-torsion both ways, and the sheaf-glue
    recovery needs a power of y: ``kill_exponent`` multiplies until zero
    and writes c = 1."""
    path = tmp_path / "torsion.json"
    assert main(["run", TORSION, "--out", str(path)]) == 0
    assert main(["run", TORSION, "--replay", str(path)]) == 0
    capsys.readouterr()
    diagram, glue = json.loads(path.read_text())["records"]
    samples = diagram["certificate"]["samples"]
    assert [(s["in_torsion"], s["zero_cocycle"]) for s in samples] == [
        (True, True), (True, True), (False, False), (True, True)]
    glued = [s["glued"] for s in glue["certificate"]["samples"]]
    assert [g["recover_certificate"]["c"] for g in glued] == [0, 1, 0, 1]
    assert {g["exponent"] for g in glued} == {2}


# ------------------------------------------------- where a check rejects


IDEALIZATION = "ring Q[x];\ntask idealization poles (1) cap 2;\n"

@pytest.fixture(scope="module")
def source_reports():
    """The records and session of each session the rejection tests forge
    records of."""
    with open(TORSION, encoding="utf-8") as fh:
        torsion = fh.read()
    out = {}
    for name, text in [("tower", BENCH_TOWER), ("transform", BENCH_TRANSFORM),
                       ("torsion", torsion), ("idealization", IDEALIZATION)]:
        session = parse_session(text)
        out[name] = build_report(text, session)["records"], session
    return out


def _glued(rec, s):
    return _samples(rec)[s]["glued"]


# (session, record index, mutation, the location the check names): one
# forgery for each ValueError that decide, _samples and the replayers of
# check.py raise.  The transform records are roundtrip, sheaf-glue and
# diagram; the torsion records are diagram and sheaf-glue.
REJECTIONS = {
    "kind": ("tower", 0, lambda r: r.update(kind="diagram"),
             "the kind field is not"),
    "label": ("tower", 0, lambda r: r.update(label="task;"),
              "the label field is not"),
    "bounds": ("tower", 0, lambda r: r["bounds"].update(cap=5),
               "the bounds field is not"),
    "sample-count": ("transform", 0, lambda r: _samples(r).pop(),
                     "2 samples, not 3"),
    "witness-m": ("tower", 0, lambda r: r["bounds"].update(witness_m=5),
                  "witness_m 5 is outside from..cap"),
    "prozero-entry": ("tower", 1, lambda r: r["certificate"]["entries"][3]
                      ["relation_lift"].__setitem__(0, "1"),
                      "stage witness_m = 2: entry 3 fails"),
    "roundtrip-stage": ("transform", 0, lambda r: _samples(r)[1]
                        .update(stage=3), "sample 1: stage 3"),
    "probe-count": ("transform", 0, lambda r: _samples(r)[2]["probes"].pop(),
                    "sample 2: 4 probes, not 5"),
    "sigma-exponent": ("transform", 0, lambda r: _samples(r)[2]["probes"][1]
                       ["sigma"].update(exponent=0),
                       "sample 2, probe 1: sigma exponent 0"),
    "sigma-theta": ("transform", 0, lambda r: _samples(r)[0]["probes"][2]
                    .update(lift=["1", "0"]),
                    "sample 0, probe 2: sigma = theta fails"),
    "glue-exponent": ("transform", 1, lambda r: _glued(r, 0)
                      .update(exponent=0), "sample 0: glue exponent 0"),
    "primed-count": ("transform", 1, lambda r: _glued(r, 2)["primed"].pop(),
                     "sample 2: primed or restriction lift count"),
    # torsion sheaf-glue sample 1 has e = 2 above every degree, so the
    # degree test applies; transform sheaf-glue sample 1 has e = 2 below
    # its degree 4, so only the identity does
    "restriction-degree": ("torsion", 1, lambda r: _glued(r, 1)
                           ["restriction_lifts"][0].__setitem__(0, "x^5"),
                           "sample 1, chart 0: restriction degree"),
    "restriction": ("transform", 1, lambda r: _glued(r, 1)
                    ["restriction_lifts"][0].__setitem__(1, "x^3"),
                    "sample 1, chart 0: restriction fails"),
    "recovery": ("transform", 1, lambda r: _glued(r, 1)
                 ["recover_certificate"].update(lift=["0", "x"]),
                 "sample 1: recovery m/y = element/1 fails"),
    "torsion-flags": ("torsion", 0, lambda r: _samples(r)[0]
                      .update(zero_cocycle=False),
                      "sample 0: in_torsion != zero_cocycle"),
    "idealization": ("idealization", 0,
                     lambda r: r.update(certificate={"targets": []}),
                     "the idealization certificate is not empty"),
}


def _rejected(source_reports, name):
    """The ValueError that decide raises on the forgery `name`, after
    checking that replay_record gives its text as the forged record's
    reason."""
    source, index, mutate, _ = REJECTIONS[name]
    records, session = source_reports[source]
    forged = json.loads(json.dumps(records[index]))
    mutate(forged)
    task = session.tasks[index]
    reason = replay_record(forged, task, session)
    with pytest.raises(ValueError) as info:
        check.decide(forged, task, session)
    assert reason == str(info.value)
    return info


@pytest.mark.parametrize("name", list(REJECTIONS))
def test_check_names_where_it_rejects(source_reports, name):
    info = _rejected(source_reports, name)
    assert info.match(re.escape(REJECTIONS[name][3]))


def test_every_rejection_site_has_a_forgery(source_reports):
    """Each line of check.py that raises ValueError in decide, _samples or
    a replayer is the line some forgery of REJECTIONS stops at."""
    with open(check.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set(check._REPLAYERS.values()) | {check.decide, check._samples}
    sites = {
        node.lineno
        for f in tree.body
        if isinstance(f, ast.FunctionDef)
        and getattr(check, f.name, None) in names
        for node in ast.walk(f)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ValueError"
    }
    raised = set()
    for name in REJECTIONS:
        tb = _rejected(source_reports, name).tb
        while tb.tb_next is not None:
            tb = tb.tb_next
        assert tb.tb_frame.f_code.co_filename == check.__file__
        raised.add(tb.tb_lineno)
    assert len(sites) == 15 and raised == sites


def test_main_names_the_exhausted_search(tmp_path, capsys):
    """A run that exits 1 says why on stderr, one line for each record
    that is not acceptable, and still writes its report."""
    text = ("ring F32003[x,y,z,w];\n"
            "module M = coker [[x*y - z*w, 0, z^2], [0, y*z, x^2 - w^2]];\n"
            "sequence u = (x*y, z*w);\n"
            "task prozero u degree 1 from 1 cap 3 module M;\n")
    f, out = tmp_path / "s.dk", tmp_path / "r.json"
    f.write_text(text)
    assert main(["run", str(f), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert [r["outcome"] for r in report["records"]] == ["exhausted"]
    label = parse_session(text).tasks[0].pretty()
    assert capsys.readouterr().err == (
        f"exhausted: {label}: no certificate at stages 1..3\n")
    assert main(["run", str(f), "--replay", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_replay_builds_no_groebner_basis(monkeypatch):
    """Replay is arithmetic on the record's polynomials: parsing the session
    and replaying the reports of ``GOOD`` and of the tower, transform and
    obstruction benchmark sessions at seeds 1-3 and 7 computes no Gröbner
    basis, counted by wrapping ``FreeSubmodule._compute_basis``."""
    from deligne_kit.groebner import FreeSubmodule

    workloads = _bench_workloads()
    texts = [GOOD] + [workloads.make(name, seed).text
                      for name in ("tower", "transform", "obstruction")
                      for seed in (1, 2, 3, 7)]
    reports = [build_report(text, parse_session(text)) for text in texts]
    bases = []
    real_compute = FreeSubmodule._compute_basis

    def counting_compute(self):
        bases.append(self)
        return real_compute(self)

    monkeypatch.setattr(FreeSubmodule, "_compute_basis", counting_compute)
    for text, rep in zip(texts, reports):
        assert rep["ok"] is True
        assert replay_report(text, parse_session(text), rep)["ok"] is True
    assert bases == []


# the modules whose functions replay may enter once the session is parsed:
# the checker, the ring arithmetic it reads, the idealization verifier, the
# error types, the task labels and bounds, and the CLI that drives replay
REPLAY_MODULES = {"check", "rings", "idealization", "errors", "session", "cli"}


def test_replay_runs_no_producer_code():
    """Replaying the reports of ``GOOD`` and of the tower, transform and
    obstruction benchmark sessions at seeds 1-3 and 7 enters, after the
    session is parsed, only functions defined in ``REPLAY_MODULES``; the
    calls are seen with ``sys.setprofile``."""
    package = os.path.dirname(os.path.abspath(deligne_kit.__file__))
    workloads = _bench_workloads()
    texts = [GOOD] + [workloads.make(name, seed).text
                      for name in ("tower", "transform", "obstruction")
                      for seed in (1, 2, 3, 7)]
    entered = set()

    def profile(frame, event, arg):
        path = os.path.abspath(frame.f_code.co_filename)
        if event == "call" and os.path.dirname(path) == package:
            module = os.path.splitext(os.path.basename(path))[0]
            entered.add(f"{module}.{frame.f_code.co_name}")

    for text in texts:
        rep = build_report(text, parse_session(text))
        session = parse_session(text)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = replay_report(text, session, rep)
        finally:
            sys.setprofile(previous)
        assert result["ok"] is True
    assert "check.replay_prozero" in entered
    assert "check.idealization_outcome" in entered
    outside = {name for name in entered
               if name.split(".")[0] not in REPLAY_MODULES}
    assert outside == set()


def test_checker_imports_only_errors_rings_and_idealization():
    """The static side of ``test_replay_runs_no_producer_code``: ``check``
    imports the standard library and the package's ``errors``, ``rings``
    and ``idealization`` only, and ``deligne`` imports nothing from
    ``koszul``."""
    package = os.path.dirname(os.path.abspath(deligne_kit.__file__))

    def imports(name):
        with open(os.path.join(package, name + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from ((0, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield node.level, node.module

    relative = {module for level, module in imports("check") if level}
    absolute = {module.split(".")[0] for level, module in imports("check")
                if not level}
    assert relative == {"errors", "rings", "idealization"}
    assert absolute <= set(sys.stdlib_module_names)
    assert not [module for level, module in imports("deligne")
                if module in ("koszul", "deligne_kit.koszul")]


def test_outcome_names_are_written_only_in_check():
    """The outcome policy has one owner: outside docstrings, the outcome
    names appear in the package's code only in ``check.py``."""
    package = os.path.dirname(os.path.abspath(deligne_kit.__file__))
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, scopes) and node.body
                      and isinstance(node.body[0], ast.Expr)}
        if any(isinstance(node, ast.Constant) and id(node) not in docstrings
               and node.value in ("pass", "fail", "exhausted", "obstruction")
               for node in ast.walk(tree)):
            found.add(name)
    assert found == {"check.py"}


def _string_keys(module, ctx):
    """The string keys that the package module's functions index with `ctx`
    (ast.Load or ast.Store), with the keys of their dict literals when
    `ctx` is ast.Store."""
    package = os.path.dirname(os.path.abspath(deligne_kit.__file__))
    with open(os.path.join(package, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    keys = set()
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    for node in (n for f in functions for n in ast.walk(f)):
        if isinstance(node, ast.Dict) and ctx is ast.Store:
            keys.update(k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str))
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ctx)
              and isinstance(node.slice, ast.Constant)
              and isinstance(node.slice.value, str)):
            keys.add(node.slice.value)
    return keys


def test_every_field_the_runners_write_is_read_by_check():
    """A field that no check reads leaves the record or becomes checked:
    each string key that ``tasks`` writes into a record is read in
    ``check``.  Roundtrip ``values`` waits for the check that applies the
    power-generator syzygies to them (ROADMAP item 1a)."""
    written = _string_keys("tasks", ast.Store)
    assert {"stage", "values", "lift", "recover_certificate"} <= written
    assert sorted(written - _string_keys("check", ast.Load)) == ["values"]


def test_report_schema_doc_names_the_schema():
    path = os.path.join(os.path.dirname(__file__), "..", "docs",
                        "report-schema.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.splitlines()[0] == f"# Report schema (`{SCHEMA}`)"
    assert f'"schema": "{SCHEMA}"' in text


def _shift_first_lift(loc_equal):
    def shifted(f, g):
        cert = loc_equal(f, g)
        one = f.base.ring.one()
        return cert and LocEqualCertificate(
            cert.c, (cert.lift[0] + one,) + cert.lift[1:])
    return shifted


def _zero_first_relation_lift(search):
    def zeroed(x, *args):
        result = search(x, *args)
        if getattr(result, "entries", None):
            entry = result.entries[0]
            entry.relation_lift = (x.ring.zero(),) * len(entry.relation_lift)
        return result
    return zeroed


def _no_equality(loc_equal):
    return lambda f, g: None


def _no_gluing(sheaf_check):
    def incompatible(sections, cover):
        return IncompatibleWitness(0, 1, 0, sections[0].numerator)
    return incompatible


def _flip_torsion(gamma_torsion):
    def flipped(M, xs):
        gamma = gamma_torsion(M, xs)
        return types.SimpleNamespace(generators=gamma.generators,
                                     contains=lambda m: not gamma.contains(m))
    return flipped


NOT_VERIFIED = "the record does not verify: "


# (workload, forged function, forger, the first task the forgery breaks, the
# message after its label): the first tower task's module is free, so its
# relation lifts are empty; the transform tasks are roundtrip, sheaf-glue
# and diagram.  A record the check rejects names where: the sample and its
# probe, the prozero stage and entry, or the sample whose flags differ.
@pytest.mark.parametrize("workload, name, forge, broken, message", [
    ("transform", "loc_equal", _shift_first_lift, 0,
     NOT_VERIFIED + "sample 0, probe 0: sigma = theta fails"),
    ("tower", "pro_zero_search", _zero_first_relation_lift, 1,
     NOT_VERIFIED + "stage witness_m = 2: entry 0 fails"),
    ("transform", "loc_equal", _no_equality, 0,
     "sample 0: sigma(rho(phi)) = theta(phi) at probe 0 does not hold"),
    ("transform", "sheaf_check", _no_gluing, 1,
     "sample 0: the compatible family does not glue at charts 0 and 1"),
    ("transform", "gamma_torsion", _flip_torsion, 2,
     NOT_VERIFIED + "sample 0: in_torsion != zero_cocycle"),
], ids=["loc-equal", "prozero", "no-equality", "no-gluing", "torsion-flag"])
def test_run_whose_evidence_does_not_verify_exits_3(
        monkeypatch, tmp_path, capsys, workload, name, forge, broken, message):
    """A runner that writes evidence its own check rejects is a bug, not a
    pass: ``run`` sets each outcome with the check ``--replay`` runs, so it
    exits 3, names the task and writes no report.  A sampled theorem that
    does not certify on a sample is a bug too, and the runner also names
    the sample."""
    text = _bench_workloads().make(workload, 1).text
    monkeypatch.setattr(tasks, name, forge(getattr(tasks, name)))
    f, out = tmp_path / "s.dk", tmp_path / "r.json"
    f.write_text(text)
    assert main(["run", str(f), "--out", str(out)]) == 3
    label = parse_session(text).tasks[broken].pretty()
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {label}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("text", [TOWER, TRANSFORM], ids=["tower", "transform"])
def test_memos_die_with_the_session(text):
    # memoised results live on the session's ring and modules, so nothing
    # outlives a dropped session; the rings are used by no other test, so an
    # equal ring memoised elsewhere cannot hide a process-wide memo
    session = parse_session(text)
    assert build_report(text, session)["ok"] is True
    ring = weakref.ref(session.ring)
    del session
    gc.collect()
    assert ring() is None


# ---------------------------------------------------------------- report text


def _bench_workloads():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, (list, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _strings(item)


def _assert_same_poly(ring, text):
    got, want = de_poly(ring, text), parse_poly(ring, text)
    assert got == want and got.terms == want.terms, text
    assert all(type(c) is type(want.terms[m]) for m, c in got.terms.items())


def test_de_poly_matches_parse_poly_on_bench_reports():
    """Every certificate string of the tower and transform benchmark
    reports at seeds 1-3 and 7 reads to the polynomial the session parser
    gives."""
    workloads = _bench_workloads()
    count = 0
    for name in ("tower", "transform"):
        for seed in (1, 2, 3, 7):
            text = workloads.make(name, seed).text
            session = parse_session(text)
            for record in build_report(text, session)["records"]:
                for s in _strings(record["certificate"]):
                    _assert_same_poly(session.ring, s)
                    count += 1
    assert count > 4000


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("text", [
    "x + x", "x - x", "-0", "0", "0*x", "x^0", "x*y*x", "1/2*x^3*y - 3/4",
    "-x^2 + 2*x*y - 32003*y + 64007/2", "-1/3*y^2*x + x*y^2 - 5",
    "x^2 - 2*x^2 + x^2",
])
def test_de_poly_matches_parse_poly_on_edge_texts(field, text):
    _assert_same_poly(PolyRing(field, ("x", "y")), text)


def test_de_poly_errors():
    ring = PolyRing(QQ, ("x", "y"))
    long_run = "1" * (MAX_DIGITS + 1)
    # refused by the report form, before int() reads the run
    for text in (long_run, f"{long_run}*x", f"1/{long_run}", f"x^{long_run}"):
        with pytest.raises(ValueError, match="not in the form a report writes"):
            de_poly(ring, text)
    assert de_poly(ring, "1" * MAX_DIGITS) == ring.const(int("1" * MAX_DIGITS))
    with pytest.raises(ValueError, match="zero denominator"):
        de_poly(ring, "1/0")
    with pytest.raises(NameResolutionError, match="unknown variable 'z'"):
        de_poly(ring, "x + 2*z^2")
    fp = PolyRing(GF(32003), ("x", "y"))
    with pytest.raises(StructuralError, match="no value in F32003"):
        de_poly(fp, "1/32003")
    with pytest.raises(ParseError):
        parse_poly(fp, "1/32003")
    # a record whose polynomial raises any of these fails its own replay
    text = "ring Q[x];\nsequence s = (x, x);\ntask prozero s degree 1 from 1 cap 6;\n"
    session = parse_session(text)
    record = build_report(text, session)["records"][0]
    assert replay_record(record, session.tasks[0], session) is None
    for bad, reason in (("1/0", "zero denominator"),
                        ("2*z", "unknown variable 'z'"),
                        (long_run, "a polynomial not in the form a report "
                                   "writes")):
        forged = json.loads(json.dumps(record))
        forged["certificate"]["entries"][0]["preimage_chain"][0] = bad
        assert replay_record(forged, session.tasks[0], session) == reason


# ---------------------------------------------------------------- exit codes


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.dk"
    good.write_text(GOOD)
    assert main(["run", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.dk"
    bad.write_text("ring Q[x]; ideal J = (;")
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()

    # exhausted prozero without allow-exhausted fails with 1
    ex = tmp_path / "ex.dk"
    ex.write_text("ring Q[x];\nsequence s = (x, x);\ntask prozero s degree 1 from 4 cap 5;\n")
    assert main(["run", str(ex)]) == 1
    capsys.readouterr()

    ok = tmp_path / "ok.dk"
    ok.write_text("ring Q[x];\nsequence s = (x, x);\ntask prozero s degree 1 from 4 cap 5 allow-exhausted;\n")
    assert main(["run", str(ok)]) == 0
    capsys.readouterr()


def test_main_fraction_with_denominator_zero_mod_p_exits_2(tmp_path, capsys):
    f = tmp_path / "fp.dk"
    f.write_text("ring F5[x,y];\nmodule M = coker [[x - 1/5]];\n")
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    # a parse error at the constant, as `1/0` is
    assert "error: 2:24: 1/5 has no value in F5" in err
    assert "Traceback" not in err


def test_main_replay_roundtrip(tmp_path, capsys):
    f = tmp_path / "s.dk"
    f.write_text(GOOD)
    out = tmp_path / "report.json"
    assert main(["run", str(f), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", str(f), "--replay", str(out)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("target", ["missing-dir", "a-directory"])
def test_main_unwritable_out_exits_2(tmp_path, capsys, target):
    f = tmp_path / "s.dk"
    f.write_text("ring Q[x];\ntask idealization poles (1) cap 2;\n")
    report = tmp_path / "report.json"
    assert main(["run", str(f), "--out", str(report)]) == 0
    bad = tmp_path / "no" / "r.json" if target == "missing-dir" else tmp_path
    for argv in (["run", str(f)], ["run", str(f), "--replay", str(report)]):
        assert main(argv + ["--out", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report: ")
        assert "Traceback" not in err


def test_exhausted_outcome_recorded(tmp_path):
    text = "ring Q[x];\nsequence s = (x, x);\ntask prozero s degree 1 from 4 cap 5 allow-exhausted;\n"
    session = parse_session(text)
    rep = build_report(text, session)
    assert rep["records"][0]["outcome"] == "exhausted"
    assert rep["ok"] is True


_DEEP = 100_000  # past the JSON decoder's nesting limit on every Python


@pytest.mark.parametrize("content", [
    None, "{not json", b"\xff\xfe", "[" * _DEEP,
    '{"records": [{"certificate": ' + "[" * _DEEP + "]" * _DEEP + "}]}",
    '{"ok": ' + "7" * 5000 + "}",
], ids=["missing", "not-json", "not-utf8", "nested", "nested-certificate",
        "long-integer"])
def test_main_unreadable_report_exits_2(tmp_path, capsys, content):
    f = tmp_path / "s.dk"
    f.write_text("ring Q[x];\ntask idealization poles (1) cap 2;\n")
    path = tmp_path / "report.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    assert main(["run", str(f), "--replay", str(path)]) == 2
    assert "error: cannot read report" in capsys.readouterr().err


def test_main_non_utf8_session_exits_2(tmp_path, capsys):
    f = tmp_path / "s.dk"
    f.write_bytes(b"ring Q[x];\n# \xff\n")
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read session: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("option, message",
                         [("--replay", "error: cannot read report: "),
                          ("--out", "error: cannot write report: ")],
                         ids=["replay", "out"])
def test_main_empty_path_exits_2(tmp_path, capsys, option, message):
    # an empty path names no file: refused, not read as an absent option
    f = tmp_path / "s.dk"
    f.write_text("ring Q[x];\ntask idealization poles (1) cap 2;\n")
    assert main(["run", str(f), option, ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message)


def test_main_help_prints_usage(capsys):
    for argv in (["--help"], ["-h"], ["run", "--help"], ["run", "s.dk", "-h"]):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: deligne-kit run FILE") and err == ""


@pytest.mark.parametrize("argv, message", [
    (["run", "s.dk", "--bogus"], "unrecognized argument '--bogus'"),
    (["run", "s.dk", "--rep", "r.json"], "unrecognized argument '--rep'"),
    (["run", "s.dk", "--out", "a", "--out=b"], "--out given more than once"),
    (["run"], "the session FILE is missing"),
    (["run", "--out", "a"], "the session FILE is missing"),
    (["run", "s.dk", "--replay"], "--replay expects a value"),
    (["run", "s.dk", "t.dk"], "unrecognized argument 't.dk'"),
    (["s.dk"], "expected the command 'run'"),
    ([], "expected the command 'run'"),
], ids=["unknown", "abbreviated", "repeated", "no-file", "only-options",
        "no-value", "extra", "no-command", "empty"])
def test_main_malformed_command_line_exits_2(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: deligne-kit run FILE")
    assert f"error: {message}" in err


def test_main_option_forms(tmp_path, capsys, monkeypatch):
    f = tmp_path / "s.dk"
    f.write_text(GOOD)
    report, replay = tmp_path / "report.json", tmp_path / "replay.json"
    assert main(["run", f"--out={report}", str(f)]) == 0
    assert main(["run", "--replay", str(report), f"--out={replay}", str(f)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(replay.read_text())["ok"] is True
    # with no argument, main reads the process's own command line
    monkeypatch.setattr(sys, "argv", ["deligne-kit", "run", str(f), "--replay",
                                      str(report)])
    assert main() == 0
    assert json.loads(capsys.readouterr().out) == json.loads(replay.read_text())


def test_digests_are_sha256_of_canonical_json():
    session = parse_session(GOOD)
    report = build_report(GOOD, session)
    assert report["session_sha256"] == hashlib.sha256(GOOD.encode()).hexdigest()
    for record in report["records"]:
        body = {k: v for k, v in record.items() if k not in ("digest", "time_ms")}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert record["digest"] == record_digest(record) == "sha256:" + digest


def test_internal_error_exits_3_with_task_label(tmp_path, capsys, monkeypatch):
    assert not issubclass(InternalError, StructuralError)
    monkeypatch.setattr(idealization.PoleWitness, "verify", lambda self: False)
    f = tmp_path / "s.dk"
    f.write_text("ring Q[x];\ntask idealization poles (1) cap 2;\n")
    assert main(["run", str(f)]) == 3
    err = capsys.readouterr().err
    assert "task idealization poles (1) cap 2;" in err
    assert "pole witness failed verification" in err


def test_cli_import_adds_no_introspection_modules():
    """``dataclasses`` imports inspect, ast, dis, tokenize and linecache,
    which nothing in the package uses and every CLI call would pay for at
    start-up; ``hashlib`` loads OpenSSL's libcrypto for two SHA-256 calls,
    and ``argparse`` is built for a command line of one form.  The check is
    on the modules the import adds, since Python 3.13 loads linecache at
    start-up."""
    probe = (
        "import sys; before = set(sys.modules); import deligne_kit.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(deligne_kit.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    added = set(out.split())
    assert "deligne_kit.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize",
                        "linecache", "hashlib", "_hashlib", "argparse"}


# --------------------------------------------- what each process executes

# the modules only ``run`` executes: the package registers them as lazy
# modules, executed on the first read of an attribute
RUN_MODULES = ("groebner", "modules", "koszul", "deligne", "tasks")

# appended to a fresh process's code: the RUN_MODULES it executed
_EXECUTED = (
    "\nimport sys as _sys, types as _types\n"
    f"print(' '.join(m for m in {RUN_MODULES!r} if type("
    "_sys.modules['deligne_kit.' + m]) is _types.ModuleType))\n"
)


def _executed(code, *args):
    """The RUN_MODULES that a fresh process running `code` with `args`
    executed, read off the type of their ``sys.modules`` entries."""
    src = os.path.dirname(os.path.dirname(deligne_kit.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code + _EXECUTED, *map(str, args)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    return set(out.splitlines()[-1].split())


_REPLAY = (
    "import sys; from deligne_kit.cli import main\n"
    "assert main(['run', sys.argv[1], '--replay', sys.argv[2], "
    "'--out', sys.argv[3]]) == 0\n"
)


def test_cli_import_executes_no_run_module():
    assert _executed("import deligne_kit.cli") == set()


def test_bench_setup_probe_executes_no_run_module(tmp_path):
    """The set-up probe of perfbench/run.py, read from its source."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "run.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    code = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["SETUP_CODE"])
    session = tmp_path / "s.dk"
    session.write_text(_bench_workloads().make("transform", 1).text)
    assert _executed(code, session) == set()


@pytest.mark.parametrize("source", ["tower", "transform", "obstruction",
                                    "torsion"])
def test_replay_executes_no_run_module(tmp_path, source):
    """A ``--replay`` process of the seed-1 benchmark reports and of
    ``tests/data/torsion.dk`` checks every record without executing any
    of RUN_MODULES."""
    if source == "torsion":
        with open(TORSION, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = _bench_workloads().make(source, 1).text
    session, report, out = (tmp_path / n for n in ("s.dk", "r.json", "o.json"))
    session.write_text(text)
    report.write_text(json.dumps(build_report(text, parse_session(text))))
    assert _executed(_REPLAY, session, report, out) == set()
    assert json.loads(out.read_text())["ok"] is True


def test_run_executes_every_run_module(tmp_path):
    session, report = tmp_path / "s.dk", tmp_path / "r.json"
    session.write_text(_bench_workloads().make("obstruction", 1).text)
    code = ("import sys; from deligne_kit.cli import main\n"
            "assert main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0\n")
    assert _executed(code, session, report) == set(RUN_MODULES)
    assert json.loads(report.read_text())["ok"] is True


def test_cli_runs_as_a_module_without_warnings():
    """``python -m deligne_kit.cli`` would import ``cli`` twice, with a
    RuntimeWarning, if the package registered it in sys.modules."""
    src = os.path.dirname(os.path.dirname(deligne_kit.__file__))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "deligne_kit.cli", "--help"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.startswith("usage: deligne-kit run FILE")
    assert out.stderr == ""
