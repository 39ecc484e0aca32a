import gc
import json
import weakref

import pytest

from deligne_kit.cli import build_report, main, record_digest, replay_report
from deligne_kit import idealization
from deligne_kit.errors import (
    DimensionError,
    InternalError,
    NameResolutionError,
    ParseError,
    StructuralError,
)
from deligne_kit.session import parse_session

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
        sample["glued"]["recovers_element"] = False


def _each_perturbed_undetected(rec):
    for sample in _samples(rec):
        sample["perturbed"]["detected"] = False


def _zero_probe(rec):
    # M_0 = 0, so over the base 0 any two fractions are equal
    probe = _samples(rec)[0]["probes"][0]
    probe["y"] = "0"
    probe["sigma"]["numerator"] = ["x + 7"]
    probe["theta"]["numerator"] = ["y"]
    probe["loc_certificate"]["c"] = 1


# (record index in GOOD, mutation): each forgery re-digested, so only replay
# can reject it; records 0-3 are prozero, roundtrip, sheaf-glue and diagram
FORGERIES = {
    "label": (1, lambda r: r.update(label="anything")),
    "bounds-samples": (1, lambda r: r["bounds"].update(samples=99)),
    "roundtrip-no-samples": (1, lambda r: r["certificate"].update(samples=[])),
    "sheaf-no-samples": (2, lambda r: r["certificate"].update(samples=[])),
    "diagram-no-samples": (3, lambda r: r["certificate"].update(samples=[])),
    "probe-dropped": (1, lambda r: _samples(r)[0]["probes"].pop()),
    "component-dropped": (3, lambda r: _samples(r)[1]["components"].pop()),
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
    "through-long": (3, lambda r: _samples(r)[1]["components"][0]["through"]
                     ["numerator"].append("x + 1")),
    "loc-lift-long": (1, lambda r: _samples(r)[0]["probes"][0]
                      ["loc_certificate"].update(lift=["x"] * 3)),
    "null-outcome": (1, lambda r: r.update(outcome=None,
                                          certificate={"samples": []})),
    "not-recovered": (2, _each_not_recovered),
    "perturbation-undetected": (2, _each_perturbed_undetected),
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

# Record digests pinned across changes that must not move a certificate; a
# change that legitimately changes lift coefficients updates them and says
# so in CHANGES.md.
PINNED_DIGESTS = {
    "good": (GOOD, [
        "97fabbb9c2b232becea1a9b1cbec07982da13e786c13841d64e28da17915d439",
        "d31153d6aa8e697c8548a486fe2bde68d5c290e963012dde3b1cc96f22aad554",
        "2b0f4a18801f2c65b520ee60633e869ba079d527b8b00276190a0112b9bb3361",
        "b88633a141dbb85b614e2bb3d70a80858caeaa78834dae309c88393df60768ed",
        "a3586096cb2b68a41f88bdb142cdb13913ddb85b33b5f46bdd208d1bc8283673",
    ]),
    "rank2-tower": (RANK2_TOWER, [
        "2bb5bea71c53f28a36e804af43073d771f782ea4ff37f5dff4aaf2ff7023f7c8",
        "3481edcdc5771321e4176137c4cb3264dad67105aacc21b678516e98039b11b3",
        "d1edce147c6e704d3c74cfcacf03cc80eb51e3ac3d0f2fc15f33d2b9df53eccc",
    ]),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_pinned_digests(name):
    text, digests = PINNED_DIGESTS[name]
    rep = build_report(text, parse_session(text))
    assert [r["digest"] for r in rep["records"]] == [
        "sha256:" + d for d in digests
    ]


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


@pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe"],
                         ids=["missing", "not-json", "not-utf8"])
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


def test_internal_error_exits_3_with_task_label(tmp_path, capsys, monkeypatch):
    assert not issubclass(InternalError, StructuralError)
    monkeypatch.setattr(idealization.PoleWitness, "verify", lambda self: False)
    f = tmp_path / "s.dk"
    f.write_text("ring Q[x];\ntask idealization poles (1) cap 2;\n")
    assert main(["run", str(f)]) == 3
    err = capsys.readouterr().err
    assert "task idealization poles (1) cap 2;" in err
    assert "pole witness failed verification" in err
