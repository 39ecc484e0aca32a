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


def _forge_idealization(rep, mutate):
    """A copy of the report whose idealization record is changed by
    ``mutate`` and re-digested, so only the certificate check can catch it."""
    forged = json.loads(json.dumps(rep))
    rec = forged["records"][4]
    assert rec["kind"] == "idealization"
    mutate(rec)
    rec["digest"] = record_digest(rec)
    return forged


def _one_fake_stage(rec):
    for target in rec["certificate"]["targets"]:
        target["stages"] = [{
            "stage": 99, "effective_stage": 1, "probe_index": 0,
            "required_r": "1", "pairing": {"0": "1"},
        }]


def _set_pole(rec):
    rec["certificate"]["targets"][1]["pole"] = 2


def _set_effective_stage(rec):
    # stage 1 of the pole-3 target: effective stage 3 claimed as 4
    rec["certificate"]["targets"][1]["stages"][0]["effective_stage"] = 4


def _set_probe_index(rec):
    rec["certificate"]["targets"][0]["stages"][1]["probe_index"] = 0


def _set_required_r(rec):
    # x^2 + x^5 pairs with the probe e_2 exactly as x^2 does
    rec["certificate"]["targets"][0]["stages"][2]["required_r"] = "x^5 + x^2"


def _drop_stage(rec):
    del rec["certificate"]["targets"][0]["stages"][-1]


def _set_cap(rec):
    rec["bounds"]["cap"] = 5


@pytest.mark.parametrize(
    "mutate",
    [_one_fake_stage, _set_pole, _set_effective_stage, _set_probe_index,
     _set_required_r, _drop_stage, _set_cap],
    ids=["one-fake-stage", "pole", "effective-stage", "probe-index",
         "required-r", "dropped-stage", "cap"],
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
    out.write_text(json.dumps(_forge_idealization(rep, _one_fake_stage)))
    assert main(["run", str(f), "--replay", str(out)]) == 1
    capsys.readouterr()


def _drop_pairing(rec):
    del rec["certificate"]["targets"][0]["stages"][1]["pairing"]


def test_replay_malformed_record_fails_that_record(report, tmp_path, capsys):
    rep, session = report
    forged = _forge_idealization(rep, _drop_pairing)
    out = replay_report(GOOD, session, forged)
    assert out["ok"] is False
    assert [r["verified"] for r in out["results"]] == [True] * 4 + [False]
    f = tmp_path / "s.dk"
    f.write_text(GOOD)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(forged))
    assert main(["run", str(f), "--replay", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


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


def test_main_replay_roundtrip(tmp_path, capsys):
    f = tmp_path / "s.dk"
    f.write_text(GOOD)
    out = tmp_path / "report.json"
    assert main(["run", str(f), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", str(f), "--replay", str(out)]) == 0
    capsys.readouterr()


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
