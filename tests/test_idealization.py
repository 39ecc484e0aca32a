import random
import time

import pytest

from deligne_kit import check, idealization
from deligne_kit.cli import main
from deligne_kit.errors import StructuralError
from deligne_kit.idealization import (
    EElement,
    IdealizationRing,
    PoleWitness,
    h1_transition_witness,
    ideal_transform_stage,
    normalize_laurent,
    pole_order,
    rho_obstruction,
    s_annihilator,
    s_mul,
    tau_image,
)
from deligne_kit.rings import GF, QQ, Poly
from deligne_kit.session import parse_session
from deligne_kit.tasks import run_task


@pytest.fixture
def S():
    return IdealizationRing()


def rand_s(S, rng):
    r = S.R.poly({(rng.randint(0, 3),): rng.randint(-2, 2)})
    e = S.e_zero()
    for _ in range(rng.randint(0, 2)):
        e = e + S.e(rng.randint(0, 4), rng.randint(-2, 2) or 1)
    return S.s(r, e)


# ---------------------------------------------------------------- ring laws


def test_multiplication_examples(S):
    x = S.x
    assert s_mul(S.s(x), S.s(S.R.zero(), S.e(0))).is_zero()
    assert s_mul(S.s(x), S.s(S.R.zero(), S.e(1))) == S.s(S.R.zero(), S.e(0))
    assert s_mul(
        S.s(S.R.zero(), S.e(2)), S.s(S.R.zero(), S.e(7))
    ).is_zero()


def test_commutative_associative_random(S):
    rng = random.Random(3)
    for _ in range(15):
        a, b, c = (rand_s(S, rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_divisibility_of_e(S):
    # x * E = E: every basis element has an x-preimage
    for i in range(4):
        assert s_mul(S.s(S.x), S.s(S.R.zero(), S.e(i + 1))) == S.s(
            S.R.zero(), S.e(i)
        )


# ---------------------------------------------------------------- annihilators


def test_annihilator_dims_strictly_increase(S):
    for t in range(1, 11):
        basis = s_annihilator(S, t)
        assert len(basis) == t
        xt = S.x_power(t)
        for b in basis:
            assert (xt * b).is_zero()


def test_annihilator_requires_positive_t(S):
    with pytest.raises(StructuralError):
        s_annihilator(S, 0)


# ---------------------------------------------------------------- H1 tower


def test_transition_witness_examples(S):
    w = h1_transition_witness(S, 2, 1)
    assert w.witness == S.s(S.R.zero(), S.e(1))
    assert w.image == S.s(S.R.zero(), S.e(0))
    assert w.verify()

    w = h1_transition_witness(S, 5, 2)
    assert w.image == S.s(S.R.zero(), S.e(1))
    assert w.verify()


def test_transition_witness_all_pairs(S):
    for n in range(1, 6):
        for m in range(n + 1, 7):
            assert h1_transition_witness(S, m, n).verify()


def test_transition_witness_rejects_equal_stages(S):
    with pytest.raises(StructuralError):
        h1_transition_witness(S, 3, 3)


# ---------------------------------------------------------------- transform stages


def test_stage_membership_and_transition(S):
    st = ideal_transform_stage(S, 1)
    v = S.s(S.x * S.R.const(1), S.e(0))
    assert st.contains_value(v)
    v2 = st.transition(v)
    assert v2 == S.s(S.x**2)  # E-part died in one step
    assert not st.contains_value(S.s(S.R.one()))


def test_e_component_death_steps(S):
    cur, stage = S.s(S.x**2, S.e(3)), 2
    for step in range(1, 5):
        cur = ideal_transform_stage(S, stage).transition(cur)
        stage += 1
        assert cur.e.is_zero() == (step == 4)  # e_3 dies in exactly 4 steps
    assert ideal_transform_stage(S, stage).colimit_r_class(cur) == S.R.one()


def test_r_component_persists(S):
    a = S.R.poly({(1,): 2, (0,): -1})  # 2x - 1
    cur = tau_image(S, a, 1)
    stage = 1
    for _ in range(10):
        st = ideal_transform_stage(S, stage)
        assert st.colimit_r_class(cur) == a
        cur = st.transition(cur)
        stage += 1
    assert ideal_transform_stage(S, stage).colimit_r_class(cur) == a


def test_rho_image_of_tau_is_regular(S):
    st = ideal_transform_stage(S, 3)
    num, q = st.rho_image(tau_image(S, S.R.one(), 3))
    assert num == S.R.one() and q == 0


# ---------------------------------------------------------------- obstructions


def test_pole_order_and_normalization(S):
    x = S.x
    assert pole_order(S.R.one(), 1) == 1
    assert pole_order(x**2, 0) == -2
    assert normalize_laurent(x**3, 1) == (x**2, 0)


def test_obstruction_1_over_x(S):
    ws = rho_obstruction(S, S.R.one(), 1, cap=10)
    assert [w.stage for w in ws] == list(range(1, 11))
    for w in ws:
        assert w.verify()
        # the pairing is the principal part e_{p-1} = e_0
        assert w.pairing == S.s(S.R.zero(), S.e(0))


def test_obstruction_deep_pole(S):
    ws = rho_obstruction(S, S.R.one(), 3, cap=5)
    for w in ws:
        assert w.verify()
        assert w.pairing == S.s(S.R.zero(), S.e(2))
        assert w.effective_stage == max(w.stage, 3)


def test_obstruction_rejects_regular_targets(S):
    with pytest.raises(StructuralError):
        rho_obstruction(S, S.x**2, 0, cap=3)


def test_obstruction_general_laurent_target(S):
    # (1 + x) / x^2 has pole order 2; principal part survives the pairing
    g = S.R.one() + S.x
    ws = rho_obstruction(S, g, 2, cap=4)
    for w in ws:
        assert w.verify()
        assert w.pairing == S.s(S.R.zero(), S.e(1) + S.e(0))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize(
    "coeffs, q, principal",
    [
        # (1 + 2x + x^5) / x^4: x^5 is regular, 1 -> e_3, 2x -> 2 e_2
        ({0: 1, 1: 2, 5: 1}, 4, {3: 1, 2: 2}),
        # (3 + x) / x^2: 3 -> 3 e_1, x -> e_0
        ({0: 3, 1: 1}, 2, {1: 3, 0: 1}),
    ],
    ids=["deg5-over-x4", "deg1-over-x2"],
)
def test_obstruction_pairing_is_the_principal_part(field, coeffs, q, principal):
    S = IdealizationRing(field)
    g = S.R.poly({(i,): c for i, c in coeffs.items()})
    expected = S.s(S.R.zero(), EElement(S, principal))
    cap = 7
    ws = rho_obstruction(S, g, q, cap=cap)
    assert [w.stage for w in ws] == list(range(1, cap + 1))
    for w in ws:
        n_eff = max(w.stage, q)
        assert w.effective_stage == n_eff
        assert w.probe == S.s(S.R.zero(), S.e(n_eff - 1))
        assert w.required_value == S.s(g * S.x ** (n_eff - q))
        assert w.pairing == s_mul(w.probe, w.required_value)
        assert w.pairing == expected


def _laurent_target(S, rng, p):
    """A seeded g/x^q with pole order p: g = x^v * (c_0 + ...), c_0 != 0 in
    the field, and q = p + v; with its principal part, where g_i x^(i-q)
    with i < q is g_i e_(q-1-i), read off g/x^q without normalizing it."""
    fld = S.field
    v = rng.randint(0, 3)
    coeffs = {v + i: rng.randint(-9, 9) for i in range(1, rng.randint(1, 9))}
    coeffs[v] = rng.choice([c for c in range(1, 10) if fld.of(c) != fld.zero])
    g = S.R.poly({(i,): c for i, c in coeffs.items()})
    q = p + v
    principal = EElement(S, {q - 1 - i: c for i, c in coeffs.items() if i < q})
    return g, q, S.s(S.R.zero(), principal)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(32003)],
                         ids=["Q", "F2", "F5", "F32003"])
def test_every_stage_holds_the_lemma(field):
    """The one verified witness stands for every stage: each witness the
    sequence yields, at caps below and above the pole order, verifies, sits
    at the effective stage max(stage, p) and pairs to the stage-p pairing,
    the principal part of the target."""
    S = IdealizationRing(field)
    rng = random.Random(37)
    for p in range(1, 7):
        for _ in range(3):
            g, q, expected = _laurent_target(S, rng, p)
            assert pole_order(g, q) == p
            for cap in sorted({1, max(1, p - 1), p, p + 1, 2 * p + 5}):
                ws = rho_obstruction(S, g, q, cap=cap)
                assert [w.stage for w in ws] == list(range(1, cap + 1))
                for w in ws:
                    assert w.verify()
                    assert w.effective_stage == max(w.stage, p)
                    assert s_mul(w.probe, w.required_value) == expected
                    assert w.pairing == expected


def test_obstruction_check_work_does_not_grow_with_cap(monkeypatch):
    """check.idealization_outcome verifies one witness per pole, with the
    same S-arithmetic, whatever the cap, up to a 4,001-digit one."""
    counts = {}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(PoleWitness, "verify",
                        counted("verify", PoleWitness.verify))
    monkeypatch.setattr(idealization, "s_mul",
                        counted("s_mul", idealization.s_mul))
    seen = []
    for cap in (1, 120, 10**4000):
        session = parse_session(
            f"ring Q[x];\ntask idealization poles (1, 2, 3, 4, 5, 6) cap {cap};\n")
        (task,) = session.tasks
        counts.clear()
        outcome = check.idealization_outcome(check.Field({"certificate": {}}),
                                             task, session)
        assert outcome == "obstruction"
        seen.append(dict(counts))
    assert seen[0]["verify"] == 6
    assert seen == [seen[0]] * 3


def test_cap_of_4001_digits_runs_and_replays(tmp_path, capsys):
    f = tmp_path / "s.dk"
    f.write_text("ring Q[x];\n"
                 f"task idealization poles (1, 2, 3, 4, 5, 6) cap {10**4000};\n")
    report = tmp_path / "report.json"
    start = time.perf_counter()
    assert main(["run", str(f), "--out", str(report)]) == 0
    assert main(["run", str(f), "--replay", str(report)]) == 0
    assert time.perf_counter() - start < 2
    capsys.readouterr()


def test_obstruction_run_builds_no_powers(monkeypatch):
    session = parse_session(
        "ring Q[x];\ntask idealization poles (1, 2, 3) cap 20;\n")

    def no_pow(self, n):
        raise AssertionError(f"Poly.__pow__ called with n = {n}")

    monkeypatch.setattr(Poly, "__pow__", no_pow)
    (task,) = session.tasks
    assert run_task(task, session)["outcome"] == "obstruction"


def test_prime_field_backend():
    S5 = IdealizationRing(GF(5))
    assert len(s_annihilator(S5, 4)) == 4
    assert h1_transition_witness(S5, 3, 1).verify()
    for w in rho_obstruction(S5, S5.R.one(), 1, cap=3):
        assert w.verify()


def test_equal_idealization_rings_built_apart_compare_equal():
    a, b = IdealizationRing(QQ), IdealizationRing(QQ)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a == a
    assert a != IdealizationRing(GF(5)) and a != a.R
    # an element of one acts on the other's polynomials
    assert a.e(2).acted(b.x) == a.e(1)
    with pytest.raises(StructuralError):
        a.e(2).acted(IdealizationRing(GF(5)).x)


def test_s_pow_matches_repeated_multiplication(S):
    rng = random.Random(23)
    for _ in range(8):
        s = rand_s(S, rng)
        expected = S.s_from_const(1)
        for n in range(9):
            assert s**n == expected
            expected = s_mul(expected, s)
    with pytest.raises(StructuralError):
        S.x_power(1) ** -1
