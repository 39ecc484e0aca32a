import random

import pytest

from deligne_kit.errors import StructuralError
from deligne_kit.idealization import (
    EElement,
    IdealizationRing,
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
from deligne_kit.tasks import run_idealization


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


def test_obstruction_run_builds_no_powers(monkeypatch):
    session = parse_session(
        "ring Q[x];\ntask idealization poles (1, 2, 3) cap 20;\n")

    def no_pow(self, n):
        raise AssertionError(f"Poly.__pow__ called with n = {n}")

    monkeypatch.setattr(Poly, "__pow__", no_pow)
    (task,) = session.tasks
    assert run_idealization(task, session)["outcome"] == "obstruction"


def test_prime_field_backend():
    S5 = IdealizationRing(GF(5))
    assert len(s_annihilator(S5, 4)) == 4
    assert h1_transition_witness(S5, 3, 1).verify()
    for w in rho_obstruction(S5, S5.R.one(), 1, cap=3):
        assert w.verify()


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
