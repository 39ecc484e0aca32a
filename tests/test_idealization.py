import random

import pytest

from deligne_kit.errors import StructuralError
from deligne_kit.idealization import (
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
from deligne_kit.rings import GF, QQ


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
    st = ideal_transform_stage(S, 2)
    v = S.s(S.x**2, S.e(3))
    assert st.transitions_until_e_death(v) == 4
    cur = v
    stage = 2
    for _ in range(4):
        cur = ideal_transform_stage(S, stage).transition(cur)
        stage += 1
    assert cur.e.is_zero()
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
