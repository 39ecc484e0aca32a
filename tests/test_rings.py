import random
from fractions import Fraction

import pytest

from deligne_kit.errors import StructuralError
from deligne_kit.rings import (
    GF,
    QQ,
    Poly,
    PolyRing,
    monomial_compare,
    poly_divmod,
)


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y"))


def rand_poly(ring, rng, max_deg=3, terms=4):
    out = ring.zero()
    for _ in range(rng.randint(0, terms)):
        mon = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        out = out + ring.term(rng.randint(-5, 5), mon)
    return out


# ---------------------------------------------------------------- orders


def test_grevlex_examples():
    # x^2*y vs x*y^2 with x before y
    assert monomial_compare((2, 1), (1, 2), "grevlex") == 1
    assert monomial_compare((1, 2), (2, 1), "grevlex") == -1
    assert monomial_compare((3, 0), (3, 0), "grevlex") == 0


def test_lex_examples():
    # x vs y^3
    assert monomial_compare((1, 0), (0, 3), "lex") == 1
    assert monomial_compare((0, 0), (0, 1), "lex") == -1


def test_compare_length_mismatch():
    with pytest.raises(StructuralError):
        monomial_compare((1, 0), (1, 0, 0), "grevlex")


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_order_total_and_multiplicative(order):
    rng = random.Random(11)
    mons = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(60)]
    for a in mons[:20]:
        for b in mons[20:40]:
            ab = monomial_compare(a, b, order)
            ba = monomial_compare(b, a, order)
            assert ab == -ba
            for c in mons[40:50]:
                ac = tuple(u + w for u, w in zip(a, c))
                bc = tuple(u + w for u, w in zip(b, c))
                assert monomial_compare(ac, bc, order) == ab
    # transitivity on sorted triples
    for i in range(0, 57, 3):
        tri = sorted(mons[i : i + 3], key=lambda m: (sum(m), m))
        a, b, c = tri
        if (
            monomial_compare(a, b, order) <= 0
            and monomial_compare(b, c, order) <= 0
        ):
            assert monomial_compare(a, c, order) <= 0


# ---------------------------------------------------------------- fields


def test_prime_field_arithmetic():
    F = GF(5)
    assert F.of(7) == 2
    assert F.inv(2) == 3
    assert F.of(Fraction(1, 2)) == 3
    with pytest.raises(StructuralError):
        GF(6)


def test_rational_lowest_terms():
    assert QQ.of(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)


# ---------------------------------------------------------------- polys


def test_ring_axioms_random(R):
    rng = random.Random(7)
    for _ in range(25):
        f, g, h = (rand_poly(R, rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f + (-f) == R.zero()


def test_poly_over_prime_field():
    F = GF(5)
    R = PolyRing(F, ("x",))
    (x,) = R.gens()
    assert (x + R.const(4)) + (x + R.const(1)) == 2 * x
    assert (2 * x) * (3 * x) == x * x


def test_str_sorted_by_order(R):
    x, y = R.gens()
    p = y**2 + x**2 * y + x
    assert str(p) == "x^2*y + y^2 + x"


def test_divmod_examples(R):
    x, y = R.gens()
    q, r = poly_divmod(x**2, [x])
    assert q == [x] and r.is_zero()

    q, r = poly_divmod(x * y + R.one(), [x])
    assert q == [y] and r == R.one()

    L = PolyRing(QQ, ("x", "y"), order="lex")
    xl, yl = L.gens()
    q, r = poly_divmod(xl**2 - yl**2, [xl - yl])
    assert q == [xl + yl] and r.is_zero()


def test_divmod_identity_random(R):
    rng = random.Random(3)
    for _ in range(20):
        f = rand_poly(R, rng)
        divisors = [d for d in (rand_poly(R, rng, 2, 2) for _ in range(2)) if not d.is_zero()]
        if not divisors:
            continue
        quots, rem = poly_divmod(f, divisors)
        recon = rem
        for q, d in zip(quots, divisors):
            recon = recon + q * d
        assert recon == f
        lead_mons = [d.lead_monomial() for d in divisors]
        for mon in rem.terms:
            for lm in lead_mons:
                assert not all(a <= b for a, b in zip(lm, mon))


def test_divmod_zero_divisor(R):
    with pytest.raises(StructuralError):
        poly_divmod(R.one(), [R.zero()])


def test_evaluate(R):
    x, y = R.gens()
    p = x**2 * y - 3 * x
    assert p.evaluate((2, 5)) == Fraction(14)


# ---------------------------------------------------------------- powers


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
def test_pow_matches_repeated_multiplication(field):
    R = PolyRing(field, ("x", "y", "z"))
    rng = random.Random(19)
    polys = [R.zero(), R.one()] + [rand_poly(R, rng, 2, 4) for _ in range(6)]
    for p in polys:
        expected = R.one()
        for n in range(13):
            assert p**n == expected
            expected = expected * p
    assert R.zero() ** 0 == R.one()
    with pytest.raises(StructuralError):
        polys[-1] ** -1


def test_pow_uses_logarithmically_many_products(monkeypatch):
    R = PolyRing(QQ, ("x",))
    (x,) = R.gens()
    calls = []
    mul = Poly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    x**120
    assert len(calls) <= 2 * (120).bit_length()
    assert x ** (10**6) == R.term(1, (10**6,))


# ---------------------------------------------------------------- zero operands


def test_zero_operands_give_the_same_polynomial(R):
    x, y = R.gens()
    p = x**2 - 3 * x * y + R.const(5)
    zero = R.zero()
    assert zero + p == p and p + zero == p
    assert p - zero == p
    assert zero - p == -p
    assert zero * p == zero and p * zero == zero
    assert zero.mul_term(Fraction(2), (1, 1)) == zero
    assert p.mul_term(Fraction(0), (1, 1)) == zero
    assert zero.scale(7) == zero
    assert p.scale(0) == zero
    assert (zero + zero).is_zero() and (zero - zero).is_zero()


def test_zero_operand_keeps_the_checks(R):
    other = PolyRing(QQ, ("x", "z"))
    p = R.gens()[0]
    for a, b in ((R.zero(), other.zero()), (p, other.zero()),
                 (other.zero(), p)):
        for op in (lambda u, v: u + v, lambda u, v: u - v,
                   lambda u, v: u * v):
            with pytest.raises(StructuralError, match="mixed rings"):
                op(a, b)
    with pytest.raises(StructuralError):
        R.zero().scale(1.5)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
def test_sub_matches_adding_the_negation(field):
    R = PolyRing(field, ("x", "y", "z"))
    rng = random.Random(f"sub:{field.name}")
    for _ in range(40):
        p, q = rand_poly(R, rng, 2, 5), rand_poly(R, rng, 2, 5)
        if rng.random() < 0.3:
            q = p + rand_poly(R, rng, 2, 1)  # force cancellation
        assert p - q == p + (-q)
        assert (p - q).terms == (p + (-q)).terms
        assert (p - p).is_zero()
