import random
import time
from fractions import Fraction

import pytest

from deligne_kit.errors import StructuralError
from deligne_kit.rings import (
    GF,
    QQ,
    Poly,
    PolyRing,
    _is_prime,
    monomial_div,
    monomial_divides,
    monomial_key,
    monomial_lcm,
    monomial_mul,
)
from deligne_kit.session import parse_poly

from oracles import (
    fraction_add,
    fraction_mul,
    fraction_mul_term,
    fraction_terms,
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
    assert monomial_key((2, 1), "grevlex") > monomial_key((1, 2), "grevlex")
    assert monomial_key((1, 2), "grevlex") < monomial_key((2, 1), "grevlex")
    assert monomial_key((3, 0), "grevlex") == monomial_key((3, 0), "grevlex")


def test_lex_examples():
    # x vs y^3
    assert monomial_key((1, 0), "lex") > monomial_key((0, 3), "lex")
    assert monomial_key((0, 0), "lex") < monomial_key((0, 1), "lex")


def test_compare_length_mismatch(R):
    # monomials are only compared inside one ring, which refuses exponent
    # vectors of the wrong length
    with pytest.raises(StructuralError):
        R.term(1, (1, 0, 0))
    with pytest.raises(StructuralError):
        R.poly({(1,): 1})


def _cmp(a, b, order):
    ka, kb = monomial_key(a, order), monomial_key(b, order)
    return (ka > kb) - (ka < kb)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_order_total_and_multiplicative(order):
    rng = random.Random(11)
    mons = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(60)]
    for a in mons[:20]:
        for b in mons[20:40]:
            ab = _cmp(a, b, order)
            ba = _cmp(b, a, order)
            assert ab == -ba
            assert (ab == 0) == (a == b)
            for c in mons[40:50]:
                ac = tuple(u + w for u, w in zip(a, c))
                bc = tuple(u + w for u, w in zip(b, c))
                assert _cmp(ac, bc, order) == ab
    # transitivity on sorted triples
    for i in range(0, 57, 3):
        tri = sorted(mons[i : i + 3], key=lambda m: (sum(m), m))
        a, b, c = tri
        if _cmp(a, b, order) <= 0 and _cmp(b, c, order) <= 0:
            assert _cmp(a, c, order) <= 0


@pytest.mark.parametrize("nvars", [1, 4])
def test_monomial_helpers_match_zip_forms(nvars):
    # each helper against the plain zip-generator form of its operation
    rng = random.Random(f"monomials:{nvars}")
    mons = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(25)]
    names = "xyzw"[:nvars]
    lex, grevlex = (PolyRing(QQ, names, order=o) for o in ("lex", "grevlex"))
    refused = 0
    for a in mons:
        assert monomial_key(a, "lex") == lex.mon_key(a) == tuple(a)
        assert monomial_key(a, "grevlex") == grevlex.mon_key(a) == (
            sum(a), tuple(-e for e in reversed(a)))
        for b in mons:
            assert monomial_mul(a, b) == tuple(x + y for x, y in zip(a, b))
            assert monomial_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
            divides = all(x <= y for x, y in zip(b, a))
            assert monomial_divides(b, a) is divides
            if divides:
                assert monomial_div(a, b) == tuple(x - y for x, y in zip(a, b))
            else:
                refused += 1
                with pytest.raises(StructuralError):
                    monomial_div(a, b)
    assert refused > 0


def test_monomial_div_refuses_a_non_divisor():
    assert monomial_div((2, 1), (1, 1)) == (1, 0)
    with pytest.raises(StructuralError):
        monomial_div((1, 0), (0, 1))
    with pytest.raises(StructuralError):
        monomial_div((3,), (4,))
    with pytest.raises(StructuralError):
        monomial_key((1, 0), "revlex")


def test_equal_rings_built_apart_compare_equal():
    a = PolyRing(QQ, ("x", "y"))
    b = PolyRing(QQ, ("x", "y"))
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a == a and hash(a) == hash(a)
    assert a.gen(0) == b.gen(0)
    for other in (PolyRing(QQ, ("x", "y"), order="lex"),
                  PolyRing(QQ, ("y", "x")),
                  PolyRing(QQ, ("x", "y", "z")),
                  PolyRing(GF(5), ("x", "y"))):
        assert a != other and not a == other
        assert a.gen(0) != other.gen(0)
    assert a != "Q[x,y]/grevlex"


# ---------------------------------------------------------------- fields


def test_prime_field_arithmetic():
    F = GF(5)
    assert F.of(7) == 2
    assert F.inv(2) == 3
    assert F.of(Fraction(1, 2)) == 3
    assert F.of(Fraction(5, 3)) == 0
    for bad in (Fraction(1, 5), Fraction(-2, 15)):
        with pytest.raises(StructuralError, match=f"{bad} has no value in F5"):
            F.of(bad)
    with pytest.raises(StructuralError):
        GF(6)


def _prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_prime_test_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _prime_by_trial_division(n)
    ]


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_not_prime(n):
    # 3825123056546413051 is a strong pseudoprime to every base 2..23
    assert not _is_prime(n)
    with pytest.raises(StructuralError, match="not a prime"):
        GF(n)


def test_large_prime_fields_are_decided_quickly():
    start = time.monotonic()
    assert GF(2**61 - 1).characteristic == 2**61 - 1
    assert GF(4611686018427387847).p == (1 << 62) - 57  # largest below 2^62
    with pytest.raises(StructuralError, match="too large"):
        GF(2**89 - 1)  # a prime, refused for its size before any test
    assert time.monotonic() - start < 1


def _canonical(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_rational_lowest_terms():
    # an int when integral, otherwise a Fraction with denominator > 1
    assert QQ.of(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int
    assert type(QQ.of(Fraction(6, 3))) is int and QQ.of(Fraction(6, 3)) == 2
    assert type(QQ.of(True)) is int
    assert QQ.inv(1) is QQ.one and QQ.inv(-1) == -1
    assert QQ.inv(-3) == Fraction(-1, 3)
    assert type(QQ.inv(Fraction(-1, 3))) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.mul(Fraction(2, 3), 3)) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def _random_rational(rng):
    if rng.random() < 0.5:
        return rng.randint(-6, 6)
    # integral now and then too, e.g. 4/2
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _random_terms(rng, nvars, terms=4):
    return {
        tuple(rng.randint(0, 2) for _ in range(nvars)): _random_rational(rng)
        for _ in range(rng.randint(0, terms))
    }


def test_rational_arithmetic_matches_fraction_reference():
    # integral and non-integral coefficients, with cancellation; every
    # result equals the Fraction-only reference and stores canonical values
    R = PolyRing(QQ, ("x", "y", "z"))
    rng = random.Random("q-canonical")
    for _ in range(300):
        ta, tb = _random_terms(rng, 3), _random_terms(rng, 3)
        if rng.random() < 0.3:
            # b shares most of a's terms, so a - b cancels
            tb = dict(ta)
            tb.update(_random_terms(rng, 3, 1))
        a, b = R.poly(ta), R.poly(tb)
        fa, fb = fraction_terms(ta), fraction_terms(tb)
        c = _random_rational(rng)
        mon = tuple(rng.randint(0, 2) for _ in range(3))
        cases = [
            (a, fa),
            (a + b, fraction_add(fa, fb)),
            (a - b, fraction_add(fa, fb, -1)),
            (a * b, fraction_mul(fa, fb)),
            (a.scale(c), fraction_mul_term(fa, c, (0, 0, 0))),
            (a.mul_term(QQ.of(c), mon), fraction_mul_term(fa, c, mon)),
        ]
        for got, want in cases:
            assert got.terms == want
            assert all(_canonical(v) for v in got.terms.values())
        d = _random_rational(rng)
        for x in (c, d):
            x = QQ.of(x)
            assert _canonical(x)
            if x != 0:
                assert QQ.inv(x) == 1 / Fraction(x)
                assert _canonical(QQ.inv(x))
        if d != 0:
            q = QQ.div(QQ.of(c), QQ.of(d))
            assert q == Fraction(c) / Fraction(d) and _canonical(q)


def test_str_signs_of_int_and_fraction_coefficients(R):
    x, y = R.gens()
    p = R.poly({(2, 0): -3, (0, 1): Fraction(1, 2), (0, 0): -5})
    assert str(p) == "-3*x^2 + 1/2*y - 5"
    q = R.poly({(1, 1): Fraction(-2, 3), (1, 0): 1, (0, 0): Fraction(7, 2)})
    assert str(q) == "-2/3*x*y + x + 7/2"
    assert str(-x - y) == "-x - y"
    assert str(PolyRing(GF(5), ("x",)).const(-1)) == "4"


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


@pytest.mark.parametrize("coeff", [
    -(10**4300), 10**4300 + 1, Fraction(1, 10**4300), Fraction(10**4300, 3),
], ids=["int", "int-plus-one", "denominator", "numerator"])
def test_str_refuses_coefficient_over_digit_limit(R, coeff):
    x, _ = R.gens()
    with pytest.raises(StructuralError, match="more than 4300 digits"):
        str(R.const(coeff) * x + x**2)


def test_str_at_digit_limit_parses_back(R):
    x, y = R.gens()
    top = 10**4300 - 1
    p = R.const(top) * x - R.poly({(0, 1): Fraction(1, top)})
    assert parse_poly(R, str(p)) == p


def test_str_sorted_by_order(R):
    x, y = R.gens()
    p = y**2 + x**2 * y + x
    assert str(p) == "x^2*y + y^2 + x"


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


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
def test_scale_by_one_gives_the_same_polynomial(field):
    R = PolyRing(field, ("x", "y"))
    x, y = R.gens()
    p = x**2 - 3 * x * y + R.const(5)
    assert p.scale(1) is p
    assert p.scale(field.one) is p
    assert p.scale(2) is not p and p.scale(2) == 2 * p


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
