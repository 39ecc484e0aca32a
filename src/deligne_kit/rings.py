"""Exact coefficient fields and sparse multivariate polynomial arithmetic.

Coefficients are arbitrary-precision rationals or elements of a prime field
F_p; polynomials are sparse maps from exponent vectors to nonzero
coefficients.  Monomial orders: grevlex (default) and lex.  A vector is a
tuple of polynomials, one per coordinate of R^rank; the vector arithmetic
that the algebra and the replay checks (``check``) share lives here, with
``SequenceSpec``.

A monomial is a plain tuple of exponents.  Each monomial operation has one
definition, which maps an ``operator`` function over the two tuples:
``tuple(map(add, a, b))`` multiplies, ``all(map(le, a, b))`` tests
divisibility, ``tuple(map(sub, a, b))`` divides and ``tuple(map(max, a,
b))`` takes the lcm.  A ring binds its order's sort key once, as
``ring.mon_key``.

A rational is stored in one canonical form: a plain ``int`` when it is
integral, otherwise a ``fractions.Fraction`` in lowest terms with
denominator > 1.  Most coefficients met in practice are integers, and int
arithmetic runs no gcd.  An int and the equal Fraction compare and hash
equal and print the same, so keys, reports and digests do not depend on
the form.  An element of F_p is an int in [0, p).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, mul, neg, sub

from .errors import StructuralError

# The most decimal digits of an integer that a session or a report may
# hold: the parser refuses a longer literal, and a polynomial with a longer
# coefficient (a numerator or denominator over Q) is not printed, so every
# report the run writes is one replay can read.  It is the limit of int()
# and str() on Python 3.11+ (and 3.10.7+); docs/grammar.md and
# docs/report-schema.md state it.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS


# ---------------------------------------------------------------------------
# coefficient fields


def _q(x):
    """The canonical form of a rational x: its numerator when integral."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


class RationalField:
    """The rationals; a value is an int when integral, otherwise a
    `fractions.Fraction` in lowest terms with denominator > 1."""

    name = "Q"
    characteristic = 0
    zero = 0
    one = 1

    def of(self, value):
        if type(value) is int:
            return value
        if isinstance(value, float):
            raise StructuralError(f"inexact coefficient {value!r}")
        return _q(Fraction(value))

    def add(self, a, b):
        return _q(a + b)

    def sub(self, a, b):
        return _q(a - b)

    def mul(self, a, b):
        return _q(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:
            return a
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if type(a) is int:
            return Fraction(1, a)
        return _q(Fraction(a.denominator, a.numerator))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Miller-Rabin to the prime bases 2..37, which is exact for
    p < 3.18 * 10^23, beyond every machine word (Sorenson-Webster 2015)."""
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for a machine-word prime p; values are ints in [0, p)."""

    characteristic: int

    def __init__(self, p: int):
        if isinstance(p, int) and p >= 1 << 62:
            raise StructuralError("prime too large for a machine word")
        if not isinstance(p, int) or not _is_prime(p):
            raise StructuralError(f"{p} is not a prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, value):
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise StructuralError(
                    f"{value} has no value in {self.name}: "
                    f"its denominator is 0 mod {self.p}"
                )
            return self.div(value.numerator % self.p, den)
        if isinstance(value, int):
            return value % self.p
        raise StructuralError(f"cannot coerce {value!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


# ---------------------------------------------------------------------------
# monomials: plain exponent tuples

def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_divides(a, b):
    """True if a | b componentwise."""
    return all(map(le, a, b))


def monomial_div(a, b):
    if not monomial_divides(b, a):
        raise StructuralError(f"{b} does not divide {a}")
    return tuple(map(sub, a, b))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def monomial_degree(a):
    return sum(a)


def _grevlex_key(mon):
    return (sum(mon), tuple(map(neg, reversed(mon))))


# one sort key per order; max() under the key is the leading monomial.  A
# monomial is already a tuple, and lex compares it as one.
_MONOMIAL_KEYS = {"grevlex": _grevlex_key, "lex": tuple}


def monomial_key(mon, order: str):
    """Sort key; max() under this key is the leading monomial."""
    key = _MONOMIAL_KEYS.get(order)
    if key is None:
        raise StructuralError(f"unknown monomial order {order!r}")
    return key(mon)


# ---------------------------------------------------------------------------
# polynomial rings and polynomials


class PolyRing:
    """A polynomial ring over Q or F_p with a fixed monomial order.

    ``memo`` holds the results that depend only on this ring (ideal powers,
    ideal spans, presented ideal powers, transition multipliers), keyed by
    a tag and polynomial keys; results that depend on a module live on the ``FpModule``.  A memo
    is dropped with its owner, so nothing leaks between rings.
    """

    def __init__(self, field, variables, order: str = "grevlex"):
        variables = tuple(variables)
        if not variables:
            raise StructuralError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise StructuralError("variable names must be distinct")
        if order not in _MONOMIAL_KEYS:
            raise StructuralError(f"unknown monomial order {order!r}")
        self.field = field
        self.variables = variables
        self.order = order
        # the order's sort key, bound once: ``ring.mon_key(mon)``
        self.mon_key = _MONOMIAL_KEYS[order]
        self.nvars = len(variables)
        self._zero_mon = (0,) * self.nvars
        self._zero = Poly(self, {})
        self.memo: dict = {}

    def poly(self, terms) -> "Poly":
        """Build a polynomial from {exponent tuple: coefficient}."""
        clean = {}
        for mon, c in terms.items():
            mon = tuple(mon)
            if len(mon) != self.nvars or any(e < 0 for e in mon):
                raise StructuralError(f"bad exponent vector {mon}")
            c = self.field.of(c)
            if c != self.field.zero:
                cur = clean.get(mon)
                if cur is None:
                    clean[mon] = c
                else:
                    s = self.field.add(cur, c)
                    if s == self.field.zero:
                        del clean[mon]
                    else:
                        clean[mon] = s
        return Poly(self, clean)

    def zero(self) -> "Poly":
        """The ring's one zero polynomial, shared: a Poly is immutable."""
        return self._zero

    def one(self) -> "Poly":
        return Poly(self, {self._zero_mon: self.field.one})

    def const(self, c) -> "Poly":
        return self.poly({self._zero_mon: c})

    def gen(self, i: int) -> "Poly":
        mon = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {mon: self.field.one})

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def term(self, coeff, mon) -> "Poly":
        return self.poly({tuple(mon): coeff})

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"{self.field.name}[{','.join(self.variables)}]/{self.order}"


class Poly:
    """Sparse polynomial; treat as immutable.

    Arithmetic may return an operand unchanged rather than a copy: a zero
    operand of +, -, *, a zero polynomial under ``scale``/``mul_term`` or
    ``scale`` by the field's one gives back an existing object.  The
    mixed-ring and coefficient checks still run first.
    """

    __slots__ = ("ring", "terms", "_lead", "_key")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lead = None
        self._key = None

    # -- predicates -----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    # -- leading data ---------------------------------------------------
    def lead_term(self):
        """(monomial, coefficient) of the leading term; None if zero."""
        if self._lead is None and self.terms:
            mon = max(self.terms, key=self.ring.mon_key)
            self._lead = (mon, self.terms[mon])
        return self._lead

    # -- arithmetic -----------------------------------------------------
    def _check(self, other: "Poly"):
        if other.ring is not self.ring and other.ring != self.ring:
            raise StructuralError("mixed rings")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        fld = self.ring.field
        res = dict(self.terms)
        for mon, c in other.terms.items():
            cur = res.get(mon)
            if cur is None:
                res[mon] = c
            else:
                s = fld.add(cur, c)
                if s == fld.zero:
                    del res[mon]
                else:
                    res[mon] = s
        return Poly(self.ring, res)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        fld = self.ring.field
        res = dict(self.terms)
        for mon, c in other.terms.items():
            cur = res.get(mon)
            if cur is None:
                res[mon] = fld.neg(c)
            else:
                s = fld.sub(cur, c)
                if s == fld.zero:
                    del res[mon]
                else:
                    res[mon] = s
        return Poly(self.ring, res)

    def __neg__(self):
        fld = self.ring.field
        return Poly(self.ring, {m: fld.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(self.ring.field.of(other))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        fld = self.ring.field
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                c = fld.mul(c1, c2)
                cur = res.get(m)
                if cur is None:
                    res[m] = c
                else:
                    s = fld.add(cur, c)
                    if s == fld.zero:
                        del res[m]
                    else:
                        res[m] = s
        return Poly(self.ring, res)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(self.ring.field.of(other))
        return NotImplemented

    def __pow__(self, n: int):
        """``self**n`` by square-and-multiply (see ``power``); ``p**0`` is
        the ring's one, for the zero polynomial too."""
        if n < 0:
            raise StructuralError("negative polynomial power")
        return power(self, n, self.ring.one())

    def scale(self, coeff) -> "Poly":
        fld = self.ring.field
        coeff = fld.of(coeff)
        if not self.terms:
            return self
        if coeff == fld.zero:
            return self.ring.zero()
        if coeff == fld.one:
            return self
        return Poly(self.ring, {m: fld.mul(c, coeff) for m, c in self.terms.items()})

    def mul_term(self, coeff, mon) -> "Poly":
        if not self.terms:
            return self
        fld = self.ring.field
        if coeff == fld.zero:
            return self.ring.zero()
        return Poly(
            self.ring,
            {monomial_mul(m, mon): fld.mul(c, coeff) for m, c in self.terms.items()},
        )

    def evaluate(self, point):
        """Evaluate at a tuple of field values, each raised to its exponent
        by ``power`` through the field's product."""
        if len(point) != self.ring.nvars:
            raise StructuralError("wrong number of coordinates")
        fld = self.ring.field
        point = [fld.of(x) for x in point]
        total = fld.zero
        for mon, c in self.terms.items():
            for e, x in zip(mon, point):
                c = fld.mul(c, power(x, e, fld.one, fld.mul))
            total = fld.add(total, c)
        return total

    # -- identity -------------------------------------------------------
    def key(self):
        """Canonical hashable form."""
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(self.key())

    def __bool__(self):
        return bool(self.terms)

    # -- printing -------------------------------------------------------
    def _mon_str(self, mon) -> str:
        parts = []
        for name, e in zip(self.ring.variables, mon):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for mon in sorted(self.terms, key=self.ring.mon_key, reverse=True):
            c = self.terms[mon]
            ms = self._mon_str(mon)
            neg = c < 0
            mag = -c if neg else c
            # an int is its own numerator, over 1
            if mag.numerator >= _DIGIT_BOUND or mag.denominator >= _DIGIT_BOUND:
                raise StructuralError(
                    f"a coefficient has more than {MAX_DIGITS} digits, so "
                    "the polynomial cannot be written for replay"
                )
            if ms:
                body = ms if mag == self.ring.field.one else f"{mag}*{ms}"
            else:
                body = str(mag)
            if not out:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(out)

    def __repr__(self):
        return f"Poly({self})"


def power(base, n: int, one, mul=mul):
    """base**n for n >= 0 in a commutative ring with identity ``one`` and
    product ``mul``, by square-and-multiply (Knuth, TAOCP vol. 2, 4.6.3):
    multiply the result by the base when the low bit of n is set, then
    square the base and shift n right.  That is at most 2*n.bit_length()
    products instead of n."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


# ---------------------------------------------------------------------------
# vectors and sequences

Vector = tuple  # tuple of Poly, one per ambient coordinate


def zero_vector(ring: PolyRing, rank: int) -> Vector:
    return tuple(ring.zero() for _ in range(rank))


def vec_is_zero(v: Vector) -> bool:
    return not any(p.terms for p in v)


def vec_degree(v: Vector) -> int:
    """The largest total degree of an entry of v; -1 for the zero vector."""
    return max((p.total_degree() for p in v), default=-1)


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(q: Poly, v: Vector) -> Vector:
    return tuple(q * a for a in v)


def vec_dot(coeffs, vectors, ring: PolyRing, rank: int) -> Vector:
    """sum(c_i * v_i) in R^rank over zip(coeffs, vectors), accumulated
    into one plain dict per coordinate that some product reaches, in place
    and dropping a coefficient that cancels to zero; each becomes a
    polynomial once, at the end, and every other coordinate is the ring's
    one shared zero.  Every c_i and every entry it multiplies must lie in
    ``ring``."""
    fld = ring.field
    fadd, fmul, fzero = fld.add, fld.mul, fld.zero
    acc = {}  # coordinate -> {monomial: coefficient}
    for c, v in zip(coeffs, vectors):
        if not c.terms:
            continue
        if c.ring is not ring and c.ring != ring:
            raise StructuralError("mixed rings")
        cterms = c.terms.items()
        for i, a in enumerate(v):
            if not a.terms:
                continue
            c._check(a)
            d = acc.get(i)
            if d is None:
                acc[i] = d = {}
            for m1, c1 in cterms:
                for m2, c2 in a.terms.items():
                    m = tuple(map(add, m1, m2))  # monomial_mul, inlined
                    t = fmul(c1, c2)
                    cur = d.get(m)
                    if cur is None:
                        d[m] = t
                    else:
                        t = fadd(cur, t)
                        if t == fzero:
                            del d[m]
                        else:
                            d[m] = t
    out = [ring.zero()] * rank
    for i, d in acc.items():
        if d:
            out[i] = Poly(ring, d)
    return tuple(out)


def unit_vector(ring: PolyRing, rank: int, i: int) -> Vector:
    """e_i in R^rank; the zero vector when i >= rank."""
    zero = ring.zero()
    return tuple(ring.one() if j == i else zero for j in range(rank))


def blockdiag_relations(relation_gens, mrank: int, blocks: int, ring):
    """Relations of M^blocks: one copy of each generator per block, block
    outer, generator inner."""
    rels = []
    for b in range(blocks):
        for nu in relation_gens:
            vec = [ring.zero()] * (mrank * blocks)
            vec[b * mrank : (b + 1) * mrank] = list(nu)
            rels.append(tuple(vec))
    return rels


class SequenceSpec:
    """A sequence x_1, ..., x_k of nonzero ring elements."""

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise StructuralError("empty sequence")
        ring = elements[0].ring
        for x in elements:
            if not isinstance(x, Poly) or x.ring != ring:
                raise StructuralError("sequence entries must share the ring")
            if x.is_zero():
                raise StructuralError("sequence entries must be nonzero")
        self.elements = elements
        self.ring = ring
        self.k = len(elements)

    def powers(self, n: int):
        return tuple(x**n for x in self.elements)

    def pigeonhole_bound(self, e: int) -> int:
        """A d with y^d in (x_1^e, ..., x_k^e) for every y in (x_1, ...,
        x_k): of d = k(e-1)+1 factors x_i, one occurs at least e times."""
        return max(1, self.k * (e - 1) + 1)

    def key(self):
        return tuple(x.key() for x in self.elements)

    def __repr__(self):
        return "(" + ", ".join(str(x) for x in self.elements) + ")"
