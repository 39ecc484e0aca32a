"""Exact coefficient fields and sparse multivariate polynomial arithmetic.

Coefficients are arbitrary-precision rationals or elements of a prime field
F_p; polynomials are sparse maps from exponent vectors to nonzero
coefficients.  Monomial orders: grevlex (default) and lex.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StructuralError


# ---------------------------------------------------------------------------
# coefficient fields


class RationalField:
    """The rationals; values are `fractions.Fraction` in lowest terms."""

    name = "Q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value):
        if isinstance(value, float):
            raise StructuralError(f"inexact coefficient {value!r}")
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(a.denominator, a.numerator)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """F_p for a machine-word prime p; values are ints in [0, p)."""

    characteristic: int

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise StructuralError(f"{p} is not a prime")
        if p >= 1 << 62:
            raise StructuralError("prime too large for a machine word")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, value):
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.p, value.denominator % self.p)
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

MONOMIAL_ORDERS = ("grevlex", "lex")


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    """True if a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    if not monomial_divides(b, a):
        raise StructuralError(f"{b} does not divide {a}")
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_degree(a):
    return sum(a)


def monomial_key(mon, order: str):
    """Sort key; max() under this key is the leading monomial."""
    if order == "grevlex":
        return (sum(mon), tuple(-e for e in reversed(mon)))
    if order == "lex":
        return tuple(mon)
    raise StructuralError(f"unknown monomial order {order!r}")


# ---------------------------------------------------------------------------
# polynomial rings and polynomials


class PolyRing:
    """A polynomial ring over Q or F_p with a fixed monomial order.

    ``memo`` holds the results that depend only on this ring (ideal powers,
    presented ideal powers, power syzygies), keyed by a tag and polynomial
    keys; results that depend on a module live on the ``FpModule``.  A memo
    is dropped with its owner, so nothing leaks between rings.
    """

    def __init__(self, field, variables, order: str = "grevlex"):
        variables = tuple(variables)
        if not variables:
            raise StructuralError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise StructuralError("variable names must be distinct")
        if order not in MONOMIAL_ORDERS:
            raise StructuralError(f"unknown monomial order {order!r}")
        self.field = field
        self.variables = variables
        self.order = order
        self.nvars = len(variables)
        self._zero_mon = (0,) * self.nvars
        self.memo: dict = {}

    def mon_key(self, mon):
        return monomial_key(mon, self.order)

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
        return Poly(self, {})

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
        return (
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
    operand of +, -, * or a zero polynomial under ``scale``/``mul_term``
    gives back an existing object.  The mixed-ring and coefficient checks
    still run first.
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
        """Evaluate at a tuple of field values."""
        if len(point) != self.ring.nvars:
            raise StructuralError("wrong number of coordinates")
        fld = self.ring.field
        total = fld.zero
        for mon, c in self.terms.items():
            v = c
            for e, x in zip(mon, point):
                for _ in range(e):
                    v = fld.mul(v, fld.of(x))
            total = fld.add(total, v)
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
            neg = (isinstance(c, Fraction) and c < 0)
            mag = -c if neg else c
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


def power(base, n: int, one):
    """base**n for n >= 0 in a commutative ring with identity ``one``, by
    square-and-multiply (Knuth, TAOCP vol. 2, 4.6.3): multiply the result
    by the base when the low bit of n is set, then square the base and
    shift n right.  That is at most 2*n.bit_length() products instead of
    n."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result
