"""A bespoke exact backend for the Nagata idealization S = k[x] ⋉ E, where
E is the x-divisible torsion module on basis e_0, e_1, ... with
x * e_i = e_{i-1} and x * e_0 = 0.

This ring exhibits what Noetherian fixtures cannot: the annihilator chain
0 :_S (x,0)^t grows forever, the degree-1 Koszul tower of (x,0) is not
pro-zero, and the ideal transform of S is strictly smaller than the
0-cocycles (R versus R_x) — every genuine pole carries a per-stage
obstruction witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, StructuralError
from .rings import QQ, Poly, PolyRing, power


class IdealizationRing:
    """S = R ⋉ E over R = k[x]; the session field k defaults to Q."""

    def __init__(self, field=QQ):
        self.field = field
        self.R = PolyRing(field, ("x",))
        self.x = self.R.gen(0)

    def e(self, i: int, coeff=1) -> "EElement":
        return EElement(self, {i: coeff})

    def e_zero(self) -> "EElement":
        return EElement(self, {})

    def s(self, r: Poly, e: "EElement | None" = None) -> "SElement":
        return SElement(self, r, e if e is not None else self.e_zero())

    def s_from_const(self, c) -> "SElement":
        return SElement(self, self.R.const(c), self.e_zero())

    def x_power(self, n: int) -> "SElement":
        """(x^n, 0), built as the monomial it is."""
        return SElement(self, self.R.term(1, (n,)), self.e_zero())

    def __eq__(self, other):
        return isinstance(other, IdealizationRing) and other.field == self.field

    def __hash__(self):
        return hash(("idealization", self.field))


class EElement:
    """Finite k-linear combination of the basis e_0, e_1, ...  The
    constructor is the one place that coerces coefficients into k and drops
    zeros; the arithmetic only accumulates."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: IdealizationRing, coeffs: dict):
        self.ring = ring
        fld = ring.field
        clean = {}
        for i, c in coeffs.items():
            if i < 0:
                raise StructuralError("negative basis index")
            c = fld.of(c)
            if c != fld.zero:
                clean[i] = c
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        fld = self.ring.field
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = fld.add(out.get(i, fld.zero), c)
        return EElement(self.ring, out)

    def __neg__(self):
        fld = self.ring.field
        return EElement(self.ring, {i: fld.neg(c) for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, coeff) -> "EElement":
        fld = self.ring.field
        coeff = fld.of(coeff)
        return EElement(self.ring, {i: fld.mul(c, coeff) for i, c in self.coeffs.items()})

    def acted(self, r: Poly) -> "EElement":
        """The k[x]-action: x^j shifts indices down by j."""
        if r.ring != self.ring.R:
            raise StructuralError("polynomial from the wrong base ring")
        fld = self.ring.field
        out = {}
        for mon, c in r.terms.items():
            j = mon[0]
            for i, ec in self.coeffs.items():
                if i - j >= 0:
                    out[i - j] = fld.add(out.get(i - j, fld.zero), fld.mul(c, ec))
        return EElement(self.ring, out)

    def __eq__(self, other):
        return isinstance(other, EElement) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{c}*e{i}" if c != self.ring.field.one else f"e{i}"
            for i, c in sorted(self.coeffs.items())
        )


class SElement:
    """(r, e) in S = R ⋉ E with (r,e)(r',e') = (rr', re' + r'e)."""

    __slots__ = ("ring", "r", "e")

    def __init__(self, ring: IdealizationRing, r: Poly, e: EElement):
        if r.ring != ring.R or e.ring != ring:
            raise StructuralError("components from the wrong ring")
        self.ring = ring
        self.r = r
        self.e = e

    def is_zero(self) -> bool:
        return self.r.is_zero() and self.e.is_zero()

    def __add__(self, other):
        return SElement(self.ring, self.r + other.r, self.e + other.e)

    def __neg__(self):
        return SElement(self.ring, -self.r, -self.e)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SElement):
            return NotImplemented
        return s_mul(self, other)

    def __pow__(self, n: int):
        if n < 0:
            raise StructuralError("negative power in S")
        return power(self, n, self.ring.s_from_const(1))

    def __eq__(self, other):
        return (
            isinstance(other, SElement)
            and other.r == self.r
            and other.e == self.e
        )

    def __hash__(self):
        return hash((self.r.key(), self.e))

    def __repr__(self):
        return f"({self.r}, {self.e})"


def s_mul(a: SElement, b: SElement) -> SElement:
    """(r, e) * (r', e') = (rr', re' + r'e); the E-part is square-zero."""
    return SElement(a.ring, a.r * b.r, b.e.acted(a.r) + a.e.acted(b.r))


def s_annihilator(ring: IdealizationRing, t: int):
    """Basis of 0 :_S (x,0)^t, namely (0, e_0), ..., (0, e_{t-1}); its
    k-dimension is t, so the chain never stabilizes."""
    if t < 1:
        raise StructuralError("t must be >= 1")
    return [ring.s(ring.R.zero(), ring.e(i)) for i in range(t)]


@dataclass
class TransitionWitness:
    """A nonzero stage-m annihilator class with nonzero image at stage n,
    certifying that the H_1 tower transition m -> n is not the zero map."""

    m: int
    n: int
    witness: SElement
    image: SElement

    def verify(self) -> bool:
        ring = self.witness.ring
        xm = ring.x_power(self.m)
        xn = ring.x_power(self.n)
        shift = ring.x_power(self.m - self.n)
        return (
            not self.witness.is_zero()
            and (xm * self.witness).is_zero()
            and (shift * self.witness) == self.image
            and not self.image.is_zero()
            and (xn * self.image).is_zero()
        )


def h1_transition_witness(ring: IdealizationRing, m: int, n: int) -> TransitionWitness:
    """H_1 of the one-element Koszul tower on (x,0) is the annihilator
    chain; the transition multiplies by (x,0)^(m-n).  (0, e_{m-1}) maps to
    (0, e_{n-1}) != 0, for every m > n."""
    if not m > n >= 1:
        raise StructuralError("need m > n >= 1")
    witness = ring.s(ring.R.zero(), ring.e(m - 1))
    image = ring.s(ring.R.zero(), ring.e(n - 1))
    tw = TransitionWitness(m=m, n=n, witness=witness, image=image)
    if not tw.verify():
        raise InternalError("transition witness failed verification")
    return tw


def _x_valuation(r: Poly):
    """Largest v with x^v | r; None for the zero polynomial."""
    if r.is_zero():
        return None
    return min(mon[0] for mon in r.terms)


def _x_divide(r: Poly, v: int) -> Poly:
    if v == 0:
        return r
    return r.ring.poly({(mon[0] - v,): c for mon, c in r.terms.items()})


class TransformStage:
    """Hom_S(J^n, S) for J = (x,0)S, identified with x^n R ⋉ E through
    evaluation at the principal generator (x^n, 0).  The colimit transition
    multiplies by (x, 0): every E-part dies in finitely many steps, every
    R-part persists."""

    def __init__(self, ring: IdealizationRing, n: int):
        if n < 1:
            raise StructuralError("stage must be >= 1")
        self.ring = ring
        self.n = n
        self.generator = ring.x_power(n)

    def contains_value(self, s: SElement) -> bool:
        """Membership in x^n R ⋉ E = 0 :_S (0 :_S (x^n, 0))."""
        v = _x_valuation(s.r)
        return v is None or v >= self.n

    def transition(self, s: SElement) -> SElement:
        """The image of a stage-n value at stage n+1."""
        if not self.contains_value(s):
            raise StructuralError("not a valid stage value")
        return self.ring.s(self.ring.x, self.ring.e_zero()) * s

    def colimit_r_class(self, s: SElement) -> Poly:
        """The persistent class a with s = (x^n * a, e)."""
        if not self.contains_value(s):
            raise StructuralError("not a valid stage value")
        if s.r.is_zero():
            return self.ring.R.zero()
        return _x_divide(s.r, self.n)

    def rho_image(self, s: SElement):
        """The 0-cocycle of the value: s / (x,0)^n in S_(x,0) = R_x, as a
        normalized Laurent pair (numerator, denominator exponent)."""
        return normalize_laurent(s.r, self.n)


def ideal_transform_stage(ring: IdealizationRing, n: int) -> TransformStage:
    return TransformStage(ring, n)


def normalize_laurent(g: Poly, q: int):
    """g / x^q in R_x with common x-powers cancelled."""
    if g.is_zero():
        return g, 0
    v = _x_valuation(g)
    drop = min(v, q)
    return _x_divide(g, drop), q - drop


def pole_order(g: Poly, q: int):
    """Order of the pole of g/x^q at x = 0; <= 0 means regular."""
    if g.is_zero():
        return 0
    return q - _x_valuation(g)


@dataclass
class PoleWitness:
    """Per-stage obstruction to a rho-preimage of a target with a pole: any
    stage-n hom value for the target would be (x^(n') * target, e) with
    first component outside x^(n') R; pairing with the annihilator element
    (0, e_{n'-1}) extracts exactly the principal part and is nonzero.

    ``pairing`` is that principal part in closed form (``principal_part``);
    ``verify`` checks that the product equals it."""

    stage: int
    effective_stage: int
    required_value: SElement
    probe: SElement
    pairing: SElement

    def verify(self) -> bool:
        ring = self.probe.ring
        xn = ring.x_power(self.effective_stage)
        return (
            (xn * self.probe).is_zero()
            and (self.probe * self.required_value) == self.pairing
            and not self.pairing.is_zero()
        )


def principal_part(ring: IdealizationRing, g: Poly, q: int) -> SElement:
    """The principal part of g/x^q as an element of S: x^(-j) stands for
    e_(j-1), so g_i x^(i-q) with i < q is g_i e_(q-1-i).  At every stage
    n' >= q, the probe (0, e_(n'-1)) times the required value
    (x^(n'-q) g, 0) is this element."""
    e = EElement(ring, {q - 1 - mon[0]: c for mon, c in g.terms.items()
                        if mon[0] < q})
    return ring.s(ring.R.zero(), e)


def rho_obstruction(ring: IdealizationRing, numerator: Poly, denom_exp: int,
                    cap: int):
    """For a target g/x^q in R_x with a genuine pole, produce a verified
    witness at every stage 1..cap.  Stages below the pole order are handled
    at the effective stage max(n, p): a preimage at stage n would restrict
    to one there, so the obstruction propagates.  The pairing is the
    stage-independent principal part of the target; each witness's
    ``verify`` recomputes it as a product."""
    p = pole_order(numerator, denom_exp)
    if p <= 0:
        raise StructuralError("target has no pole; it lies in the transform")
    g, q = normalize_laurent(numerator, denom_exp)
    pairing = principal_part(ring, g, q)
    witnesses = []
    for n in range(1, cap + 1):
        n_eff = max(n, p)
        required = ring.s(g.mul_term(ring.field.one, (n_eff - q,)), ring.e_zero())
        probe = ring.s(ring.R.zero(), ring.e(n_eff - 1))
        w = PoleWitness(
            stage=n,
            effective_stage=n_eff,
            required_value=required,
            probe=probe,
            pairing=pairing,
        )
        if not w.verify():
            raise InternalError("pole witness failed verification")
        witnesses.append(w)
    return witnesses


def tau_image(ring: IdealizationRing, a: Poly, n: int) -> SElement:
    """The stage-n value of the ideal-transform class of a in R: the hom
    'multiply by (a, 0)' evaluated at (x^n, 0)."""
    return ring.s(a * ring.R.term(1, (n,)), ring.e_zero())
