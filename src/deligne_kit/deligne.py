"""Localizations and their transition maps, Čech 0-cocycles, ideal-transform
elements, the maps rho/theta/sigma with a constructive sigma-inverse,
elementwise rho-surjectivity with syzygy obstruction witnesses, the
commutative-diagram check, and sheaf-axiom verification over the cover
{D(x_i)}.
"""

from __future__ import annotations

from .check import LocEqualCertificate, ProZeroCertificate, _cross_difference
from .errors import InternalError, StructuralError
from .modules import (
    FpModule,
    ModuleElement,
    SaturationResult,
    extend_vector,
    ideal_as_module,
    ideal_power,
    ideal_span,
    least_power,
    localization_kernel,
    radical_lift,
    saturate,
)
from .rings import Poly, SequenceSpec, vec_is_zero, vec_scale, vec_sub


# ---------------------------------------------------------------------------
# localization fractions


class LocalFraction:
    """num / base^exponent in the localization M_base; equality is the
    localization equivalence, decided by loc_equal."""

    __slots__ = ("module", "numerator", "base", "exponent")

    def __init__(self, numerator: ModuleElement, base: Poly, exponent: int):
        if exponent < 0:
            raise StructuralError("negative localization exponent")
        if base.is_zero():
            raise StructuralError("zero localization base")
        self.module = numerator.module
        self.numerator = numerator
        self.base = base
        self.exponent = exponent

    def __repr__(self):
        return f"[{self.numerator}]/({self.base})^{self.exponent}"


def kill_exponent(M: FpModule, base: Poly, elem: ModuleElement):
    """Minimal c with base^c * elem = 0 in M, or None if no power kills.

    Some power kills m = elem exactly when m lies in
    ``localization_kernel(M, base)``, K = N + (t*base - 1)*R[t]^rank with
    N = rel(M)*R[t] (Rabinowitsch; Greuel-Pfister, *A Singular
    Introduction to Commutative Algebra*, 1.8):
    - if base^c*m is in N, then m = (1 - (t*base)^c)*m + t^c*base^c*m lies
      in K, since t*base - 1 divides 1 - (t*base)^c;
    - if m = n + (t*base - 1)*v with n in N, substitute t = 1/base and
      clear denominators: base^c*m lies in rel(M) for c the t-degree of n.
    One Gröbner basis per module and base decides it; the powers are then
    multiplied out to find the least c."""
    if elem.is_zero():
        return 0
    kernel = localization_kernel(M, base)
    if not kernel.contains(extend_vector(elem.vec, kernel.ring)):
        return None
    c = 0
    cur = elem
    while not cur.is_zero():
        cur = base * cur
        c += 1
    return c


def loc_equal(f: LocalFraction, g: LocalFraction):
    """Equality in M_base: the certificate of the least base power that
    kills the cross difference, or None when no power does."""
    if f.module != g.module:
        raise StructuralError("fractions over different modules")
    if f.base != g.base:
        raise StructuralError("fractions over different bases; use alpha_map")
    M = f.module
    base = f.base

    def cross(c):
        return _cross_difference(base, f.numerator.vec, f.exponent,
                                 g.numerator.vec, g.exponent, c)

    c = kill_exponent(M, base, M.element(cross(0)))
    if c is None:
        return None
    rem, lift = M.relations.normal_form_lift(cross(c))
    if not vec_is_zero(rem):
        raise InternalError("kill exponent certificate failed")
    return LocEqualCertificate(c=c, lift=tuple(lift))


def alpha_map(f: LocalFraction, x: Poly, witness) -> LocalFraction:
    """Transition M_y -> M_x for x in Rad(yR): with x^k = y*r,
    m/y^a maps to r^a*m / x^(k*a)."""
    k_exp, r = witness
    if k_exp < 1:
        raise StructuralError("witness exponent must be >= 1")
    if not (x**k_exp - f.base * r).is_zero():
        raise StructuralError("witness identity x^k = y*r fails")
    num = (r**f.exponent) * f.numerator
    return LocalFraction(num, x, k_exp * f.exponent)


def find_radical_witness(x: Poly, y: Poly, cap: int = 16):
    """Search k <= cap with x^k in (y); returns (k, r) with x^k = y*r."""
    k, lift = least_power(x, ideal_span(x.ring, [y]), cap,
                          f"no witness x^k = y*r with k <= {cap}")
    return k, lift[0]


# ---------------------------------------------------------------------------
# Čech 0-cocycles


class IncompatibleWitness(StructuralError):
    """Components i and j of exponent n whose cross difference witness =
    x_j^n m_i - x_i^n m_j lies outside ``localization_kernel(M, x_i x_j)``,
    so no power of x_i x_j kills it."""

    def __init__(self, i: int, j: int, exponent: int,
                 witness: ModuleElement):
        super().__init__(f"components {i} and {j} are not compatible")
        self.i = i
        self.j = j
        self.exponent = exponent
        self.witness = witness


class CechCocycle:
    """(m_i / x_i^n)_i with pairwise compatibility in M_{x_i x_j},
    verified at construction; an incompatible pair raises
    IncompatibleWitness."""

    def __init__(self, cover: SequenceSpec, exponent: int, components):
        components = tuple(components)
        if len(components) != cover.k:
            raise StructuralError("one component per cover element required")
        if exponent < 0:
            raise StructuralError("negative cocycle exponent")
        M = components[0].module
        for m in components:
            if m.module != M:
                raise StructuralError("components of different modules")
        self.cover = cover
        self.exponent = exponent
        self.components = components
        self.module = M
        xs = cover.elements
        kills = {}
        for i in range(cover.k):
            for j in range(i + 1, cover.k):
                w = M.combine([xs[j] ** exponent, -(xs[i] ** exponent)],
                              [components[i], components[j]])
                c = kill_exponent(M, xs[i] * xs[j], w)
                if c is None:
                    raise IncompatibleWitness(i, j, exponent, w)
                kills[(i, j)] = c
        self.pair_kills = kills

    @classmethod
    def from_global(cls, cover: SequenceSpec, m: ModuleElement,
                    exponent: int = 0) -> "CechCocycle":
        comps = [((x**exponent) * m) for x in cover.elements]
        return cls(cover, exponent, comps)

    def compat_exponent(self) -> int:
        """Smallest c with (x_i x_j)^c (x_j^n m_i - x_i^n m_j) = 0, all pairs."""
        return max(self.pair_kills.values(), default=0)

    def primed_components(self, c: int):
        """m'_l = x_l^c * m_l; with c >= compat_exponent() these satisfy
        x_j^(c+n) m'_i = x_i^(c+n) m'_j exactly."""
        return [
            (x**c) * m for x, m in zip(self.cover.elements, self.components)
        ]

    def component_fraction(self, i: int) -> LocalFraction:
        return LocalFraction(
            self.components[i], self.cover.elements[i], self.exponent
        )

    def is_zero(self) -> bool:
        """m_i / x_i^n = 0 in M_(x_i) exactly when a power of x_i kills
        m_i."""
        return all(
            kill_exponent(self.module, x, m) is not None
            for x, m in zip(self.cover.elements, self.components)
        )

    def equals(self, other: "CechCocycle") -> bool:
        if other.cover.key() != self.cover.key() or other.module != self.module:
            return False
        return all(
            loc_equal(self.component_fraction(i), other.component_fraction(i))
            is not None
            for i in range(self.cover.k)
        )


# ---------------------------------------------------------------------------
# ideal transform elements


class IdealTransformElement:
    """A stage-n class of the ideal transform: values on the generators of
    J^n, verified against the generator syzygies (the hom certificate)."""

    def __init__(self, xs: SequenceSpec, stage: int, values, module: FpModule):
        if stage < 1:
            raise StructuralError("stage must be >= 1")
        self.xs = xs
        self.stage = stage
        self.module = module
        pres, gens = ideal_as_module(xs.elements, stage)
        values = tuple(values)
        if len(values) != len(gens):
            raise StructuralError("one value per power generator required")
        for v in values:
            if v.module != module:
                raise StructuralError("values must lie in the module")
        for s in pres.relations.gens:
            if not module.combine(s, values).is_zero():
                raise StructuralError(
                    "values violate a power-generator syzygy"
                )
        self.values = values
        self._gen_span = ideal_span(xs.ring, gens)

    @classmethod
    def tau(cls, xs: SequenceSpec, m: ModuleElement,
            stage: int = 1) -> "IdealTransformElement":
        """The natural map M -> ideal transform: multiplication by m."""
        gens = ideal_power(xs.elements, stage)
        return cls(xs, stage, [g * m for g in gens], m.module)

    def evaluate(self, a: Poly) -> ModuleElement:
        """Value on a, which must lie in J^stage."""
        rem, lift = self._gen_span.normal_form_lift((a,))
        if not vec_is_zero(rem):
            raise StructuralError("argument is not in the ideal power")
        return self.module.combine(lift, self.values)

    def restrict(self, stage: int) -> "IdealTransformElement":
        """Representative at a deeper stage (the colimit transition)."""
        if stage < self.stage:
            raise StructuralError("can only restrict to a deeper stage")
        gens = ideal_power(self.xs.elements, stage)
        return IdealTransformElement(
            self.xs, stage, [self.evaluate(g) for g in gens], self.module
        )


def rho_eval(phi: IdealTransformElement) -> CechCocycle:
    """phi maps to (phi(x_i^n) / x_i^n)_i; compatibility is re-verified by
    the cocycle constructor."""
    n = phi.stage
    comps = [
        phi.evaluate(x**n) for x in phi.xs.elements
    ]
    return CechCocycle(phi.xs, n, comps)


def theta_probe(phi: IdealTransformElement, y: Poly) -> LocalFraction:
    """The probe of theta(phi) at y in J: phi(y^n) / y^n."""
    n = phi.stage
    return LocalFraction(phi.evaluate(y**n), y, n)


def sigma_inverse(c: CechCocycle, y: Poly) -> LocalFraction:
    """The constructive inverse of sigma: from the pairwise compatibility
    write m'_l = x_l^cc * m_l, pick y^d = sum(r_i x_i^(cc+n)), and return
    (sum r_j m'_j) / y^d.  For y = x_i the result equals m_i / x_i^n."""
    cc = c.compat_exponent()
    n = c.exponent
    primed = c.primed_components(cc)
    d, r = radical_lift(y, c.cover.elements, cc + n)
    return LocalFraction(c.module.combine(r, primed), y, d)


# ---------------------------------------------------------------------------
# elementwise rho surjectivity


class RhoObstruction:
    """A syzygy of (x_1^e, ..., x_k^e) whose pairing with the primed
    components survives every escalation up to the cap."""

    __slots__ = ("witness_syzygy", "stage_exponent", "residual")

    def __init__(self, witness_syzygy: tuple, stage_exponent: int,
                 residual: ModuleElement):
        self.witness_syzygy = witness_syzygy
        self.stage_exponent = stage_exponent
        self.residual = residual


def _power_syzygies(xs: SequenceSpec, e: int):
    return ideal_span(xs.ring, xs.powers(e)).syzygies().gens


def rho_preimage(c: CechCocycle, escalation_cap: int,
                 prozero: ProZeroCertificate | None = None):
    """A stage-N hom with rho image c, or a RhoObstruction.

    The candidate on (x_1^e, ..., x_k^e), e = compat + n, sends
    sum(r_i x_i^e) to sum(r_i m'_i); it is well defined iff every syzygy of
    the power generators kills (m'_i).  Koszul syzygies pass by the
    compatibility identities; residual failures are escalated, preferring
    the witness stage of a degree-1 pro-zero certificate when one applies.
    """
    n = c.exponent
    xs = c.cover
    M = c.module
    base_e = c.compat_exponent() + n

    def attempt(e):
        primed = c.primed_components(e - n)
        for s in _power_syzygies(xs, e):
            acc = M.combine(s, primed)
            if not acc.is_zero():
                return None, (tuple(s), acc)
        return primed, None

    def build(e, primed):
        N = xs.pigeonhole_bound(e)
        gens = ideal_power(xs.elements, N)
        span = ideal_span(xs.ring, xs.powers(e))
        values = []
        for g in gens:
            rem, lift = span.normal_form_lift((g,))
            if not vec_is_zero(rem):
                raise InternalError("pigeonhole containment failed")
            values.append(M.combine(lift, primed))
        return IdealTransformElement(xs, N, values, M)

    if escalation_cap < base_e:
        raise StructuralError("escalation cap below the base exponent")

    primed, failure = attempt(base_e)
    if primed is not None:
        return build(base_e, primed)

    if (
        prozero is not None
        and prozero.i == 1
        and prozero.base_n >= base_e
        and prozero.witness_m <= escalation_cap
    ):
        e = prozero.witness_m
        primed, failure = attempt(e)
        if primed is None:
            raise StructuralError(
                "escalation within a pro-zero certificate must succeed"
            )
        return build(e, primed)

    last_failure = failure
    for e in range(base_e + 1, escalation_cap + 1):
        primed, failure = attempt(e)
        if primed is not None:
            return build(e, primed)
        last_failure = failure
    syz, residual = last_failure
    return RhoObstruction(
        witness_syzygy=syz, stage_exponent=escalation_cap, residual=residual
    )


# ---------------------------------------------------------------------------
# torsion, the commutative diagram, sheaf axioms


def gamma_torsion(M: FpModule, xs: SequenceSpec) -> SaturationResult:
    """The J-power torsion submodule, J generated by the sequence."""
    return saturate(M, list(xs.elements))


def diagram_check(m: ModuleElement, xs: SequenceSpec) -> bool:
    """Elementwise commutativity and exactness: the natural map to the
    0-cocycles agrees with rho o tau, and kernel membership there matches
    J-power torsion membership, over the cover {D(x_i)} of the sequence."""
    natural = CechCocycle.from_global(xs, m, exponent=0)
    through = rho_eval(IdealTransformElement.tau(xs, m))
    if not natural.equals(through):
        return False
    in_torsion = gamma_torsion(m.module, xs).contains(m)
    return in_torsion == natural.is_zero()


class Glued:
    """A glued section m / y, y = sum(x_i^e), with the primed components
    m'_i and per-chart restriction identities x_i^e * m = y * m'_i, exact
    in the module.  The numerator m is the plain sum of the m'_i: no term
    of a normal form is divisible by a basis lead, so neither is any term
    of their sum, and reducing it changes nothing.  So a record leaves m
    out and replay forms the sum."""

    __slots__ = ("y", "numerator", "e", "primed", "cocycle",
                 "restriction_lifts")

    def __init__(self, y: Poly, numerator: ModuleElement, e: int, primed,
                 cocycle: CechCocycle, restriction_lifts: tuple):
        self.y = y
        self.numerator = numerator
        self.e = e
        self.primed = tuple(primed)
        self.cocycle = cocycle
        self.restriction_lifts = restriction_lifts

    def fraction(self) -> LocalFraction:
        return LocalFraction(self.numerator, self.y, 1)


def sheaf_check(sections, cover):
    """Verify the sheaf axioms on one compatible family: glue it and verify
    every restriction; incompatible input yields the first violating pair
    with its cross difference, which no power of x_i x_j kills."""
    sections = list(sections)
    if len(sections) != cover.k:
        raise StructuralError("one section per cover element required")
    M = sections[0].module
    xs = cover.elements
    for s, x in zip(sections, xs):
        if s.module != M:
            raise StructuralError("sections over different modules")
        if s.base != x:
            raise StructuralError("section base does not match its chart")

    n = max(s.exponent for s in sections)
    comps = [
        (x ** (n - s.exponent)) * s.numerator for s, x in zip(sections, xs)
    ]
    try:
        cocycle = CechCocycle(cover, n, comps)
    except IncompatibleWitness as bad:
        return bad
    # keep the glue denominator inside the ideal: e >= 1 even for n = 0
    e = max(1, cocycle.compat_exponent() + n)
    primed = cocycle.primed_components(e - n)

    y = cover.ring.zero()
    for x in xs:
        y = y + x**e
    glued = M.combine([cover.ring.one()] * len(primed), primed)

    lifts = []
    for i in range(cover.k):
        # the remainder decides the identity x_i^e * m = y * m'_i in M
        raw = vec_sub(
            vec_scale(xs[i] ** e, glued.vec), vec_scale(y, primed[i].vec)
        )
        rem, lift = M.relations.normal_form_lift(raw)
        if not vec_is_zero(rem):
            raise InternalError("restriction lift failed")
        lifts.append(tuple(lift))

    return Glued(y=y, numerator=glued, e=e, primed=primed, cocycle=cocycle,
                 restriction_lifts=tuple(lifts))
