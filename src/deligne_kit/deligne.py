"""Localizations and their transition maps, Čech 0-cocycles, ideal-transform
elements, the maps rho/theta/sigma with a constructive sigma-inverse,
elementwise rho-surjectivity with syzygy obstruction witnesses, the
commutative-diagram check, and sheaf-axiom verification over the cover
{D(x_i)}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, StructuralError
from .groebner import FreeSubmodule, vec_is_zero, vec_scale, vec_sub
from .koszul import ProZeroCertificate, SequenceSpec
from .modules import (
    FpModule,
    ModuleElement,
    SaturationResult,
    ideal_as_module,
    ideal_power,
    radical_lift,
    saturate,
)
from .rings import Poly


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


def base_torsion(M: FpModule, base: Poly) -> SaturationResult:
    """0 :_M base^infinity, memoised on the module."""
    key = ("torsion", base.key())
    if key not in M.memo:
        M.memo[key] = saturate(M, [base])
    return M.memo[key]


def kill_exponent(M: FpModule, base: Poly, elem: ModuleElement):
    """Minimal c with base^c * elem = 0 in M, or None if no power kills."""
    if elem.is_zero():
        return 0
    if not base_torsion(M, base).contains(elem):
        return None
    c = 0
    cur = elem
    while not cur.is_zero():
        cur = base * cur
        c += 1
    return c


@dataclass
class LocEqualCertificate:
    """Exact witness that base^(c+b) * m - base^(c+a) * m' lies in the span
    of the relation generators: the raw ambient vector equals
    sum(lift_i * relation_i), replayable by pure polynomial arithmetic."""

    c: int
    lift: tuple


def loc_equal(f: LocalFraction, g: LocalFraction, certificate: bool = False):
    """Equality in M_base: some base power kills the cross difference."""
    if f.module != g.module:
        raise StructuralError("fractions over different modules")
    if f.base != g.base:
        raise StructuralError("fractions over different bases; use alpha_map")
    M = f.module
    base = f.base
    w = (base**g.exponent) * f.numerator - (base**f.exponent) * g.numerator
    c = kill_exponent(M, base, w)
    if not certificate:
        return c is not None
    if c is None:
        return False, None
    raw = vec_sub(
        vec_scale(base ** (c + g.exponent), f.numerator.vec),
        vec_scale(base ** (c + f.exponent), g.numerator.vec),
    )
    rem, lift = M.relations.normal_form_lift(raw)
    if not vec_is_zero(rem):
        raise InternalError("kill exponent certificate failed")
    return True, LocEqualCertificate(c=c, lift=tuple(lift))


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
    ring = x.ring
    sub = FreeSubmodule(ring, 1, [(y,)])
    power = ring.one()
    for k in range(1, cap + 1):
        power = power * x
        rem, lift = sub.normal_form_lift((power,))
        if vec_is_zero(rem):
            return k, lift[0]
    raise StructuralError(f"no witness x^k = y*r with k <= {cap}")


# ---------------------------------------------------------------------------
# Čech 0-cocycles


class IncompatibleComponents(StructuralError):
    """Components i and j whose cross difference w = x_j^n m_i - x_i^n m_j
    no power of x_i x_j kills."""

    def __init__(self, i: int, j: int, w: ModuleElement):
        super().__init__(f"components {i} and {j} are not compatible")
        self.i = i
        self.j = j
        self.w = w


class CechCocycle:
    """(m_i / x_i^n)_i with pairwise compatibility in M_{x_i x_j},
    verified at construction; an incompatible pair raises
    IncompatibleComponents."""

    def __init__(self, cover: SequenceSpec, exponent: int, components, module=None):
        components = tuple(components)
        if len(components) != cover.k:
            raise StructuralError("one component per cover element required")
        if exponent < 0:
            raise StructuralError("negative cocycle exponent")
        M = module if module is not None else components[0].module
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
                w = (xs[j] ** exponent) * components[i] - (
                    xs[i] ** exponent
                ) * components[j]
                c = kill_exponent(M, xs[i] * xs[j], w)
                if c is None:
                    raise IncompatibleComponents(i, j, w)
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
        zero = self.module.zero()
        return all(
            loc_equal(
                self.component_fraction(i),
                LocalFraction(zero, self.cover.elements[i], 0),
            )
            for i in range(self.cover.k)
        )

    def equals(self, other: "CechCocycle") -> bool:
        if other.cover.key() != self.cover.key() or other.module != self.module:
            return False
        return all(
            loc_equal(self.component_fraction(i), other.component_fraction(i))
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
        self.power_gens = gens
        for s in pres.relations.gens:
            acc = module.zero()
            for coeff, v in zip(s, values):
                acc = acc + coeff * v
            if not acc.is_zero():
                raise StructuralError(
                    "values violate a power-generator syzygy"
                )
        self.values = values
        ring = xs.ring
        self._gen_span = FreeSubmodule(ring, 1, [(g,) for g in gens])

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
        acc = self.module.zero()
        for c, v in zip(lift, self.values):
            acc = acc + c * v
        return acc

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
    return CechCocycle(phi.xs, n, comps, module=phi.module)


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
    acc = c.module.zero()
    for coeff, mp in zip(r, primed):
        acc = acc + coeff * mp
    return LocalFraction(acc, y, d)


# ---------------------------------------------------------------------------
# elementwise rho surjectivity


@dataclass
class RhoObstruction:
    """A syzygy of (x_1^e, ..., x_k^e) whose pairing with the primed
    components survives every escalation up to the cap."""

    witness_syzygy: tuple
    stage_exponent: int
    residual: ModuleElement


def _power_syzygies(xs: SequenceSpec, e: int):
    key = ("power_syzygies", xs.key(), e)
    memo = xs.ring.memo
    if key not in memo:
        sub = FreeSubmodule(xs.ring, 1, [(x**e,) for x in xs.elements])
        memo[key] = sub.syzygies().gens
    return memo[key]


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
        primed = [
            (x ** (e - n)) * m for x, m in zip(xs.elements, c.components)
        ]
        for s in _power_syzygies(xs, e):
            acc = M.zero()
            for coeff, mp in zip(s, primed):
                acc = acc + coeff * mp
            if not acc.is_zero():
                return None, (tuple(s), acc)
        return primed, None

    def build(e, primed):
        N = max(1, xs.k * (e - 1) + 1)
        gens = ideal_power(xs.elements, N)
        span = FreeSubmodule(xs.ring, 1, [(x**e,) for x in xs.elements])
        values = []
        for g in gens:
            rem, lift = span.normal_form_lift((g,))
            if not vec_is_zero(rem):
                raise InternalError("pigeonhole containment failed")
            acc = M.zero()
            for coeff, mp in zip(lift, primed):
                acc = acc + coeff * mp
            values.append(acc)
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


@dataclass
class Glued:
    """A glued section m / y (denominator exponent 1) with per-chart
    restriction identities x_i^e * m = y * m'_i, exact in the module."""

    y: Poly
    numerator: ModuleElement
    exponent: int
    compat: int
    cocycle: CechCocycle
    restriction_lifts: tuple

    def fraction(self) -> LocalFraction:
        return LocalFraction(self.numerator, self.y, self.exponent)


@dataclass
class IncompatibleWitness:
    """A violated pair: (x_i x_j)^t_star (x_j^n m_i - x_i^n m_j) != 0, so no
    power of x_i x_j ever kills the cross difference."""

    i: int
    j: int
    exponent: int
    t_star: int
    witness: ModuleElement


def sheaf_check(sections, cover):
    """Verify the sheaf axioms on one compatible family: glue it and verify
    every restriction; incompatible input yields the violating pair with a
    surviving witness."""
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
        cocycle = CechCocycle(cover, n, comps, module=M)
    except IncompatibleComponents as bad:
        xij = xs[bad.i] * xs[bad.j]
        t_star = base_torsion(M, xij).t_star
        return IncompatibleWitness(
            i=bad.i, j=bad.j, exponent=n, t_star=t_star,
            witness=(xij**t_star) * bad.w,
        )
    cc = cocycle.compat_exponent()
    # keep the glue denominator inside the ideal: e >= 1 even for n = 0
    e = max(1, cc + n)
    cc = e - n
    primed = cocycle.primed_components(cc)

    y = cover.ring.zero()
    for x in xs:
        y = y + x**e
    glued = M.zero()
    for mp in primed:
        glued = glued + mp

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

    return Glued(
        y=y,
        numerator=glued,
        exponent=1,
        compat=cc,
        cocycle=cocycle,
        restriction_lifts=tuple(lifts),
    )
