"""Finitely presented modules, homomorphisms with well-definedness
certificates, kernels, Hom modules, saturation, localization kernels,
ideal powers and radical-membership lifts."""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement

from .errors import InternalError, StructuralError
from .groebner import FreeSubmodule, kernel_mod, vec_add, vec_key
from .rings import (
    Poly,
    PolyRing,
    SequenceSpec,
    Vector,
    blockdiag_relations,
    unit_vector,
    vec_dot,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vector,
)


class FpModule:
    """R^rank modulo the span of relation vectors.  Elements are stored in
    canonical normal form, so equality is syntactic.

    ``memo`` holds the results that depend on this module (localization
    kernels, Koszul chain modules, stages and homology), keyed by a tag
    and the other inputs; results that depend only on the ring live on the
    ``PolyRing``.
    """

    def __init__(self, ring: PolyRing, rank: int, relations=None):
        if rank < 0:
            raise StructuralError("negative ambient rank")
        self.ring = ring
        self.rank = rank
        if relations is None:
            relations = []
        self.relations = FreeSubmodule(ring, rank, relations)
        self.memo: dict = {}
        self._key = None

    @classmethod
    def free(cls, ring: PolyRing, rank: int) -> "FpModule":
        return cls(ring, rank, [])

    @classmethod
    def quotient_ring(cls, ring: PolyRing, polys) -> "FpModule":
        """R/(f_1, ..., f_s) as a cyclic module."""
        return cls(ring, 1, [(p,) for p in polys])

    def reduce(self, vec) -> Vector:
        vec = tuple(vec)
        if len(vec) != self.rank:
            raise StructuralError("vector has wrong length")
        return self.relations.normal_form(vec)

    def element(self, vec) -> "ModuleElement":
        return ModuleElement(self, self.reduce(vec))

    def zero(self) -> "ModuleElement":
        return ModuleElement(self, zero_vector(self.ring, self.rank))

    def combine(self, coeffs, elements) -> "ModuleElement":
        """sum(c_i * e_i) for polynomial coefficients, reduced once."""
        for e in elements:
            if e.module is not self and e.module != self:
                raise StructuralError("elements of different modules")
        vecs = [e.vec for e in elements]
        return self.element(vec_dot(coeffs, vecs, self.ring, self.rank))

    def basis_elements(self):
        return [
            self.element(unit_vector(self.ring, self.rank, i))
            for i in range(self.rank)
        ]

    def key(self):
        if self._key is None:
            self._key = (self.ring.field.name, self.rank, self.relations.key())
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, FpModule)
            and other.ring == self.ring
            and other.rank == self.rank
            and other.relations.span_equals(self.relations)
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"FpModule(rank={self.rank}, relations={len(self.relations.gens)})"


class ModuleElement:
    """An element of an FpModule, stored in normal form."""

    __slots__ = ("module", "vec")

    def __init__(self, module: FpModule, vec: Vector):
        self.module = module
        self.vec = tuple(vec)

    def is_zero(self) -> bool:
        return vec_is_zero(self.vec)

    def _check(self, other):
        if other.module is not self.module and other.module != self.module:
            raise StructuralError("elements of different modules")

    def __add__(self, other):
        self._check(other)
        return self.module.element(vec_add(self.vec, other.vec))

    def __sub__(self, other):
        self._check(other)
        return self.module.element(vec_sub(self.vec, other.vec))

    def __neg__(self):
        return self.module.element(tuple(-p for p in self.vec))

    def scaled(self, poly: Poly) -> "ModuleElement":
        return self.module.element(vec_scale(poly, self.vec))

    def __rmul__(self, other):
        if isinstance(other, Poly):
            return self.scaled(other)
        if isinstance(other, int):
            return self.module.element(tuple(p * other for p in self.vec))
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and other.module == self.module
            and vec_key(other.vec) == vec_key(self.vec)
        )

    def __hash__(self):
        return hash(vec_key(self.vec))

    def __repr__(self):
        return "(" + ", ".join(str(p) for p in self.vec) + ")"


class ModuleHom:
    """A homomorphism between presented modules, given on ambient basis
    vectors by columns.  Construction checks that every source relation
    maps into the target relations.  Without ``relation_lifts`` that is a
    membership test against the Gröbner basis of the target relations, and
    a failure is bad input (StructuralError).  ``relation_lifts``, one per
    source relation, are the caller's claim of coefficients on the target
    relation generators: each image must equal its lift's combination of
    them as an exact polynomial identity, no basis is built, and a failure
    is a broken invariant of the caller (InternalError).  It keeps no lift;
    nothing is built on first use."""

    def __init__(self, source: FpModule, target: FpModule, columns,
                 relation_lifts=None):
        columns = [tuple(c) for c in columns]
        if len(columns) != source.rank:
            raise StructuralError("one column per source coordinate required")
        for c in columns:
            if len(c) != target.rank:
                raise StructuralError("column has wrong target length")
        self.source = source
        self.target = target
        self.columns = tuple(columns)
        rels = source.relations.gens
        if relation_lifts is None:
            for rel in rels:
                if not target.relations.contains(self.apply_raw(rel)):
                    raise StructuralError(
                        "relation does not map into target relations"
                    )
            return
        if len(relation_lifts) != len(rels):
            raise InternalError("one relation lift per source relation required")
        targets = target.relations.gens
        for r, (rel, lift) in enumerate(zip(rels, relation_lifts)):
            combo = vec_dot(lift, targets, target.ring, target.rank)
            if self.apply_raw(rel) != combo:
                raise InternalError(f"relation {r} does not map to its lift")

    def apply_raw(self, vec) -> Vector:
        return vec_dot(tuple(vec), self.columns, self.target.ring, self.target.rank)

    def apply(self, elem) -> ModuleElement:
        vec = elem.vec if isinstance(elem, ModuleElement) else tuple(elem)
        return self.target.element(self.apply_raw(vec))

    def is_zero(self) -> bool:
        return all(vec_is_zero(self.target.reduce(c)) for c in self.columns)

    def equals(self, other: "ModuleHom") -> bool:
        if other.source != self.source or other.target != self.target:
            return False
        return all(
            vec_is_zero(self.target.reduce(vec_sub(a, b)))
            for a, b in zip(self.columns, other.columns)
        )


def module_kernel(h: ModuleHom):
    """Generators of ker(h): ambient vectors of h's source."""
    ring = h.source.ring
    return kernel_mod(
        list(h.columns), list(h.target.relations.gens), ring, h.target.rank
    )


# ---------------------------------------------------------------------------
# Hom modules


class HomModule:
    """Hom_R(A, B) given by generator matrices, with a bilinear evaluator.
    A generator matrix is stored as a tuple of columns, one per ambient
    coordinate of A, each a vector in B's ambient.  The presentation
    ``module`` is built on first use."""

    def __init__(self, A: FpModule, B: FpModule, generators):
        self.A = A
        self.B = B
        self.generators = tuple(tuple(tuple(c) for c in g) for g in generators)

    @cached_property
    def module(self) -> FpModule:
        """The generators modulo the matrices with every column in B's
        relations."""
        ring, rA, rB = self.A.ring, self.A.rank, self.B.rank
        flat = [tuple(p for c in g for p in c) for g in self.generators]
        d_gens = blockdiag_relations(self.B.relations.gens, rB, rA, ring)
        return FpModule(ring, len(flat), kernel_mod(flat, d_gens, ring, rA * rB))

    def matrix_of(self, h) -> tuple:
        """The matrix (tuple of columns) represented by h."""
        coeffs = h.vec if isinstance(h, ModuleElement) else tuple(h)
        if len(coeffs) != len(self.generators):
            raise StructuralError("wrong number of hom coordinates")
        return tuple(
            vec_dot(coeffs, [g[j] for g in self.generators], self.B.ring,
                    self.B.rank)
            for j in range(self.A.rank)
        )

    def evaluate(self, h, a) -> ModuleElement:
        """Apply the hom h to the A-element a."""
        avec = a.vec if isinstance(a, ModuleElement) else tuple(a)
        if len(avec) != self.A.rank:
            raise StructuralError("element has wrong length for A")
        cols = self.matrix_of(h)
        return self.B.element(vec_dot(avec, cols, self.B.ring, self.B.rank))


def hom_module(A: FpModule, B: FpModule) -> HomModule:
    """Hom_R(A, B): the matrices sending A's relations into B's relations.
    This is the one construction of Hom condition vectors; the colon
    0 :_M I is Hom_R(R/I, M)."""
    ring = A.ring
    rB, rA = B.rank, A.rank
    a_rels = list(A.relations.gens)
    s = len(a_rels)

    # conditions: for each flat matrix unit E_(i,j), its action rel[j]*e_i
    # on every A-relation, stacked over the relation index
    cond_vectors = [
        tuple(p for rel in a_rels
              for p in vec_scale(rel[j], unit_vector(ring, rB, i)))
        for j in range(rA)
        for i in range(rB)
    ]
    cond_relations = blockdiag_relations(B.relations.gens, rB, s, ring)
    # with no A-relations the condition vectors have rank 0, and the kernel
    # is every flat matrix unit
    l_gens = kernel_mod(cond_vectors, cond_relations, ring, rB * s)
    generators = [
        tuple(tuple(g[j * rB : (j + 1) * rB]) for j in range(rA)) for g in l_gens
    ]
    return HomModule(A, B, generators)


# ---------------------------------------------------------------------------
# ideal powers, colon chains, saturation, radical lifts


def ideal_power(xs, n: int):
    """Generators of (x_1, ..., x_k)^n: all degree-n products, deduplicated.
    n = 0 yields the unit ideal."""
    xs = tuple(xs)
    if not xs:
        raise StructuralError("empty generating set")
    ring = xs[0].ring
    if n < 0:
        raise StructuralError("negative ideal power")
    if n == 0:
        return [ring.one()]
    key = ("ideal_power", tuple(x.key() for x in xs), n)
    if key in ring.memo:
        return list(ring.memo[key])
    out = []
    seen = set()
    for combo in combinations_with_replacement(range(len(xs)), n):
        prod = ring.one()
        for i in combo:
            prod = prod * xs[i]
        k = prod.key()
        if not prod.is_zero() and k not in seen:
            seen.add(k)
            out.append(prod)
    ring.memo[key] = tuple(out)
    return out


def ideal_span(ring: PolyRing, polys) -> FreeSubmodule:
    """The rank-1 span of ideal generators, memoised on the ring by their
    keys: the one construction of such a span, so callers with the same
    generators share one Gröbner basis and its syzygies.  Every call checks
    the generators' ring, so a memo hit accepts no foreign generator."""
    polys = tuple(polys)
    if any(p.ring != ring for p in polys):
        raise StructuralError("ideal generators must share the ring")
    key = ("ideal_span", tuple(p.key() for p in polys))
    if key not in ring.memo:
        ring.memo[key] = FreeSubmodule(ring, 1, [(p,) for p in polys])
    return ring.memo[key]


def colon_generators(M: FpModule, polys):
    """Generators (ambient vectors) of 0 :_M I = {m : p*m = 0 in M for every
    p in I}: a hom R/I -> M is its value on 1, so they are the generators
    of Hom_R(R/I, M)."""
    R_I = FpModule.quotient_ring(M.ring, [p for p in polys if not p.is_zero()])
    return [g[0] for g in hom_module(R_I, M).generators]


class SaturationResult:
    """The J-power torsion submodule 0 :_M J^infinity with its
    stabilization index and a membership test.  ``span`` is the preimage of
    the torsion in R^rank (generators plus M's relations), whose basis the
    chain has already computed; when the torsion is zero it is M's own
    relation submodule, ``M.relations``."""

    def __init__(self, module: FpModule, t_star: int, generators,
                 span: FreeSubmodule):
        self.module = module
        self.t_star = t_star
        self.generators = tuple(tuple(g) for g in generators)
        self.span = span

    def contains(self, elem) -> bool:
        vec = elem.vec if isinstance(elem, ModuleElement) else tuple(elem)
        return self.span.contains(vec)


_MAX_COLON_CHAIN = 256


def saturate(M: FpModule, J) -> SaturationResult:
    """Ascending chain N_t = 0 :_M J^t until stabilization (Noetherian, so
    guaranteed); J is a list of polynomials.

    Each link is one colon by J itself, N_(t+1) = N_t :_M J, taken as
    ``colon_generators`` of M/N_t, whose relations are the reduced basis of
    N_t + rel(M); so the stacked rank stays M.rank * k for k generators,
    where a colon by the power J^(t+1) stacks M.rank * C(k+t, t+1) copies.
    The identity m in N_t :_M J <=> J^(t+1) m = 0 makes it the same chain,
    so ``t_star`` is the power-chain index and the torsion submodule is the
    same; only its generating set may differ.  The chain ascends, so it has
    stopped (t_star = t) once every generator of N_(t+1) lies in N_t: one
    containment test each.  The chain starts at N_0 = 0, whose span is
    rel(M) and whose quotient is M itself, so the first test asks whether
    N_1 = 0 :_M J is zero in M, as it is when J holds a nonzerodivisor on M.
    Then N_2 = N_1 :_M J = 0 :_M J = N_1, and the chain is stable at
    t_star = 1, the power-chain index, with N_1's generators and M's own
    relations as the span: one colon kernel, no second.  Greuel-Pfister,
    *A Singular Introduction to Commutative Algebra*, on quotients and
    saturation."""
    polys = list({p.key(): p for p in J if not p.is_zero()}.values())
    if not polys:
        raise StructuralError("saturation with the zero ideal")
    ring = M.ring
    span, quotient = M.relations, M  # N_0 = 0
    for t in range(_MAX_COLON_CHAIN):
        next_gens = colon_generators(quotient, polys)
        if all(span.contains(g) for g in next_gens):
            if t == 0:  # N_1 = 0, so N_2 = 0 :_M J = N_1
                return SaturationResult(M, 1, next_gens, span)
            return SaturationResult(M, t, gens, span)
        gens = next_gens
        span = FreeSubmodule(ring, M.rank, list(gens) + list(M.relations.gens))
        quotient = FpModule(ring, M.rank, span.basis())
    raise InternalError(
        f"colon chain 0 :_M J^t failed to stabilize by t = {_MAX_COLON_CHAIN}"
        f" for J = ({', '.join(str(p) for p in polys)})"
    )


# The name of the variable t = 1/f that ``localization_kernel`` appends:
# no session identifier can take it, so it never clashes with one of R's.
_LOCALIZATION_VARIABLE = "@t"


def extend_vector(vec, ring: PolyRing) -> Vector:
    """vec, over R, as a vector over ring = R[t], t the last variable."""
    return tuple(
        Poly(ring, {mon + (0,): c for mon, c in p.terms.items()}) for p in vec
    )


def localization_kernel(M: FpModule, f: Poly) -> FreeSubmodule:
    """rel(M)*R[t] + (t*f - 1)*R[t]^rank in R[t]^rank, R[t] being M's ring
    with one variable appended, in the same field and order.  A vector of
    R^rank lies in it exactly when its class m in M has m/1 = 0 in M_f
    (Rabinowitsch; the proof is at ``deligne.kill_exponent``).  Only
    membership is asked of it, so it tracks no generator.  Memoised on the
    module; the ring of f is checked before the memo is read, so a base
    from another ring with the same key never hits it."""
    if f.ring != M.ring:
        raise StructuralError("localization base must share the module's ring")
    if f.is_zero():
        raise StructuralError("zero localization base")
    key = ("localization", f.key())
    if key not in M.memo:
        ring = M.ring
        ext = PolyRing(ring.field, ring.variables + (_LOCALIZATION_VARIABLE,),
                       ring.order)
        t = ext.gen(ring.nvars)
        tf_1 = t * extend_vector((f,), ext)[0] - ext.one()
        gens = [extend_vector(rel, ext) for rel in M.relations.gens]
        gens += [vec_scale(tf_1, unit_vector(ext, M.rank, i))
                 for i in range(M.rank)]
        M.memo[key] = FreeSubmodule(ext, M.rank, gens, tracked=0)
    return M.memo[key]


def radical_lift(y: Poly, xs, exponent: int):
    """Smallest d with y^d in (x_1^e, ..., x_k^e) plus lift coefficients;
    requires y in (x_1, ..., x_k), which makes d <= xs.pigeonhole_bound(e)
    a priori."""
    xs = SequenceSpec(xs)
    ring = y.ring
    if not ideal_span(ring, xs.elements).contains((y,)):
        raise StructuralError("element does not lie in the ideal")
    d, lift = least_power(y, ideal_span(ring, xs.powers(exponent)),
                          xs.pigeonhole_bound(exponent),
                          "radical lift not found within the pigeonhole bound")
    return d, tuple(lift)


def least_power(f: Poly, span: FreeSubmodule, bound: int, failure: str):
    """The smallest d <= bound with f^d in the rank-1 span, and the lift
    of f^d on its generators; raises StructuralError(failure) when no
    d <= bound has one."""
    power = f.ring.one()
    for d in range(1, bound + 1):
        power = power * f
        rem, lift = span.normal_form_lift((power,))
        if vec_is_zero(rem):
            return d, lift
    raise StructuralError(failure)


def ideal_as_module(xs, n: int):
    """Present J^n abstractly: R^N -> J^n on the power generators, with the
    syzygies as relations.  Returns (FpModule, generator list)."""
    xs = tuple(xs)
    ring = xs[0].ring
    gens = ideal_power(xs, n)
    key = ("ideal_as_module", tuple(g.key() for g in gens))
    if key in ring.memo:
        return ring.memo[key]
    syz = ideal_span(ring, gens).syzygies()
    mod = FpModule(ring, len(gens), list(syz.gens))
    ring.memo[key] = (mod, gens)
    return mod, gens
