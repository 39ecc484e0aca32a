"""Finitely presented modules, homomorphisms with well-definedness
certificates, kernels, Hom modules, saturation, ideal powers and
radical-membership lifts."""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import InternalError, StructuralError
from .groebner import (
    FreeSubmodule,
    Vector,
    kernel_mod,
    vec_add,
    vec_dot,
    vec_is_zero,
    vec_key,
    vec_scale,
    vec_sub,
    zero_vector,
)
from .rings import Poly, PolyRing


class FpModule:
    """R^rank modulo the span of relation vectors.  Elements are stored in
    canonical normal form, so equality is syntactic.

    ``memo`` holds the results that depend on this module (torsion
    submodules, Koszul stages and homology), keyed by a tag and the other
    inputs; results that depend only on the ring live on the ``PolyRing``.
    """

    def __init__(self, ring: PolyRing, rank: int, relations=None):
        if rank < 0:
            raise StructuralError("negative ambient rank")
        self.ring = ring
        self.rank = rank
        if relations is None:
            relations = []
        if isinstance(relations, FreeSubmodule):
            if relations.rank != rank or relations.ring != ring:
                raise StructuralError("relation submodule has wrong ambient")
            self.relations = relations
        else:
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

    def basis_elements(self):
        out = []
        for i in range(self.rank):
            v = [self.ring.zero()] * self.rank
            v[i] = self.ring.one()
            out.append(self.element(v))
        return out

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
    maps into the target relations and keeps no lift; nothing is built on
    first use."""

    def __init__(self, source: FpModule, target: FpModule, columns):
        columns = [tuple(c) for c in columns]
        if len(columns) != source.rank:
            raise StructuralError("one column per source coordinate required")
        for c in columns:
            if len(c) != target.rank:
                raise StructuralError("column has wrong target length")
        self.source = source
        self.target = target
        self.columns = tuple(columns)
        for rel in source.relations.gens:
            image = vec_dot(rel, self.columns, target.ring, target.rank)
            if not target.relations.contains(image):
                raise StructuralError(
                    "relation does not map into target relations"
                )

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


# ---------------------------------------------------------------------------
# Hom modules


class HomModule:
    """Hom_R(A, B) presented by generator matrices, with a bilinear
    evaluator.  A generator matrix is stored as a tuple of columns, one per
    ambient coordinate of A, each a vector in B's ambient."""

    def __init__(self, A: FpModule, B: FpModule, module: FpModule, generators):
        self.A = A
        self.B = B
        self.module = module
        self.generators = tuple(tuple(tuple(c) for c in g) for g in generators)

    def matrix_of(self, h) -> tuple:
        """The matrix (tuple of columns) represented by h."""
        coeffs = h.vec if isinstance(h, ModuleElement) else tuple(h)
        if len(coeffs) != len(self.generators):
            raise StructuralError("wrong number of hom coordinates")
        ring = self.B.ring
        cols = [zero_vector(ring, self.B.rank) for _ in range(self.A.rank)]
        for c, g in zip(coeffs, self.generators):
            if c.is_zero():
                continue
            for j in range(self.A.rank):
                cols[j] = vec_add(cols[j], vec_scale(c, g[j]))
        return tuple(cols)

    def evaluate(self, h, a) -> ModuleElement:
        """Apply the hom h to the A-element a."""
        avec = a.vec if isinstance(a, ModuleElement) else tuple(a)
        if len(avec) != self.A.rank:
            raise StructuralError("element has wrong length for A")
        cols = self.matrix_of(h)
        return self.B.element(vec_dot(avec, cols, self.B.ring, self.B.rank))


def hom_module(A: FpModule, B: FpModule) -> HomModule:
    """Present Hom_R(A, B): matrices sending A's relations into B's
    relations, modulo matrices with all columns in B's relations."""
    ring = A.ring
    rB, rA = B.rank, A.rank
    flat_rank = rB * rA

    def flatten(cols) -> Vector:
        out = []
        for c in cols:
            out.extend(c)
        return tuple(out)

    def unflatten(v) -> tuple:
        return tuple(tuple(v[j * rB : (j + 1) * rB]) for j in range(rA))

    a_rels = list(A.relations.gens)
    s = len(a_rels)

    # conditions: for each flat matrix unit E_(i,j), its action on every
    # A-relation, stacked over the relation index
    cond_vectors = []
    for j in range(rA):
        for i in range(rB):
            stacked = []
            for rel in a_rels:
                block = [ring.zero()] * rB
                block[i] = rel[j]
                stacked.extend(block)
            cond_vectors.append(tuple(stacked))
    cond_relations = blockdiag_relations(B.relations.gens, rB, s, ring)

    if s == 0:
        l_gens = [
            tuple(
                ring.one() if t == idx else ring.zero() for t in range(flat_rank)
            )
            for idx in range(flat_rank)
        ]
    else:
        l_gens = kernel_mod(cond_vectors, cond_relations, ring, rB * s)

    d_gens = []
    for nu in B.relations.gens:
        for j in range(rA):
            cols = [zero_vector(ring, rB) for _ in range(rA)]
            cols[j] = tuple(nu)
            d_gens.append(flatten(cols))

    relations = kernel_mod(l_gens, d_gens, ring, flat_rank)
    H = FpModule(ring, len(l_gens), relations)
    generators = [unflatten(g) for g in l_gens]
    return HomModule(A, B, H, generators)


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


def colon_generators(M: FpModule, polys):
    """Generators (ambient vectors) of {m : p*m = 0 in M for every p}."""
    polys = [p for p in polys if not p.is_zero()]
    ring = M.ring
    if not polys:
        return [tuple(b.vec) for b in M.basis_elements()]
    stacked_rank = M.rank * len(polys)
    vectors = []
    for i in range(M.rank):
        stacked = []
        for p in polys:
            block = [ring.zero()] * M.rank
            block[i] = p
            stacked.extend(block)
        vectors.append(tuple(stacked))
    relations = blockdiag_relations(M.relations.gens, M.rank, len(polys), ring)
    return kernel_mod(vectors, relations, ring, stacked_rank)


class SaturationResult:
    """The J-power torsion submodule 0 :_M J^infinity with its
    stabilization index and a membership test.  ``span`` is the preimage of
    the torsion in R^rank (generators plus M's relations), whose basis the
    chain has already computed."""

    def __init__(self, module: FpModule, ideal_polys, t_star: int, generators,
                 span: FreeSubmodule):
        self.module = module
        self.ideal_polys = tuple(ideal_polys)
        self.t_star = t_star
        self.generators = tuple(tuple(g) for g in generators)
        self.span = span

    def contains(self, elem) -> bool:
        vec = elem.vec if isinstance(elem, ModuleElement) else tuple(elem)
        return self.span.contains(vec)


_MAX_COLON_CHAIN = 256


def saturate(M: FpModule, J) -> SaturationResult:
    """Ascending chain N_t = 0 :_M J^t until stabilization (Noetherian, so
    guaranteed); accepts a rank-1 FreeSubmodule or a list of polynomials.

    Each link is one colon by J itself, N_(t+1) = N_t :_M J, taken as
    ``colon_generators`` of M/N_t, whose relations are the reduced basis of
    N_t + rel(M); so the stacked rank stays M.rank * k for k generators,
    where a colon by the power J^(t+1) stacks M.rank * C(k+t, t+1) copies.
    The identity m in N_t :_M J <=> J^(t+1) m = 0 makes it the same chain,
    so ``t_star`` is the power-chain index and the torsion submodule is the
    same; only its generating set may differ.  The chain ascends, so it has
    stopped (t_star = t) once every generator of N_(t+1) lies in N_t: one
    containment test each.  Greuel-Pfister, *A Singular Introduction to
    Commutative Algebra*, on quotients and saturation."""
    if isinstance(J, FreeSubmodule):
        if J.rank != 1:
            raise StructuralError("saturation ideal must have ambient rank 1")
        polys = [g[0] for g in J.gens]
    else:
        polys = list(J)
    polys = list({p.key(): p for p in polys if not p.is_zero()}.values())
    if not polys:
        raise StructuralError("saturation with the zero ideal")
    ring = M.ring
    gens = colon_generators(M, polys)
    for t in range(1, _MAX_COLON_CHAIN):
        span = FreeSubmodule(ring, M.rank, list(gens) + list(M.relations.gens))
        quotient = FpModule(ring, M.rank, span.basis())
        next_gens = colon_generators(quotient, polys)
        if all(span.contains(g) for g in next_gens):
            return SaturationResult(M, polys, t, gens, span)
        gens = next_gens
    raise InternalError(
        f"colon chain 0 :_M J^t failed to stabilize by t = {_MAX_COLON_CHAIN}"
        f" for J = ({', '.join(str(p) for p in polys)})"
    )


def radical_lift(y: Poly, xs, exponent: int):
    """Smallest d with y^d in (x_1^e, ..., x_k^e) plus lift coefficients;
    requires y in (x_1, ..., x_k), which makes d <= k(e-1)+1 a priori."""
    xs = tuple(xs)
    if not xs:
        raise StructuralError("empty sequence")
    ring = y.ring
    member = FreeSubmodule(ring, 1, [(x,) for x in xs])
    rem, _ = member.normal_form_lift((y,))
    if not vec_is_zero(rem):
        raise StructuralError("element does not lie in the ideal")
    e = exponent
    gens = [x**e for x in xs]
    target = FreeSubmodule(ring, 1, [(g,) for g in gens])
    bound = max(1, len(xs) * (e - 1) + 1)
    power = ring.one()
    for d in range(1, bound + 1):
        power = power * y
        rem, lift = target.normal_form_lift((power,))
        if vec_is_zero(rem):
            return d, tuple(lift)
    raise StructuralError("radical lift not found within the pigeonhole bound")


def ideal_as_module(xs, n: int):
    """Present J^n abstractly: R^N -> J^n on the power generators, with the
    syzygies as relations.  Returns (FpModule, generator list)."""
    xs = tuple(xs)
    ring = xs[0].ring
    gens = ideal_power(xs, n)
    key = ("ideal_as_module", tuple(g.key() for g in gens))
    if key in ring.memo:
        return ring.memo[key]
    sub = FreeSubmodule(ring, 1, [(g,) for g in gens])
    syz = sub.syzygies()
    mod = FpModule(ring, len(gens), list(syz.gens))
    ring.memo[key] = (mod, gens)
    return mod, gens
