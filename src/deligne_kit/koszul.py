"""Koszul complexes K(x^(n); M), their homology, the transition maps
between tower stages, and bounded pro-zero certificate search.

Exterior basis: sorted subsets S of {0..k-1}; the degree-i differential
sends e_S (x) m to sum over j in S of (-1)^pos(j,S) * x_j^n * e_{S\\j} (x) m.
With this convention the stage-m -> stage-n chain map is diagonal, the
subset S component being multiplication by prod_{j in S} x_j^(m-n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import InternalError, StructuralError
from .groebner import (
    FreeSubmodule,
    Vector,
    kernel_mod,
    vec_dot,
    vec_is_zero,
    vec_sub,
)
from .modules import (
    FpModule,
    ModuleElement,
    ModuleHom,
    blockdiag_relations,
    module_kernel,
)
from .rings import Poly


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

    def key(self):
        return tuple(x.key() for x in self.elements)

    def __repr__(self):
        return "(" + ", ".join(str(x) for x in self.elements) + ")"


def koszul_subsets(k: int, i: int):
    return list(combinations(range(k), i))


def koszul_differential_columns(x: SequenceSpec, n: int, mrank: int, i: int):
    """Columns of d_i : K_i -> K_{i-1} over the ambient free modules; pure
    polynomial data, independent of any module presentation."""
    ring = x.ring
    pw = x.powers(n)
    subs_i = koszul_subsets(x.k, i)
    subs_im1 = koszul_subsets(x.k, i - 1)
    index_im1 = {S: t for t, S in enumerate(subs_im1)}
    target_rank = mrank * len(subs_im1)
    cols = []
    for S in subs_i:
        for b in range(mrank):
            img = [ring.zero()] * target_rank
            for pos, j in enumerate(S):
                T = tuple(v for v in S if v != j)
                t_idx = index_im1[T]
                coeff = pw[j] if pos % 2 == 0 else -pw[j]
                slot = t_idx * mrank + b
                img[slot] = img[slot] + coeff
            cols.append(tuple(img))
    return cols


class KoszulStage:
    """The complex K(x^(n); M): chain module i is M^(k choose i), blocks
    indexed by sorted i-subsets of the sequence positions."""

    def __init__(self, x: SequenceSpec, n: int, M: FpModule):
        if n < 1:
            raise StructuralError("stage exponent must be >= 1")
        if M.ring != x.ring:
            raise StructuralError("module and sequence rings differ")
        self.x = x
        self.n = n
        self.M = M
        ring = x.ring
        k = x.k
        self.subsets = [koszul_subsets(k, i) for i in range(k + 1)]

        self.chain = []
        for i in range(k + 1):
            blocks = len(self.subsets[i])
            rels = blockdiag_relations(M.relations.gens, M.rank, blocks, ring)
            self.chain.append(FpModule(ring, M.rank * blocks, rels))

        # differentials d_i : chain[i] -> chain[i-1], i = 1..k
        self.diff = [None]
        for i in range(1, k + 1):
            cols = koszul_differential_columns(x, n, M.rank, i)
            self.diff.append(ModuleHom(self.chain[i], self.chain[i - 1], cols))

        for i in range(2, k + 1):
            for col in self.diff[i].columns:
                if not vec_is_zero(self.diff[i - 1].apply_raw(col)):
                    raise InternalError("d o d != 0")

    def boundary_columns(self, i: int):
        """Ambient generators of im(d_{i+1}) inside chain[i]."""
        if i >= self.x.k:
            return []
        return list(self.diff[i + 1].columns)


def _stage(x: SequenceSpec, n: int, M: FpModule) -> KoszulStage:
    key = ("stage", x.key(), n)
    if key not in M.memo:
        M.memo[key] = KoszulStage(x, n, M)
    return M.memo[key]


class HomologyModule:
    """H_i of a Koszul stage, given by cycle representatives in the stage's
    ambient coordinates.  Built eagerly: the representatives.  Built on
    first use: the span of boundaries and stage relations that
    ``boundary_lift`` reduces against, ``presentation`` (one
    ``kernel_mod``) and the span that ``express`` reduces against."""

    def __init__(self, stage: KoszulStage, i: int, representatives):
        self.stage = stage
        self.i = i
        self.representatives = tuple(tuple(r) for r in representatives)

    @cached_property
    def _boundary_span(self) -> FreeSubmodule:
        stage, i = self.stage, self.i
        return FreeSubmodule(
            stage.x.ring,
            stage.chain[i].rank,
            stage.boundary_columns(i) + list(stage.chain[i].relations.gens),
        )

    @cached_property
    def presentation(self) -> FpModule:
        b = self._boundary_span
        relations = kernel_mod(self.representatives, b.gens, b.ring, b.rank)
        return FpModule(b.ring, len(self.representatives), relations)

    @cached_property
    def _express_span(self) -> FreeSubmodule:
        b = self._boundary_span
        return FreeSubmodule(b.ring, b.rank, self.representatives + b.gens)

    def express(self, vec) -> ModuleElement:
        """Coordinates of a cycle in the homology presentation."""
        rem, lift = self._express_span.normal_form_lift(tuple(vec))
        if not vec_is_zero(rem):
            raise StructuralError("vector is not a cycle of this stage")
        coords = lift[: len(self.representatives)]
        return self.presentation.element(coords)

    def boundary_lift(self, vec):
        """For a homologically trivial cycle, return (chain, relation_lift)
        with d(chain) = vec modulo the stage relations, exactly:
        d(chain) - vec = sum(relation_lift * relation_gens).  None if the
        class is nonzero."""
        rem, lift = self._boundary_span.normal_form_lift(tuple(vec))
        if not vec_is_zero(rem):
            return None
        nb = len(self.stage.boundary_columns(self.i))
        chain = tuple(lift[:nb])
        rel_lift = tuple(-c for c in lift[nb:])
        return chain, rel_lift


def koszul_homology(x: SequenceSpec, n: int, M: FpModule, i: int) -> HomologyModule:
    """H_i(x^(n); M) with cycle representatives; H_0 = M/x^(n)M and
    H_k = 0 :_M (x^(n))."""
    if i < 0 or i > x.k:
        raise StructuralError(f"homological degree {i} out of range 0..{x.k}")
    if M.ring != x.ring:  # the memo key leaves the ring out
        raise StructuralError("module and sequence rings differ")
    key = ("homology", x.key(), n, i)
    if key in M.memo:
        return M.memo[key]
    stage = _stage(x, n, M)
    ring = x.ring
    if i == 0:
        ker_gens = []
        for t in range(stage.chain[0].rank):
            v = [ring.zero()] * stage.chain[0].rank
            v[t] = ring.one()
            ker_gens.append(tuple(v))
    else:
        ker_gens = module_kernel(stage.diff[i])
    hom = HomologyModule(stage, i, ker_gens)
    M.memo[key] = hom
    return hom


# ---------------------------------------------------------------------------
# transitions between stages


def transition_multipliers(x: SequenceSpec, i: int, m: int, n: int):
    """For each i-subset S, the factor prod_{j in S} x_j^(m-n)."""
    ring = x.ring
    out = []
    for S in combinations(range(x.k), i):
        f = ring.one()
        for j in S:
            f = f * x.elements[j] ** (m - n)
        out.append(f)
    return out


def transport_cycle(x: SequenceSpec, i: int, m: int, n: int, M: FpModule, vec):
    """Apply the stage-m -> stage-n chain map in degree i."""
    mults = transition_multipliers(x, i, m, n)
    out = []
    for t, f in enumerate(mults):
        for b in range(M.rank):
            out.append(f * vec[t * M.rank + b])
    return tuple(out)


@dataclass
class HomologyTransition:
    """The induced map H_i(x^(m); M) -> H_i(x^(n); M) on presentations."""

    x: SequenceSpec
    i: int
    stage_m: int
    stage_n: int
    source: HomologyModule
    target: HomologyModule
    hom: ModuleHom

    def is_zero(self) -> bool:
        return self.hom.is_zero()


def homology_transition(
    x: SequenceSpec, i: int, m: int, n: int, M: FpModule
) -> HomologyTransition:
    if m < n:
        raise StructuralError("transition requires m >= n")
    Hm = koszul_homology(x, n=m, M=M, i=i)
    Hn = koszul_homology(x, n=n, M=M, i=i)
    cols = []
    for z in Hm.representatives:
        w = transport_cycle(x, i, m, n, M, z)
        cols.append(Hn.express(w).vec)
    hom = ModuleHom(Hm.presentation, Hn.presentation, cols)
    return HomologyTransition(x, i, m, n, Hm, Hn, hom)


# ---------------------------------------------------------------------------
# pro-zero certificates


@dataclass
class CertificateEntry:
    """One homology generator's boundary-preimage witness.

    Exact identities (no Gröbner data needed to replay):
      d_i^(m)(cycle) = sum(cycle_relation_lift * stage_m_relations)
      d_{i+1}^(n)(preimage_chain) - transport_cycle(cycle)
          = sum(relation_lift * stage_n_relations)
    where transport_cycle pushes the stage-m cycle through the chain map.
    """

    cycle: Vector
    preimage_chain: Vector
    relation_lift: tuple
    cycle_relation_lift: tuple


@dataclass
class ProZeroCertificate:
    """Witness that H_i(x^(m); M) -> H_i(x^(n); M) is the zero map."""

    x: SequenceSpec
    i: int
    base_n: int
    witness_m: int
    M: FpModule
    entries: list

    def verify(self) -> bool:
        """Replay every boundary identity exactly: pure polynomial
        arithmetic over the declared relation generators, no Gröbner data.
        An entry whose vectors do not have the lengths of these identities
        fails."""
        x, i, n, m, M = self.x, self.i, self.base_n, self.witness_m, self.M
        ring = x.ring
        k = x.k
        blocks_i = len(koszul_subsets(k, i))
        rank_i = M.rank * blocks_i
        rels_i = blockdiag_relations(M.relations.gens, M.rank, blocks_i, ring)
        if i >= 1:
            blocks_im1 = len(koszul_subsets(k, i - 1))
            rank_im1 = M.rank * blocks_im1
            rels_im1 = blockdiag_relations(
                M.relations.gens, M.rank, blocks_im1, ring
            )
            d_i_m = koszul_differential_columns(x, m, M.rank, i)
        else:
            rels_im1 = []
        # d_{k+1} = 0: at the top degree the preimage chain is empty
        d_ip1_n = (koszul_differential_columns(x, n, M.rank, i + 1)
                   if i < k else [])
        shape = (rank_i, len(d_ip1_n), len(rels_i), len(rels_im1))
        for e in self.entries:
            if tuple(map(len, (e.cycle, e.preimage_chain, e.relation_lift,
                               e.cycle_relation_lift))) != shape:
                return False
            transported = transport_cycle(x, i, m, n, M, e.cycle)
            if i >= 1:
                dz = vec_dot(e.cycle, d_i_m, ring, rank_im1)
                combo = vec_dot(e.cycle_relation_lift, rels_im1, ring, rank_im1)
                if not vec_is_zero(vec_sub(dz, combo)):
                    return False
            dw = vec_dot(e.preimage_chain, d_ip1_n, ring, rank_i)
            lhs = vec_sub(dw, transported)
            combo = vec_dot(e.relation_lift, rels_i, ring, rank_i)
            if not vec_is_zero(vec_sub(lhs, combo)):
                return False
        return True


@dataclass
class SearchExhausted:
    """Bounded search gave no certificate up to m_max; not a disproof."""

    x: SequenceSpec
    i: int
    base_n: int
    m_max: int


def pro_zero_search(x: SequenceSpec, i: int, n: int, M: FpModule, m_max: int):
    """Smallest m <= m_max with zero transition, as a verified
    ProZeroCertificate; otherwise SearchExhausted.

    The transition H_i(x^(m); M) -> H_i(x^(n); M) is zero exactly when every
    cycle representative of the stage-m homology, carried to stage n by
    transport_cycle, is a boundary there.  So each m is decided by boundary
    lifts alone: the first representative without one moves the search on
    to m + 1, and when all of them lift, the lifts are the certificate."""
    if m_max < n:
        raise StructuralError("m_max must be >= n")
    Hn = koszul_homology(x, n=n, M=M, i=i)
    for m in range(n, m_max + 1):
        cycles = koszul_homology(x, n=m, M=M, i=i).representatives
        lifts = []
        for z in cycles:
            lifted = Hn.boundary_lift(transport_cycle(x, i, m, n, M, z))
            if lifted is None:
                break
            lifts.append(lifted)
        if len(lifts) < len(cycles):
            continue
        stage_m = _stage(x, m, M)
        entries = []
        for z, (chain, rel_lift) in zip(cycles, lifts):
            if i >= 1:
                dz = stage_m.diff[i].apply_raw(z)
                rem, cyc_lift = stage_m.chain[i - 1].relations.normal_form_lift(dz)
                if not vec_is_zero(rem):
                    raise InternalError("representative is not a cycle")
            else:
                cyc_lift = ()
            entries.append(
                CertificateEntry(
                    cycle=tuple(z),
                    preimage_chain=chain,
                    relation_lift=tuple(rel_lift),
                    cycle_relation_lift=tuple(cyc_lift),
                )
            )
        cert = ProZeroCertificate(x, i, n, m, M, entries)
        if not cert.verify():
            raise InternalError("freshly built certificate failed replay")
        return cert
    return SearchExhausted(x, i, n, m_max)
