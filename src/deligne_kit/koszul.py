"""Koszul complexes K(x^(n); M), their homology, the transition maps
between tower stages, and bounded pro-zero certificate search.

Exterior basis: sorted subsets S of {0..k-1}; the degree-i differential
sends e_S (x) m to sum over j in S of (-1)^pos(j,S) * x_j^n * e_{S\\j} (x) m.
With this convention the stage-m -> stage-n chain map is diagonal, the
subset S component being multiplication by prod_{j in S} x_j^(m-n).  The
differential columns, that chain map and the certificates a search
returns are defined in ``check``, which replays them.
"""

from __future__ import annotations

from functools import cached_property

from .check import (
    CertificateEntry,
    ProZeroCertificate,
    koszul_differential_columns,
    koszul_subsets,
    transport_cycle,
)
from .errors import InternalError, StructuralError
from .groebner import FreeSubmodule, kernel_mod
from .modules import FpModule, ModuleElement, ModuleHom, module_kernel
from .rings import SequenceSpec, blockdiag_relations, unit_vector, vec_is_zero


class KoszulStage:
    """The complex K(x^(n); M): chain module i is M^(k choose i), blocks
    indexed by sorted i-subsets of the sequence positions.

    Each d_i must send the relations of chain i into those of chain i-1.
    With nu_1, ..., nu_s the relations of M, chain i's relation (S, nu) is
    nu placed in block S, and by the sign rule
        d(nu e_S) = sum over j in S of (-1)^pos(j,S) x_j^n nu e_(S\\j),
    a combination of chain i-1's relations (S\\j, nu).  So the lift of
    relation (S, nu) is column (S, nu) of the same differential on R^s:
    ``koszul_differential_columns(x, n, s, i)``.  ``ModuleHom`` checks
    every relation's image against its lift as an exact polynomial
    identity, which proves the membership without a Gröbner basis of the
    chain relations; a failure is an InternalError naming the degree.
    d o d = 0 is checked on every column as well."""

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

        # M^b does not depend on n, so every stage shares M's copy
        self.chain = []
        for subs in self.subsets:
            key = ("chain", len(subs))
            if key not in M.memo:
                rels = blockdiag_relations(M.relations.gens, M.rank, len(subs),
                                           ring)
                M.memo[key] = FpModule(ring, M.rank * len(subs), rels)
            self.chain.append(M.memo[key])

        # differentials d_i : chain[i] -> chain[i-1], i = 1..k
        self.diff = [None]
        nrels = len(M.relations.gens)
        for i in range(1, k + 1):
            cols = koszul_differential_columns(x, n, M.rank, i)
            lifts = koszul_differential_columns(x, n, nrels, i)
            try:
                d = ModuleHom(self.chain[i], self.chain[i - 1], cols, lifts)
            except InternalError as ex:
                raise InternalError(f"Koszul differential d_{i}: {ex}") from ex
            self.diff.append(d)

        for i in range(2, k + 1):
            for col in self.diff[i].columns:
                if not vec_is_zero(self.diff[i - 1].apply_raw(col)):
                    raise InternalError(f"d_{i - 1} o d_{i} != 0")

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
    if i == 0:
        rank = stage.chain[0].rank
        ker_gens = [unit_vector(x.ring, rank, t) for t in range(rank)]
    else:
        ker_gens = module_kernel(stage.diff[i])
    hom = HomologyModule(stage, i, ker_gens)
    M.memo[key] = hom
    return hom


# ---------------------------------------------------------------------------
# transitions between stages


def homology_transition(
    x: SequenceSpec, i: int, m: int, n: int, M: FpModule
) -> ModuleHom:
    """The induced map H_i(x^(m); M) -> H_i(x^(n); M), from the stage-m
    homology presentation to the stage-n one."""
    if m < n:
        raise StructuralError("transition requires m >= n")
    Hm = koszul_homology(x, n=m, M=M, i=i)
    Hn = koszul_homology(x, n=n, M=M, i=i)
    cols = []
    for z in Hm.representatives:
        w = transport_cycle(x, i, m, n, M, z)
        cols.append(Hn.express(w).vec)
    return ModuleHom(Hm.presentation, Hn.presentation, cols)


# ---------------------------------------------------------------------------
# pro-zero certificates


class SearchExhausted:
    """Bounded search gave no certificate up to m_max; not a disproof."""

    __slots__ = ("x", "i", "base_n", "m_max")

    def __init__(self, x: SequenceSpec, i: int, base_n: int, m_max: int):
        self.x = x
        self.i = i
        self.base_n = base_n
        self.m_max = m_max


def pro_zero_search(x: SequenceSpec, i: int, n: int, M: FpModule, m_max: int):
    """Smallest m <= m_max with zero transition, as a ProZeroCertificate,
    which ``verify()`` checks; otherwise SearchExhausted.

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
            # d_i(z) lifted block by block against M's relations: the
            # block-outer order of blockdiag_relations, and the same lift as
            # against the chain relations, whose basis is M's in each block
            cyc_lift = []
            if i >= 1:
                dz = stage_m.diff[i].apply_raw(z)
                r = M.rank
                for b in range(len(stage_m.subsets[i - 1])):
                    block = dz[b * r : (b + 1) * r]
                    rem, lift = M.relations.normal_form_lift(block)
                    if not vec_is_zero(rem):
                        raise InternalError("representative is not a cycle")
                    cyc_lift.extend(lift)
            entries.append(
                CertificateEntry(
                    cycle=tuple(z),
                    preimage_chain=chain,
                    relation_lift=tuple(rel_lift),
                    cycle_relation_lift=tuple(cyc_lift),
                )
            )
        return ProZeroCertificate(x, i, n, m, M, entries)
    return SearchExhausted(x, i, n, m_max)
