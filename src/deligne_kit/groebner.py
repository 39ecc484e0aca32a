"""Gröbner bases for submodules of free modules, with lift coefficients
and Schreyer syzygies.

Module terms (position, monomial) are ordered position-over-term (POT):
earlier positions dominate, ties broken by the ring's monomial order.
Reduced bases are canonical, so normal forms decide membership and
equality.  Every representation and lift is a ``vec_dot`` of tracked vectors.

Buchberger's loop keeps its S-pairs -- pairs of work vectors whose leads
share a position -- in a heap and takes the pair with the smallest POT lcm
of the two leads first, ties broken by the indices (i, j) of the pair.  A
pair is skipped, without being reduced, by either criterion:

- chain: some third work vector k has its lead in the same position, its
  lead monomial divides the lcm, and the pairs (i, k) and (j, k) have
  already been taken off the queue (Cox-Little-O'Shea, IVA 2.10).  A
  skipped pair counts as taken.
- product: the lead monomials are coprime.  Only for rank 1: in a module
  the other coordinates survive, e.g. (x, 1) and (y, 0) have the S-vector
  (0, y), which is a new basis element.

The S-vector of a pair is the ``vec_dot`` of the two work vectors with the
monomial coefficients (lcm/lt_i, -lcm/lt_j) (``_s_coefficients``); its
combination of the tracked generators, the same ``vec_dot`` of the two
representations, is formed only when the S-vector leaves a nonzero
remainder, that is, for a new basis element.

Schreyer syzygies (``FreeSubmodule.syzygies``) take the same-position
pairs of the reduced basis in the same order, smallest POT lcm first, ties
broken by (i, j), and skip a pair by the same chain criterion
(``_chain_skips``); the product criterion is not used there.  Each kept
pair (i, j) gives the lead-term syzygy tau_ij = (lcm/lt_i) e_i -
(lcm/lt_j) e_j, whose two entries are the S-vector's coefficients, lifted
by reducing its S-vector to zero.  The kept tau still generate Syz(LT),
the syzygies of the lead terms: the tau_ij of all same-position pairs
generate it, and every pair is, by induction on the order in which pairs
are taken, in the span of the kept tau taken before it.  A kept pair is
its own witness.  A pair skipped because of k has tau_ij =
(lcm_ij/lcm_ik) tau_ik - (lcm_ij/lcm_jk) tau_jk, up to unit factors, and
(i, k) and (j, k) were taken earlier.  By Schreyer's theorem
the lifts of generators of Syz(LT) generate Syz(basis) (Eisenbud,
Commutative Algebra, 15.10; Cox-Little-O'Shea, IVA 2.10).  The
translation back to the generators also needs each generator written in
the basis; ``syzygies()``, the only reader, reduces the generators then,
so ``groebner()`` alone reduces none of them.

``_reduce_full`` and ``rings.vec_dot`` inline the monomial product,
divisibility test and quotient (``rings``) in their inner loops, the two
loops where the call was measured to matter.

Normal forms (``_reduce_full``) copy the input vector once into one plain
dict per position and update it, the remainder and each quotient in place;
they become polynomials only at the end.  The quotients come back as
{t: q_t} holding only the nonzero ones, in index order, and every consumer
combines just those pairs (``_sparse_dot``).  Positions are taken in POT
order and an empty one is skipped: a basis vector whose lead is at
position pos is zero before pos, so a finished position stays empty.  At
each step the largest monomial at the current position is reduced by the
first lead in table order at that position that divides it, and otherwise
moved to the remainder.  Each basis has one lead table (``_lead_table``),
and reduction, the chain criterion and both pair loops read only the group
``table[pos]`` of a position.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from operator import add, le, sub

from .errors import InternalError, StructuralError
from .rings import (
    Poly,
    PolyRing,
    Vector,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    unit_vector,
    vec_dot,
    vec_is_zero,
    vec_sub,
)


# ---------------------------------------------------------------------------
# vector helpers


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale_coeff(c, v: Vector) -> Vector:
    return tuple(a.scale(c) for a in v)


def _sparse_dot(quots, vectors, ring: PolyRing, rank: int) -> Vector:
    """sum(q_t * vectors[t]) over the quotient dict {t: q_t}."""
    return vec_dot(quots.values(), [vectors[t] for t in quots], ring, rank)


def vec_key(v: Vector):
    return tuple(p.key() for p in v)


def vec_lead(v: Vector):
    """Leading module term (pos, mon, coeff) under POT, or None."""
    for pos, p in enumerate(v):
        if not p.is_zero():
            mon, coeff = p.lead_term()
            return pos, mon, coeff
    return None


def _pot_key(ring: PolyRing, pos: int, mon):
    return (-pos, ring.mon_key(mon))


def _lead_table(leads, rank: int):
    """table[pos] lists (t, mon, coeff) for each lead leads[t] = (pos, mon,
    coeff), t ascending; a position that holds no lead has an empty list."""
    table = [[] for _ in range(rank)]
    for t, (pos, mon, coeff) in enumerate(leads):
        table[pos].append((t, mon, coeff))
    return table


# ---------------------------------------------------------------------------
# reduction


def _reduce_full(v: Vector, basis, table, ring: PolyRing):
    """Full normal form of v against nonzero basis vectors, whose lead
    table (``_lead_table`` of their leads) the caller passes in.

    Returns (remainder, {t: q_t}) with v = remainder + sum(q_t * basis_t)
    exactly, the nonzero quotients only, keys ascending; no remainder term
    is divisible by a basis lead.  See the module docstring for the order
    of the steps.
    """
    fld = ring.field
    fsub, fmul, fdiv, zero = fld.sub, fld.mul, fld.div, fld.zero
    key = ring.mon_key
    rank = len(v)
    cur = [dict(p.terms) for p in v]
    rem = [{} for _ in range(rank)]
    quots = {}
    for pos in range(rank):
        d = cur[pos]
        if not d:
            continue
        here = table[pos]
        r = rem[pos]
        while d:
            mon = max(d, key=key)
            coeff = d[mon]
            # monomial_divides and monomial_div, inlined
            for t, bmon, bcoeff in here:
                if all(map(le, bmon, mon)):
                    break
            else:
                r[mon] = d.pop(mon)
                continue
            qmon = tuple(map(sub, mon, bmon))
            qc = fdiv(coeff, bcoeff)
            # the lead falls at every step, so qmon is new to quots[t]
            q = quots.get(t)
            if q is None:
                quots[t] = q = {}
            q[qmon] = qc
            b = basis[t]
            # b is zero before pos; its lead cancels d[mon] exactly
            for j in range(pos, rank):
                dj = cur[j]
                for m, c in b[j].terms.items():
                    m = tuple(map(add, m, qmon))  # monomial_mul, inlined
                    old = dj.get(m, zero)
                    s = fsub(old, fmul(c, qc))
                    if s == zero:
                        del dj[m]
                    else:
                        dj[m] = s
    zero_poly = ring.zero()
    return (
        tuple(Poly(ring, p) if p else zero_poly for p in rem),
        {t: Poly(ring, quots[t]) for t in sorted(quots)},
    )


def _s_coefficients(ring: PolyRing, lcm, lead_i, lead_j):
    """The monomial coefficients (lcm/lt_i, -lcm/lt_j) of the S-vector of
    two leads at one position, whose lcm is given; a lead is read as
    (_, mon, coeff), so a vec_lead or a lead table entry will do."""
    fld = ring.field
    ci, cj = fld.inv(lead_i[2]), fld.neg(fld.inv(lead_j[2]))
    return (
        Poly(ring, {monomial_div(lcm, lead_i[1]): ci}),
        Poly(ring, {monomial_div(lcm, lead_j[1]): cj}),
    )


def _chain_skips(i, j, lcm, group, done) -> bool:
    """The chain criterion for the pair (i, j) of one lead table group: a
    third lead there divides the lcm, and both of its pairs with i and j are
    in done, the pairs already taken (as (min, max) index tuples)."""
    return any(
        k != i
        and k != j
        and monomial_divides(kmon, lcm)
        and (min(i, k), max(i, k)) in done
        and (min(j, k), max(j, k)) in done
        for k, kmon, _ in group
    )


# ---------------------------------------------------------------------------
# free submodules


class FreeSubmodule:
    """A submodule of R^rank given by generator vectors; the reduced
    Gröbner basis, transformation matrices, and Schreyer syzygies are
    computed on demand and cached (write-once).

    ``tracked`` (default: all generators) is how many leading generators
    the combinations follow: ``reps`` and ``syzygies()`` keep only the
    coefficients of the first ``tracked`` generators, so syzygies are
    projected onto them.  ``normal_form_lift`` needs every generator.
    """

    def __init__(self, ring: PolyRing, rank: int, generators, tracked=None):
        if rank < 0:
            raise StructuralError("negative ambient rank")
        gens = []
        for g in generators:
            g = tuple(g)
            if len(g) != rank:
                raise StructuralError(
                    f"generator length {len(g)} != ambient rank {rank}"
                )
            for p in g:
                if not isinstance(p, Poly) or p.ring != ring:
                    raise StructuralError("generator entries must share the ring")
            gens.append(g)
        self.ring = ring
        self.rank = rank
        self.gens = tuple(gens)
        if tracked is None:
            tracked = len(gens)
        if not 0 <= tracked <= len(gens):
            raise StructuralError(
                f"tracked {tracked} outside 0..{len(gens)} generators"
            )
        self.tracked = tracked
        # (basis, reps, table), published in one assignment:
        #   basis  reduced GB vectors, monic, in descending lead order
        #   reps   each basis vector as combination of the tracked gens
        #   table  _lead_table of the basis leads; a step reduces by the
        #          first lead in table order at that position that divides
        self._gb = None
        self._syzygies = None

    # -- Buchberger ------------------------------------------------------
    def groebner(self) -> "FreeSubmodule":
        if self._gb is None:
            self._compute_basis()
        return self

    def basis(self):
        self.groebner()
        return self._gb[0]

    def _compute_basis(self):
        ring = self.ring
        fld = ring.field
        tracked = self.tracked

        # the work elements, which never change in the loop, as parallel
        # lists: vecs[t], its combination reps[t] and leads[t] = vec_lead
        vecs, reps, leads = [], [], []
        table = _lead_table(leads, self.rank)
        queue = []    # heap of (POT key of the lcm, i, j, lcm) with i < j
        done = set()  # pairs taken off the queue, reduced or skipped

        def add(vec, rep):  # pairs it with each element in its lead's group
            j = len(vecs)
            pos, mon, coeff = lead = vec_lead(vec)
            for i, imon, _ in table[pos]:
                lcm = monomial_lcm(imon, mon)
                heapq.heappush(queue, (_pot_key(ring, pos, lcm), i, j, lcm))
            vecs.append(vec)
            reps.append(rep)
            leads.append(lead)
            table[pos].append((j, mon, coeff))

        for i, g in enumerate(self.gens):
            if not vec_is_zero(g):
                add(g, unit_vector(ring, tracked, i))

        while queue:
            _, i, j, lcm = heapq.heappop(queue)
            done.add((i, j))
            lead_i, lead_j = leads[i], leads[j]
            if self.rank == 1 and lcm == monomial_mul(lead_i[1], lead_j[1]):
                continue  # product criterion
            if _chain_skips(i, j, lcm, table[lead_i[0]], done):
                continue  # chain criterion
            s = _s_coefficients(ring, lcm, lead_i, lead_j)
            s_vec = vec_dot(s, (vecs[i], vecs[j]), ring, self.rank)
            rem, quots = _reduce_full(s_vec, vecs, table, ring)
            if not vec_is_zero(rem):
                # the combination is needed only for a new basis element
                s_rep = vec_dot(s, (reps[i], reps[j]), ring, tracked)
                lift = _sparse_dot(quots, reps, ring, tracked)
                add(rem, vec_sub(s_rep, lift))

        # minimalize: drop elements whose lead is divisible by another lead;
        # kept ascends in POT order
        kept = []
        for t in sorted(range(len(vecs)),
                        key=lambda t: _pot_key(ring, *leads[t][:2])):
            pos, mon, _ = leads[t]
            if not any(leads[u][0] == pos and monomial_divides(leads[u][1], mon)
                       for u in kept):
                kept.append(t)

        # tail-reduce in one pass against the other kept elements, keeping
        # combinations in sync: no kept lead divides another, and the leads
        # never change, so a vector reduced against them stays reduced while
        # the tails of the others change (Cox-Little-O'Shea, IVA 2.7)
        for t in kept:
            others = [u for u in kept if u != t]
            rem, quots = _reduce_full(
                vecs[t], [vecs[u] for u in others],
                _lead_table([leads[u] for u in others], self.rank), ring,
            )
            lift = _sparse_dot(quots, [reps[u] for u in others], ring, tracked)
            vecs[t], reps[t] = rem, vec_sub(reps[t], lift)

        # monic, canonical order (descending leads; kept is ascending)
        basis, basis_reps, basis_leads = [], [], []
        for t in reversed(kept):
            pos, mon, coeff = leads[t]
            c = fld.inv(coeff)
            basis.append(vec_scale_coeff(c, vecs[t]))
            basis_reps.append(vec_scale_coeff(c, reps[t]))
            basis_leads.append((pos, mon, fld.one))
        table = _lead_table(basis_leads, self.rank)
        self._gb = (tuple(basis), tuple(basis_reps), table)

    # -- normal forms ----------------------------------------------------
    def normal_form(self, v) -> Vector:
        self.groebner()
        basis, _, table = self._gb
        rem, _ = _reduce_full(tuple(v), basis, table, self.ring)
        return rem

    def normal_form_lift(self, v):
        """(remainder, lift) with v = remainder + sum(lift_i * gens_i)."""
        if self.tracked < len(self.gens):
            raise InternalError(
                f"lift asked of a module tracking {self.tracked} of "
                f"{len(self.gens)} generators"
            )
        self.groebner()
        basis, reps, table = self._gb
        rem, quots = _reduce_full(tuple(v), basis, table, self.ring)
        return rem, _sparse_dot(quots, reps, self.ring, len(self.gens))

    def contains(self, v) -> bool:
        return vec_is_zero(self.normal_form(v))

    def span_equals(self, other: "FreeSubmodule") -> bool:
        return other.ring == self.ring and other.key() == self.key()

    def key(self):
        return (self.rank, tuple(sorted(vec_key(b) for b in self.basis())))

    # -- syzygies ----------------------------------------------------------
    def syzygies(self) -> "FreeSubmodule":
        """Generators of {c in R^n : sum(c_i * gens_i) = 0} (Schreyer),
        each cut to its first ``tracked`` coordinates."""
        if self._syzygies is not None:
            return self._syzygies
        self.groebner()
        ring = self.ring
        basis, reps, table = self._gb
        r = self.tracked
        zero = ring.zero()

        # Schreyer generators: syzygies among the basis elements, one per
        # same-position pair the chain criterion keeps, in POT-lcm order,
        # each {t: z_t} = tau_ij - quotients; the entries (i, mon, coeff)
        # order ties by (i, j)
        pairs = []
        for pos, group in enumerate(table):
            for li, lj in combinations(group, 2):
                lcm = monomial_lcm(li[1], lj[1])
                pairs.append((_pot_key(ring, pos, lcm), li, lj, lcm, group))
        pairs.sort()
        done = set()
        basis_syz = []
        for _, li, lj, lcm, group in pairs:
            i, j = li[0], lj[0]
            done.add((i, j))
            if _chain_skips(i, j, lcm, group, done):
                continue  # chain criterion
            si, sj = _s_coefficients(ring, lcm, li, lj)
            s_vec = vec_dot((si, sj), (basis[i], basis[j]), ring, self.rank)
            rem, quots = _reduce_full(s_vec, basis, table, ring)
            if not vec_is_zero(rem):
                raise InternalError("S-pair of a Gröbner basis not zero")
            syz = {t: -q for t, q in quots.items()}
            syz[i] = syz.get(i, zero) + si
            syz[j] = syz.get(j, zero) + sj
            basis_syz.append(syz)

        # translate to the original generators:
        #   rows of (I - lift . rep), lift = each generator in the basis,
        #   and (basis syzygy) . rep
        out = []
        seen = set()

        def push(vec):
            if vec_is_zero(vec):
                return
            k = vec_key(vec)
            if k not in seen:
                seen.add(k)
                out.append(vec)

        for jg, g in enumerate(self.gens):
            rem, lift = _reduce_full(g, basis, table, ring)
            if not vec_is_zero(rem):
                raise InternalError("generator does not reduce to zero")
            lifted = _sparse_dot(lift, reps, ring, r)
            push(vec_sub(unit_vector(ring, r, jg), lifted))
        for z in basis_syz:
            push(_sparse_dot(z, reps, ring, r))

        self._syzygies = FreeSubmodule(ring, r, out)
        return self._syzygies


def kernel_mod(vectors, relations, ring: PolyRing, rank: int):
    """Generators of {c : sum(c_i * vectors_i) lies in span(relations)}.

    vectors live in R^rank; the result vectors live in R^len(vectors).
    """
    vectors = [tuple(v) for v in vectors]
    relations = [tuple(n) for n in relations]
    combined = FreeSubmodule(
        ring, rank, vectors + relations, tracked=len(vectors)
    )
    return list(combined.syzygies().gens)
