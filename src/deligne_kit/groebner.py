"""Gröbner bases for submodules of free modules, with lift coefficients
and Schreyer syzygies.

Module terms (position, monomial) are ordered position-over-term (POT):
earlier positions dominate, ties broken by the ring's monomial order.
Reduced bases are canonical, so normal forms decide membership and
equality.

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

Schreyer syzygies (``FreeSubmodule.syzygies``) take the same-position
pairs of the reduced basis in the same order, smallest POT lcm first, ties
broken by (i, j), and skip a pair by the same chain criterion
(``_chain_skips``); the product criterion is not used there.  Each kept
pair (i, j) gives the lead-term syzygy tau_ij = (lcm/lt_i) e_i -
(lcm/lt_j) e_j, lifted by reducing its S-vector to zero.  The kept tau
still generate Syz(LT), the syzygies of the lead terms: the tau_ij of all
same-position pairs generate it, and every pair is, by induction on the
order in which pairs are taken, in the span of the kept tau taken before
it.  A kept pair is its own witness.  A pair skipped because of k has
tau_ij = (lcm_ij/lcm_ik) tau_ik - (lcm_ij/lcm_jk) tau_jk, up to unit
factors, and (i, k) and (j, k) were taken earlier.  By Schreyer's theorem
the lifts of generators of Syz(LT) generate Syz(basis) (Eisenbud,
Commutative Algebra, 15.10; Cox-Little-O'Shea, IVA 2.10).

Normal forms (``_reduce_full``) copy the input vector once into one plain
dict per position and update it, the remainder and each quotient in place;
they become polynomials only at the end.  Positions are taken in POT order
and an empty one is skipped: a basis vector whose lead is at position pos
is zero before pos, so a finished position stays empty.  At each step the
largest monomial at the current position is reduced by the first basis
lead, in the order the leads are passed, at that position that divides it,
and otherwise moved to the remainder.
"""

from __future__ import annotations

import heapq

from .errors import InternalError, StructuralError
from .rings import (
    Poly,
    PolyRing,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

Vector = tuple  # tuple of Poly, one per ambient coordinate


# ---------------------------------------------------------------------------
# vector helpers


def zero_vector(ring: PolyRing, rank: int) -> Vector:
    return tuple(ring.zero() for _ in range(rank))


def vec_is_zero(v: Vector) -> bool:
    return all(p.is_zero() for p in v)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(q: Poly, v: Vector) -> Vector:
    return tuple(q * a for a in v)


def vec_scale_coeff(c, v: Vector) -> Vector:
    return tuple(a.scale(c) for a in v)


def vec_mul_term(coeff, mon, v: Vector) -> Vector:
    return tuple(a.mul_term(coeff, mon) for a in v)


def vec_dot(coeffs, vectors, ring: PolyRing, rank: int) -> Vector:
    """sum(c_i * v_i) for polynomial coefficients c_i."""
    acc = zero_vector(ring, rank)
    for c, v in zip(coeffs, vectors):
        if not c.is_zero():
            acc = vec_add(acc, vec_scale(c, v))
    return acc


def vec_key(v: Vector):
    return tuple(p.key() for p in v)


def vec_lead(v: Vector, ring: PolyRing):
    """Leading module term (pos, mon, coeff) under POT, or None."""
    for pos, p in enumerate(v):
        if not p.is_zero():
            mon, coeff = p.lead_term()
            return pos, mon, coeff
    return None


def _pot_key(ring: PolyRing, pos: int, mon):
    return (-pos, ring.mon_key(mon))


# ---------------------------------------------------------------------------
# reduction


def _reduce_full(v: Vector, basis, leads, ring: PolyRing):
    """Full normal form of v against nonzero basis vectors, whose leads
    (vec_lead of each) the caller passes in.

    Returns (remainder, quotients) with v = remainder + sum(q_t * basis_t)
    exactly; no remainder term is divisible by a basis lead.  See the
    module docstring for the order of the steps.
    """
    fld = ring.field
    fsub, fmul, fdiv, zero = fld.sub, fld.mul, fld.div, fld.zero
    key = ring.mon_key
    rank = len(v)
    cur = [dict(p.terms) for p in v]
    rem = [{} for _ in range(rank)]
    quots = [{} for _ in basis]
    for pos in range(rank):
        d = cur[pos]
        if not d:
            continue
        here = [(t, bl[1], bl[2]) for t, bl in enumerate(leads) if bl[0] == pos]
        r = rem[pos]
        while d:
            mon = max(d, key=key)
            coeff = d[mon]
            for t, bmon, bcoeff in here:
                if monomial_divides(bmon, mon):
                    break
            else:
                r[mon] = d.pop(mon)
                continue
            qmon = monomial_div(mon, bmon)
            qc = fdiv(coeff, bcoeff)
            # the lead falls at every step, so qmon is new to quots[t]
            quots[t][qmon] = qc
            b = basis[t]
            # b is zero before pos; its lead cancels d[mon] exactly
            for j in range(pos, rank):
                dj = cur[j]
                for m, c in b[j].terms.items():
                    m = monomial_mul(m, qmon)
                    old = dj.get(m, zero)
                    s = fsub(old, fmul(c, qc))
                    if s == zero:
                        del dj[m]
                    else:
                        dj[m] = s
    return (
        tuple(Poly(ring, p) for p in rem),
        [Poly(ring, q) for q in quots],
    )


def _chain_skips(i, j, lcm, leads, done) -> bool:
    """The chain criterion for the same-position pair (i, j): a third lead
    at that position divides the lcm, and both of its pairs with i and j
    are in done, the pairs already taken (as (min, max) index tuples)."""
    pos = leads[i][0]
    return any(
        k != i
        and k != j
        and lk[0] == pos
        and monomial_divides(lk[1], lcm)
        and (min(i, k), max(i, k)) in done
        and (min(j, k), max(j, k)) in done
        for k, lk in enumerate(leads)
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
        # (basis, reps, lifts, leads), published in one assignment:
        #   basis  reduced GB vectors, monic, in descending lead order
        #   reps   each basis vector as combination of the tracked gens
        #   lifts  each generator as combination of basis
        #   leads  vec_lead of each basis vector
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

        def unit_rep(i):
            return tuple(
                ring.one() if j == i else ring.zero() for j in range(tracked)
            )

        work = []   # list of [vector, rep]; entries never change in the loop
        leads = []  # leads[t] = vec_lead(work[t][0])
        for i, g in enumerate(self.gens):
            if not vec_is_zero(g):
                work.append([g, unit_rep(i)])
                leads.append(vec_lead(g, ring))

        queue = []    # heap of (POT key of the lcm, i, j, lcm) with i < j
        done = set()  # pairs taken off the queue, reduced or skipped

        def add_pairs(new_idx):
            pos, mon, _ = leads[new_idx]
            for t in range(new_idx):
                if leads[t][0] == pos:
                    lcm = monomial_lcm(leads[t][1], mon)
                    heapq.heappush(
                        queue, (_pot_key(ring, pos, lcm), t, new_idx, lcm)
                    )

        for idx in range(len(work)):
            add_pairs(idx)

        while queue:
            _, i, j, lcm = heapq.heappop(queue)
            done.add((i, j))
            _, mon_i, c_i = leads[i]
            _, mon_j, c_j = leads[j]
            if self.rank == 1 and lcm == monomial_mul(mon_i, mon_j):
                continue  # product criterion
            if _chain_skips(i, j, lcm, leads, done):
                continue  # chain criterion
            vi, ri = work[i]
            vj, rj = work[j]
            mi, ci = monomial_div(lcm, mon_i), fld.inv(c_i)
            mj, cj = monomial_div(lcm, mon_j), fld.inv(c_j)
            s_vec = vec_sub(vec_mul_term(ci, mi, vi), vec_mul_term(cj, mj, vj))
            s_rep = vec_sub(vec_mul_term(ci, mi, ri), vec_mul_term(cj, mj, rj))
            rem, quots = _reduce_full(s_vec, [w[0] for w in work], leads, ring)
            if not vec_is_zero(rem):
                rep = s_rep
                for t, q in enumerate(quots):
                    if not q.is_zero():
                        rep = vec_sub(rep, vec_scale(q, work[t][1]))
                work.append([rem, rep])
                leads.append(vec_lead(rem, ring))
                add_pairs(len(work) - 1)

        # minimalize: drop elements whose lead is divisible by another lead
        order = sorted(
            range(len(work)), key=lambda t: _pot_key(ring, *leads[t][:2])
        )
        kept = []
        for t in order:
            lt = leads[t]
            redundant = False
            for u in kept:
                lu = leads[u]
                if lu[0] == lt[0] and monomial_divides(lu[1], lt[1]):
                    redundant = True
                    break
            if not redundant:
                kept.append(t)
        work = [work[t] for t in kept]
        # no kept lead divides another, so tail reduction keeps every lead
        leads = [leads[t] for t in kept]

        # tail-reduce in one pass, keeping combinations in sync: the leads
        # never change, so a vector reduced against them stays reduced while
        # the tails of the others change (Cox-Little-O'Shea, IVA 2.7)
        for t in range(len(work)):
            u_list = [u for u in range(len(work)) if u != t]
            rem, quots = _reduce_full(
                work[t][0],
                [work[u][0] for u in u_list],
                [leads[u] for u in u_list],
                ring,
            )
            rep = work[t][1]
            for pos_q, q in enumerate(quots):
                if not q.is_zero():
                    rep = vec_sub(rep, vec_scale(q, work[u_list[pos_q]][1]))
            work[t] = [rem, rep]

        # monic, canonical order (descending leads; work is ascending)
        basis, reps, basis_leads = [], [], []
        for (vec, rep), (pos, mon, coeff) in zip(reversed(work), reversed(leads)):
            c = fld.inv(coeff)
            basis.append(vec_scale_coeff(c, vec))
            reps.append(vec_scale_coeff(c, rep))
            basis_leads.append((pos, mon, fld.one))

        # express each original generator in the basis
        lifts = []
        for g in self.gens:
            rem, quots = _reduce_full(g, basis, basis_leads, ring)
            if not vec_is_zero(rem):
                raise InternalError("generator does not reduce to zero")
            lifts.append(tuple(quots))

        self._gb = (tuple(basis), tuple(reps), tuple(lifts), tuple(basis_leads))

    # -- normal forms ----------------------------------------------------
    def normal_form(self, v) -> Vector:
        self.groebner()
        basis, _, _, leads = self._gb
        rem, _ = _reduce_full(tuple(v), basis, leads, self.ring)
        return rem

    def normal_form_lift(self, v):
        """(remainder, lift) with v = remainder + sum(lift_i * gens_i)."""
        if self.tracked < len(self.gens):
            raise InternalError(
                f"lift asked of a module tracking {self.tracked} of "
                f"{len(self.gens)} generators"
            )
        self.groebner()
        basis, reps, _, leads = self._gb
        rem, quots = _reduce_full(tuple(v), basis, leads, self.ring)
        ngens = len(self.gens)
        lift = [self.ring.zero() for _ in range(ngens)]
        for t, q in enumerate(quots):
            if not q.is_zero():
                rep = reps[t]
                for i in range(ngens):
                    if not rep[i].is_zero():
                        lift[i] = lift[i] + q * rep[i]
        return rem, tuple(lift)

    def contains(self, v) -> bool:
        return vec_is_zero(self.normal_form(v))

    def span_equals(self, other: "FreeSubmodule") -> bool:
        if other.ring != self.ring or other.rank != self.rank:
            return False
        mine = sorted(vec_key(b) for b in self.basis())
        theirs = sorted(vec_key(b) for b in other.basis())
        return mine == theirs

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
        fld = ring.field
        basis, reps, gens_lift, leads = self._gb
        s = len(basis)
        r = self.tracked

        # Schreyer generators: syzygies among the basis elements, one per
        # same-position pair the chain criterion keeps, in POT-lcm order
        pairs = []
        for i in range(s):
            for j in range(i + 1, s):
                if leads[i][0] == leads[j][0]:
                    lcm = monomial_lcm(leads[i][1], leads[j][1])
                    pairs.append((_pot_key(ring, leads[i][0], lcm), i, j, lcm))
        pairs.sort()
        done = set()
        basis_syz = []
        for _, i, j, lcm in pairs:
            done.add((i, j))
            li, lj = leads[i], leads[j]
            if _chain_skips(i, j, lcm, leads, done):
                continue  # chain criterion
            mi, ci = monomial_div(lcm, li[1]), fld.inv(li[2])
            mj, cj = monomial_div(lcm, lj[1]), fld.inv(lj[2])
            s_vec = vec_sub(
                vec_mul_term(ci, mi, basis[i]), vec_mul_term(cj, mj, basis[j])
            )
            rem, quots = _reduce_full(s_vec, basis, leads, ring)
            if not vec_is_zero(rem):
                raise InternalError("S-pair of a Gröbner basis not zero")
            syz = [ring.zero() for _ in range(s)]
            syz[i] = syz[i] + ring.term(ci, mi)
            syz[j] = syz[j] - ring.term(cj, mj)
            for t, q in enumerate(quots):
                syz[t] = syz[t] - q
            if not vec_is_zero(tuple(syz)):
                basis_syz.append(tuple(syz))

        # translate to the original generators:
        #   rows of (I - lift . rep)  and  (basis syzygy) . rep
        out = []
        seen = set()

        def push(vec):
            if vec_is_zero(vec):
                return
            k = vec_key(vec)
            if k not in seen:
                seen.add(k)
                out.append(vec)

        for jg in range(len(self.gens)):
            row = [
                ring.one() if i == jg else ring.zero() for i in range(r)
            ]
            for t, q in enumerate(gens_lift[jg]):
                if not q.is_zero():
                    rep = reps[t]
                    for i in range(r):
                        if not rep[i].is_zero():
                            row[i] = row[i] - q * rep[i]
            push(tuple(row))

        for z in basis_syz:
            row = [ring.zero() for _ in range(r)]
            for t, zt in enumerate(z):
                if not zt.is_zero():
                    rep = reps[t]
                    for i in range(r):
                        if not rep[i].is_zero():
                            row[i] = row[i] + zt * rep[i]
            push(tuple(row))

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
