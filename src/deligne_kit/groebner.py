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

``vec_dot`` adds each product of a term of c_i and a term of an entry of
v_i in place into one plain dict per coordinate, dropping a coefficient
that cancels to zero; each coordinate becomes a polynomial once, at the
end, and an empty one is the ring's one shared zero (``PolyRing.zero``).
Every c_i must lie in the given ring and share it with each entry it
multiplies.  It and ``_reduce_full`` inline the monomial product,
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
first basis lead, in the order the leads are passed, at that position that
divides it, and otherwise moved to the remainder.
"""

from __future__ import annotations

import heapq
from operator import add, le, sub

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
    return not any(p.terms for p in v)


def vec_degree(v: Vector) -> int:
    """The largest total degree of an entry of v; -1 for the zero vector."""
    return max((p.total_degree() for p in v), default=-1)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(q: Poly, v: Vector) -> Vector:
    return tuple(q * a for a in v)


def vec_scale_coeff(c, v: Vector) -> Vector:
    return tuple(a.scale(c) for a in v)


def vec_dot(coeffs, vectors, ring: PolyRing, rank: int) -> Vector:
    """sum(c_i * v_i) in R^rank over zip(coeffs, vectors), accumulated
    into one plain dict per coordinate that some product reaches; each
    becomes a polynomial once, at the end, and every other coordinate is
    the ring's zero.  Every c_i and every entry it multiplies must lie in
    ``ring``."""
    fld = ring.field
    fadd, fmul, fzero = fld.add, fld.mul, fld.zero
    acc = {}  # coordinate -> {monomial: coefficient}
    for c, v in zip(coeffs, vectors):
        if not c.terms:
            continue
        if c.ring is not ring and c.ring != ring:
            raise StructuralError("mixed rings")
        cterms = c.terms.items()
        for i, a in enumerate(v):
            if not a.terms:
                continue
            c._check(a)
            d = acc.get(i)
            if d is None:
                acc[i] = d = {}
            for m1, c1 in cterms:
                for m2, c2 in a.terms.items():
                    m = tuple(map(add, m1, m2))  # monomial_mul, inlined
                    t = fmul(c1, c2)
                    cur = d.get(m)
                    if cur is None:
                        d[m] = t
                    else:
                        t = fadd(cur, t)
                        if t == fzero:
                            del d[m]
                        else:
                            d[m] = t
    out = [ring.zero()] * rank
    for i, d in acc.items():
        if d:
            out[i] = Poly(ring, d)
    return tuple(out)


def _sparse_dot(quots, vectors, ring: PolyRing, rank: int) -> Vector:
    """sum(q_t * vectors[t]) over the quotient dict {t: q_t}."""
    return vec_dot(quots.values(), [vectors[t] for t in quots], ring, rank)


def unit_vector(ring: PolyRing, rank: int, i: int) -> Vector:
    """e_i in R^rank; the zero vector when i >= rank."""
    zero = ring.zero()
    return tuple(ring.one() if j == i else zero for j in range(rank))


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
        here = [(t, bl[1], bl[2]) for t, bl in enumerate(leads) if bl[0] == pos]
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
    two leads (pos, mon, coeff) at one position, whose lcm is given."""
    fld = ring.field
    ci, cj = fld.inv(lead_i[2]), fld.neg(fld.inv(lead_j[2]))
    return (
        Poly(ring, {monomial_div(lcm, lead_i[1]): ci}),
        Poly(ring, {monomial_div(lcm, lead_j[1]): cj}),
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
        # (basis, reps, leads), published in one assignment:
        #   basis  reduced GB vectors, monic, in descending lead order
        #   reps   each basis vector as combination of the tracked gens
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

        work = []   # list of [vector, rep]; entries never change in the loop
        leads = []  # leads[t] = vec_lead(work[t][0])
        for i, g in enumerate(self.gens):
            if not vec_is_zero(g):
                work.append([g, unit_vector(ring, tracked, i)])
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
            lead_i, lead_j = leads[i], leads[j]
            if self.rank == 1 and lcm == monomial_mul(lead_i[1], lead_j[1]):
                continue  # product criterion
            if _chain_skips(i, j, lcm, leads, done):
                continue  # chain criterion
            (vi, ri), (vj, rj) = work[i], work[j]
            s = _s_coefficients(ring, lcm, lead_i, lead_j)
            s_vec = vec_dot(s, (vi, vj), ring, self.rank)
            rem, quots = _reduce_full(s_vec, [w[0] for w in work], leads, ring)
            if not vec_is_zero(rem):
                # the combination is needed only for a new basis element
                reps = [w[1] for w in work]
                s_rep = vec_dot(s, (ri, rj), ring, tracked)
                rep = vec_sub(s_rep, _sparse_dot(quots, reps, ring, tracked))
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
            reps = [work[u][1] for u in u_list]
            rep = vec_sub(work[t][1], _sparse_dot(quots, reps, ring, tracked))
            work[t] = [rem, rep]

        # monic, canonical order (descending leads; work is ascending)
        basis, reps, basis_leads = [], [], []
        for (vec, rep), (pos, mon, coeff) in zip(reversed(work), reversed(leads)):
            c = fld.inv(coeff)
            basis.append(vec_scale_coeff(c, vec))
            reps.append(vec_scale_coeff(c, rep))
            basis_leads.append((pos, mon, fld.one))

        self._gb = (tuple(basis), tuple(reps), tuple(basis_leads))

    # -- normal forms ----------------------------------------------------
    def normal_form(self, v) -> Vector:
        self.groebner()
        basis, _, leads = self._gb
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
        basis, reps, leads = self._gb
        rem, quots = _reduce_full(tuple(v), basis, leads, self.ring)
        return rem, _sparse_dot(quots, reps, self.ring, len(self.gens))

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
        basis, reps, leads = self._gb
        r = self.tracked
        zero = ring.zero()

        # Schreyer generators: syzygies among the basis elements, one per
        # same-position pair the chain criterion keeps, in POT-lcm order,
        # each {t: z_t} = tau_ij - quotients
        pairs = []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
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
            si, sj = _s_coefficients(ring, lcm, li, lj)
            s_vec = vec_dot((si, sj), (basis[i], basis[j]), ring, self.rank)
            rem, quots = _reduce_full(s_vec, basis, leads, ring)
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
            rem, lift = _reduce_full(g, basis, leads, ring)
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
