"""Independent brute-force oracles for the test suite: degreewise linear
algebra over exact fields, never touching the Gröbner machinery under test,
a reference normal-form reduction written with plain polynomial
arithmetic, the colon 0 :_M I as the kernel of a stacked map, a reference
saturation chain that takes each link as the colon by a power of the
ideal, ``kernel_mod`` as the head of the full syzygies, the linear
combination sum(c_i * v_i) entry by entry, and polynomial
arithmetic over Q on plain dictionaries of ``Fraction`` values,
independent of the rational field under test."""

from fractions import Fraction
from itertools import product

from deligne_kit.rings import PolyRing, monomial_div, monomial_divides


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree exactly d, in a fixed order."""
    if d < 0:
        return []
    out = []
    for exps in product(range(d + 1), repeat=nvars):
        if sum(exps) == d:
            out.append(exps)
    return out


def rref(rows, field):
    """Row-reduce in place logic over an exact field; returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(v, inv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != field.zero:
                f = rows[i][c]
                rows[i] = [
                    field.sub(v, field.mul(f, w))
                    for v, w in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def matrix_rank(rows, field) -> int:
    return len(rref(rows, field)[1])


def kernel_basis(rows, field, ncols: int):
    """Basis of {v : A v = 0} for A given by rows."""
    reduced, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(reduced[r][fc])
        basis.append(v)
    return basis


def poly_coords(p, mons):
    """Coefficient vector of p over an explicit monomial list."""
    field = p.ring.field
    index = {m: i for i, m in enumerate(mons)}
    out = [field.zero] * len(mons)
    for mon, c in p.terms.items():
        if mon not in index:
            raise AssertionError(f"monomial {mon} outside the basis")
        out[index[mon]] = c
    return out


def vector_coords(vec, ring: PolyRing, degree: int, shifts=None):
    """Coordinates of a homogeneous vector in (+)_pos R(-shift_pos) at the
    given total degree: position pos contributes the monomials of degree
    degree - shift_pos."""
    rank = len(vec)
    shifts = shifts or [0] * rank
    blocks = [monomials_of_degree(ring.nvars, degree - shifts[i]) for i in range(rank)]
    out = []
    for p, mons in zip(vec, blocks):
        out.extend(poly_coords(p, mons))
    return out


def span_dimension(vectors, ring: PolyRing, degree: int, gen_degrees,
                   shifts=None):
    """dim of the degree piece of the R-span of homogeneous vectors: stack
    all monomial multiples m * v with deg(m) + deg(v) = degree."""
    rows = []
    for v, dv in zip(vectors, gen_degrees):
        for mon in monomials_of_degree(ring.nvars, degree - dv):
            mv = tuple(p.mul_term(ring.field.one, mon) for p in v)
            rows.append(vector_coords(mv, ring, degree, shifts))
    if not rows:
        return 0
    return matrix_rank(rows, ring.field)


def vector_degree(vec, shifts=None):
    """Common total degree of a homogeneous vector; None if zero."""
    shifts = shifts or [0] * len(vec)
    degs = set()
    for p, s in zip(vec, shifts):
        for mon in p.terms:
            degs.add(sum(mon) + s)
    if not degs:
        return None
    if len(degs) != 1:
        raise AssertionError(f"vector is not homogeneous: degrees {degs}")
    return degs.pop()


def degreewise_syzygies(gens, ring: PolyRing, degree: int):
    """Basis of {(c_j) : sum(c_j * g_j) = 0} with each c_j homogeneous of
    degree (degree - deg g_j); pure linear algebra.  The g_j are nonzero
    homogeneous polynomials, or vectors (tuples) of polynomials, each
    homogeneous of one total degree."""
    vecs = [g if isinstance(g, tuple) else (g,) for g in gens]
    gen_degs = [vector_degree(v) for v in vecs]
    cols = []
    layout = []
    for j, v in enumerate(vecs):
        for mon in monomials_of_degree(ring.nvars, degree - gen_degs[j]):
            prod = tuple(p.mul_term(ring.field.one, mon) for p in v)
            cols.append(vector_coords(prod, ring, degree))
            layout.append((j, mon))
    if not cols:
        return [], layout
    rows = [[col[r] for col in cols] for r in range(len(cols[0]))]
    return kernel_basis(rows, ring.field, len(cols)), layout


def syzygy_vectors_from_kernel(kernel, layout, gens, ring: PolyRing):
    """Rebuild polynomial syzygy vectors from kernel coordinates."""
    out = []
    for kv in kernel:
        vec = [ring.zero() for _ in gens]
        for coeff, (j, mon) in zip(kv, layout):
            if coeff != ring.field.zero:
                vec[j] = vec[j] + ring.term(coeff, mon)
        out.append(tuple(vec))
    return out


def reduce_full_reference(v, basis, leads, ring: PolyRing):
    """The normal-form reduction of groebner._reduce_full written on
    immutable polynomials: every step rebuilds the partial remainder, the
    working vector and a quotient.  Same reducer choice (the first lead, in
    ``leads`` order, at the position of the current POT lead that divides
    it), so remainder and quotients must agree exactly."""
    fld = ring.field
    rank = len(v)
    quots = [ring.zero() for _ in basis]
    rem = [ring.zero() for _ in range(rank)]
    cur = list(v)

    def current_lead():
        for pos in range(rank):
            if not cur[pos].is_zero():
                mon, coeff = cur[pos].lead_term()
                return pos, mon, coeff
        return None

    while True:
        lt = current_lead()
        if lt is None:
            break
        pos, mon, coeff = lt
        hit = None
        for t, bl in enumerate(leads):
            if bl[0] == pos and monomial_divides(bl[1], mon):
                hit = t
                break
        if hit is None:
            term = ring.term(coeff, mon)
            rem[pos] = rem[pos] + term
            cur[pos] = cur[pos] - term
        else:
            bpos, bmon, bcoeff = leads[hit]
            qmon = monomial_div(mon, bmon)
            qc = fld.div(coeff, bcoeff)
            quots[hit] = quots[hit] + ring.term(qc, qmon)
            b = basis[hit]
            for j in range(rank):
                if not b[j].is_zero():
                    cur[j] = cur[j] - b[j].mul_term(qc, qmon)
    return tuple(rem), quots


def colon_reference(M, polys):
    """Generators of 0 :_M (polys) as the kernel of m -> (p*m)_p, from M to
    M^len(polys): one stacked vector per ambient coordinate, with M's
    relations copied into every block, through ``kernel_mod_reference``."""
    ring, r = M.ring, M.rank
    polys = [p for p in polys if not p.is_zero()]
    zero = [ring.zero()] * r
    vectors = [
        tuple(q for p in polys for q in zero[:i] + [p] + zero[i + 1 :])
        for i in range(r)
    ]
    relations = [
        tuple(zero * b + list(nu) + zero * (len(polys) - 1 - b))
        for b in range(len(polys))
        for nu in M.relations.gens
    ]
    return kernel_mod_reference(vectors, relations, ring, r * len(polys))


def saturate_power_chain_reference(M, polys, cap: int = 64):
    """The chain 0 :_M J^t with every link built from scratch as the colon
    of M by the power J^t (``colon_reference``), stopping at the first t
    whose span equals the next one's.  Returns (t_star, the span of
    0 :_M J^t_star in R^rank, M's relations included), for comparison with
    ``modules.saturate``."""
    from deligne_kit.groebner import FreeSubmodule
    from deligne_kit.modules import ideal_power

    def span(t):
        gens = colon_reference(M, ideal_power(polys, t))
        return FreeSubmodule(
            M.ring, M.rank, list(gens) + list(M.relations.gens)
        )

    prev = span(1)
    for t in range(1, cap):
        nxt = span(t + 1)
        if nxt.span_equals(prev):
            return t, prev
        prev = nxt
    raise AssertionError(f"power chain did not stabilize by t = {cap}")


def kernel_mod_reference(vectors, relations, ring: PolyRing, rank: int):
    """``groebner.kernel_mod`` computed from every syzygy of vectors +
    relations, each cut to its first len(vectors) coordinates, with zero
    and repeated heads dropped in order."""
    from deligne_kit.groebner import FreeSubmodule, vec_key
    from deligne_kit.rings import vec_is_zero

    vectors = [tuple(v) for v in vectors]
    relations = [tuple(n) for n in relations]
    syz = FreeSubmodule(ring, rank, vectors + relations).syzygies()
    t = len(vectors)
    out = []
    seen = set()
    for z in syz.gens:
        head = tuple(z[:t])
        if vec_is_zero(head):
            continue
        k = vec_key(head)
        if k not in seen:
            seen.add(k)
            out.append(head)
    return out


def vec_dot_reference(coeffs, vectors, ring: PolyRing, rank: int):
    """sum(c_i * v_i) in R^rank, one entry at a time, over the first
    min(len(coeffs), len(vectors)) terms, zero terms included."""
    terms = min(len(coeffs), len(vectors))
    out = []
    for j in range(rank):
        acc = ring.zero()
        for i in range(terms):
            acc = acc + coeffs[i] * vectors[i][j]
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials over Q as {exponent tuple: Fraction}, zero terms dropped


def fraction_terms(terms):
    return {m: Fraction(c) for m, c in terms.items() if c != 0}


def fraction_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
        if out[m] == 0:
            del out[m]
    return out


def fraction_mul_term(a, coeff, mon):
    coeff = Fraction(coeff)
    if coeff == 0:
        return {}
    return {tuple(x + y for x, y in zip(m, mon)): c * coeff for m, c in a.items()}


def fraction_mul(a, b):
    out = {}
    for m, c in b.items():
        out = fraction_add(out, fraction_mul_term(a, c, m))
    return out
