import itertools
import random

import pytest

from deligne_kit import groebner
from deligne_kit.errors import InternalError, StructuralError
from deligne_kit.groebner import FreeSubmodule, kernel_mod, vec_lead
from deligne_kit.rings import (
    GF,
    QQ,
    Poly,
    PolyRing,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    unit_vector,
    vec_dot,
    vec_is_zero,
)

from oracles import (
    degreewise_syzygies,
    kernel_mod_reference,
    reduce_full_reference,
    span_dimension,
    syzygy_vectors_from_kernel,
    vec_dot_reference,
    vector_degree,
)


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y"))


def reconstruct(lift, gens, ring, rank):
    return vec_dot(lift, gens, ring, rank)


def test_basis_of_x_y(R):
    x, y = R.gens()
    S = FreeSubmodule(R, 1, [(x,), (y,)]).groebner()
    basis = [tuple(str(p) for p in b) for b in S.basis()]
    assert sorted(basis) == [("x",), ("y",)]


def test_basis_nontrivial_instance(R):
    # oracle: 1 is not in the ideal because (1, 1) is a common zero;
    # y^2 - x is in it with the explicit combination -y*(x^2-y) + x*(xy-1)
    x, y = R.gens()
    S = FreeSubmodule(R, 1, [(x**2 - y,), (x * y - R.one(),)]).groebner()
    for b in S.basis():
        assert b[0].evaluate((1, 1)) == 0
    rem, lift = S.normal_form_lift((y**2 - x,))
    assert vec_is_zero(rem)
    recon = reconstruct(lift, list(S.gens), R, 1)
    assert recon[0] == y**2 - x
    rem1, _ = S.normal_form_lift((R.one(),))
    assert not vec_is_zero(rem1)


def test_empty_generators(R):
    S = FreeSubmodule(R, 1, []).groebner()
    assert S.basis() == ()


def test_normal_form_lift_examples(R):
    x, y = R.gens()
    S = FreeSubmodule(R, 1, [(x,), (y,)])
    rem, lift = S.normal_form_lift((x**2 * y,))
    assert vec_is_zero(rem)
    assert reconstruct(lift, list(S.gens), R, 1)[0] == x**2 * y

    rem, lift = S.normal_form_lift((R.one(),))
    assert rem == (R.one(),)

    rem, lift = S.normal_form_lift((R.zero(),))
    assert vec_is_zero(rem)
    assert reconstruct(lift, list(S.gens), R, 1)[0].is_zero()


def test_normal_form_canonical(R):
    # equal submodules yield identical reduced bases and normal forms
    x, y = R.gens()
    S1 = FreeSubmodule(R, 1, [(x,), (y,), (x + y,)])
    S2 = FreeSubmodule(R, 1, [(y,), (x,)])
    assert S1.span_equals(S2)
    v = (x**3 + y + R.one(),)
    assert S1.normal_form(v) == S2.normal_form(v)


def test_syzygies_koszul_pair(R):
    x, y = R.gens()
    Z = FreeSubmodule(R, 1, [(x,), (y,)]).syzygies()
    assert Z.rank == 2
    assert Z.basis() != ()
    # (y, -x) generates: both inclusions via normal forms
    expected = FreeSubmodule(R, 2, [(y, -x)])
    for g in Z.gens:
        assert expected.contains(g)
    assert Z.contains((y, -x))


def test_syzygies_single_generator_domain(R):
    x, _ = R.gens()
    Z = FreeSubmodule(R, 1, [(x,)]).syzygies()
    assert Z.basis() == ()


def test_syzygies_soundness_random(R):
    rng = random.Random(5)
    mons = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (0, 0)]
    for _ in range(10):
        gens = []
        for _ in range(3):
            t = {}
            for _ in range(rng.randint(1, 2)):
                t[mons[rng.randrange(len(mons))]] = rng.randint(-2, 2)
            p = R.poly(t)
            if not p.is_zero():
                gens.append((p,))
        if not gens:
            continue
        S = FreeSubmodule(R, 1, gens)
        for s in S.syzygies().gens:
            total = vec_dot(s, list(S.gens), R, 1)
            assert vec_is_zero(total)


def test_syzygies_completeness_degreewise(R):
    # generators (x^2, xy): syzygy module generated by (y, -x); check the
    # computed span matches the brute-force degreewise kernel in degrees <= 4
    x, y = R.gens()
    gens = [x**2, x * y]
    S = FreeSubmodule(R, 1, [(g,) for g in gens])
    Z = S.syzygies()
    zgens = [z for z in Z.gens]
    zdegs = [vector_degree(z, shifts=[2, 2]) for z in zgens]
    for d in range(2, 5):
        kernel, layout = degreewise_syzygies(gens, R, d)
        oracle_vecs = syzygy_vectors_from_kernel(kernel, layout, gens, R)
        dim_oracle = len(kernel)
        dim_computed = span_dimension(
            zgens, R, d, gen_degrees=zdegs, shifts=[2, 2]
        )
        assert dim_computed == dim_oracle
        for v in oracle_vecs:
            assert Z.contains(v)


def test_module_rank2_syzygies(R):
    x, y = R.gens()
    # projection-style relations among module vectors
    S = FreeSubmodule(R, 2, [(x, y), (x * y, y**2)])
    Z = S.syzygies()
    for s in Z.gens:
        assert vec_is_zero(vec_dot(s, list(S.gens), R, 2))
    assert Z.contains((y, -R.one()))


def test_kernel_mod(R):
    x, y = R.gens()
    # {c : c*x in (x^2)} = (x)
    out = kernel_mod([(x,)], [(x**2,)], R, 1)
    K = FreeSubmodule(R, 1, out)
    assert K.contains((x,))
    assert not K.contains((R.one(),))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("rank", [1, 2])
def test_kernel_mod_matches_full_syzygy_reference(field, rank):
    # 1-3 vectors against 2-5 relations, as the module code stacks them;
    # the tracked syzygies give the same list, in the same order, as the
    # head of the full syzygies
    ring = PolyRing(field, ("x", "y", "z"))
    rng = random.Random(f"kernel_mod:{field.name}:{rank}")
    nonempty = 0
    for _ in range(6):
        vectors = [
            _random_homogeneous_vector(ring, rng, rank, rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        ]
        relations = [
            _random_homogeneous_vector(ring, rng, rank, rng.randint(1, 2))
            for _ in range(rng.randint(2, 5))
        ]
        out = kernel_mod(vectors, relations, ring, rank)
        assert out == kernel_mod_reference(vectors, relations, ring, rank)
        assert all(len(v) == len(vectors) for v in out)
        nonempty += bool(out)
    assert nonempty


def test_tracked_syzygies_are_cut_to_the_tracked_generators(R):
    x, y = R.gens()
    S = FreeSubmodule(R, 1, [(x,), (y,), (x * y,)], tracked=2)
    Z = S.syzygies()
    assert Z.rank == 2 and all(len(z) == 2 for z in Z.gens)
    assert Z.contains((y, -x)) and Z.contains((y, R.zero()))
    assert FreeSubmodule(R, 1, [(x,)], tracked=0).syzygies().gens == ()


def test_tracked_module_refuses_a_lift(R):
    x, y = R.gens()
    S = FreeSubmodule(R, 1, [(x,), (y,)], tracked=1)
    assert S.contains((x * y,))
    with pytest.raises(InternalError, match="tracking 1 of 2"):
        S.normal_form_lift((x * y,))
    for bad in (-1, 3):
        with pytest.raises(StructuralError):
            FreeSubmodule(R, 1, [(x,), (y,)], tracked=bad)


def test_zero_generators_have_unit_syzygies(R):
    S = FreeSubmodule(R, 1, [(R.zero(),), (R.gen(0),)])
    Z = S.syzygies()
    assert Z.contains((R.one(), R.zero()))


def test_generator_length_mismatch(R):
    with pytest.raises(StructuralError):
        FreeSubmodule(R, 2, [(R.one(),)])


# ---------------------------------------------------------------------------
# Buchberger pair criteria


def test_module_pair_not_skipped_by_product_criterion(R):
    # coprime leads x and y in the same position, but the S-vector (0, y)
    # is not zero: the product criterion does not hold for modules
    x, y = R.gens()
    S = FreeSubmodule(R, 2, [(x, R.one()), (y, R.zero())])
    assert S.contains((R.zero(), y))
    assert len(S.basis()) == 3


def test_rank1_coprime_leads_basis_is_generators(R):
    x, y = R.gens()
    S = FreeSubmodule(R, 1, [(x**2,), (y**3,)])
    assert S.basis() == ((y**3,), (x**2,))


def _random_homogeneous_vector(ring, rng, rank, degree):
    mons = [
        m for m in itertools.product(range(degree + 1), repeat=ring.nvars)
        if sum(m) == degree
    ]
    out = []
    for _ in range(rank):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[mons[rng.randrange(len(mons))]] = rng.randint(-3, 3)
        out.append(ring.poly(terms))
    return tuple(out)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("rank", [1, 2])
def test_criteria_give_groebner_basis_oracle(field, rank):
    # Seeded random homogeneous generators.  Every same-position S-vector
    # of the basis reduces to zero under the reference reduction (the
    # Buchberger criterion, independent of the pair criteria); the
    # degreewise spans of basis and generators are compared by linear
    # algebra up to the top basis degree.
    ring = PolyRing(field, ("x", "y", "z"))
    rng = random.Random(f"criteria:{field.name}:{rank}")
    for _ in range(8):
        gens = [
            _random_homogeneous_vector(ring, rng, rank, rng.randint(1, 3))
            for _ in range(rng.randint(2, 5))
        ]
        gens = [g for g in gens if not vec_is_zero(g)]
        S = FreeSubmodule(ring, rank, gens)
        basis = list(S.basis())
        leads = [vec_lead(b) for b in basis]
        for (bi, li), (bj, lj) in itertools.combinations(zip(basis, leads), 2):
            if li[0] != lj[0]:
                continue
            lcm = monomial_lcm(li[1], lj[1])
            ci, cj = field.inv(li[2]), field.inv(lj[2])
            mi, mj = monomial_div(lcm, li[1]), monomial_div(lcm, lj[1])
            s_vec = tuple(
                p.mul_term(ci, mi) - q.mul_term(cj, mj) for p, q in zip(bi, bj)
            )
            rem, _ = reduce_full_reference(s_vec, basis, leads, ring)
            assert vec_is_zero(rem)
        gdegs = [vector_degree(g) for g in gens]
        bdegs = [vector_degree(b) for b in basis]
        for d in range(max(bdegs, default=0) + 1):
            assert span_dimension(basis, ring, d, gen_degrees=bdegs) == (
                span_dimension(gens, ring, d, gen_degrees=gdegs)
            )


def _same_position_pairs(vectors, ring):
    positions = [vec_lead(v)[0] for v in vectors]
    return sum(1 for a, b in itertools.combinations(positions, 2) if a == b)


def _coprime_quadrics():
    # a regular sequence whose leads a^2, ..., f^2 are pairwise coprime:
    # the product criterion skips all 15 pairs, the chain criterion none
    ring = PolyRing(QQ, tuple("abcdefgh"))
    v = ring.gens()
    return ring, 1, [(v[i] ** 2 + v[i + 1] * v[i + 2],) for i in range(6)]


def _module_with_square():
    # the relation columns of coker [[x*y - z*w, 0, z^2],
    # [0, y*z, x^2 - w^2]] plus (x, y, z, w)^2 R^2: the chain criterion
    # skips most pairs, the product criterion does not apply
    ring = PolyRing(QQ, ("x", "y", "z", "w"))
    x, y, z, w = ring.gens()
    zero = ring.zero()
    square = [a * b for a, b in itertools.combinations_with_replacement(
        (x, y, z, w), 2)]
    gens = [(x * y - z * w, zero), (zero, y * z), (z**2, x**2 - w**2)]
    gens += [(m, zero) for m in square] + [(zero, m) for m in square]
    return ring, 2, gens


@pytest.mark.parametrize("make", [_coprime_quadrics, _module_with_square],
                         ids=["product", "chain"])
def test_pair_criteria_stay_on(monkeypatch, make):
    # Without criteria every same-position pair of the generators is
    # reduced, so the count of full reductions could not fall below the
    # pair count.
    ring, rank, gens = make()
    calls = [0]
    reduce_full = groebner._reduce_full

    def counting(*args):
        calls[0] += 1
        return reduce_full(*args)

    monkeypatch.setattr(groebner, "_reduce_full", counting)
    FreeSubmodule(ring, rank, gens).groebner()
    assert calls[0] < _same_position_pairs(gens, ring)


def test_groebner_alone_lifts_no_generator(monkeypatch):
    # Writing each generator in the finished basis is work for syzygies(),
    # its only reader: groebner() reduces no generator against the whole
    # basis, and syzygies() then reduces each generator once.
    ring, rank, gens = _module_with_square()
    S = FreeSubmodule(ring, rank, gens)
    calls = []
    reduce_full = groebner._reduce_full

    def recording(v, basis, *rest):
        calls.append((v, len(basis)))
        return reduce_full(v, basis, *rest)

    monkeypatch.setattr(groebner, "_reduce_full", recording)
    S.groebner()
    size = len(S.basis())

    def generator_lifts():
        return sum(
            1 for v, n in calls if n == size and any(v is g for g in S.gens)
        )

    assert calls and generator_lifts() == 0
    S.syzygies()
    assert generator_lifts() == len(gens)


# ---------------------------------------------------------------- Schreyer pairs


def _random_homogeneous_submodules(field, rank):
    # rank + 3 generators, so that syzygies exist and the chain criterion
    # skips pairs on every field and rank; linear ones at rank 3, where
    # quadrics make the oracle's linear algebra slow
    ring = PolyRing(field, ("x", "y", "z"))
    rng = random.Random(f"schreyer:{field.name}:{rank}")
    for _ in range(3):
        gens = []
        while len(gens) < rank + 3:
            degree = rng.randint(1, 2) if rank < 3 else 1
            g = _random_homogeneous_vector(ring, rng, rank, degree)
            if not vec_is_zero(g):
                gens.append(g)
        yield ring, FreeSubmodule(ring, rank, gens)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_schreyer_syzygies_sound_and_complete(field, rank):
    # every generator is a syzygy, exactly; the degreewise span equals the
    # linear-algebra kernel in every degree up to the largest lcm of two
    # same-position basis leads, the top degree of a Schreyer generator
    for ring, S in _random_homogeneous_submodules(field, rank):
        gens = list(S.gens)
        Z = S.syzygies()
        for z in Z.gens:
            assert vec_is_zero(vec_dot(z, gens, ring, rank))
        gdegs = [vector_degree(g) for g in gens]
        zdegs = [vector_degree(z, shifts=gdegs) for z in Z.gens]
        leads = [vec_lead(b) for b in S.basis()]
        top = max(gdegs + [
            sum(max(a, b) for a, b in zip(li[1], lj[1]))
            for li, lj in itertools.combinations(leads, 2) if li[0] == lj[0]
        ])
        for d in range(min(gdegs), top + 1):
            kernel, layout = degreewise_syzygies(gens, ring, d)
            assert span_dimension(
                Z.gens, ring, d, gen_degrees=zdegs, shifts=gdegs
            ) == len(kernel)
            for v in syzygy_vectors_from_kernel(kernel, layout, gens, ring):
                assert Z.contains(v)


def test_schreyer_chain_criterion_stays_on(monkeypatch, R):
    # leads x^2 > xy > y^2: the pair (x^2, y^2) comes last, and xy divides
    # its lcm with both of its pairs taken, so two of the three pairs are
    # reduced; without the criterion all three would be
    x, y = R.gens()
    gens = [(x**2,), (x * y,), (y**2,)]
    S = FreeSubmodule(R, 1, gens).groebner()
    pairs, lifts = [0], [0]
    reduce_full = groebner._reduce_full

    def counting(v, *args):
        # syzygies() also writes each generator in the basis, once
        (lifts if any(v is g for g in S.gens) else pairs)[0] += 1
        return reduce_full(v, *args)

    monkeypatch.setattr(groebner, "_reduce_full", counting)
    Z = S.syzygies()
    assert pairs[0] == 2 < _same_position_pairs(gens, R)
    assert lifts[0] == len(gens)
    assert Z.contains((y, -x, R.zero())) and Z.contains((R.zero(), y, -x))


def test_schreyer_pairs_with_equal_lcms():
    # leads xy, xz, yz: each divides the lcm xyz of the other two, so only
    # the order in which pairs are taken keeps the criterion from skipping
    # all three; two are needed
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.gens()
    zero = ring.zero()
    Z = FreeSubmodule(ring, 1, [(x * y,), (x * z,), (y * z,)]).syzygies()
    assert Z.contains((z, -y, zero)) and Z.contains((zero, y, -x))


# ---------------------------------------------------------------- reduction kernel


def _random_vector(ring, rng, rank, max_deg=3, terms=3):
    # each coordinate is zero with probability 1/3
    out = []
    for _ in range(rank):
        poly = {}
        if rng.random() >= 1 / 3:
            for _ in range(rng.randint(1, terms)):
                mon = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
                poly[mon] = rng.randint(-4, 4)
        out.append(ring.poly(poly))
    return tuple(out)


def _reduction_cases(field, rank):
    ring = PolyRing(field, ("x", "y", "z"))
    rng = random.Random(f"reduce:{field.name}:{rank}")
    for case in range(12):
        size = rng.randint(1, 5)
        basis = []
        while len(basis) < size:
            if case % 3 == 0:
                b = _random_homogeneous_vector(ring, rng, rank, rng.randint(1, 2))
            else:
                b = _random_vector(ring, rng, rank, max_deg=2)
            if not vec_is_zero(b):
                basis.append(b)
        if case % 3 == 0:
            # a reduced Gröbner basis, as the module code passes in
            basis = list(FreeSubmodule(ring, rank, basis).basis())
        for _ in range(4):
            yield ring, _random_vector(ring, rng, rank, terms=5), basis


def _dense_quotients(quots, size, ring):
    # the quotient dict holds no zero entry, and its keys ascend
    assert list(quots) == sorted(quots)
    assert all(0 <= t < size for t in quots)
    assert not any(q.is_zero() for q in quots.values())
    return [quots.get(t, ring.zero()) for t in range(size)]


def test_lead_table_groups_leads_by_position():
    # leads at positions 2, 0, 2, 0 in a rank-4 module: each position lists
    # its (t, mon, coeff) with t ascending, and positions 1 and 3 are empty
    leads = [(2, (1, 0), 3), (0, (0, 2), 1), (2, (0, 1), 1), (0, (1, 1), 5)]
    assert groebner._lead_table(leads, 4) == [
        [(1, (0, 2), 1), (3, (1, 1), 5)],
        [],
        [(0, (1, 0), 3), (2, (0, 1), 1)],
        [],
    ]
    assert groebner._lead_table([], 2) == [[], []]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_reduce_full_matches_reference(field, rank):
    for ring, v, basis in _reduction_cases(field, rank):
        leads = [vec_lead(b) for b in basis]
        v_terms = [dict(p.terms) for p in v]
        basis_terms = [[dict(p.terms) for p in b] for b in basis]
        table = groebner._lead_table(leads, rank)
        rem, quots = groebner._reduce_full(v, basis, table, ring)
        quots = _dense_quotients(quots, len(basis), ring)
        ref_rem, ref_quots = reduce_full_reference(v, basis, leads, ring)
        assert rem == ref_rem
        assert quots == list(ref_quots)
        # inputs untouched by the in-place kernel
        assert [p.terms for p in v] == v_terms
        assert [[p.terms for p in b] for b in basis] == basis_terms
        # v = rem + sum(q_t * b_t), exactly
        total = list(rem)
        for q, b in zip(quots, basis):
            for j in range(rank):
                total[j] = total[j] + q * b[j]
        assert tuple(total) == v
        # no remainder term is divisible by a lead at its position
        for pos, p in enumerate(rem):
            for mon in p.terms:
                assert not any(
                    lp == pos and monomial_divides(lm, mon)
                    for lp, lm, _ in leads
                )


def test_reduce_full_makes_no_polynomial_sums(monkeypatch):
    # The kernel updates plain dictionaries in place; a loop that adds or
    # subtracts Poly values rebuilds every partial result on every step.
    cases = list(_reduction_cases(QQ, 2))
    calls = [0]
    add, sub = Poly.__add__, Poly.__sub__

    def counting_add(self, other):
        calls[0] += 1
        return add(self, other)

    def counting_sub(self, other):
        calls[0] += 1
        return sub(self, other)

    monkeypatch.setattr(Poly, "__add__", counting_add)
    monkeypatch.setattr(Poly, "__sub__", counting_sub)
    steps = 0
    for ring, v, basis in cases:
        leads = [vec_lead(b) for b in basis]
        table = groebner._lead_table(leads, len(v))
        _, quots = groebner._reduce_full(v, basis, table, ring)
        quots = _dense_quotients(quots, len(basis), ring)
        steps += sum(len(q.terms) for q in quots)
    assert steps > 0
    assert calls[0] == 0


# ---------------------------------------------------------------- linear combinations


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
def test_vec_dot_matches_reference(field):
    # sparse vectors (a third of the entries zero), a third of the
    # coefficients zero, and as many coefficients as vectors or fewer
    ring = PolyRing(field, ("x", "y", "z"))
    rng = random.Random(15)
    fewer = 0
    for _ in range(60):
        rank = rng.randint(0, 4)
        vectors = [
            _random_vector(ring, rng, rank) for _ in range(rng.randint(0, 5))
        ]
        coeffs = [
            _random_vector(ring, rng, 1)[0] if rng.random() < 2 / 3
            else ring.zero()
            for _ in range(rng.randint(0, len(vectors)))
        ]
        fewer += len(coeffs) < len(vectors)
        got = vec_dot(coeffs, vectors, ring, rank)
        assert got == vec_dot_reference(coeffs, vectors, ring, rank)
        assert len(got) == rank
    assert fewer > 0


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
def test_vec_dot_with_cancellation_matches_reference(field):
    # c_0*v_0 + 1*v_1 + c_2*v_2, where v_1 is -c_0*v_0 on some coordinates
    # (whole coordinates cancel), -c_0*v_0 plus a random entry on others
    # (some terms cancel) and random elsewhere; coefficients and entries
    # are zero now and then
    ring = PolyRing(field, ("x", "y", "z"))
    rng = random.Random(f"vec_dot:{field.name}")
    one = ring.one()
    emptied = 0
    for _ in range(60):
        rank = rng.randint(1, 4)
        v0, v2 = (_random_vector(ring, rng, rank) for _ in range(2))
        c0, c2 = _random_vector(ring, rng, 2)
        extra = _random_vector(ring, rng, rank)
        v1 = []
        for a, e in zip(v0, extra):
            kind = rng.randrange(3)
            neg = -(c0 * a)
            v1.append(neg if kind == 0 else neg + e if kind == 1 else e)
        coeffs, vectors = [c0, one, c2], [v0, tuple(v1), v2]
        got = vec_dot(coeffs, vectors, ring, rank)
        assert got == vec_dot_reference(coeffs, vectors, ring, rank)
        assert all(p.ring is ring for p in got)
        # every empty coordinate is one shared zero
        zeros = [p for p in got if p.is_zero()]
        assert all(p is zeros[0] for p in zeros)
        emptied += len(zeros)
    assert emptied > 0


def test_vec_dot_refuses_mixed_rings(R):
    x, y = R.gens()
    for other in (PolyRing(QQ, ("x", "y"), order="lex"),
                  PolyRing(GF(32003), ("x", "y"))):
        u = other.gen(0)
        # the coefficient and the entry it multiplies differ
        with pytest.raises(StructuralError):
            vec_dot([x], [(u,)], R, 1)
        with pytest.raises(StructuralError):
            vec_dot([y, u], [(x,), (R.zero(), u)], R, 2)
        # both agree, but the sum is asked for in another ring
        with pytest.raises(StructuralError):
            vec_dot([u], [(u,)], R, 1)
    # an equal ring built apart is the same ring
    twin = PolyRing(QQ, ("x", "y"))
    assert vec_dot([x], [(twin.gen(1),)], R, 1) == (x * y,)


def test_unit_vector(R):
    zero, one = R.zero(), R.one()
    assert unit_vector(R, 3, 0) == (one, zero, zero)
    assert unit_vector(R, 3, 2) == (zero, zero, one)
    # an index past the rank, as for an untracked generator, gives zero
    assert unit_vector(R, 2, 2) == (zero, zero)
    assert unit_vector(R, 0, 0) == ()
