import random

import pytest

from deligne_kit.check import LocEqualCertificate
from deligne_kit.deligne import (
    CechCocycle,
    Glued,
    IdealTransformElement,
    IncompatibleWitness,
    LocalFraction,
    RhoObstruction,
    alpha_map,
    diagram_check,
    find_radical_witness,
    gamma_torsion,
    kill_exponent,
    loc_equal,
    rho_eval,
    rho_preimage,
    sheaf_check,
    sigma_inverse,
    theta_probe,
)
from deligne_kit.errors import StructuralError
from deligne_kit.koszul import pro_zero_search
from deligne_kit.modules import FpModule
from deligne_kit.rings import GF, QQ, PolyRing, SequenceSpec, vec_dot, vec_scale
from deligne_kit.tasks import (
    probe_elements,
    random_element,
    random_hom,
    random_poly,
)
from oracles import saturate_power_chain_reference


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y"))


@pytest.fixture
def R1():
    return PolyRing(QQ, ("x",))


# ---------------------------------------------------------------- loc_equal


def test_loc_equal_shift(R1):
    (x,) = R1.gens()
    M = FpModule.free(R1, 1)
    m = M.element((x**2 + R1.one(),))
    assert loc_equal(LocalFraction(m, x, 1), LocalFraction(x * m, x, 2))


def test_loc_equal_torsion(R1):
    (x,) = R1.gens()
    M = FpModule.quotient_ring(R1, [x**2])
    assert loc_equal(
        LocalFraction(M.element((x,)), x, 1), LocalFraction(M.zero(), x, 0)
    )


def test_loc_not_equal_domain(R1):
    (x,) = R1.gens()
    M = FpModule.free(R1, 1)
    assert not loc_equal(
        LocalFraction(M.element((R1.one(),)), x, 1),
        LocalFraction(M.zero(), x, 0),
    )


def test_loc_equal_base_mismatch(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    with pytest.raises(StructuralError):
        loc_equal(
            LocalFraction(M.element((x,)), x, 1),
            LocalFraction(M.element((y,)), y, 1),
        )


def test_loc_equal_certificate_identity(R1):
    (x,) = R1.gens()
    M = FpModule.quotient_ring(R1, [x**3])
    f = LocalFraction(M.element((x**2 + x,)), x, 1)
    g = LocalFraction(M.element((x,)), x, 0)
    cert = loc_equal(f, g)
    assert cert is not None
    # replay: x^(c+0)*(x^2+x) - x^(c+1)*x = lift * x^3, exactly
    lhs = (x**cert.c) * (x**2 + x) - (x ** (cert.c + 1)) * x
    rhs = cert.lift[0] * x**3
    assert lhs == rhs
    raw = (f.numerator.vec, 1, g.numerator.vec, 0)
    assert cert.verify(M, 1, lambda: x, *raw)
    changed_c = LocEqualCertificate(cert.c + 1, cert.lift)
    assert not changed_c.verify(M, 1, lambda: x, *raw)
    changed_lift = LocEqualCertificate(cert.c, (cert.lift[0] + R1.one(),))
    assert not changed_lift.verify(M, 1, lambda: x, *raw)


def test_loc_equal_returns_none_for_unequal_fractions(R):
    x, y = R.gens()
    M = FpModule.quotient_ring(R, [x * y])
    # y/1 = 0 in M_x, since x*y = 0, but x/1 is not: no power of x kills x
    assert loc_equal(LocalFraction(M.element((y,)), x, 0),
                     LocalFraction(M.zero(), x, 0)) is not None
    assert loc_equal(LocalFraction(M.element((x,)), x, 0),
                     LocalFraction(M.zero(), x, 0)) is None
    assert loc_equal(LocalFraction(M.element((x,)), x, 1),
                     LocalFraction(M.element((x + R.one(),)), x, 1)) is None


# ---------------------------------------------------------------- kill exponents


def _kill_cases(field, rank):
    # for each base f of the list, a module of `rank` random relations plus
    # f^2 * (a variable) at one position, so that f-torsion exists and
    # some kill exponents exceed 1
    ring = PolyRing(field, ("x", "y", "z"))
    x, y, z = ring.gens()
    rng = random.Random(f"kill:{field.name}:{rank}")
    bases = [x, x * y, x + y, x**2 - z + ring.one(), ring.const(-1)]
    for f in bases:
        rels = [
            tuple(
                random_poly(ring, rng) if rng.random() < 0.5 else ring.zero()
                for _ in range(rank)
            )
            for _ in range(rank)
        ]
        deep = [ring.zero()] * rank
        pos = rng.randrange(rank)
        deep[pos] = ring.gen(rng.randrange(3))
        rels.append(vec_scale(f**2, deep))
        # the cofactor of f^2 in that relation is f^2-torsion
        yield FpModule(ring, rank, rels), f, deep, rng


@pytest.mark.parametrize(
    "field", [QQ, GF(2), GF(3), GF(32003)], ids=["Q", "F2", "F3", "F32003"]
)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_kill_exponent_matches_power_chain_reference(field, rank):
    # some power of f kills m exactly when m lies in the reference's
    # f-torsion span, and the c returned is the least power that kills
    answers = set()
    for M, f, deep, rng in _kill_cases(field, rank):
        t_ref, span_ref = saturate_power_chain_reference(M, [f])
        elements = [M.zero(), M.element(deep), M.element(vec_scale(f, deep))]
        elements += [random_element(M, rng) for _ in range(3)]
        elements += [(f**t_ref) * random_element(M, rng) for _ in range(2)]
        elements += [M.element(g) for g in span_ref.gens]
        elements += [M.element(vec_scale(rng.choice(M.ring.gens()), g))
                     for g in span_ref.gens[:2]]
        for m in elements:
            c = kill_exponent(M, f, m)
            assert (c is None) == (not span_ref.contains(m.vec))
            if c is not None:
                assert c <= t_ref
                assert ((f**c) * m).is_zero()
                assert c == 0 or not ((f ** (c - 1)) * m).is_zero()
            answers.add(min(c, 2) if c is not None else None)
    assert answers == {None, 0, 1, 2}


def test_kill_exponent_refuses_a_base_from_another_ring():
    # the ring is checked before the memo: a base of F3[x,y] is refused for
    # a Q[x,y] module even when the Q base with the same key is memoised
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.gens()
    fx = PolyRing(GF(3), ("x", "y")).gens()[0]
    M = FpModule.quotient_ring(R, [x * y])
    torsion, free = M.element((y,)), M.element((x,))
    for m in (torsion, free):
        with pytest.raises(StructuralError):
            kill_exponent(M, fx, m)
    assert M.memo == {}
    assert kill_exponent(M, x, torsion) == 1
    assert kill_exponent(M, x, free) is None
    memo = dict(M.memo)
    for m in (torsion, free):
        with pytest.raises(StructuralError):
            kill_exponent(M, fx, m)
    assert M.memo == memo
    with pytest.raises(StructuralError):
        kill_exponent(M, R.zero(), torsion)


# ---------------------------------------------------------------- alpha


def test_alpha_identity(R1):
    (x,) = R1.gens()
    M = FpModule.free(R1, 1)
    f = LocalFraction(M.element((x + R1.one(),)), x, 2)
    g = alpha_map(f, x, (1, R1.one()))
    assert loc_equal(f, g)


def test_alpha_base_change_consistent(R1):
    (t,) = R1.gens()
    M = FpModule.free(R1, 1)
    m = M.element((t**2 + R1.one(),))
    f = LocalFraction(m, t, 3)
    g = alpha_map(f, t**2, (1, t))  # (t^2)^1 = t * t
    # g = t^3 m / t^6; map both into a共 base comparison via another alpha
    back = alpha_map(g, t, find_radical_witness(t, t**2))
    assert loc_equal(f, back)


def test_alpha_composition(R):
    x, _ = R.gens()
    M = FpModule.free(R, 1)
    m = M.element((x + R.one(),))
    z, y, w = x**4, x**2, x
    f = LocalFraction(m, w, 2)
    a_yx = alpha_map(f, y, find_radical_witness(y, w))
    a_zy = alpha_map(a_yx, z, find_radical_witness(z, y))
    direct = alpha_map(f, z, find_radical_witness(z, w))
    assert loc_equal(a_zy, direct)


def test_alpha_bad_witness(R1):
    (x,) = R1.gens()
    M = FpModule.free(R1, 1)
    f = LocalFraction(M.element((R1.one(),)), x, 1)
    with pytest.raises(StructuralError):
        alpha_map(f, x**2, (1, R1.one()))


# ---------------------------------------------------------------- cocycles


def test_cocycle_requires_compatibility(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    xs = SequenceSpec((x, y))
    with pytest.raises(StructuralError):
        CechCocycle(xs, 1, [M.element((R.one(),)), M.zero()])


def test_cocycle_single_chart_vacuous(R1):
    (x,) = R1.gens()
    M = FpModule.free(R1, 1)
    c = CechCocycle(SequenceSpec((x,)), 1, [M.element((R1.one(),))])
    assert not c.is_zero()


# ---------------------------------------------------------------- rho / theta / sigma


def test_rho_examples(R1):
    (x,) = R1.gens()
    M = FpModule.free(R1, 1)
    xs = SequenceSpec((x,))
    phi = IdealTransformElement(xs, 1, [M.element((x,))], M)  # x -> x
    c = rho_eval(phi)
    assert loc_equal(
        c.component_fraction(0), LocalFraction(M.element((R1.one(),)), x, 0)
    )
    psi = IdealTransformElement(xs, 1, [M.element((R1.one(),))], M)  # x -> 1
    c2 = rho_eval(psi)
    assert c2.exponent == 1 and c2.components[0] == M.element((R1.one(),))


def test_rho_of_tau_is_constant_cocycle(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    xs = SequenceSpec((x, y))
    f = M.element((x * y - 2 * R.one(),))
    c = rho_eval(IdealTransformElement.tau(xs, f))
    for i in range(2):
        assert loc_equal(
            c.component_fraction(i),
            LocalFraction(f, xs.elements[i], 0),
        )


def test_theta_probe_examples(R1):
    (x,) = R1.gens()
    M = FpModule.free(R1, 1)
    xs = SequenceSpec((x,))
    phi = IdealTransformElement(xs, 1, [M.element((R1.one(),))], M)  # x -> 1
    pr = theta_probe(phi, x**2)
    # phi(x^2)/x^2 = x/x^2, loc_equal to 1/x
    assert pr.exponent == 1 and pr.base == x**2
    back = alpha_map(LocalFraction(M.element((R1.one(),)), x, 1),
                     x**2, find_radical_witness(x**2, x))
    # compare both over base x^2: x/x^2 vs alpha image x^2/x^4... use loc_equal
    assert loc_equal(pr, back)


def test_theta_probe_at_generator_matches_rho(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    xs = SequenceSpec((x, y))
    rng = random.Random(20)
    phi = random_hom(xs, 1, M, rng)
    c = rho_eval(phi)
    assert loc_equal(theta_probe(phi, x), c.component_fraction(0))
    assert loc_equal(theta_probe(phi, y), c.component_fraction(1))


def test_sigma_inverse_hand_instance(R1):
    # cover (x), cocycle (1/x), probe y = x^2: m_y/y^d must be x/x^2
    (x,) = R1.gens()
    M = FpModule.free(R1, 1)
    xs = SequenceSpec((x,))
    c = CechCocycle(xs, 1, [M.element((R1.one(),))])
    f = sigma_inverse(c, x**2)
    assert f.base == x**2
    assert loc_equal(f, LocalFraction(M.element((x,)), x**2, 1))


def test_sigma_global_section_probe(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    xs = SequenceSpec((x, y))
    f = M.element((x * y**2 - 3 * R.one(),))
    c = CechCocycle.from_global(xs, f)
    pr = sigma_inverse(c, x + y)
    assert loc_equal(pr, LocalFraction(f, x + y, 0))


def test_sigma_at_cover_elements_recovers_components(R):
    x, y = R.gens()
    M = FpModule.quotient_ring(R, [x**2 * y])
    xs = SequenceSpec((x, y))
    rng = random.Random(4)
    phi = random_hom(xs, 2, M, rng)
    c = rho_eval(phi)
    for i, xi in enumerate(xs.elements):
        assert loc_equal(sigma_inverse(c, xi), c.component_fraction(i))


def test_rho_equals_sigma_theta(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    xs = SequenceSpec((x, y))
    rng = random.Random(8)
    for _ in range(5):
        phi = random_hom(xs, rng.choice((1, 2)), M, rng)
        c = rho_eval(phi)
        for yy in probe_elements(xs, 4, rng):
            assert loc_equal(sigma_inverse(c, yy), theta_probe(phi, yy))


def test_inverse_limit_alpha_compatible(R1):
    (x,) = R1.gens()
    M = FpModule.free(R1, 1)
    xs = SequenceSpec((x,))
    phi = IdealTransformElement(xs, 1, [M.element((x**2 + R1.one(),))], M)
    c = rho_eval(phi)
    py = sigma_inverse(c, x)
    pz = sigma_inverse(c, x**2)  # x^2 in Rad(xR)
    moved = alpha_map(py, x**2, find_radical_witness(x**2, x))
    assert loc_equal(moved, pz)


# ---------------------------------------------------------------- preimages


def test_rho_preimage_single_chart(R1):
    (x,) = R1.gens()
    M = FpModule.free(R1, 1)
    xs = SequenceSpec((x,))
    c = CechCocycle(xs, 1, [M.element((R1.one(),))])
    phi = rho_preimage(c, escalation_cap=4)
    assert phi.stage == 1
    assert phi.values[0] == M.element((R1.one(),))


def test_rho_preimage_global_cocycle(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    xs = SequenceSpec((x, y))
    f = M.element((3 * x - y**2,))
    c = CechCocycle.from_global(xs, f)
    phi = rho_preimage(c, escalation_cap=5)
    assert rho_eval(phi).equals(c)
    tau = IdealTransformElement.tau(xs, f, stage=phi.stage)
    assert rho_eval(phi).equals(rho_eval(tau))


def test_rho_preimage_roundtrip_random(R):
    x, y = R.gens()
    xs = SequenceSpec((x, y))
    for M in (FpModule.free(R, 1), FpModule.quotient_ring(R, [x * y**2])):
        rng = random.Random(17)
        for _ in range(4):
            phi = random_hom(xs, rng.choice((1, 2)), M, rng)
            c = rho_eval(phi)
            back = rho_preimage(c, escalation_cap=8)
            assert not isinstance(back, RhoObstruction)
            assert rho_eval(back).equals(c)


def test_rho_preimage_uses_prozero_witness(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    xs = SequenceSpec((x, y))
    f = M.element((x + y,))
    c = CechCocycle.from_global(xs, f, exponent=1)
    cert = pro_zero_search(xs, 1, c.compat_exponent() + 1, M, 8)
    phi = rho_preimage(c, escalation_cap=8, prozero=cert)
    assert rho_eval(phi).equals(c)


def test_rho_injectivity_restriction_bound(R1):
    # phi with rho(phi) = 0 over M = Q[x]/(x^3): the restriction to
    # J^(n+m+k) with m the localization kill exponent is the zero hom
    (x,) = R1.gens()
    M = FpModule.quotient_ring(R1, [x**3])
    xs = SequenceSpec((x,))
    rng = random.Random(23)
    for _ in range(5):
        phi = random_hom(xs, 1, M, rng)
        assert rho_eval(phi).is_zero()  # M_x = 0: every image vanishes
        from deligne_kit.deligne import kill_exponent

        m_exp = max(
            kill_exponent(M, xi, phi.evaluate(xi**phi.stage)) or 0
            for xi in xs.elements
        )
        deep = phi.restrict(phi.stage + m_exp + xs.k)
        assert all(v.is_zero() for v in deep.values)


# ---------------------------------------------------------------- gamma, diagram


def test_gamma_examples(R, R1):
    x, y = R.gens()
    assert gamma_torsion(
        FpModule.free(R, 1), SequenceSpec((x, y))
    ).generators == ()

    (t,) = R1.gens()
    M = FpModule.quotient_ring(R1, [t**2])
    g = gamma_torsion(M, SequenceSpec((t,)))
    assert g.contains(M.element((R1.one(),)))

    Mxy = FpModule.quotient_ring(R, [x * y])
    g2 = gamma_torsion(Mxy, SequenceSpec((x,)))
    assert g2.contains(Mxy.element((y,)))
    assert not g2.contains(Mxy.element((x,)))
    assert not g2.contains(Mxy.element((R.one(),)))


def test_gamma_is_kernel_of_cocycle_map(R):
    x, y = R.gens()
    M = FpModule.quotient_ring(R, [x**2 * y**2])
    xs = SequenceSpec((x, y))
    g = gamma_torsion(M, xs)
    rng = random.Random(31)
    for _ in range(8):
        m = random_element(M, rng)
        natural = CechCocycle.from_global(xs, m)
        assert g.contains(m) == natural.is_zero()


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
def test_cocycle_is_zero_agrees_with_loc_equal(field):
    # is_zero tests kill exponents; per component it must agree with
    # loc_equal against the zero fraction over the component's chart
    R = PolyRing(field, ("x", "y"))
    x, y = R.gens()
    xs = SequenceSpec((x, y))
    answers = set()
    for M in (
        FpModule.quotient_ring(R, [x * y]),
        FpModule(R, 2, [(x, R.zero()), (R.zero(), y**2)]),
        FpModule(R, 2, [(x**2 * y, x * y), (R.zero(), y**3)]),
    ):
        rng = random.Random(f"is-zero:{field.name}:{M.rank}")
        cocycles = [rho_eval(random_hom(xs, rng.choice((1, 2)), M, rng))
                    for _ in range(3)]
        cocycles += [CechCocycle.from_global(xs, random_element(M, rng),
                                             rng.randint(0, 2))
                     for _ in range(5)]
        for c in cocycles:
            per_chart = []
            for i, (x_i, m_i) in enumerate(zip(xs.elements, c.components)):
                zero = LocalFraction(M.zero(), x_i, 0)
                equal = loc_equal(c.component_fraction(i), zero) is not None
                chart = CechCocycle(SequenceSpec((x_i,)), c.exponent, [m_i])
                assert chart.is_zero() == equal
                per_chart.append(equal)
                answers.add(equal)
            assert c.is_zero() == all(per_chart)
    assert answers == {True, False}


def test_diagram_check_fixtures(R):
    x, y = R.gens()
    xs = SequenceSpec((x, y))
    for M in (
        FpModule.free(R, 1),
        FpModule.quotient_ring(R, [x * y]),
        FpModule(R, 2, [(x, R.zero()), (R.zero(), y**2)]),
    ):
        rng = random.Random(41)
        for _ in range(5):
            assert diagram_check(random_element(M, rng), xs)


def test_diagram_unit_ideal(R):
    # J = (1): U = X, every map is the identity-like edge case
    M = FpModule.quotient_ring(R, [R.gen(0) ** 2])
    xs = SequenceSpec((R.one(),))
    rng = random.Random(5)
    for _ in range(3):
        assert diagram_check(random_element(M, rng), xs)


# ---------------------------------------------------------------- sheaf


def test_sheaf_glue_restriction_of_element(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    xs = SequenceSpec((x, y))
    m = M.element((x**2 - y,))
    secs = [LocalFraction((x**2) * m, x, 2), LocalFraction((y**1) * m, y, 1)]
    out = sheaf_check(secs, xs)
    assert isinstance(out, Glued)
    assert loc_equal(out.fraction(), LocalFraction(m, out.y, 0))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)],
                         ids=["Q", "F2", "F32003"])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("tweaked", [False, True], ids=["plain", "tweaked"])
def test_glued_numerator_is_the_sum_of_primed(field, rank, tweaked):
    # replay forms the glued numerator as the plain sum of the primed
    # components; sheaf_check's reduced sum must be that sum itself.  The
    # families are built as run_sheaf builds them: x_i^e_i * m over
    # x_i^e_i, plus, when tweaked, a combination of J-torsion generators
    R = PolyRing(field, ("x", "y", "z"))
    x, y, z = R.gens()
    xs = SequenceSpec((x, y))
    rng = random.Random(f"glued:{field.name}:{rank}:{tweaked}")
    # x*e_0 is J-torsion, as in tests/data/torsion.dk
    rels = [(x**2, R.zero()), (x * y, R.zero()), (y * z, x**2 - z)]
    M = FpModule(R, rank, [r[:rank] for r in rels[:rank + 1]])
    torsion = [M.element(g) for g in gamma_torsion(M, xs).generators]
    assert torsion
    tweaks = 0
    for _ in range(6):
        m = random_element(M, rng)
        secs = []
        for x_i in xs.elements:
            e = rng.randint(0, 2)
            # x and y kill x*e_0, so a tweak is a unit or z times a generator
            coeffs = [rng.choice((R.zero(), R.one(), z)) if tweaked
                      else R.zero() for _ in torsion]
            num = M.combine([x_i**e, *coeffs], [m, *torsion])
            tweaks += num != (x_i**e) * m
            secs.append(LocalFraction(num, x_i, e))
        out = sheaf_check(secs, xs)
        assert isinstance(out, Glued)
        assert out.numerator.vec == vec_dot(
            [R.one()] * xs.k, [p.vec for p in out.primed], R, rank)
    assert (tweaks > 0) == tweaked


def test_sheaf_incompatible_witness(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    xs = SequenceSpec((x, y))
    secs = [LocalFraction(M.element((R.one(),)), x, 1), LocalFraction(M.zero(), y, 0)]
    out = sheaf_check(secs, xs)
    assert isinstance(out, IncompatibleWitness)
    assert (out.i, out.j) == (0, 1)
    assert not out.witness.is_zero()


def test_sheaf_incompatible_witness_matches_power_chain_reference(R):
    # the witness is the cross difference w = x_j^n m_i - x_i^n m_j of the
    # sections, and no power of x_i x_j kills it
    x, y = R.gens()
    zero = R.zero()
    found = 0
    for M in (
        FpModule.free(R, 1),
        FpModule(R, 2, [(x**2 * y, zero), (zero, x * y * (x + y))]),
        FpModule(R, 2, [(x * y**2, x), (zero, y**3)]),
    ):
        for xs in (SequenceSpec((x, y)), SequenceSpec((x, y, x + y))):
            rng = random.Random(f"incompatible:{M.rank}:{xs.k}")
            for _ in range(4):
                secs = [LocalFraction(random_element(M, rng), x_i,
                                      rng.randint(0, 2))
                        for x_i in xs.elements]
                out = sheaf_check(secs, xs)
                if not isinstance(out, IncompatibleWitness):
                    continue
                found += 1
                x_i, x_j = xs.elements[out.i], xs.elements[out.j]
                n = max(s.exponent for s in secs)
                m_i, m_j = ((xs.elements[k] ** (n - secs[k].exponent))
                            * secs[k].numerator for k in (out.i, out.j))
                assert out.witness == (x_j**n) * m_i - (x_i**n) * m_j
                _, span_ref = saturate_power_chain_reference(M, [x_i * x_j])
                assert not out.witness.is_zero()
                assert not span_ref.contains(out.witness.vec)
    assert found >= 6


def test_sheaf_glue_agrees_with_sigma(R):
    x, y = R.gens()
    M = FpModule.quotient_ring(R, [x**2 * y])
    xs = SequenceSpec((x, y))
    rng = random.Random(12)
    for _ in range(4):
        phi = random_hom(xs, rng.choice((1, 2)), M, rng)
        c = rho_eval(phi)
        secs = [c.component_fraction(i) for i in range(xs.k)]
        out = sheaf_check(secs, xs)
        assert isinstance(out, Glued)
        assert loc_equal(out.fraction(), sigma_inverse(c, out.y))


def test_sheaf_three_charts_first_violated_pair(R):
    R3 = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = R3.gens()
    M = FpModule.free(R3, 1)
    xs = SequenceSpec((x, y, z))
    m = M.element((z - x,))
    secs = [
        LocalFraction((x * m) + M.element((R3.one(),)), x, 1),
        LocalFraction(y * m, y, 1),
        LocalFraction(z * m, z, 1),
    ]
    out = sheaf_check(secs, xs)
    assert isinstance(out, IncompatibleWitness)
    assert (out.i, out.j) == (0, 1)  # first scanned violated pair
