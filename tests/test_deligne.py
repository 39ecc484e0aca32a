import random

import pytest

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
    loc_equal,
    rho_eval,
    rho_preimage,
    sheaf_check,
    sigma_inverse,
    theta_probe,
)
from deligne_kit.errors import StructuralError
from deligne_kit.koszul import SequenceSpec, pro_zero_search
from deligne_kit.modules import FpModule, hom_module, ideal_as_module
from deligne_kit.rings import QQ, PolyRing
from deligne_kit.tasks import probe_elements, random_element, random_hom


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
    equal, cert = loc_equal(f, g, certificate=True)
    assert equal
    # replay: x^(c+0)*(x^2+x) - x^(c+1)*x = lift * x^3, exactly
    lhs = (x**cert.c) * (x**2 + x) - (x ** (cert.c + 1)) * x
    rhs = cert.lift[0] * x**3
    assert lhs == rhs


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


def test_sheaf_incompatible_witness(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    xs = SequenceSpec((x, y))
    secs = [LocalFraction(M.element((R.one(),)), x, 1), LocalFraction(M.zero(), y, 0)]
    out = sheaf_check(secs, xs)
    assert isinstance(out, IncompatibleWitness)
    assert (out.i, out.j) == (0, 1)
    assert not out.witness.is_zero()


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
