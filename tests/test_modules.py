import random

import pytest

from deligne_kit import modules
from deligne_kit.errors import InternalError, StructuralError
from deligne_kit.groebner import (
    FreeSubmodule,
    kernel_mod,
    vec_dot,
    vec_is_zero,
    vec_scale,
)
from deligne_kit.modules import (
    FpModule,
    ModuleHom,
    hom_module,
    ideal_as_module,
    ideal_power,
    module_kernel,
    radical_lift,
    saturate,
)
from deligne_kit.rings import GF, QQ, PolyRing
from oracles import saturate_power_chain_reference


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y"))


@pytest.fixture
def R1():
    return PolyRing(QQ, ("x",))


# ---------------------------------------------------------------- elements


def test_canonical_normal_forms(R1):
    (x,) = R1.gens()
    M = FpModule.quotient_ring(R1, [x**2])
    a = M.element((x**2 + x,))
    b = M.element((x,))
    assert a == b
    assert a.vec == b.vec  # canonical: equality is syntactic


def test_hom_certificate_rejects_illdefined(R1):
    (x,) = R1.gens()
    A = FpModule.quotient_ring(R1, [x])      # R/(x)
    B = FpModule.free(R1, 1)                 # R
    with pytest.raises(StructuralError):
        ModuleHom(A, B, [(R1.one(),)])       # 1*x not in 0


# ---------------------------------------------------------------- kernels


def test_kernel_mult_x_on_free(R1):
    (x,) = R1.gens()
    M = FpModule.free(R1, 1)
    h = ModuleHom(M, M, [(x,)])
    ker = module_kernel(h)
    assert all(M.relations.contains(g) for g in ker)


def test_kernel_mult_x_on_torsion(R1):
    (x,) = R1.gens()
    M = FpModule.quotient_ring(R1, [x**2])
    h = ModuleHom(M, M, [(x,)])
    ker = module_kernel(h)
    # kernel = (x)/(x^2), one-dimensional over Q
    assert not all(M.relations.contains(g) for g in ker)
    span = FreeSubmodule(R1, 1, list(ker) + list(M.relations.gens))
    assert span.contains((x,))
    assert not span.contains((R1.one(),))
    # exactness: h kills every generator
    assert all(h.apply(g).is_zero() for g in ker)


def test_kernel_projection(R):
    M2 = FpModule.free(R, 2)
    M1 = FpModule.free(R, 1)
    proj = ModuleHom(M2, M1, [(R.one(),), (R.zero(),)])
    ker = module_kernel(proj)
    assert len(ker) == 1
    # free of rank 1: no relation among the generators modulo M2's
    assert kernel_mod(ker, M2.relations.gens, R, 2) == []


# ---------------------------------------------------------------- hom


def test_hom_cyclic_to_cyclic(R1):
    (x,) = R1.gens()
    A = FpModule.quotient_ring(R1, [x])
    H = hom_module(A, A)
    # free of rank 1 over R/(x): one generator, relations = (x)
    assert len(H.generators) == 1
    rels = H.module.relations
    assert rels.span_equals(FreeSubmodule(R1, 1, [(x,)]))


def test_hom_ideal_to_ring(R1):
    (x,) = R1.gens()
    # (x) as an abstract module is free; Hom((x), R) = R via phi(x) = 1
    A, gens = ideal_as_module((x,), 1)
    assert A.relations.basis() == ()
    B = FpModule.free(R1, 1)
    H = hom_module(A, B)
    assert len(H.generators) == 1
    val = H.evaluate((R1.one(),), A.element((R1.one(),)))
    assert val == B.element((R1.one(),))


def test_hom_torsion_to_free_is_zero(R1):
    (x,) = R1.gens()
    A = FpModule.quotient_ring(R1, [x])
    B = FpModule.free(R1, 1)
    H = hom_module(A, B)
    assert all(e.is_zero() for e in H.module.basis_elements())


def test_hom_evaluator_bilinear_and_welldefined(R):
    x, y = R.gens()
    A, gens = ideal_as_module((x, y), 2)
    M = FpModule.quotient_ring(R, [x**2 * y])
    H = hom_module(A, M)
    rng = random.Random(2)
    hs = H.module.basis_elements()
    if not hs:
        pytest.skip("empty hom module")
    h = hs[0]
    a1 = A.element((x, R.zero(), R.one()))
    a2 = A.element((R.zero(), y, R.one()))
    assert H.evaluate(h, a1 + a2) == H.evaluate(h, a1) + H.evaluate(h, a2)
    # relation generators evaluate to zero
    for rel in A.relations.gens:
        assert H.evaluate(h, rel).is_zero()
        val = vec_dot(rel, H.matrix_of(h), R, M.rank)
        assert vec_is_zero(M.reduce(val))


# ---------------------------------------------------------------- saturation


def test_saturate_full_torsion(R1):
    (x,) = R1.gens()
    M = FpModule.quotient_ring(R1, [x**2])
    res = saturate(M, FreeSubmodule(R1, 1, [(x,)]))
    assert res.t_star == 2
    assert res.contains(M.element((R1.one(),)))


def test_saturate_domain(R):
    x, y = R.gens()
    M = FpModule.free(R, 1)
    res = saturate(M, FreeSubmodule(R, 1, [(x,), (y,)]))
    assert res.t_star == 1
    assert not res.contains(M.element((R.one(),)))


def test_saturate_mixed_colon_chain_oracle(R):
    # M = Q[x,y]/(x^2 y), J = (x): the torsion is 0 : x^2 exactly
    x, y = R.gens()
    M = FpModule.quotient_ring(R, [x**2 * y])
    res = saturate(M, FreeSubmodule(R, 1, [(x,)]))
    assert res.t_star == 2
    # oracle by hand: m = f mod (x^2 y) is torsion iff x^2*f in (x^2 y),
    # i.e. f in (y); sample a few monomials
    for f, expect in [(y, True), (x * y, True), (R.one(), False), (x, False),
                      (y**2, True), (x**2, False)]:
        assert res.contains(M.element((f,))) == expect


def test_saturate_chain_membership_iff_power_kills(R):
    x, y = R.gens()
    M = FpModule.quotient_ring(R, [x * y])
    res = saturate(M, FreeSubmodule(R, 1, [(x,)]))
    rng = random.Random(9)
    for _ in range(10):
        f = R.poly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-2, 2)})
        m = M.element((f,))
        killed = ((x ** res.t_star) * m).is_zero()
        assert res.contains(m) == killed


def test_saturate_unstable_chain_names_ideal_and_cap(monkeypatch, R):
    # over Q[x,y]/(x^3) the chain 0 : J^t for J = (x, xy) = (x) first
    # stabilizes at t = 3; a cap of 3 stops it before that
    x, y = R.gens()
    M = FpModule.quotient_ring(R, [x**3])
    assert saturate(M, [x, x * y]).t_star == 3
    monkeypatch.setattr(modules, "_MAX_COLON_CHAIN", 3)
    with pytest.raises(InternalError) as err:
        saturate(M, [x, x * y])
    assert str(err.value) == (
        "colon chain 0 :_M J^t failed to stabilize by t = 3 for J = (x, x*y)"
    )


def test_saturate_monotone(R1):
    from deligne_kit.modules import colon_generators

    (x,) = R1.gens()
    M = FpModule.quotient_ring(R1, [x**3])
    prev = None
    for t in range(1, 5):
        gens = colon_generators(M, ideal_power([x], t))
        span = FreeSubmodule(R1, 1, list(gens) + list(M.relations.gens))
        if prev is not None:
            for g in prev.gens:
                assert span.contains(g)
        prev = span


def _random_poly(ring, rng, max_deg, terms, min_deg=0):
    # `terms` distinct terms of total degree min_deg..max_deg, unit-sized
    # nonzero coefficients
    out = {}
    while len(out) < terms:
        mon = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        if min_deg <= sum(mon) <= max_deg:
            out[mon] = rng.choice([-3, -2, -1, 1, 2, 3])
    return ring.poly(out)


def _random_saturation_cases(field, rank):
    # modules with `rank` random relations, each coordinate zero or one or
    # two terms of degree 1-2, and one relation J[0]^2 * (a term) at one
    # position, so that the torsion is nonzero and some chains take more
    # than one link; ideals of 1-4 generators, a principal one and one with
    # a repeated generator
    ring = PolyRing(field, ("x", "y", "z"))
    x, y, z = ring.gens()
    rng = random.Random(f"saturate:{field.name}:{rank}")
    for J in [[x], [x, y], [y, x * z, y], [x, y, z, x * y + z]]:
        rels = [
            tuple(
                _random_poly(ring, rng, 2, rng.randint(1, 2), min_deg=1)
                if rng.random() < 0.5 else ring.zero()
                for _ in range(rank)
            )
            for _ in range(rank)
        ]
        deep = [ring.zero()] * rank
        deep[rng.randrange(rank)] = J[0] ** 2 * _random_poly(ring, rng, 1, 1)
        rels.append(tuple(deep))
        yield ring, FpModule(ring, rank, rels), J


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_saturate_matches_power_chain_reference(field, rank):
    # the iterated colon N_t :_M J gives the power chain 0 :_M J^t: the
    # same stabilization index, the same torsion span, the same membership
    chains, answers = [], set()
    rng = random.Random(f"saturate-elements:{field.name}:{rank}")
    for ring, M, J in _random_saturation_cases(field, rank):
        res = saturate(M, J)
        t_ref, span_ref = saturate_power_chain_reference(M, J)
        assert res.t_star == t_ref
        assert res.span.span_equals(span_ref)
        for g in res.generators:
            assert span_ref.contains(g)
        # random vectors, and random multiples of a reference generator
        for i in range(8):
            if i % 2:
                g = rng.choice(span_ref.gens)
                v = vec_scale(_random_poly(ring, rng, 1, 2), g)
            else:
                v = tuple(_random_poly(ring, rng, 2, 2) for _ in range(rank))
            answers.add(res.contains(v))
            assert res.contains(v) == span_ref.contains(v)
        chains.append(res.t_star)
    assert max(chains) >= 2  # some case runs more than one colon
    assert answers == {True, False}


def test_saturate_needs_no_ideal_power(monkeypatch, R):
    # every link is a colon by J itself, never by a power of J
    x, y = R.gens()
    M = FpModule.quotient_ring(R, [x**3])
    real_power = modules.ideal_power

    def first_power_only(xs, n):
        if n >= 2:
            raise AssertionError(f"ideal_power called with n = {n}")
        return real_power(xs, n)

    monkeypatch.setattr(modules, "ideal_power", first_power_only)
    res = saturate(M, [x, x * y])
    assert res.t_star == 3
    assert res.contains(M.element((R.one(),)))


def test_saturation_contains_computes_no_basis(monkeypatch, R):
    # the membership test reuses the span whose basis the chain built
    x, y = R.gens()
    M = FpModule.quotient_ring(R, [x**2 * y])
    res = saturate(M, [x])
    calls = []
    real_compute = FreeSubmodule._compute_basis

    def counting(self):
        calls.append(self)
        return real_compute(self)

    monkeypatch.setattr(FreeSubmodule, "_compute_basis", counting)
    for f in [y, x * y, R.one(), x, y**2, x**2]:
        res.contains((f,))
    assert calls == []


# ---------------------------------------------------------------- powers, radical


def test_ideal_power_examples(R):
    x, y = R.gens()
    p2 = ideal_power([x, y], 2)
    assert sorted(str(p) for p in p2) == ["x*y", "x^2", "y^2"]
    assert [str(p) for p in ideal_power([x], 3)] == ["x^3"]
    z_ring = PolyRing(QQ, ("x", "y", "z"))
    xs = z_ring.gens()
    assert len(ideal_power(list(xs), 2)) == 6
    assert ideal_power([x, y], 0) == [R.one()]


def test_ideal_power_products_contained(R):
    x, y = R.gens()
    a = ideal_power([x, y], 2)
    b = ideal_power([x, y], 3)
    target = FreeSubmodule(R, 1, [(g,) for g in ideal_power([x, y], 5)])
    for p in a:
        for q in b:
            assert target.contains((p * q,))


def test_radical_lift_examples(R, R1):
    x, y = R.gens()
    d, lift = radical_lift(x + y, (x, y), 2)
    assert d == 3
    recon = lift[0] * x**2 + lift[1] * y**2
    assert recon == (x + y) ** 3

    (t,) = R1.gens()
    d, lift = radical_lift(t, (t,), 2)
    assert d == 2 and lift[0] == R1.one()

    d, lift = radical_lift(t, (t,), 1)
    assert d == 1 and lift[0] == R1.one()


def test_radical_lift_requires_membership(R):
    x, y = R.gens()
    with pytest.raises(StructuralError):
        radical_lift(R.one(), (x, y), 2)


def test_radical_lift_reconstruction_random(R):
    x, y = R.gens()
    rng = random.Random(4)
    for _ in range(6):
        y_el = rng.randint(-2, 2) * x + rng.randint(-2, 2) * y + rng.randint(0, 1) * x * y
        if y_el.is_zero():
            continue
        e = rng.randint(1, 2)
        d, lift = radical_lift(y_el, (x, y), e)
        recon = lift[0] * x**e + lift[1] * y**e
        assert recon == y_el**d
