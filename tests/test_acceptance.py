"""Acceptance suite: one test per criterion, each printing a pass line.
Every expected value is either exact by construction or checked against an
independent brute-force oracle living in oracles.py / inline formulas."""

import random

from deligne_kit.deligne import (
    CechCocycle,
    Glued,
    IdealTransformElement,
    IncompatibleWitness,
    LocalFraction,
    RhoObstruction,
    gamma_torsion,
    kill_exponent,
    loc_equal,
    rho_eval,
    rho_preimage,
    sheaf_check,
    sigma_inverse,
    theta_probe,
)
from deligne_kit.groebner import kernel_mod
from deligne_kit.idealization import (
    IdealizationRing,
    h1_transition_witness,
    ideal_transform_stage,
    rho_obstruction,
    s_annihilator,
    tau_image,
)
from deligne_kit.check import ProZeroCertificate
from deligne_kit.koszul import SearchExhausted, pro_zero_search
from deligne_kit.modules import (
    FpModule,
    ModuleHom,
    hom_module,
    ideal_as_module,
    ideal_power,
)
from deligne_kit.rings import GF, QQ, PolyRing, SequenceSpec
from deligne_kit.tasks import probe_elements, random_element, random_hom

from oracles import (
    kernel_basis,
    matrix_rank,
    monomials_of_degree,
    poly_coords,
    rref,
)


def announce(number: int, ok: bool, text: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok


R1 = PolyRing(QQ, ("x",))
R2 = PolyRing(QQ, ("x", "y"))
R3 = PolyRing(QQ, ("x", "y", "z"))
X1 = R1.gens()[0]
X2, Y2 = R2.gens()


# ---------------------------------------------------------------------------
# 1. rho = sigma o theta


def test_criterion_1_roundtrip_rho_sigma_theta():
    fixtures = [
        (SequenceSpec((X1,)), FpModule.free(R1, 1), 101),
        (SequenceSpec((X2, Y2)), FpModule.free(R2, 1), 202),
    ]
    ok = True
    for xs, M, seed in fixtures:
        rng = random.Random(seed)
        for _ in range(25):
            phi = random_hom(xs, rng.choice((1, 2)), M, rng)
            c = rho_eval(phi)
            for y in probe_elements(xs, 5, rng):
                ok = ok and loc_equal(sigma_inverse(c, y), theta_probe(phi, y))
    announce(1, ok, "sigma_inverse(rho(phi), y) equals theta_probe(phi, y) "
             "on 2 fixtures x 25 samples x 5 probes, exactly")


# ---------------------------------------------------------------------------
# 2. rho injectivity bound


def _gamma_valued_homs(xs, M, stage, count, seed):
    """Random homs with values inside the torsion submodule: by exactness
    these are precisely rho-kernel representatives.  The torsion submodule
    is presented on its generators, with the generators' syzygies modulo
    M's relations as its relations."""
    gamma = gamma_torsion(M, xs)
    g = gamma.generators
    relations = kernel_mod(g, M.relations.gens, M.ring, M.rank)
    sub = FpModule(M.ring, len(g), relations)
    incl = ModuleHom(sub, M, g)
    pres, gens = ideal_as_module(xs.elements, stage)
    H = hom_module(pres, sub)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        coeffs = [
            R2.poly({(0, 0): rng.randint(-2, 2)}) for _ in H.generators
        ]
        cols = H.matrix_of(coeffs)
        values = [incl.apply(sub.element(c)) for c in cols]
        out.append(IdealTransformElement(xs, stage, values, M))
    return out


def test_criterion_2_rho_injectivity_bound():
    ok = True
    cases = []

    # k = 1 torsion fixtures: the localization vanishes, every hom works
    for pw, count in ((2, 4), (3, 3)):
        M = FpModule.quotient_ring(R1, [X1**pw])
        xs = SequenceSpec((X1,))
        rng = random.Random(300 + pw)
        for _ in range(count):
            cases.append((xs, M, random_hom(xs, 1, M, rng)))

    # k = 2 fixture with torsion-valued homs
    M2t = FpModule.quotient_ring(R2, [X2**2, X2 * Y2])
    xs2 = SequenceSpec((X2, Y2))
    for phi in _gamma_valued_homs(xs2, M2t, 1, 3, 77):
        cases.append((xs2, M2t, phi))

    assert len(cases) == 10
    for xs, M, phi in cases:
        ok = ok and rho_eval(phi).is_zero()
        m_exp = 0
        for xi in xs.elements:
            ke = kill_exponent(M, xi, phi.evaluate(xi**phi.stage))
            ok = ok and ke is not None
            m_exp = max(m_exp, ke or 0)
        deep = phi.restrict(phi.stage + m_exp + xs.k)
        ok = ok and all(v.is_zero() for v in deep.values)
    announce(2, ok, "10 random phi with rho(phi)=0 restrict to the zero hom "
             "on J^(n+m+k), m read from localization-kill exponents")


# ---------------------------------------------------------------------------
# 3. Deligne formula on the regular fixture


def _compatible_cocycles_by_bruteforce(n: int, count: int, seed: int):
    """All (m1, m2) with deg <= 4 and y^n m1 = x^n m2, by linear algebra
    over the monomial coefficients; seeded random combinations."""
    max_d = 4
    mons = []
    for d in range(max_d + 1):
        mons.extend(monomials_of_degree(2, d))
    target = []
    for d in range(max_d + n + 1):
        target.extend(monomials_of_degree(2, d))
    rows = []
    ncols = 2 * len(mons)
    for r, tmon in enumerate(target):
        rows.append([QQ.zero] * ncols)
    tindex = {m: i for i, m in enumerate(target)}
    for j, mon in enumerate(mons):
        m1 = (mon[0], mon[1] + n)  # y^n * mon
        rows[tindex[m1]][j] = QQ.one
        m2 = (mon[0] + n, mon[1])  # x^n * mon
        rows[tindex[m2]][len(mons) + j] = QQ.of(-1)
    kernel = kernel_basis(rows, QQ, ncols)
    rng = random.Random(seed)
    out = []
    M = FpModule.free(R2, 1)
    xs = SequenceSpec((X2, Y2))
    for _ in range(count):
        v = [QQ.zero] * ncols
        for kv in kernel:
            c = QQ.of(rng.randint(-2, 2))
            v = [QQ.add(a, QQ.mul(c, b)) for a, b in zip(v, kv)]
        m1 = R2.poly({m: v[j] for j, m in enumerate(mons)})
        m2 = R2.poly({m: v[len(mons) + j] for j, m in enumerate(mons)})
        out.append(CechCocycle(xs, n, [M.element((m1,)), M.element((m2,))]))
    return out


def test_criterion_3_deligne_formula_regular():
    xs = SequenceSpec((X2, Y2))
    M = FpModule.free(R2, 1)
    rng = random.Random(55)
    ok = True

    # polynomials glue back to themselves
    for _ in range(5):
        f = random_element(M, rng)
        secs = [LocalFraction((x**1) * f, x, 1) for x in xs.elements]
        glued = sheaf_check(secs, xs)
        ok = ok and isinstance(glued, Glued)
        ok = ok and loc_equal(glued.fraction(), LocalFraction(f, glued.y, 0))
        phi = rho_preimage(CechCocycle.from_global(xs, f), escalation_cap=6)
        ok = ok and rho_eval(phi).equals(CechCocycle.from_global(xs, f))

    # brute-force compatible cocycles admit preimages
    count = 0
    for n, seed in ((1, 660), (2, 661)):
        for c in _compatible_cocycles_by_bruteforce(n, 5, seed):
            count += 1
            phi = rho_preimage(c, escalation_cap=8)
            ok = ok and not isinstance(phi, RhoObstruction)
            back = rho_eval(phi)
            for i in range(xs.k):
                ok = ok and loc_equal(
                    back.component_fraction(i), c.component_fraction(i)
                )
    assert count == 10
    announce(3, ok, "over Q[x,y], J=(x,y), M=R: global sections glue back and "
             "10 brute-forced compatible cocycles admit rho-preimages, exactly")


# ---------------------------------------------------------------------------
# 4. pro-zero certificates for (x, x)


def _doubled_oracle_min_m(n: int) -> int:
    """Independent oracle: cycles (u, -u), boundaries (-x^n, x^n)R, so the
    transition multiplies the cycle by x^(m-n); it lands in the boundaries
    exactly when x^n divides x^(m-n)."""
    m = n
    while True:
        # divisibility of x^(m-n) by x^n, checked on raw exponents
        if (m - n) >= n:
            return m
        m += 1


def test_criterion_4_pro_zero_doubled_sequence():
    xs = SequenceSpec((X1, X1))
    M = FpModule.free(R1, 1)
    ok = True
    for n in range(1, 6):
        cert = pro_zero_search(xs, 1, n, M, 12)
        ok = ok and isinstance(cert, ProZeroCertificate)
        ok = ok and cert.witness_m == _doubled_oracle_min_m(n) == 2 * n
        ok = ok and cert.verify()
    announce(4, ok, "(x, x) over Q[x]: pro_zero_search returns m = 2n for "
             "n = 1..5, matching the brute-force oracle; certificates replay")


# ---------------------------------------------------------------------------
# 5. Noetherian universality probe


def test_criterion_5_noetherian_probe():
    F5 = GF(5)
    R5 = PolyRing(F5, ("x", "y", "z"))
    x5, y5, z5 = R5.gens()
    x3, y3, z3 = R3.gens()
    fixtures = [
        (FpModule.free(R2, 1), SequenceSpec((X2, Y2)), (1,)),
        (FpModule.quotient_ring(R2, [X2 * Y2]), SequenceSpec((X2, Y2)), (1,)),
        (FpModule.quotient_ring(R2, [X2**2]), SequenceSpec((X2, Y2)), (1,)),
        (FpModule.quotient_ring(R5, [x5 * z5]), SequenceSpec((x5, y5, z5)), (1, 2)),
        (FpModule.free(R3, 1), SequenceSpec((x3, y3, z3)), (1, 2)),
    ]
    ok = True
    for M, xs, degrees in fixtures:
        for i in degrees:
            for n in (1, 2):
                out = pro_zero_search(xs, i, n, M, 12)
                ok = ok and not isinstance(out, SearchExhausted)
                ok = ok and out.verify()
    announce(5, ok, "5 Noetherian fixtures: pro_zero_search never exhausts "
             "with cap 12 (degrees per fixture, n = 1..2)")


# ---------------------------------------------------------------------------
# 6. idealization counterexample


def test_criterion_6_idealization():
    S = IdealizationRing()
    ok = True

    dims = [len(s_annihilator(S, t)) for t in range(1, 11)]
    ok = ok and dims == list(range(1, 11))

    for n in range(1, 12):
        for m in range(n + 1, 13):
            ok = ok and h1_transition_witness(S, m, n).verify()

    for w in rho_obstruction(S, S.R.one(), 1, cap=10):
        ok = ok and w.verify()

    # transform stages: E-components die at exactly max-support+1, the
    # R-class survives 10 transitions unchanged
    a = S.R.poly({(2,): 3, (0,): 1})
    for sup in (0, 2, 5):
        cur = S.s(a * S.x, S.e(sup))
        stage = 1
        deaths = None
        for step in range(1, 11):
            cur = ideal_transform_stage(S, stage).transition(cur)
            stage += 1
            if deaths is None and cur.e.is_zero():
                deaths = step
        ok = ok and deaths == sup + 1
        ok = ok and ideal_transform_stage(S, stage).colimit_r_class(cur) == a

    cur = tau_image(S, a, 1)
    for stage in range(1, 11):
        st = ideal_transform_stage(S, stage)
        ok = ok and st.colimit_r_class(cur) == a
        num, q = st.rho_image(cur)
        ok = ok and (num, q) == (a, 0)
        cur = st.transition(cur)

    announce(6, ok, "idealization: dim ann((x,0)^t) = t for t=1..10, H1 tower "
             "not pro-zero for all n<m<=12, every pole obstructed, transform "
             "colimit = R")


# ---------------------------------------------------------------------------
# 7. sheaf axioms


def test_criterion_7_sheaf_axioms():
    x3, y3, z3 = R3.gens()
    # the middle fixture is R (+) R/(x^2, xy): nonzero J-torsion makes the
    # compat exponents positive, while the free part keeps incompatibility
    # detectable (the double localizations do not vanish)
    mixed = FpModule(
        R2, 2, [(R2.zero(), X2**2), (R2.zero(), X2 * Y2)]
    )
    fixtures = [
        (SequenceSpec((X2, Y2)), FpModule.free(R2, 1), 7),
        (SequenceSpec((X2, Y2)), mixed, 7),
        (SequenceSpec((x3, y3, z3)), FpModule.free(R3, 1), 6),
    ]
    ok = True
    compat_total = 0
    incompat_total = 0
    for fi, (xs, M, per_fixture) in enumerate(fixtures):
        rng = random.Random(700 + fi)
        gamma = gamma_torsion(M, xs)
        torsion_gens = [M.element(g) for g in gamma.generators]
        for _ in range(per_fixture):
            m = random_element(M, rng)
            exps = [rng.randint(0, 2) for _ in range(xs.k)]
            secs = []
            for i, x in enumerate(xs.elements):
                tweak = M.zero()
                for g in torsion_gens:
                    if rng.random() < 0.5:
                        tweak = tweak + rng.randint(-1, 1) * g
                secs.append(LocalFraction((x ** exps[i]) * m + tweak, x, exps[i]))
            out = sheaf_check(secs, xs)
            compat_total += 1
            ok = ok and isinstance(out, Glued)
            if not isinstance(out, Glued):
                continue
            # glued section restricts correctly (exact identities already
            # verified inside) and matches sigma_inverse at probes
            c = out.cocycle
            for y in probe_elements(xs, 3, rng):
                ok = ok and loc_equal(
                    sigma_inverse(c, y),
                    sigma_inverse(CechCocycle(xs, c.exponent, c.components), y),
                )
            ok = ok and loc_equal(out.fraction(), sigma_inverse(c, out.y))
            ok = ok and loc_equal(out.fraction(), LocalFraction(m, out.y, 0))

            # incompatible family: bump one chart by a unit
            bump = rng.randrange(xs.k)
            bad = list(secs)
            bad[bump] = LocalFraction(
                bad[bump].numerator + M.basis_elements()[0],
                xs.elements[bump],
                bad[bump].exponent,
            )
            out2 = sheaf_check(bad, xs)
            incompat_total += 1
            expected_pair = (0, 1) if bump <= 1 else (0, bump)
            ok = ok and isinstance(out2, IncompatibleWitness)
            ok = ok and (out2.i, out2.j) == expected_pair
            ok = ok and not out2.witness.is_zero()
    assert compat_total == 20 and incompat_total == 20
    announce(7, ok, "3 fixtures: 20 compatible families glue uniquely and "
             "match sigma_inverse; 20 incompatible families name the first "
             "violated pair with a surviving witness")


# ---------------------------------------------------------------------------
# 8. commutative diagram


def test_criterion_8_diagram():
    from deligne_kit.deligne import diagram_check

    x3, y3, z3 = R3.gens()
    fixtures = [
        (SequenceSpec((X2, Y2)), FpModule.free(R2, 1)),
        (SequenceSpec((X2, Y2)), FpModule.quotient_ring(R2, [X2 * Y2])),
        (SequenceSpec((X2, Y2)),
         FpModule(R2, 2, [(X2, R2.zero()), (R2.zero(), Y2**2)])),
        (SequenceSpec((X1,)), FpModule.quotient_ring(R1, [X1**3])),
        (SequenceSpec((x3, y3, z3)), FpModule.free(R3, 1)),
    ]
    ok = True
    total = 0
    for fi, (xs, M) in enumerate(fixtures):
        rng = random.Random(800 + fi)
        for _ in range(10):
            total += 1
            ok = ok and diagram_check(random_element(M, rng), xs)
    assert total == 50
    announce(8, ok, "50 seeded elements: rho o tau equals the natural map "
             "and kernel membership matches the torsion submodule, exactly")


# ---------------------------------------------------------------------------
# 9. hom oracle agreement


def _quotient_reducer(rel_rows, field, width):
    """Reduction of coefficient vectors modulo the row space; returns the
    function and the row space dimension."""
    reduced, pivots = rref(rel_rows, field)
    pivot_rows = reduced[: len(pivots)]

    def project(vec):
        v = list(vec)
        for prow, pc in zip(pivot_rows, pivots):
            f = v[pc]
            if f != field.zero:
                v = [field.sub(a, field.mul(f, b)) for a, b in zip(v, prow)]
        return v

    return project, len(pivots)


def _relspan_rows(relations, degree, ring):
    """Row vectors spanning the degree piece of the relation submodule of a
    cyclic module."""
    mons = monomials_of_degree(ring.nvars, degree)
    rows = []
    for (rel,) in relations:
        d = rel.total_degree()
        for mon in monomials_of_degree(ring.nvars, degree - d):
            rows.append(poly_coords(rel.mul_term(ring.field.one, mon), mons))
    return rows, mons


def _hom_dim_oracle(gens, relations, n, delta, ring):
    """dim of degree-shift-delta homs J^n -> R/(relations) by brute force:
    raw value vectors constrained by every degreewise syzygy up to 2n+1,
    modulo relation-span values."""
    field = ring.field
    vdeg = n + delta
    if vdeg < 0:
        return 0
    vmons = monomials_of_degree(ring.nvars, vdeg)
    blk = len(vmons)
    N = len(gens)
    rows = []
    for e in range(n, 2 * n + 2):
        from oracles import degreewise_syzygies

        kernel, layout = degreewise_syzygies(gens, ring, e)
        if not kernel:
            continue
        tdeg = e + delta
        rel_rows, tmons = _relspan_rows(relations, tdeg, ring)
        project, _ = _quotient_reducer(rel_rows, field, len(tmons))
        tindex = {m: i for i, m in enumerate(tmons)}
        for kv in kernel:
            # constraint rows: one per quotient coordinate of the target
            cols = []
            for j in range(N):
                for vm in vmons:
                    total = [field.zero] * len(tmons)
                    for coeff, (jj, cm) in zip(kv, layout):
                        if jj != j or coeff == field.zero:
                            continue
                        prod = tuple(a + b for a, b in zip(cm, vm))
                        total[tindex[prod]] = field.add(
                            total[tindex[prod]], coeff
                        )
                    cols.append(project(total))
            for r in range(len(tmons)):
                rows.append([c[r] for c in cols])
    if rows:
        sol_dim = len(kernel_basis(rows, field, N * blk))
    else:
        sol_dim = N * blk
    rel_rows, _ = _relspan_rows(relations, vdeg, ring)
    rel_dim = matrix_rank(rel_rows, field) if rel_rows else 0
    return sol_dim - N * rel_dim


def _hom_dim_computed(H, n, delta, ring):
    """Same dimension from the computed presentation: dim L_delta - dim
    D_delta, using homogeneous generator matrices."""
    field = ring.field
    vdeg = n + delta
    if vdeg < 0:
        return 0
    vmons = monomials_of_degree(ring.nvars, vdeg)
    N = H.A.rank

    def flat_rows(matrices, shifts):
        rows = []
        for g, s in zip(matrices, shifts):
            if s is None:
                continue
            for mon in monomials_of_degree(ring.nvars, delta - s):
                row = []
                for j in range(N):
                    p = g[j][0].mul_term(field.one, mon)
                    row.extend(poly_coords(p, vmons))
                rows.append(row)
        return rows

    def shift_of(matrix):
        degs = set()
        for j in range(N):
            p = matrix[j][0]
            for mon in p.terms:
                degs.add(sum(mon) - n)
        if not degs:
            return None
        assert len(degs) == 1, "generator matrix is not homogeneous"
        return degs.pop()

    l_shifts = [shift_of(g) for g in H.generators]
    l_rows = flat_rows(H.generators, l_shifts)
    dim_l = matrix_rank(l_rows, field) if l_rows else 0

    d_matrices = []
    for (rel,) in H.B.relations.gens:
        for j in range(N):
            cols = [(ring.zero(),)] * N
            cols[j] = (rel,)
            d_matrices.append(tuple(cols))
    d_shifts = [shift_of(g) for g in d_matrices]
    d_rows = flat_rows(d_matrices, d_shifts)
    dim_d = matrix_rank(d_rows, field) if d_rows else 0
    return dim_l - dim_d


def test_criterion_9_hom_dimensions_match_oracle():
    modules = {
        "R": [],
        "R/(x)": [(X2,)],
        "R/(x^2, xy)": [(X2**2,), (X2 * Y2,)],
    }
    ok = True
    checked = 0
    for n in (1, 2, 3):
        gens = ideal_power([X2, Y2], n)
        pres, _ = ideal_as_module((X2, Y2), n)
        for label, rels in modules.items():
            M = FpModule(R2, 1, rels)
            H = hom_module(pres, M)
            for delta in range(-n, 4 - n + 1):
                d_oracle = _hom_dim_oracle(gens, rels, n, delta, R2)
                d_computed = _hom_dim_computed(H, n, delta, R2)
                ok = ok and (d_oracle == d_computed)
                checked += 1
    assert checked >= 27
    announce(9, ok, "graded dims of Hom(J^n, M), n = 1..3, three modules, "
             "match the degreewise linear-algebra oracle in degree <= 4")
