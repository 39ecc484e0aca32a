import hashlib
import random

import pytest

from deligne_kit import deligne, koszul
from deligne_kit.check import ProZeroCertificate, transition_multipliers
from deligne_kit.errors import InternalError, StructuralError
from deligne_kit.groebner import FreeSubmodule
from deligne_kit.koszul import (
    SearchExhausted,
    _stage,
    homology_transition,
    koszul_homology,
    pro_zero_search,
)
from deligne_kit.modules import (
    FpModule,
    ModuleHom,
    colon_generators,
    ideal_span,
    module_kernel,
)
from deligne_kit.rings import (
    GF,
    QQ,
    PolyRing,
    SequenceSpec,
    blockdiag_relations,
    vec_is_zero,
)
from deligne_kit.session import parse_session


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y"))


@pytest.fixture
def R1():
    return PolyRing(QQ, ("x",))


def doubled_x_oracle_min_m(n: int) -> int:
    """For the sequence (x, x) over Q[x]: cycles are (u, -u), boundaries
    (-x^n, x^n) R, so H_1 is R/(x^n) and the stage-m class of the generator
    transports to x^(m-n); the transition vanishes exactly when m >= 2n."""
    return 2 * n


# ---------------------------------------------------------------- stages


def test_d_squared_zero_three_vars():
    R3 = PolyRing(QQ, ("x", "y", "z"))
    xs = SequenceSpec(R3.gens())
    M = FpModule.quotient_ring(R3, [R3.gen(0) * R3.gen(2)])
    from deligne_kit.koszul import _stage

    st = _stage(xs, 2, M)
    for i in range(2, xs.k + 1):
        for col in st.diff[i].columns:
            assert vec_is_zero(st.diff[i - 1].apply_raw(col))


_RANK_2 = """\
ring F32003[x,y,z,w] order grevlex;
module P = coker [[x^2, y*z], [z*w, 0]];
module M = coker [[x*y - z*w, 0, z^2], [0, y*z, x^2 - w^2]];
sequence t = (x, y, z);
"""

# count and sha256 of the printed generators of module_kernel(stage.diff[i])
# for P at stage 2, i = 1, 2, 3: the kernel reads only the columns and the
# target relation generators, so how the stage checks its relations must
# not move it
_P_KERNEL_DIGESTS = {
    1: (11, "fb4c4b08e3af15b3b8fc37f33c18ca54fedf31267486a723a78838787898f544"),
    2: (11, "88cfae8f4cf614cc0128fed81ace5dcbd9017d345edc3f8f10fc165c1d7e304e"),
    3: (4, "e620a4405e6bd9106c6f042093ac8ca5de5a68ab5bef7b6486a4cb9cff1d1833"),
}


def test_stage_builds_no_chain_relation_basis():
    s = parse_session(_RANK_2)
    P = s.modules["P"]
    st = _stage(SequenceSpec(s.sequences["t"]), 2, P)
    assert all(c.relations._gb is None for c in st.chain)
    for i, (count, digest) in _P_KERNEL_DIGESTS.items():
        gens = module_kernel(st.diff[i])
        text = repr([[str(p) for p in g] for g in gens])
        assert len(gens) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the membership test builds the same kernel
    for i in range(1, 4):
        d = st.diff[i]
        checked = ModuleHom(d.source, d.target, d.columns)
        assert module_kernel(checked) == module_kernel(d)


_TOWER = """\
ring F32003[x,y,z,w] order grevlex;
module T = coker [[x*y*z, x*w^2]];
module N = coker [[x*y, z^2]];
module P = coker [[x^2, y*z], [z*w, 0]];
module M = coker [[x*y - z*w, 0, z^2], [0, y*z, x^2 - w^2]];
sequence s = (x, y, z, w);
sequence t = (x, y, z);
sequence u = (x*y, z*w);
"""

# (module, sequence, degree) of passing searches from 1 with cap 3, one per
# module of the tower benchmark
_TOWER_SEARCHES = [("T", "s", 2), ("N", "t", 3), ("P", "t", 1), ("M", "u", 2)]


@pytest.mark.parametrize("name, seq, degree", _TOWER_SEARCHES,
                         ids=[c[0] for c in _TOWER_SEARCHES])
def test_cycle_lift_blockwise_equals_chain_lift(name, seq, degree):
    # pro_zero_search lifts d_i(z) block by block against M's relations;
    # the lift against the stacked chain relations, in the block-outer
    # order of blockdiag_relations, is the same vector
    s = parse_session(_TOWER)
    M = s.modules[name]
    x = SequenceSpec(s.sequences[seq])
    cert = pro_zero_search(x, degree, 1, M, 3)
    assert isinstance(cert, ProZeroCertificate) and cert.entries
    stage = _stage(x, cert.witness_m, M)
    blocks = len(stage.subsets[degree - 1])
    rels = blockdiag_relations(M.relations.gens, M.rank, blocks, M.ring)
    chain = FreeSubmodule(M.ring, M.rank * blocks, rels)
    for e in cert.entries:
        rem, lift = chain.normal_form_lift(stage.diff[degree].apply_raw(e.cycle))
        assert vec_is_zero(rem)
        assert e.cycle_relation_lift == tuple(lift)


def test_search_shares_chain_modules_and_builds_no_chain_basis():
    # the chain modules M^(k choose i) come from M's memo, one per block
    # count for every stage, and a full search, exhausted or not, builds
    # no Gröbner basis of their relations
    s = parse_session(_TOWER)
    for name, seq, degree in _TOWER_SEARCHES + [("M", "u", 1)]:
        M = s.modules[name]
        x = SequenceSpec(s.sequences[seq])
        pro_zero_search(x, degree, 1, M, 3)
        stages = [v for k, v in M.memo.items() if k[0] == "stage"]
        for st in stages:
            assert all(a is b for a, b in zip(st.chain, stages[0].chain))
            assert all(c.relations._gb is None for c in st.chain)
    # the exhausted search on M ran to its cap: stages 1, 2 and 3
    assert len(stages) == 3


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_stage_checks_each_relation_against_its_lift(monkeypatch, degree):
    # M has rank 2 and three relations, so only the module's differential
    # has width 2; its relation lifts are untouched
    s = parse_session(_RANK_2)
    M = s.modules["M"]
    real = koszul.koszul_differential_columns

    def swapped(x, n, width, i):
        cols = real(x, n, width, i)
        if width == M.rank and i == degree:
            cols[0] = tuple(cols[0][t ^ 1] for t in range(len(cols[0])))
        return cols

    monkeypatch.setattr(koszul, "koszul_differential_columns", swapped)
    with pytest.raises(InternalError, match=f"d_{degree}: relation 0 "):
        _stage(SequenceSpec(s.sequences["t"]), 1, M)


def test_homology_out_of_range(R):
    xs = SequenceSpec(R.gens())
    M = FpModule.free(R, 1)
    with pytest.raises(StructuralError):
        koszul_homology(xs, 1, M, 3)
    with pytest.raises(StructuralError):
        koszul_homology(xs, 1, M, -1)


def test_regular_sequence_h1_vanishes(R):
    xs = SequenceSpec(R.gens())
    M = FpModule.free(R, 1)
    H = koszul_homology(xs, 2, M, 1)
    assert all(e.is_zero() for e in H.presentation.basis_elements())


def test_h1_single_element_torsion(R1):
    (x,) = R1.gens()
    M = FpModule.quotient_ring(R1, [x**2])
    H = koszul_homology(SequenceSpec((x,)), 1, M, 1)
    span = FreeSubmodule(R1, 1, list(H.representatives) + list(M.relations.gens))
    assert span.contains((x,))
    assert not span.contains((R1.one(),))


def test_h0_is_quotient_by_sequence(R):
    # generic-path H_0 presentation carries the same relation span as the
    # directly built M/x^(n)M
    x, y = R.gens()
    xs = SequenceSpec((x, y))
    M = FpModule.quotient_ring(R, [x * y**2])
    H = koszul_homology(xs, 2, M, 0)
    direct = FreeSubmodule(
        R, 1, list(M.relations.gens) + [(x**2,), (y**2,)]
    )
    assert H.presentation.relations.span_equals(direct)


def test_hk_is_annihilator(R):
    # H_k = 0 :_M (x^(n)); compare spans of cycle representatives
    x, y = R.gens()
    xs = SequenceSpec((x, y))
    M = FpModule.quotient_ring(R, [x**2 * y])
    H = koszul_homology(xs, 1, M, 2)
    h_span = FreeSubmodule(
        R, 1, list(H.representatives) + list(M.relations.gens)
    )
    colon = colon_generators(M, [x, y])
    c_span = FreeSubmodule(R, 1, list(colon) + list(M.relations.gens))
    assert h_span.span_equals(c_span)


def test_doubled_x_h1_presentation(R1):
    (x,) = R1.gens()
    xs = SequenceSpec((x, x))
    M = FpModule.free(R1, 1)
    for n in (1, 3):
        H = koszul_homology(xs, n, M, 1)
        # one generator (up to sign the cycle (1, -1)) with relation x^n
        assert len(H.representatives) == 1
        rels = H.presentation.relations
        assert rels.span_equals(FreeSubmodule(R1, 1, [(x**n,)]))


# ---------------------------------------------------------------- transitions


def test_transition_identity_at_equal_stages(R1):
    (x,) = R1.gens()
    xs = SequenceSpec((x, x))
    M = FpModule.free(R1, 1)
    tr = homology_transition(xs, 1, 3, 3, M)
    for i, e in enumerate(tr.source.basis_elements()):
        assert tr.apply(e) == tr.target.basis_elements()[i]


def test_transition_rejects_bad_stages(R1):
    (x,) = R1.gens()
    xs = SequenceSpec((x,))
    with pytest.raises(StructuralError):
        homology_transition(xs, 1, 1, 2, FpModule.free(R1, 1))


def test_transition_matches_multiplication_oracle(R1):
    (x,) = R1.gens()
    xs = SequenceSpec((x, x))
    M = FpModule.free(R1, 1)
    for n in (1, 2):
        for m in range(n, 2 * n + 1):
            tr = homology_transition(xs, 1, m, n, M)
            # oracle: zero iff m >= 2n
            assert tr.is_zero() == (m >= doubled_x_oracle_min_m(n))


def test_transition_functorial(R):
    x, y = R.gens()
    xs = SequenceSpec((x, y))
    M = FpModule.quotient_ring(R, [x * y])
    rng = random.Random(13)
    for _ in range(4):
        n = rng.randint(1, 2)
        m = n + rng.randint(0, 2)
        l = m + rng.randint(0, 2)
        t_mn = homology_transition(xs, 1, m, n, M)
        t_lm = homology_transition(xs, 1, l, m, M)
        t_ln = homology_transition(xs, 1, l, n, M)
        for b in t_lm.source.basis_elements():
            assert t_ln.apply(b) == t_mn.apply(t_lm.apply(b))


# ---------------------------------------------------------------- pro-zero


def test_pro_zero_doubled_x_certificates(R1):
    (x,) = R1.gens()
    xs = SequenceSpec((x, x))
    M = FpModule.free(R1, 1)
    for n in range(1, 6):
        cert = pro_zero_search(xs, 1, n, M, 12)
        assert isinstance(cert, ProZeroCertificate)
        assert cert.witness_m == doubled_x_oracle_min_m(n)
        assert cert.verify()


def test_pro_zero_regular_immediate(R):
    xs = SequenceSpec(R.gens())
    M = FpModule.free(R, 1)
    cert = pro_zero_search(xs, 1, 2, M, 6)
    assert cert.witness_m == 2
    assert cert.verify()


def test_pro_zero_quotient_fixture(R):
    x, y = R.gens()
    xs = SequenceSpec((x, y))
    M = FpModule.quotient_ring(R, [x * y])
    cert = pro_zero_search(xs, 1, 1, M, 10)
    assert isinstance(cert, ProZeroCertificate)
    assert cert.verify()


def test_pro_zero_exhausted_outcome(R1):
    # a cap below the known minimal stage yields the distinct outcome
    (x,) = R1.gens()
    xs = SequenceSpec((x, x))
    M = FpModule.free(R1, 1)
    out = pro_zero_search(xs, 1, 4, M, 6)
    assert isinstance(out, SearchExhausted)
    assert out.m_max == 6


def test_certificate_tamper_detected(R1):
    (x,) = R1.gens()
    xs = SequenceSpec((x, x))
    M = FpModule.free(R1, 1)
    cert = pro_zero_search(xs, 1, 1, M, 4)
    bad = ProZeroCertificate(
        x=cert.x,
        i=cert.i,
        base_n=cert.base_n,
        witness_m=cert.witness_m,
        M=cert.M,
        entries=[
            type(cert.entries[0])(
                cycle=cert.entries[0].cycle,
                preimage_chain=tuple(p + R1.one() for p in cert.entries[0].preimage_chain),
                relation_lift=cert.entries[0].relation_lift,
                cycle_relation_lift=cert.entries[0].cycle_relation_lift,
            )
        ],
    )
    assert not bad.verify()


def test_pro_zero_prime_field():
    R5 = PolyRing(GF(5), ("x", "y", "z"))
    x, y, z = R5.gens()
    xs = SequenceSpec((x, y, z))
    M = FpModule.quotient_ring(R5, [x * z])
    cert = pro_zero_search(xs, 1, 1, M, 12)
    assert isinstance(cert, ProZeroCertificate)
    assert cert.verify()


# The transition route is the reference for the search: pro_zero_search
# must return the smallest m <= cap at which homology_transition is zero.
# Each case maps the seeded variables to (sequence, module rank, relations,
# degree, start n, cap, expected witness_m or None for an exhausted search).
SEARCH_CASES = {
    "Q-rank1-degree1": (QQ, "xy", lambda x, y: (
        (x, y), 1, [(x * y,)], 1, 1, 4, 2)),
    "Q-rank1-degree0": (QQ, "xy", lambda x, y: (
        (x, y), 1, [(x * y - x.ring.one(),)], 0, 1, 3, 1)),
    "Q-rank2-degree1": (QQ, "xy", lambda x, y: (
        (x, x), 2, [(x, y), (0 * x, x**2)], 1, 1, 4, 4)),
    "Q-rank2-degreek": (QQ, "xy", lambda x, y: (
        (x, y), 2,
        [(x**2, 0 * x), (y**2, 0 * x), (0 * x, x), (0 * x, y**3)], 2, 1, 4, 3)),
    "Fp-rank1-degree1": (GF(5), "xy", lambda x, y: (
        (x, y), 1, [(x**2 * y,)], 1, 2, 5, 4)),
    "Fp-rank1-degreek": (GF(32003), "xyz", lambda x, y, z: (
        (x, y, z), 1, [(x**2,), (y**2,), (z**2,)], 3, 1, 3, 3)),
    "Fp-rank2-degree1": (GF(32003), "xyz", lambda x, y, z: (
        (x, y, z), 2, [(x**2, y * z), (z * y, 0 * x)], 1, 1, 3, 2)),
    "Fp-rank2-degree0-exhausted": (GF(5), "xy", lambda x, y: (
        (x, y), 2, [(x * y, 0 * x)], 0, 1, 3, None)),
    "Q-rank1-degree1-exhausted": (QQ, "x", lambda x: (
        (x, x), 1, [], 1, 3, 5, None)),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_search_matches_transition_reference(name, seed):
    field, variables, build = SEARCH_CASES[name]
    ring = PolyRing(field, tuple(variables))
    # x_i -> a_i * x_i with seeded units a_i, as in the tower benchmark
    rng = random.Random(seed)
    seq, rank, rels, i, n, cap, expected = build(
        *(rng.randrange(1, 5) * v for v in ring.gens())
    )
    xs = SequenceSpec(seq)
    M = FpModule(ring, rank, rels)
    out = pro_zero_search(xs, i, n, M, cap)
    reference = next(
        (m for m in range(n, cap + 1)
         if homology_transition(xs, i, m, n, M).is_zero()),
        None,
    )
    assert reference == expected
    if reference is None:
        assert isinstance(out, SearchExhausted)
        assert (out.base_n, out.m_max) == (n, cap)
    else:
        assert isinstance(out, ProZeroCertificate)
        assert out.witness_m == reference
        assert out.verify()


def test_search_builds_no_transition(R, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search decides by boundary lifts alone")

    monkeypatch.setattr(koszul, "homology_transition", refuse)
    monkeypatch.setattr(koszul.HomologyModule, "express", refuse)
    x, y = R.gens()
    M = FpModule.quotient_ring(R, [x * y])
    cert = pro_zero_search(SequenceSpec((x, y)), 1, 1, M, 4)
    assert isinstance(cert, ProZeroCertificate)
    assert cert.witness_m == 2
    assert cert.verify()


def test_pro_zero_search_builds_no_presentation(monkeypatch, R, R1):
    # the search reads representatives and boundary lifts only; reading a
    # presentation fails the search
    def unread(self):
        raise AssertionError("pro_zero_search built a presentation")

    monkeypatch.setattr(koszul.HomologyModule, "presentation",
                        property(unread))
    (x,) = R1.gens()
    cert = pro_zero_search(SequenceSpec((x, x)), 1, 2, FpModule.free(R1, 1), 6)
    assert cert.witness_m == 4 and cert.verify()
    a, b = R.gens()
    z = R.zero()
    P = FpModule(R, 2, [(a**2, z), (b**2, z), (z, a), (z, b**3)])
    cert = pro_zero_search(SequenceSpec((a, b)), 1, 1, P, 6)
    assert cert.witness_m == 4 and cert.verify()
    out = pro_zero_search(SequenceSpec((x, x)), 1, 4, FpModule.free(R1, 1), 6)
    assert isinstance(out, SearchExhausted)


def test_pro_zero_search_builds_boundary_span_at_stage_n_only(monkeypatch, R, R1):
    # stages m > n are read for their representatives only; their boundary
    # spans are never reduced against, so none is built
    span = koszul.HomologyModule._boundary_span
    built = set()

    def recording(self):
        built.add(self.stage.n)
        return span.func(self)

    monkeypatch.setattr(koszul.HomologyModule, "_boundary_span",
                        property(recording))
    (x,) = R1.gens()
    cert = pro_zero_search(SequenceSpec((x, x)), 1, 2, FpModule.free(R1, 1), 6)
    assert cert.witness_m == 4 and cert.verify()
    assert built == {2}
    built.clear()
    a, b = R.gens()
    z = R.zero()
    P = FpModule(R, 2, [(a**2, z), (b**2, z), (z, a), (z, b**3)])
    cert = pro_zero_search(SequenceSpec((a, b)), 1, 1, P, 6)
    assert cert.witness_m == 4 and cert.verify()
    assert built == {1}
    built.clear()
    out = pro_zero_search(SequenceSpec((x, x)), 1, 4, FpModule.free(R1, 1), 6)
    assert isinstance(out, SearchExhausted)
    assert built == {4}


# ---------------------------------------------------------------- memos


def test_transition_multipliers_memoised_per_ring():
    # 32005 is 2 mod 32003: the same text gives each session's own factors
    text = "sequence s = (32005*x, x*y);"
    sessions = [parse_session(f"ring {f}[x,y]; {text}") for f in ("Q", "F32003")]
    for sess, c in zip(sessions, (32005, 2)):
        ring = sess.ring
        x, y = ring.gens()
        s = SequenceSpec(sess.sequences["s"])
        first = transition_multipliers(s, 1, 3, 1)
        assert transition_multipliers(s, 1, 5, 3) is first
        assert ring.memo[("transition_multipliers", s.key(), 1, 2)] is first
        assert list(first) == [c**2 * x**2, x**2 * y**2]
        assert all(p.ring is ring for p in first)
        assert transition_multipliers(s, 2, 3, 1) == (c**2 * x**4 * y**2,)


def test_memos_do_not_leak_between_rings():
    # same exponent data, different order or different names: each ring
    # must get its own stages, homology, ideal spans and power syzygies
    rings = [
        PolyRing(QQ, ("x", "y"), order="grevlex"),
        PolyRing(QQ, ("x", "y"), order="lex"),
        PolyRing(QQ, ("a", "b"), order="grevlex"),
    ]
    modules, spans = [], []
    for ring in rings:
        u, v = ring.gens()
        s = SequenceSpec((u, v))
        M = FpModule.quotient_ring(ring, [u * v])
        modules.append(M)
        assert koszul_homology(s, 1, M, 1).stage.x.ring == ring
        cert = pro_zero_search(s, 1, 1, M, 3)
        assert isinstance(cert, ProZeroCertificate)
        assert cert.witness_m == 2
        for syz in deligne._power_syzygies(s, 2):
            assert all(p.ring == ring for p in syz)
        span = ideal_span(ring, s.powers(2))
        spans.append(span)
        assert span.ring is ring and span is ring.memo[
            ("ideal_span", tuple(p.key() for p in s.powers(2)))
        ]
        assert all(p.ring is ring for b in span.basis() for p in b)
    # equal generator keys, three rings: three spans
    assert len({id(span) for span in spans}) == len(rings)
    # a module and a sequence from different rings are refused, even when
    # the module already holds homology for an equal-looking sequence
    with pytest.raises(StructuralError):
        koszul_homology(SequenceSpec(rings[1].gens()), 1, modules[0], 1)
