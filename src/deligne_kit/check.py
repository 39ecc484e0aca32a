"""Certificate replay: every check ``--replay`` runs on a record once the
session is parsed.  ``decide`` is the one decision of an outcome: ``run``
sets each record's outcome with it, and ``--replay`` accepts a record
only when it gives the outcome the record claims (``replay_record``,
which otherwise says why not).

A record holds only the evidence that replay cannot recompute by plain
arithmetic from its task and its other fields: kind, label and bounds are
rebuilt from the task (``decide`` compares them), a roundtrip fraction's
base is its probe, its kill exponent 0 and theta's exponent the stage, the
sheaf-glue numerator is the sum of the primed components, and the
idealization witnesses are closed forms of (pole, stage): one per pole is
verified, and the lemma of ``idealization.rho_obstruction`` gives every
stage 1..cap, so that check costs the same for every cap.  A diagram
sample holds only its two torsion flags.  Each replayer reads the record
through ``Field`` and returns the outcome its evidence supports, or raises
one ValueError naming where: the sample and its probe or chart, or the
prozero stage and entry, and the path of a field that is wrong.
Replay is plain arithmetic over the declared relation generators: it never
re-runs the bounded searches or the sampling, builds no Gröbner basis, and
imports nothing from the modules that produce a record.  A check reads a
module only as its ring, rank and relation ``columns``: the session's
``Presentation`` at replay, an FpModule at run.  So a replay process
executes ``cli``, ``session`` and this module with what it imports, and
none of ``groebner``, ``modules``, ``koszul``, ``deligne`` or ``tasks``;
it executes ``idealization``, a lazy module, only for an idealization
record.

Replay bounds its work by degrees before it raises a power.  A record sets
few exponents: a roundtrip probe sigma's, within the pigeonhole bound of
its stage, and a sheaf-glue sample the glue exponent e and its recovery's
kill exponent c, the one c a record sets.  Each identity reads L =
sum(lift_i * relation_i), where the right side costs no power.  Over a
field deg(f*g) = deg f + deg g (the degree of a vector is the largest
degree of an entry, -1 for zero), so L can equal the right side only if
both have the same degree; replay reads deg L off the degrees of the
record's polynomials and rejects a mismatch.  Every power it then raises
has a degree that the degrees of the record's polynomials bound.  The
localization identities (roundtrip probes, the sheaf-glue recovery) are
checked, degree test included, by ``LocEqualCertificate.verify``.

- Sheaf-glue restriction at chart i: with y = sum(x_j^e),
  L = x_i^e*m - y*m'_i = sum_j x_j^e*v_j, v_i = m - m'_i and v_j = -m'_i.
  Lemma: if the top-degree forms of x_1, ..., x_k have pairwise distinct
  leading monomials and e > deg v_j for every j, then
  deg L = max(e*deg x_j + deg v_j : v_j != 0), and L = 0 only if every
  v_j is.  Two terms of different deg x_j cannot tie in degree, since
  their difference in e*deg x_j is at least e and in deg v_j less than e.
  Among the terms of one degree the top form is sum(h_j^e*w_j), h_j the
  top form of x_j and w_j of v_j, and in each entry the leading monomials
  lm(h_j)^e*lm(w_j) differ pairwise: lm(h_j)^e and lm(h_l)^e differ in
  some exponent by at least e, lm(w_j) and lm(w_l) in every exponent by
  less.  So the largest survives.  With v_j = 1 the lemma gives
  deg y = e*max(deg x_j) for e >= 1, which the recovery check passes to
  ``verify`` as the degree of its base without forming y; y is formed
  only when a check needs one of its powers, and then its degree is
  bounded.
- A cover whose top-degree forms share a leading monomial falls outside
  the lemma: replay checks its sheaf-glue identities without the degree
  test and forms y outright.  docs/report-schema.md lists what replay
  does not bound.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from itertools import combinations

from . import idealization
from .errors import NameResolutionError, StructuralError
from .rings import (
    MAX_DIGITS,
    Poly,
    PolyRing,
    SequenceSpec,
    Vector,
    blockdiag_relations,
    vec_degree,
    vec_dot,
    vec_is_zero,
    vec_scale,
    vec_sub,
)


# ---------------------------------------------------------------------------
# report payloads


# the text Poly.__str__ writes: signed terms c, c*m or m joined by " + " or
# " - ", c = d or d/d, m = v or v^e joined by "*", d and e runs of at most
# MAX_DIGITS digits; no parentheses and no power of a constant, whose cost
# the text alone would set
_DIGITS = rf"\d{{1,{MAX_DIGITS}}}"
_POWER = rf"[A-Za-z_]\w*(?:\^{_DIGITS})?"
_TERM = rf"(?:{_DIGITS}(?:/{_DIGITS})?|{_POWER})(?:\*{_POWER})*"
_POLY_TEXT = re.compile(rf"-?{_TERM}(?: [+-] {_TERM})*", re.ASCII)


def de_poly(ring: PolyRing, text) -> Poly:
    """The polynomial ``parse_poly`` gives for a text in the form
    Poly.__str__ writes, read in one pass by that form; a non-string or any
    other text raises ValueError before it is read."""
    if not isinstance(text, str) or not _POLY_TEXT.fullmatch(text):
        raise ValueError("a polynomial not in the form a report writes")
    if text == "0":  # 734 of the 901 strings of the seed-1 tower report
        return ring.zero()
    fld, terms = ring.field, {}
    words = ("- " + text[1:] if text[0] == "-" else "+ " + text).split(" ")
    for sign, word in zip(words[::2], words[1::2]):
        coeff, mon = -1 if sign == "-" else 1, [0] * ring.nvars
        for factor in word.split("*"):
            if factor[0].isdigit():
                num, _, den = factor.partition("/")
                coeff *= int(num)
                if den:
                    if not den.strip("0"):
                        raise ValueError("zero denominator")
                    coeff = Fraction(coeff, int(den))
            else:
                name, _, exp = factor.partition("^")
                if name not in ring.variables:
                    raise NameResolutionError(f"unknown variable {name!r}")
                mon[ring.variables.index(name)] += int(exp) if exp else 1
        mon = tuple(mon)
        terms[mon] = fld.add(terms.get(mon, fld.zero), fld.of(coeff))
    return Poly(ring, {mon: c for mon, c in terms.items() if c != fld.zero})


def _describe(value) -> str:
    """How a reason names a JSON value: a list or an object by its kind and
    length, a scalar by its repr cut to 40 characters."""
    if type(value) in (list, dict):
        kind = "a list" if type(value) is list else "an object"
        return f"{kind} of length {len(value)}"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


class Field:
    """A JSON value of a record and where it sits: its location (``sample
    s``, ``sample s, probe p``, ``sample s, chart i`` or ``entry j``) and
    its path, the keys that lead to it from there; an element of a list
    keeps the list's path, and the keys under it start their own.
    ``field["key"]`` is the field under a key, and each reader returns the
    value in the form it names.  A key missing, a wrong JSON type (a null
    is always one), a wrong length or a polynomial a report does not write
    raises ValueError: the location, the path and what is wrong."""

    __slots__ = ("value", "loc", "path", "element")

    def __init__(self, value, loc: str = "", path: str = "",
                 element: bool = False):
        self.value = value
        self.loc = loc
        self.path = path
        self.element = element

    def _where(self, what: str) -> str:
        return ": ".join(part for part in (self.loc, self.path, what) if part)

    def _typed(self, kind: type, name: str):
        # type(), not isinstance: true is not an integer
        if type(self.value) is not kind:
            raise ValueError(self._where(f"{_describe(self.value)} is not "
                                         f"{name}"))
        return self.value

    def __getitem__(self, key: str) -> Field:
        obj = self._typed(dict, "an object")
        field = Field(obj.get(key), self.loc, key if self.element
                      or not self.path else f"{self.path}.{key}")
        if key not in obj:
            raise ValueError(field._where("missing"))
        return field

    def int(self) -> int:
        return self._typed(int, "an integer")

    def flag(self) -> bool:
        return self._typed(bool, "a boolean")

    def items(self, name: str, count: int | None = None) -> list:
        """The list's elements, the j-th located at `name` j."""
        values = self._typed(list, "a list")
        if count is not None and len(values) != count:
            raise ValueError(self._where(f"list of length {len(values)}, "
                                         f"not {count}"))
        loc = f"{self.loc}, {name}" if self.loc else name
        return [Field(v, f"{loc} {j}", self.path, True)
                for j, v in enumerate(values)]

    def poly(self, ring: PolyRing) -> Poly:
        return self._polys(ring, (self.value,))[0]

    def vec(self, ring: PolyRing, length: int | None = None) -> tuple:
        """A list of polynomial strings; with `length`, of that length."""
        texts = self.value
        if type(texts) is not list:
            raise ValueError(self._where("a vector is a list of polynomial "
                                         "strings"))
        if length is not None and len(texts) != length:
            raise ValueError(self._where(f"vector of length {len(texts)}, "
                                         f"not {length}"))
        return self._polys(ring, texts)

    def _polys(self, ring: PolyRing, texts) -> tuple:
        try:
            return tuple(de_poly(ring, text) for text in texts)
        except (ValueError, StructuralError) as ex:
            raise ValueError(self._where(str(ex))) from None


# ---------------------------------------------------------------------------
# Koszul identities and pro-zero certificates


def koszul_subsets(k: int, i: int):
    return list(combinations(range(k), i))


def koszul_differential_columns(x: SequenceSpec, n: int, mrank: int, i: int):
    """Columns of d_i : K_i -> K_{i-1} over the ambient free modules; pure
    polynomial data, independent of any module presentation."""
    ring = x.ring
    pw = x.powers(n)
    subs_i = koszul_subsets(x.k, i)
    subs_im1 = koszul_subsets(x.k, i - 1)
    index_im1 = {S: t for t, S in enumerate(subs_im1)}
    target_rank = mrank * len(subs_im1)
    cols = []
    for S in subs_i:
        for b in range(mrank):
            img = [ring.zero()] * target_rank
            for pos, j in enumerate(S):
                T = tuple(v for v in S if v != j)
                t_idx = index_im1[T]
                coeff = pw[j] if pos % 2 == 0 else -pw[j]
                slot = t_idx * mrank + b
                img[slot] = img[slot] + coeff
            cols.append(tuple(img))
    return cols


def transition_multipliers(x: SequenceSpec, i: int, m: int, n: int):
    """For each i-subset S, the factor prod_{j in S} x_j^(m-n); memoised
    on the ring, since a search transports every cycle by the same
    factors."""
    ring = x.ring
    key = ("transition_multipliers", x.key(), i, m - n)
    if key not in ring.memo:
        pw = x.powers(m - n)
        out = []
        for S in combinations(range(x.k), i):
            f = ring.one()
            for j in S:
                f = f * pw[j]
            out.append(f)
        ring.memo[key] = tuple(out)
    return ring.memo[key]


def transport_cycle(x: SequenceSpec, i: int, m: int, n: int, M, vec):
    """Apply the stage-m -> stage-n chain map in degree i."""
    mults = transition_multipliers(x, i, m, n)
    out = []
    for t, f in enumerate(mults):
        for b in range(M.rank):
            out.append(f * vec[t * M.rank + b])
    return tuple(out)


class CertificateEntry:
    """One homology generator's boundary-preimage witness.

    Exact identities (no Gröbner data needed to replay):
      d_i^(m)(cycle) = sum(cycle_relation_lift * stage_m_relations)
      d_{i+1}^(n)(preimage_chain) - transport_cycle(cycle)
          = sum(relation_lift * stage_n_relations)
    where transport_cycle pushes the stage-m cycle through the chain map.
    """

    __slots__ = ("cycle", "preimage_chain", "relation_lift",
                 "cycle_relation_lift")

    def __init__(self, cycle: Vector, preimage_chain: Vector,
                 relation_lift: tuple, cycle_relation_lift: tuple):
        self.cycle = cycle
        self.preimage_chain = preimage_chain
        self.relation_lift = relation_lift
        self.cycle_relation_lift = cycle_relation_lift


class ProZeroCertificate:
    """Witness that H_i(x^(m); M) -> H_i(x^(n); M) is the zero map."""

    __slots__ = ("x", "i", "base_n", "witness_m", "M", "entries")

    def __init__(self, x: SequenceSpec, i: int, base_n: int, witness_m: int,
                 M, entries: list):
        self.x = x
        self.i = i
        self.base_n = base_n
        self.witness_m = witness_m
        self.M = M
        self.entries = entries

    def verify(self) -> bool:
        """Replay every boundary identity exactly: pure polynomial
        arithmetic over the declared relation generators, no Gröbner data.
        An entry whose vectors do not have the lengths of these identities
        fails."""
        x, i, n, m, M = self.x, self.i, self.base_n, self.witness_m, self.M
        ring = x.ring
        k = x.k
        blocks_i = len(koszul_subsets(k, i))
        rank_i = M.rank * blocks_i
        rels_i = blockdiag_relations(M.columns, M.rank, blocks_i, ring)
        if i >= 1:
            blocks_im1 = len(koszul_subsets(k, i - 1))
            rank_im1 = M.rank * blocks_im1
            rels_im1 = blockdiag_relations(M.columns, M.rank, blocks_im1, ring)
            d_i_m = koszul_differential_columns(x, m, M.rank, i)
        else:
            rels_im1 = []
        # d_{k+1} = 0: at the top degree the preimage chain is empty
        d_ip1_n = (koszul_differential_columns(x, n, M.rank, i + 1)
                   if i < k else [])
        shape = (rank_i, len(d_ip1_n), len(rels_i), len(rels_im1))
        for e in self.entries:
            if tuple(map(len, (e.cycle, e.preimage_chain, e.relation_lift,
                               e.cycle_relation_lift))) != shape:
                return False
            transported = transport_cycle(x, i, m, n, M, e.cycle)
            if i >= 1:
                dz = vec_dot(e.cycle, d_i_m, ring, rank_im1)
                combo = vec_dot(e.cycle_relation_lift, rels_im1, ring, rank_im1)
                if not vec_is_zero(vec_sub(dz, combo)):
                    return False
            dw = vec_dot(e.preimage_chain, d_ip1_n, ring, rank_i)
            lhs = vec_sub(dw, transported)
            combo = vec_dot(e.relation_lift, rels_i, ring, rank_i)
            if not vec_is_zero(vec_sub(lhs, combo)):
                return False
        return True


# ---------------------------------------------------------------------------
# localization identities


def _cross_difference(base: Poly, na, a: int, nb, b: int, c: int) -> Vector:
    """base^(c+b)*na - base^(c+a)*nb, the cross difference of na/base^a and
    nb/base^b killed by base^c, built as base^(c+mu)*D with mu = min(a, b)
    and D = base^(b-mu)*na - base^(a-mu)*nb; no power scales a zero vector."""

    def times_power(n, v):
        if n == 0 or vec_is_zero(v):
            return tuple(v)
        return vec_scale(base**n, v)

    mu = min(a, b)
    return times_power(
        c + mu, vec_sub(times_power(b - mu, na), times_power(a - mu, nb))
    )


class LocEqualCertificate:
    """Exact witness that na/base^a = nb/base^b in M_base: the kill exponent
    c and a lift with base^(c+b)*na - base^(c+a)*nb = sum(lift_i *
    relation_i) as raw ambient vectors, checked by ``verify`` with
    polynomial arithmetic alone.  Only the sheaf-glue recovery records c;
    replay gives a roundtrip probe c = 0."""

    __slots__ = ("c", "lift")

    def __init__(self, c: int, lift: tuple):
        self.c = c
        self.lift = lift

    def verify(self, M, base_degree: int, base, na, a: int, nb,
               b: int) -> bool:
        """Whether the identity holds in the module M for the raw vectors
        na and nb over a nonzero base of degree base_degree (M_0 = 0 would
        make every fraction equal).  ``base()`` returns the base; it is
        called only once the degree test of the module docstring has
        bounded the powers.

        The left side is L = base^(c+mu)*D with mu = min(a, b) and D =
        base^k*n_1 - n_2, where k = |a - b| and n_1 is the numerator of
        the smaller exponent, and deg L is read off the degrees of na and nb.
        D = 0 makes L = 0; the run's kill exponent of a zero difference is
        0, so c = 0 and a zero right side are required.  Otherwise deg L =
        (c + mu)*deg(base) + deg D, and deg D = max(k*deg(base) + deg n_1,
        deg n_2) unless the two are equal; then k*deg(base) <= deg n_2 and
        D is computed outright.  A constant base is a unit, and no power of
        a unit kills a nonzero vector, so the run records c = 0, which is
        required; the powers of D are then scalars.  Every power raised
        after the test has a degree that the degrees of na, nb and the lift
        bound."""
        c = self.c
        if base_degree < 0 or min(a, b, c) < 0:
            return False
        rhs = vec_dot(self.lift, M.columns, M.ring, M.rank)
        mu = min(a, b)
        n_1, n_2 = (na, nb) if a <= b else (nb, na)
        deg_1, deg_2 = vec_degree(n_1), vec_degree(n_2)
        if deg_1 >= 0:
            deg_1 += abs(a - b) * base_degree
        if deg_1 == deg_2 >= 0:
            # the top forms of D's two terms may cancel; form D, whose power
            # has degree at most deg_2
            deg_d = vec_degree(
                _cross_difference(base(), na, a - mu, nb, b - mu, 0))
        else:
            deg_d = max(deg_1, deg_2)
        if deg_d < 0:
            return c == 0 and vec_is_zero(rhs)
        if (base_degree == 0 and c != 0
                or (c + mu) * base_degree + deg_d != vec_degree(rhs)):
            return False
        lhs = _cross_difference(base(), na, a, nb, b, c)
        return vec_is_zero(vec_sub(lhs, rhs))


# ---------------------------------------------------------------------------
# replayers: (record, task, session) -> the outcome the evidence supports

ROUNDTRIP_STAGES = (1, 2)  # the stages a roundtrip run samples its homs at


def _top_leads_distinct(xs) -> bool:
    """Whether the top-degree forms of xs have pairwise distinct leading
    monomials, the condition of the module docstring's lemma."""
    leads = set()
    for x in xs:
        d = x.total_degree()
        leads.add(max((m for m in x.terms if sum(m) == d), key=x.ring.mon_key))
    return len(leads) == len(xs)


def replay_prozero(record: Field, task, session):
    """The certificate is checked at base stage `from` and stage
    `bounds.witness_m`, which must lie in from..cap."""
    payload = record["certificate"]
    if payload.value == {}:
        return "exhausted"
    witness_m = record["bounds"]["witness_m"].int()
    if not task.from_n <= witness_m <= task.cap:
        raise ValueError(f"witness_m {witness_m} is outside from..cap")
    ring = session.ring
    entries = [
        CertificateEntry(
            cycle=e["cycle"].vec(ring),
            preimage_chain=e["preimage_chain"].vec(ring),
            relation_lift=e["relation_lift"].vec(ring),
            cycle_relation_lift=e["cycle_relation_lift"].vec(ring),
        )
        for e in payload["entries"].items("entry")
    ]

    def cert(entries):
        return ProZeroCertificate(
            SequenceSpec(session.sequences[task.sequence]), task.degree,
            task.from_n, witness_m,
            session.modules.presentations[task.module], entries)

    if not cert(entries).verify():  # which checks each entry on its own
        bad = next(j for j, e in enumerate(entries) if not cert([e]).verify())
        raise ValueError(f"stage witness_m = {witness_m}: entry {bad} fails")
    return "pass"


def replay_roundtrip(record: Field, task, session):
    """Both fractions of a probe have the probe y as their base: sigma is
    over y^d, with y^d in (x_1^n, ..., x_k^n), and theta over y^n, n the
    sample's stage.  A hom's cocycle has compatibility exponent 0, so d is
    at most xs.pigeonhole_bound(n), and the cross difference
    phi(y^n*y^d) - phi(y^d*y^n) is 0 in M, so c = 0."""
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules.presentations[task.module]
    samples = record["certificate"]["samples"].items("sample", task.samples)
    for s, sample in enumerate(samples):
        n = sample["stage"].int()
        if n not in ROUNDTRIP_STAGES:
            raise ValueError(f"sample {s}: stage {n}")
        for p, pr in enumerate(sample["probes"].items("probe", task.probes)):
            y = pr["y"].poly(M.ring)
            frac = pr["sigma"]
            d = frac["exponent"].int()
            if not 1 <= d <= xs.pigeonhole_bound(n):
                raise ValueError(f"sample {s}, probe {p}: sigma exponent {d}")
            lift = pr["lift"].vec(M.ring, len(M.columns))
            sigma = frac["numerator"].vec(M.ring, M.rank)
            theta = pr["theta"].vec(M.ring, M.rank)
            if not LocEqualCertificate(0, lift).verify(
                    M, y.total_degree(), lambda: y, sigma, d, theta, n):
                raise ValueError(f"sample {s}, probe {p}: sigma = theta fails")
    return "pass"


def replay_sheaf(record: Field, task, session):
    """The glued numerator m is the sum of the primed components m'_i, which
    the record does not write: a sum of normal forms is one.  The glue
    denominator is y = sum(x_i^e), e >= 1 the glued exponent; each chart's
    restriction identity x_i^e*m - y*m'_i is in the relation span, and the
    glued m/y equals element/1 in M_y.  The degree tests of the module
    docstring and of ``LocEqualCertificate.verify`` come before any
    power."""
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules.presentations[task.module]
    ring = session.ring
    rels = list(M.columns)
    lemma = _top_leads_distinct(xs.elements)
    samples = record["certificate"]["samples"].items("sample", task.samples)
    for s, sample in enumerate(samples):
        glued = sample["glued"]
        e = glued["exponent"].int()
        if e < 1:
            raise ValueError(f"sample {s}: glue exponent {e}")
        primed = glued["primed"].items("chart", xs.k)
        lifts = glued["restriction_lifts"].items("chart", xs.k)
        primed = [mp.vec(ring, M.rank) for mp in primed]
        num = vec_dot([ring.one()] * xs.k, primed, ring, M.rank)
        element = sample["element"].vec(ring, M.rank)
        # deg num <= max deg m'_i
        by_degrees = lemma and e > max(map(vec_degree, [element, *primed]))
        power = functools.cache(lambda j: xs.elements[j] ** e)
        for i, (mp, lift) in enumerate(zip(primed, lifts)):
            minus = tuple(-p for p in mp)
            vs = [vec_sub(num, mp) if j == i else minus for j in range(xs.k)]
            terms = [(j, v) for j, v in enumerate(vs) if not vec_is_zero(v)]
            rhs = vec_dot(lift.vec(ring, len(rels)), rels, ring, M.rank)
            if by_degrees and vec_degree(rhs) != max(
                    (e * xs.elements[j].total_degree() + vec_degree(v)
                     for j, v in terms), default=-1):
                raise ValueError(f"sample {s}, chart {i}: restriction degree")
            lhs = vec_dot([power(j) for j, _ in terms], [v for _, v in terms],
                          ring, M.rank)
            if not vec_is_zero(vec_sub(lhs, rhs)):
                raise ValueError(f"sample {s}, chart {i}: restriction fails")

        @functools.cache
        def y():
            return sum(map(power, range(xs.k)), ring.zero())

        y_degree = e * max(x.total_degree() for x in xs.elements)
        back = glued["recover_certificate"]
        cert = LocEqualCertificate(back["c"].int(),
                                   back["lift"].vec(M.ring, len(M.columns)))
        if not cert.verify(M, y_degree if lemma else y().total_degree(), y,
                           num, 1, element, 0):
            raise ValueError(f"sample {s}: recovery m/y = element/1 fails")
    return "pass"


def replay_diagram(record: Field, task, session):
    """The torsion flags must be equal, since Gamma_J(M) is the
    intersection of the kernels of M -> M_(x_i)."""
    samples = record["certificate"]["samples"].items("sample", task.samples)
    for s, sample in enumerate(samples):
        if sample["in_torsion"].flag() != sample["zero_cocycle"].flag():
            raise ValueError(f"sample {s}: in_torsion != zero_cocycle")
    return "pass"


def idealization_outcome(record: Field, task, session):
    """The outcome "obstruction", once rho_obstruction has verified one
    witness per pole, which with its lemma covers every stage 1..cap: the
    work grows with the number of poles, not with cap.  The witnesses are
    closed forms of (pole, stage), so the certificate is empty."""
    if record["certificate"].value != {}:
        raise ValueError("the idealization certificate is not empty")
    ring = idealization.IdealizationRing(session.ring.field)
    for p in task.poles:
        idealization.rho_obstruction(ring, ring.R.one(), p, task.cap)
    return "obstruction"


_REPLAYERS = {
    "prozero": replay_prozero,
    "deligne-roundtrip": replay_roundtrip,
    "sheaf-glue": replay_sheaf,
    "diagram": replay_diagram,
    "idealization": idealization_outcome,
}

OUTCOMES = ("pass", "exhausted", "obstruction")


def decide(record: dict, task, session):
    """The outcome, one of ``OUTCOMES``, that the record's evidence
    supports: the one decision of an outcome, for the record ``run``
    writes and for the one ``--replay`` reads.  The record's kind, label
    and bounds must be the task's; a prozero record with a certificate
    also carries the witness_m it is checked at.  A record, read through
    ``Field``, that does not verify raises ValueError naming where; the
    parser has refused every task that no record could check."""
    rec = Field(record)
    bounds = task.bounds()
    if task.kind == "prozero" and rec["certificate"].value != {}:
        bounds["witness_m"] = rec["bounds"]["witness_m"].int()
    # compared as JSON text, which tells 7 from 7.0 and 1 from true
    claimed = [rec["kind"].value, rec["label"].value, rec["bounds"].value]
    given = [task.kind, task.pretty(), bounds]
    for name, a, b in zip(("kind", "label", "bounds"), claimed, given):
        if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            raise ValueError(f"the {name} field is not the task's")
    return _REPLAYERS[task.kind](rec, task, session)


def replay_record(record: dict, task, session) -> str | None:
    """None when ``decide`` gives the outcome the record claims, else why
    not: the text of the ValueError it raises, or the outcome the evidence
    gives instead.  ``--replay`` writes it as the record's reason and goes
    on to the next record."""
    try:
        outcome = Field(record)["outcome"].value
        if outcome not in OUTCOMES:
            return f"unknown outcome {outcome!r}"
        given = decide(record, task, session)
    except ValueError as ex:
        return str(ex)
    return None if given == outcome else f"the evidence gives {given}"


def record_acceptable(record: dict, task) -> bool:
    """Exit-code policy: obstruction is the expected outcome for the
    idealization kind; exhausted passes only when the task allows it."""
    outcome = record["outcome"]
    if outcome == "pass":
        return True
    if outcome == "obstruction":
        return task.kind == "idealization"
    if outcome == "exhausted":
        return getattr(task, "allow_exhausted", False)
    return False
