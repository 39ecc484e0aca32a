"""Task execution and certificate replay.

Each task produces one record with an outcome (pass | fail | exhausted |
obstruction) and a certificate payload.  Certificates embed the exact
polynomial identities behind every claim (boundary preimages,
localization-kill lifts, restriction identities), so replay is plain
arithmetic over the declared relation generators and never re-runs the
bounded searches or the sampling.

A record holds only the evidence that replay cannot recompute by plain
arithmetic from its task and its other fields: kind, label and bounds are
rebuilt from the task, a fraction's base is its probe or chart, and the
idealization witnesses, closed forms of (pole, cap), are rebuilt and
verified.  Each replayer returns the outcome its evidence supports, or None
when the evidence does not verify.

Replay bounds its work by degrees before it raises a power.  A record sets
exponents (a kill exponent c, fraction exponents, the glue exponent e),
and each identity it claims reads L = sum(lift_i * relation_i), where the
right side costs no power.  Over a field deg(f*g) = deg f + deg g (the
degree of a vector is the largest degree of an entry, -1 for zero), so L
can equal the right side only if both have the same degree; replay reads
deg L off the degrees of the record's polynomials and rejects a mismatch.
Every power it then raises has a degree that the degrees of the record's
polynomials bound.  The localization identities (roundtrip probes,
diagram charts, the sheaf-glue recovery) are checked, degree test
included, by ``deligne.LocEqualCertificate.verify``.

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
import random
import re
from fractions import Fraction
from itertools import product

from .deligne import (
    CechCocycle,
    Glued,
    IdealTransformElement,
    LocalFraction,
    LocEqualCertificate,
    gamma_torsion,
    loc_equal,
    rho_eval,
    sheaf_check,
    sigma_inverse,
    theta_probe,
)
from .errors import NameResolutionError, StructuralError
from .groebner import vec_degree, vec_dot, vec_is_zero, vec_sub
from .idealization import IdealizationRing, rho_obstruction
from .koszul import (
    CertificateEntry,
    ProZeroCertificate,
    SearchExhausted,
    SequenceSpec,
    pro_zero_search,
)
from .modules import FpModule, hom_module, ideal_as_module
from .rings import MAX_DIGITS, Poly, PolyRing
from .session import (
    DiagramTask,
    IdealizationTask,
    ProzeroTask,
    RoundtripTask,
    Session,
    SheafGlueTask,
)


# ---------------------------------------------------------------------------
# serialization helpers


def ser_vec(v) -> list:
    return [str(p) for p in v]


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


def de_vec(ring: PolyRing, items, length: int | None = None) -> tuple:
    """A vector is a list of polynomial strings (``de_poly``), else TypeError;
    with `length`, one of any other length raises ValueError."""
    if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
        raise TypeError("a vector is a list of polynomial strings")
    if length is not None and len(items) != length:
        raise ValueError(f"vector of length {len(items)}, not {length}")
    return tuple(de_poly(ring, s) for s in items)


def de_int(value) -> int:
    """A JSON integer; a bool or a float raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def de_flag(value) -> bool:
    """A JSON boolean; anything else raises TypeError."""
    if type(value) is not bool:
        raise TypeError(f"{value!r} is not a boolean")
    return value


# ---------------------------------------------------------------------------
# deterministic sampling


def _small_monomials(ring: PolyRing, max_deg: int) -> tuple:
    """The exponent tuples of degree at most max_deg in the ring's order,
    memoised on the ring: a run samples every polynomial from them."""
    key = ("small_monomials", max_deg)
    if key not in ring.memo:
        exps = product(range(max_deg + 1), repeat=ring.nvars)
        ring.memo[key] = tuple(sorted((e for e in exps if sum(e) <= max_deg),
                                      key=ring.mon_key))
    return ring.memo[key]


def random_poly(ring: PolyRing, rng: random.Random, max_deg=2,
                max_terms=2) -> Poly:
    mons = _small_monomials(ring, max_deg)
    nterms = rng.randint(0, max_terms)
    terms = {}
    for _ in range(nterms):
        mon = mons[rng.randrange(len(mons))]
        if ring.field.characteristic == 0:
            c = rng.randint(-3, 3)
        else:
            c = rng.randrange(ring.field.characteristic)
        terms[mon] = terms.get(mon, 0) + c
    return ring.poly(terms)


def random_element(M: FpModule, rng: random.Random):
    vec = [random_poly(M.ring, rng) for _ in range(M.rank)]
    return M.element(vec)


def random_hom(xs: SequenceSpec, stage: int, M: FpModule, rng: random.Random):
    """A seeded random ideal-transform element, sampled through the
    presented Hom module so the syzygy conditions hold by construction."""
    pres, gens = ideal_as_module(xs.elements, stage)
    H = hom_module(pres, M)
    coeffs = [
        random_poly(xs.ring, rng, max_deg=1, max_terms=1)
        for _ in H.generators
    ]
    cols = H.matrix_of(coeffs)
    values = [M.element(c) for c in cols]
    return IdealTransformElement(xs, stage, values, M)


def probe_elements(xs: SequenceSpec, count: int, rng: random.Random):
    """count elements of J: the generators first, then seeded combinations."""
    out = list(xs.elements[:count])
    while len(out) < count:
        y = xs.ring.zero()
        for x in xs.elements:
            y = y + random_poly(xs.ring, rng, max_deg=1, max_terms=1) * x
        if not y.is_zero():
            out.append(y)
    return out[:count]


# ---------------------------------------------------------------------------
# runners and replayers


def _record(task, outcome: str, certificate: dict, **found) -> dict:
    """A task's record; `found` adds a bound the run found (witness_m)."""
    return {
        "kind": task.kind,
        "label": task.pretty(),
        "outcome": outcome,
        "bounds": dict(task.bounds(), **found),
        "certificate": certificate,
    }


def _fraction_payload(f: LocalFraction) -> dict:
    return {"numerator": ser_vec(f.numerator.vec), "exponent": f.exponent}


def _read_fraction(M: FpModule, payload: dict) -> tuple:
    """The numerator vector and the exponent of a fraction payload."""
    return (de_vec(M.ring, payload["numerator"], M.rank),
            de_int(payload["exponent"]))


def _loc_payload(cert: LocEqualCertificate | None) -> dict | None:
    if cert is None:
        return None
    return {"c": cert.c, "lift": ser_vec(cert.lift)}


def _read_loc(M: FpModule, payload: dict) -> LocEqualCertificate:
    """The certificate of a {c, lift} payload, one lift entry per relation."""
    return LocEqualCertificate(
        de_int(payload["c"]),
        de_vec(M.ring, payload["lift"], len(M.relations.gens)),
    )


def _top_leads_distinct(xs) -> bool:
    """Whether the top-degree forms of xs have pairwise distinct leading
    monomials, the condition of the module docstring's lemma."""
    leads = set()
    for x in xs:
        d = x.total_degree()
        leads.add(max((m for m in x.terms if sum(m) == d), key=x.ring.mon_key))
    return len(leads) == len(xs)


def run_prozero(task: ProzeroTask, session: Session) -> dict:
    xs = SequenceSpec(session.sequences[task.sequence])
    M = session.modules[task.module]
    result = pro_zero_search(xs, task.degree, task.from_n, M, task.cap)
    if isinstance(result, SearchExhausted):
        return _record(task, "exhausted", {})
    entries = [
        {
            "cycle": ser_vec(e.cycle),
            "preimage_chain": ser_vec(e.preimage_chain),
            "relation_lift": ser_vec(e.relation_lift),
            "cycle_relation_lift": ser_vec(e.cycle_relation_lift),
        }
        for e in result.entries
    ]
    return _record(task, "pass", {"entries": entries},
                   witness_m=result.witness_m)


def replay_prozero(record: dict, task: ProzeroTask, session: Session):
    """The certificate is checked at base stage `from` and stage
    `bounds.witness_m`, which must lie in from..cap."""
    payload = record["certificate"]
    if payload == {}:
        return "exhausted"
    witness_m = record["bounds"]["witness_m"]
    if not task.from_n <= witness_m <= task.cap:
        return None
    ring = session.ring
    entries = [
        CertificateEntry(
            cycle=de_vec(ring, e["cycle"]),
            preimage_chain=de_vec(ring, e["preimage_chain"]),
            relation_lift=de_vec(ring, e["relation_lift"]),
            cycle_relation_lift=de_vec(ring, e["cycle_relation_lift"]),
        )
        for e in payload["entries"]
    ]
    cert = ProZeroCertificate(
        x=SequenceSpec(session.sequences[task.sequence]),
        i=task.degree,
        base_n=task.from_n,
        witness_m=witness_m,
        M=session.modules[task.module],
        entries=entries,
    )
    return "pass" if cert.verify() else None


def _require_positive(**bounds):
    """A task whose sample count, probe count or cap is below 1 checks
    nothing, so it has nothing to claim; its run and replay refuse it."""
    for name, n in bounds.items():
        if n < 1:
            raise StructuralError(f"{name} must be >= 1")


def run_roundtrip(task: RoundtripTask, session: Session) -> dict:
    _require_positive(samples=task.samples, probes=task.probes)
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    rng = random.Random(task.seed)
    samples = []
    ok = True
    for _ in range(task.samples):
        stage = rng.choice((1, 2))
        phi = random_hom(xs, stage, M, rng)
        cocycle = rho_eval(phi)
        probes = probe_elements(xs, task.probes, rng)
        probe_records = []
        for y in probes:
            sig = sigma_inverse(cocycle, y)
            the = theta_probe(phi, y)
            cert = loc_equal(sig, the)
            ok = ok and cert is not None
            probe_records.append(
                {
                    "y": str(y),
                    "sigma": _fraction_payload(sig),
                    "theta": _fraction_payload(the),
                    "equal": cert is not None,
                    "loc_certificate": _loc_payload(cert),
                }
            )
        samples.append(
            {
                "stage": stage,
                "values": [ser_vec(v.vec) for v in phi.values],
                "probes": probe_records,
            }
        )
    return _record(task, "pass" if ok else "fail", {"samples": samples})


def replay_roundtrip(record: dict, task: RoundtripTask, session: Session):
    """Both fractions of a probe have the probe y as their base."""
    _require_positive(samples=task.samples, probes=task.probes)
    M = session.modules[task.module]
    samples = record["certificate"]["samples"]
    if len(samples) != task.samples:
        return None
    for sample in samples:
        if len(sample["probes"]) != task.probes:
            return None
        for pr in sample["probes"]:
            if not de_flag(pr["equal"]):
                return "fail"
            y = de_poly(session.ring, pr["y"])
            cert = _read_loc(M, pr["loc_certificate"])
            if not cert.verify(M, y.total_degree(), lambda: y,
                               *_read_fraction(M, pr["sigma"]),
                               *_read_fraction(M, pr["theta"])):
                return None
    return "pass"


def run_sheaf(task: SheafGlueTask, session: Session) -> dict:
    _require_positive(samples=task.samples)
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    ring = session.ring
    rng = random.Random(task.seed)
    gamma = gamma_torsion(M, xs)
    torsion_gens = [M.element(g) for g in gamma.generators]

    def torsion_tweak():
        coeffs = [
            random_poly(ring, rng, max_deg=1, max_terms=1)
            if rng.random() < 0.5 else ring.zero()
            for _ in torsion_gens
        ]
        return M.combine(coeffs, torsion_gens)

    samples = []
    ok = True
    for _ in range(task.samples):
        m = random_element(M, rng)
        exps = [rng.randint(0, 2) for _ in range(xs.k)]
        sections = []
        for i, x in enumerate(xs.elements):
            num = (x ** exps[i]) * m + torsion_tweak()
            sections.append(LocalFraction(num, x, exps[i]))
        res = sheaf_check(sections, xs)
        entry = {"element": ser_vec(m.vec), "exponents": exps}
        if isinstance(res, Glued):
            back = loc_equal(res.fraction(), LocalFraction(m, res.y, 0))
            glue_ok = back is not None
            entry["glued"] = {
                "numerator": ser_vec(res.numerator.vec),
                "compat": res.compat,
                "cocycle_exponent": res.cocycle.exponent,
                "primed": [
                    ser_vec(p.vec)
                    for p in res.cocycle.primed_components(res.compat)
                ],
                "restriction_lifts": [ser_vec(l) for l in res.restriction_lifts],
                "recovers_element": glue_ok,
                "recover_certificate": _loc_payload(back),
            }
            ok = ok and glue_ok
        else:
            entry["glued"] = None
            ok = False

        # an unused chart draw, kept so each seed samples what it always has
        rng.randrange(xs.k)
        samples.append(entry)
    return _record(task, "pass" if ok else "fail", {"samples": samples})


def replay_sheaf(record: dict, task: SheafGlueTask, session: Session):
    """The glue denominator is y = sum(x_i^e), e = compat + cocycle_exponent;
    each chart's restriction identity x_i^e*m - y*m'_i is in the relation
    span, and the glued m/y equals element/1 in M_y.  The degree tests of
    the module docstring and of ``LocEqualCertificate.verify`` come before
    any power."""
    _require_positive(samples=task.samples)
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    ring = session.ring
    rels = list(M.relations.gens)
    lemma = _top_leads_distinct(xs.elements)
    samples = record["certificate"]["samples"]
    if len(samples) != task.samples:
        return None
    for sample in samples:
        glued = sample["glued"]
        if glued is None:
            return "fail"
        compat = de_int(glued["compat"])
        n = de_int(glued["cocycle_exponent"])
        if min(compat, n) < 0 or compat + n < 1:
            return None
        e = compat + n
        num = de_vec(ring, glued["numerator"], M.rank)
        primed, lifts = glued["primed"], glued["restriction_lifts"]
        if len(primed) != xs.k or len(lifts) != xs.k:
            return None
        primed = [de_vec(ring, mp, M.rank) for mp in primed]
        element = de_vec(ring, sample["element"], M.rank)
        by_degrees = lemma and e > max(map(vec_degree,
                                           [num, element, *primed]))
        power = functools.cache(lambda j: xs.elements[j] ** e)
        for i, (mp, lift) in enumerate(zip(primed, lifts)):
            minus = tuple(-p for p in mp)
            vs = [vec_sub(num, mp) if j == i else minus for j in range(xs.k)]
            terms = [(j, v) for j, v in enumerate(vs) if not vec_is_zero(v)]
            rhs = vec_dot(de_vec(ring, lift, len(rels)), rels, ring, M.rank)
            if by_degrees and vec_degree(rhs) != max(
                    (e * xs.elements[j].total_degree() + vec_degree(v)
                     for j, v in terms), default=-1):
                return None
            lhs = vec_dot([power(j) for j, _ in terms], [v for _, v in terms],
                          ring, M.rank)
            if not vec_is_zero(vec_sub(lhs, rhs)):
                return None
        if not de_flag(glued["recovers_element"]):
            return "fail"

        @functools.cache
        def y():
            return sum(map(power, range(xs.k)), ring.zero())

        y_degree = e * max(x.total_degree() for x in xs.elements)
        cert = _read_loc(M, glued["recover_certificate"])
        if not cert.verify(M, y_degree if lemma else y().total_degree(), y,
                           num, 1, element, 0):
            return None
    return "pass"


def run_diagram(task: DiagramTask, session: Session) -> dict:
    _require_positive(samples=task.samples)
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    rng = random.Random(task.seed)
    gamma = gamma_torsion(M, xs)
    samples = []
    ok = True
    for _ in range(task.samples):
        m = random_element(M, rng)
        tau = IdealTransformElement.tau(xs, m)
        through = rho_eval(tau)
        natural = CechCocycle.from_global(xs, m, exponent=0)
        comps = []
        commutes = True
        for i in range(xs.k):
            cert = loc_equal(
                natural.component_fraction(i), through.component_fraction(i)
            )
            commutes = commutes and cert is not None
            comps.append(
                {
                    "through": _fraction_payload(through.component_fraction(i)),
                    "equal": cert is not None,
                    "loc_certificate": _loc_payload(cert),
                }
            )
        torsion = gamma.contains(m)
        zero_cocycle = natural.is_zero()
        exact = torsion == zero_cocycle
        ok = ok and commutes and exact
        samples.append(
            {
                "element": ser_vec(m.vec),
                "components": comps,
                "in_torsion": torsion,
                "zero_cocycle": zero_cocycle,
            }
        )
    return _record(task, "pass" if ok else "fail", {"samples": samples})


def replay_diagram(record: dict, task: DiagramTask, session: Session):
    """Chart i compares the natural element/1 with the through fraction,
    both over the base x_i."""
    _require_positive(samples=task.samples)
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    samples = record["certificate"]["samples"]
    if len(samples) != task.samples:
        return None
    for sample in samples:
        if de_flag(sample["in_torsion"]) != de_flag(sample["zero_cocycle"]):
            return "fail"
        if len(sample["components"]) != xs.k:
            return None
        element = None
        for x, comp in zip(xs.elements, sample["components"]):
            if not de_flag(comp["equal"]):
                return "fail"
            if element is None:
                element = de_vec(M.ring, sample["element"], M.rank)
            cert = _read_loc(M, comp["loc_certificate"])
            if not cert.verify(M, x.total_degree(), lambda: x, element, 0,
                               *_read_fraction(M, comp["through"])):
                return None
    return "pass"


def run_idealization(task: IdealizationTask, session: Session) -> dict:
    """rho_obstruction verifies the witness of every pole at every stage
    1..cap; the witnesses are closed forms of (pole, cap), so the record
    carries none of them."""
    _require_positive(cap=task.cap)
    ring = IdealizationRing(session.ring.field)
    for p in task.poles:
        if p < 1:
            raise StructuralError("pole orders must be positive")
        rho_obstruction(ring, ring.R.one(), p, task.cap)
    return _record(task, "obstruction", {})


def replay_idealization(record: dict, task: IdealizationTask,
                        session: Session):
    if record["certificate"] != {}:
        return None
    return run_idealization(task, session)["outcome"]


_RUNNERS = {
    "prozero": run_prozero,
    "deligne-roundtrip": run_roundtrip,
    "sheaf-glue": run_sheaf,
    "diagram": run_diagram,
    "idealization": run_idealization,
}

_REPLAYERS = {
    "prozero": replay_prozero,
    "deligne-roundtrip": replay_roundtrip,
    "sheaf-glue": replay_sheaf,
    "diagram": replay_diagram,
    "idealization": replay_idealization,
}

OUTCOMES = ("pass", "fail", "exhausted", "obstruction")


def run_task(task, session: Session) -> dict:
    return _RUNNERS[task.kind](task, session)


def replay_record(record: dict, task, session: Session) -> bool:
    """The record's kind, label and bounds must be the task's, and its
    outcome the one its evidence supports.  A record with a field missing
    or of the wrong type, length or value fails its replay; the caller goes
    on to the next record."""
    try:
        outcome = record["outcome"]
        bounds = task.bounds()
        if task.kind == "prozero" and outcome == "pass":
            bounds["witness_m"] = de_int(record["bounds"]["witness_m"])
        # compared as JSON text, which tells 7 from 7.0 and 1 from true
        claimed = [record["kind"], record["label"], record["bounds"]]
        given = [task.kind, task.pretty(), bounds]
        if (json.dumps(claimed, sort_keys=True) != json.dumps(given, sort_keys=True)
                or outcome not in OUTCOMES):
            return False
        return _REPLAYERS[task.kind](record, task, session) == outcome
    except (KeyError, TypeError, ValueError, StructuralError):
        return False


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
