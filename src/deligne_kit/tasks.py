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
"""

from __future__ import annotations

import random

from .deligne import (
    CechCocycle,
    Glued,
    IdealTransformElement,
    IncompatibleWitness,
    LocalFraction,
    gamma_torsion,
    loc_equal,
    rho_eval,
    sheaf_check,
    sigma_inverse,
    theta_probe,
)
from .errors import ParseError, StructuralError
from .groebner import vec_dot, vec_is_zero, vec_scale, vec_sub
from .idealization import IdealizationRing, rho_obstruction
from .koszul import (
    CertificateEntry,
    ProZeroCertificate,
    SearchExhausted,
    SequenceSpec,
    pro_zero_search,
)
from .modules import FpModule, hom_module, ideal_as_module
from .rings import Poly, PolyRing
from .session import (
    DiagramTask,
    IdealizationTask,
    ProzeroTask,
    RoundtripTask,
    Session,
    SheafGlueTask,
    parse_poly,
)


# ---------------------------------------------------------------------------
# serialization helpers


def ser_vec(v) -> list:
    return [str(p) for p in v]


def de_vec(ring: PolyRing, items, length: int | None = None) -> tuple:
    """With `length`, a vector of any other length raises ValueError."""
    if length is not None and len(items) != length:
        raise ValueError(f"vector of length {len(items)}, not {length}")
    return tuple(parse_poly(ring, s) for s in items)


# ---------------------------------------------------------------------------
# deterministic sampling


def _small_monomials(ring: PolyRing, max_deg: int):
    from itertools import product

    out = []
    for exps in product(range(max_deg + 1), repeat=ring.nvars):
        if sum(exps) <= max_deg:
            out.append(exps)
    out.sort(key=ring.mon_key)
    return out


def random_poly(ring: PolyRing, rng: random.Random, max_deg=2, max_terms=2,
                allow_zero=True) -> Poly:
    mons = _small_monomials(ring, max_deg)
    nterms = rng.randint(0 if allow_zero else 1, max_terms)
    terms = {}
    for _ in range(nterms):
        mon = mons[rng.randrange(len(mons))]
        if ring.field.characteristic == 0:
            c = rng.randint(-3, 3)
        else:
            c = rng.randrange(ring.field.characteristic)
        terms[mon] = terms.get(mon, 0) + c
    p = ring.poly(terms)
    if p.is_zero() and not allow_zero:
        return ring.one()
    return p


def random_element(M: FpModule, rng: random.Random, max_deg=2):
    vec = [random_poly(M.ring, rng, max_deg=max_deg) for _ in range(M.rank)]
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


def _loc_payload(cert) -> dict:
    return {"c": cert.c, "lift": ser_vec(cert.lift)}


def _replay_loc(M: FpModule, base: Poly, fa: dict, fb: dict,
                cert: dict) -> bool:
    """Verify base^(c+b)*num_a - base^(c+a)*num_b == sum(lift * relations)
    for a nonzero base (M_0 = 0 would make every fraction equal)."""
    if base.is_zero():
        return False
    ring = M.ring
    rels = list(M.relations.gens)
    na = de_vec(ring, fa["numerator"], M.rank)
    nb = de_vec(ring, fb["numerator"], M.rank)
    lift = de_vec(ring, cert["lift"], len(rels))
    c = cert["c"]
    lhs = vec_sub(
        vec_scale(base ** (c + fb["exponent"]), na),
        vec_scale(base ** (c + fa["exponent"]), nb),
    )
    return vec_is_zero(vec_sub(lhs, vec_dot(lift, rels, ring, M.rank)))


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


def run_roundtrip(task: RoundtripTask, session: Session) -> dict:
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
            equal, cert = loc_equal(sig, the, certificate=True)
            ok = ok and equal
            probe_records.append(
                {
                    "y": str(y),
                    "sigma": _fraction_payload(sig),
                    "theta": _fraction_payload(the),
                    "equal": equal,
                    "loc_certificate": _loc_payload(cert) if equal else None,
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
    M = session.modules[task.module]
    samples = record["certificate"]["samples"]
    if len(samples) != task.samples:
        return None
    for sample in samples:
        if len(sample["probes"]) != task.probes:
            return None
        for pr in sample["probes"]:
            if not pr["equal"]:
                return "fail"
            y = parse_poly(session.ring, pr["y"])
            if not _replay_loc(M, y, pr["sigma"], pr["theta"],
                               pr["loc_certificate"]):
                return None
    return "pass"


def run_sheaf(task: SheafGlueTask, session: Session) -> dict:
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    ring = session.ring
    rng = random.Random(task.seed)
    gamma = gamma_torsion(M, xs)
    torsion_gens = [M.element(g) for g in gamma.generators]
    full_torsion = all(gamma.contains(b) for b in M.basis_elements())

    def torsion_tweak():
        acc = M.zero()
        for g in torsion_gens:
            if rng.random() < 0.5:
                acc = acc + random_poly(ring, rng, max_deg=1, max_terms=1) * g
        return acc

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
            back = loc_equal(
                res.fraction(), LocalFraction(m, res.y, 0), certificate=True
            )
            glue_ok = back[0]
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
                "recover_certificate": _loc_payload(back[1]) if glue_ok else None,
            }
            ok = ok and glue_ok
        else:
            entry["glued"] = None
            ok = False

        if not full_torsion:
            # best effort: basis-element bumps that break a pair; modules
            # where every bump stays compatible skip the subtest
            idx = rng.randrange(xs.k)
            candidates = [b for b in M.basis_elements() if not gamma.contains(b)]
            pert = {"chart": idx, "detected": None}
            for probe in candidates:
                bad_sections = list(sections)
                bumped = bad_sections[idx].numerator + probe
                bad_sections[idx] = LocalFraction(
                    bumped, xs.elements[idx], bad_sections[idx].exponent
                )
                res2 = sheaf_check(bad_sections, xs)
                if isinstance(res2, IncompatibleWitness) and idx in (
                    res2.i, res2.j
                ):
                    pert = {
                        "chart": idx,
                        "detected": True,
                        "pair": [res2.i, res2.j],
                        "witness": ser_vec(res2.witness.vec),
                        "t_star": res2.t_star,
                    }
                    break
            ok = ok and pert["detected"] is not False
            entry["perturbed"] = pert
        samples.append(entry)
    return _record(task, "pass" if ok else "fail",
                   {"samples": samples, "torsion_only": full_torsion})


def replay_sheaf(record: dict, task: SheafGlueTask, session: Session):
    """The glue denominator is y = sum(x_i^e), e = compat + cocycle_exponent;
    each chart's restriction identity x_i^e*m - y*m'_i is in the relation
    span, and the glued m/y equals element/1 in M_y."""
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    ring = session.ring
    rels = list(M.relations.gens)
    samples = record["certificate"]["samples"]
    if len(samples) != task.samples:
        return None
    for sample in samples:
        glued = sample["glued"]
        if glued is None:
            return "fail"
        e = glued["compat"] + glued["cocycle_exponent"]
        y = ring.zero()
        for x in xs.elements:
            y = y + x**e
        num = de_vec(ring, glued["numerator"], M.rank)
        primed, lifts = glued["primed"], glued["restriction_lifts"]
        if len(primed) != xs.k or len(lifts) != xs.k:
            return None
        for x, mp, lift in zip(xs.elements, primed, lifts):
            lhs = vec_sub(
                vec_scale(x**e, num), vec_scale(y, de_vec(ring, mp, M.rank))
            )
            rhs = vec_dot(de_vec(ring, lift, len(rels)), rels, ring, M.rank)
            if not vec_is_zero(vec_sub(lhs, rhs)):
                return None
        if not glued["recovers_element"]:
            return "fail"
        fa = {"numerator": glued["numerator"], "exponent": 1}
        fb = {"numerator": sample["element"], "exponent": 0}
        if not _replay_loc(M, y, fa, fb, glued["recover_certificate"]):
            return None
        pert = sample.get("perturbed")
        if pert is not None and pert["detected"] is False:
            return "fail"
        if pert is not None and pert["detected"]:
            # claimed-nonzero witness: re-reduce against the relations
            if vec_is_zero(M.reduce(de_vec(ring, pert["witness"]))):
                return None
    return "pass"


def run_diagram(task: DiagramTask, session: Session) -> dict:
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
            equal, cert = loc_equal(
                natural.component_fraction(i),
                through.component_fraction(i),
                certificate=True,
            )
            commutes = commutes and equal
            comps.append(
                {
                    "through": _fraction_payload(through.component_fraction(i)),
                    "equal": equal,
                    "loc_certificate": _loc_payload(cert) if equal else None,
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
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    samples = record["certificate"]["samples"]
    if len(samples) != task.samples:
        return None
    for sample in samples:
        if sample["in_torsion"] != sample["zero_cocycle"]:
            return "fail"
        if len(sample["components"]) != xs.k:
            return None
        natural = {"numerator": sample["element"], "exponent": 0}
        for x, comp in zip(xs.elements, sample["components"]):
            if not comp["equal"]:
                return "fail"
            if not _replay_loc(M, x, natural, comp["through"],
                               comp["loc_certificate"]):
                return None
    return "pass"


def run_idealization(task: IdealizationTask, session: Session) -> dict:
    """rho_obstruction verifies the witness of every pole at every stage
    1..cap; the witnesses are closed forms of (pole, cap), so the record
    carries none of them."""
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
            bounds["witness_m"] = record["bounds"]["witness_m"]
        if (record["kind"], record["label"], record["bounds"]) != (
                task.kind, task.pretty(), bounds) or outcome not in OUTCOMES:
            return False
        return _REPLAYERS[task.kind](record, task, session) == outcome
    except (KeyError, TypeError, ValueError, ParseError, StructuralError):
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
