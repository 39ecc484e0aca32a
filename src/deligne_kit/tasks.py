"""Task execution and certificate replay.

Each task produces one record with an outcome (pass | fail | exhausted |
obstruction) and a certificate payload.  Certificates embed the exact
polynomial identities behind every claim (boundary preimages,
localization-kill lifts, restriction identities, annihilator pairings), so
replay is plain arithmetic over the declared relation generators and never
re-runs the bounded searches or the sampling.
"""

from __future__ import annotations

import random
from fractions import Fraction

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
from .errors import StructuralError
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


def ser_poly(p: Poly) -> str:
    return str(p)


def ser_vec(v) -> list:
    return [str(p) for p in v]


def de_poly(ring: PolyRing, s: str) -> Poly:
    return parse_poly(ring, s)


def de_vec(ring: PolyRing, items) -> tuple:
    return tuple(parse_poly(ring, s) for s in items)


def ser_coeff(c) -> str:
    return str(c)


def de_coeff(field, s: str):
    return field.of(Fraction(s)) if "/" in s else field.of(int(s))


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
# runners


def _fraction_payload(f: LocalFraction) -> dict:
    return {
        "numerator": ser_vec(f.numerator.vec),
        "base": ser_poly(f.base),
        "exponent": f.exponent,
    }


def run_prozero(task: ProzeroTask, session: Session) -> dict:
    xs = SequenceSpec(session.sequences[task.sequence])
    M = session.modules[task.module]
    result = pro_zero_search(xs, task.degree, task.from_n, M, task.cap)
    bounds = {
        "degree": task.degree,
        "from": task.from_n,
        "cap": task.cap,
    }
    if isinstance(result, SearchExhausted):
        return {
            "kind": task.kind,
            "label": task.pretty(),
            "outcome": "exhausted",
            "bounds": bounds,
            "certificate": {"m_max": result.m_max},
        }
    cert = {
        "base_n": result.base_n,
        "witness_m": result.witness_m,
        "entries": [
            {
                "cycle": ser_vec(e.cycle),
                "transported": ser_vec(e.transported),
                "preimage_chain": ser_vec(e.preimage_chain),
                "relation_lift": ser_vec(e.relation_lift),
                "cycle_relation_lift": ser_vec(e.cycle_relation_lift),
            }
            for e in result.entries
        ],
    }
    return {
        "kind": task.kind,
        "label": task.pretty(),
        "outcome": "pass",
        "bounds": dict(bounds, witness_m=result.witness_m),
        "certificate": cert,
    }


def replay_prozero(record: dict, task: ProzeroTask, session: Session) -> bool:
    if record["outcome"] == "exhausted":
        return True
    xs = SequenceSpec(session.sequences[task.sequence])
    M = session.modules[task.module]
    ring = session.ring
    payload = record["certificate"]
    entries = [
        CertificateEntry(
            cycle=de_vec(ring, e["cycle"]),
            transported=de_vec(ring, e["transported"]),
            preimage_chain=de_vec(ring, e["preimage_chain"]),
            relation_lift=de_vec(ring, e["relation_lift"]),
            cycle_relation_lift=de_vec(ring, e["cycle_relation_lift"]),
        )
        for e in payload["entries"]
    ]
    cert = ProZeroCertificate(
        x=xs,
        i=task.degree,
        base_n=payload["base_n"],
        witness_m=payload["witness_m"],
        M=M,
        entries=entries,
    )
    return cert.verify()


def _loc_payload(cert) -> dict:
    return {"c": cert.c, "lift": ser_vec(cert.lift)}


def _replay_loc(ring, M: FpModule, fa: dict, fb: dict, cert: dict) -> bool:
    """Verify base^(c+b)*num_a - base^(c+a)*num_b == sum(lift * relations)."""
    base = de_poly(ring, fa["base"])
    if fa["base"] != fb["base"]:
        return False
    na = de_vec(ring, fa["numerator"])
    nb = de_vec(ring, fb["numerator"])
    c = cert["c"]
    lift = de_vec(ring, cert["lift"])
    lhs = vec_sub(
        vec_scale(base ** (c + fb["exponent"]), na),
        vec_scale(base ** (c + fa["exponent"]), nb),
    )
    rhs = vec_dot(lift, list(M.relations.gens), ring, M.rank)
    return vec_is_zero(vec_sub(lhs, rhs))


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
                    "y": ser_poly(y),
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
    return {
        "kind": task.kind,
        "label": task.pretty(),
        "outcome": "pass" if ok else "fail",
        "bounds": {"samples": task.samples, "probes": task.probes,
                   "seed": task.seed},
        "certificate": {"samples": samples},
    }


def replay_roundtrip(record: dict, task: RoundtripTask, session: Session) -> bool:
    M = session.modules[task.module]
    ring = session.ring
    for sample in record["certificate"]["samples"]:
        for pr in sample["probes"]:
            if not pr["equal"]:
                return record["outcome"] == "fail"
            if not _replay_loc(ring, M, pr["sigma"], pr["theta"],
                               pr["loc_certificate"]):
                return False
    return record["outcome"] == "pass"


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
                "y": ser_poly(res.y),
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
    return {
        "kind": task.kind,
        "label": task.pretty(),
        "outcome": "pass" if ok else "fail",
        "bounds": {"samples": task.samples, "seed": task.seed},
        "certificate": {"samples": samples, "torsion_only": full_torsion},
    }


def replay_sheaf(record: dict, task: SheafGlueTask, session: Session) -> bool:
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    ring = session.ring
    rels = list(M.relations.gens)
    for sample in record["certificate"]["samples"]:
        glued = sample.get("glued")
        if glued is None:
            return record["outcome"] == "fail"
        y = de_poly(ring, glued["y"])
        num = de_vec(ring, glued["numerator"])
        e = glued["compat"] + glued["cocycle_exponent"]
        primed = [de_vec(ring, v) for v in glued["primed"]]
        for i, x in enumerate(xs.elements):
            lhs = vec_sub(
                vec_scale(x**e, num), vec_scale(y, primed[i])
            )
            lift = de_vec(ring, glued["restriction_lifts"][i])
            rhs = vec_dot(lift, rels, ring, M.rank)
            if not vec_is_zero(vec_sub(lhs, rhs)):
                return False
        if glued["recovers_element"]:
            fa = {"numerator": glued["numerator"], "base": glued["y"],
                  "exponent": 1}
            fb = {"numerator": sample["element"], "base": glued["y"],
                  "exponent": 0}
            if not _replay_loc(ring, M, fa, fb, glued["recover_certificate"]):
                return False
        pert = sample.get("perturbed")
        if pert and pert["detected"]:
            witness = de_vec(ring, pert["witness"])
            # claimed-nonzero witness: re-reduce against the relations
            if vec_is_zero(M.reduce(witness)):
                return False
    return record["outcome"] == "pass"


def run_diagram(task: DiagramTask, session: Session) -> dict:
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    ring = session.ring
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
                    "natural": _fraction_payload(natural.component_fraction(i)),
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
    return {
        "kind": task.kind,
        "label": task.pretty(),
        "outcome": "pass" if ok else "fail",
        "bounds": {"samples": task.samples, "seed": task.seed},
        "certificate": {"samples": samples},
    }


def replay_diagram(record: dict, task: DiagramTask, session: Session) -> bool:
    M = session.modules[task.module]
    ring = session.ring
    for sample in record["certificate"]["samples"]:
        if sample["in_torsion"] != sample["zero_cocycle"]:
            return record["outcome"] == "fail"
        for comp in sample["components"]:
            if not comp["equal"]:
                return record["outcome"] == "fail"
            if not _replay_loc(ring, M, comp["natural"], comp["through"],
                               comp["loc_certificate"]):
                return False
    return record["outcome"] == "pass"


def run_idealization(task: IdealizationTask, session: Session) -> dict:
    ring = IdealizationRing(session.ring.field)
    targets = []
    ok = True
    for p in task.poles:
        if p < 1:
            raise StructuralError("pole orders must be positive")
        witnesses = rho_obstruction(ring, ring.R.one(), p, task.cap)
        ok = ok and all(w.verify() for w in witnesses)
        targets.append(
            {
                "pole": p,
                "stages": [
                    {
                        "stage": w.stage,
                        "effective_stage": w.effective_stage,
                        "required_r": ser_poly(w.required_value.r),
                        "probe_index": w.effective_stage - 1,
                        "pairing": {
                            str(i): ser_coeff(c)
                            for i, c in sorted(w.pairing.e.coeffs.items())
                        },
                    }
                    for w in witnesses
                ],
            }
        )
    return {
        "kind": task.kind,
        "label": task.pretty(),
        "outcome": "obstruction" if ok else "fail",
        "bounds": {"cap": task.cap, "poles": list(task.poles)},
        "certificate": {"targets": targets},
    }


def replay_idealization(record: dict, task: IdealizationTask,
                        session: Session) -> bool:
    """Re-check the witnesses against the task: one target per declared
    pole, in order; stages exactly 1..cap; and at each stage the
    effective stage max(n, pole), the probe e_(effective - 1) and the
    required value x^(effective - pole) of the target 1/x^pole."""
    ring = IdealizationRing(session.ring.field)
    if record["bounds"] != {"cap": task.cap, "poles": list(task.poles)}:
        return False
    targets = record["certificate"]["targets"]
    if [t["pole"] for t in targets] != list(task.poles):
        return False
    stages = list(range(1, task.cap + 1))
    for pole, target in zip(task.poles, targets):
        if [st["stage"] for st in target["stages"]] != stages:
            return False
        for n, st in zip(stages, target["stages"]):
            n_eff = max(n, pole)
            if (st["effective_stage"] != n_eff
                    or st["probe_index"] != n_eff - 1):
                return False
            required_r = de_poly(ring.R, st["required_r"])
            if required_r != ring.x ** (n_eff - pole):
                return False
            required = ring.s(required_r)
            probe = ring.s(ring.R.zero(), ring.e(n_eff - 1))
            pairing = probe * required
            claimed = {
                int(i): de_coeff(ring.field, c)
                for i, c in st["pairing"].items()
            }
            if pairing.e.coeffs != claimed or not pairing.r.is_zero():
                return False
            if pairing.is_zero():
                return False
            # probe must annihilate the stage generator
            xn = ring.x_power(n_eff)
            if not (xn * probe).is_zero():
                return False
    return record["outcome"] == "obstruction"


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


def run_task(task, session: Session) -> dict:
    return _RUNNERS[task.kind](task, session)


def replay_record(record: dict, task, session: Session) -> bool:
    """A record with a field missing or of the wrong type or value fails
    its replay; the caller goes on to the next record."""
    try:
        if record["kind"] != task.kind:
            return False
        return _REPLAYERS[task.kind](record, task, session)
    except (KeyError, TypeError, ValueError):
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
