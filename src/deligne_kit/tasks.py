"""Task runners: each task produces one record whose certificate payload
embeds the exact polynomial identities behind its claims (boundary
preimages, localization-kill lifts, restriction identities); a diagram
sample writes only its two torsion flags, which replay compares.  A runner
writes evidence only: ``run_task`` sets the record's outcome with
``check.decide``, the check ``--replay`` runs, and ``check.replay_record``
accepts a record whose claimed outcome that check gives.  A sampled
theorem holds on every sample: where it does not certify, the runner
raises InternalError naming the sample."""

from __future__ import annotations

import random
from itertools import product

from . import check
from .check import ROUNDTRIP_STAGES, LocEqualCertificate, decide
from .deligne import (
    Glued,
    IdealTransformElement,
    LocalFraction,
    gamma_torsion,
    kill_exponent,
    loc_equal,
    rho_eval,
    sheaf_check,
    sigma_inverse,
    theta_probe,
)
from .errors import InternalError
from .koszul import SearchExhausted, pro_zero_search
from .modules import FpModule, hom_module, ideal_as_module
from .rings import Poly, PolyRing, SequenceSpec
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
# runners


def _record(task, certificate: dict, **found) -> dict:
    """A task's record without its outcome; `found` adds a bound the run
    found (witness_m)."""
    return {
        "kind": task.kind,
        "label": task.pretty(),
        "bounds": dict(task.bounds(), **found),
        "certificate": certificate,
    }


def _certified(cert: LocEqualCertificate | None, sample: int,
               claim: str) -> LocEqualCertificate:
    """The certificate of a localization identity that the sampled theorem
    asserts; its failure is a library bug, named with the sample."""
    if cert is None:
        raise InternalError(f"sample {sample}: {claim} does not hold")
    return cert


def run_prozero(task: ProzeroTask, session: Session) -> dict:
    xs = SequenceSpec(session.sequences[task.sequence])
    M = session.modules[task.module]
    result = pro_zero_search(xs, task.degree, task.from_n, M, task.cap)
    if isinstance(result, SearchExhausted):
        return _record(task, {})
    entries = [
        {
            "cycle": ser_vec(e.cycle),
            "preimage_chain": ser_vec(e.preimage_chain),
            "relation_lift": ser_vec(e.relation_lift),
            "cycle_relation_lift": ser_vec(e.cycle_relation_lift),
        }
        for e in result.entries
    ]
    return _record(task, {"entries": entries}, witness_m=result.witness_m)


def run_roundtrip(task: RoundtripTask, session: Session) -> dict:
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    rng = random.Random(task.seed)
    samples = []
    for s in range(task.samples):
        stage = rng.choice(ROUNDTRIP_STAGES)
        phi = random_hom(xs, stage, M, rng)
        cocycle = rho_eval(phi)
        probe_records = []
        for p, y in enumerate(probe_elements(xs, task.probes, rng)):
            sig = sigma_inverse(cocycle, y)
            the = theta_probe(phi, y)
            cert = _certified(loc_equal(sig, the), s,
                              f"sigma(rho(phi)) = theta(phi) at probe {p}")
            probe_records.append({
                "y": str(y),
                "sigma": {"numerator": ser_vec(sig.numerator.vec),
                          "exponent": sig.exponent},
                "theta": ser_vec(the.numerator.vec),
                "lift": ser_vec(cert.lift),
            })
        samples.append({
            "stage": stage,
            "values": [ser_vec(v.vec) for v in phi.values],
            "probes": probe_records,
        })
    return _record(task, {"samples": samples})


def run_sheaf(task: SheafGlueTask, session: Session) -> dict:
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    ring = session.ring
    rng = random.Random(task.seed)
    gamma = gamma_torsion(M, xs)
    torsion_gens = [M.element(g) for g in gamma.generators]
    samples = []
    for s in range(task.samples):
        m = random_element(M, rng)
        exps = [rng.randint(0, 2) for _ in range(xs.k)]
        sections = []
        for i, x in enumerate(xs.elements):
            # x^e_i * m plus a J-torsion tweak, so the family stays compatible
            tweak = [random_poly(ring, rng, max_deg=1, max_terms=1)
                     if rng.random() < 0.5 else ring.zero()
                     for _ in torsion_gens]
            num = M.combine([x ** exps[i], *tweak], [m, *torsion_gens])
            sections.append(LocalFraction(num, x, exps[i]))
        res = sheaf_check(sections, xs)
        if not isinstance(res, Glued):
            raise InternalError(f"sample {s}: the compatible family does not "
                                f"glue at charts {res.i} and {res.j}")
        back = _certified(
            loc_equal(res.fraction(), LocalFraction(m, res.y, 0)), s,
            "m/y = element/1 in M_y")
        # an unused chart draw, kept so each seed samples what it always has
        rng.randrange(xs.k)
        samples.append({
            "element": ser_vec(m.vec),
            "glued": {
                "exponent": res.e,
                "primed": [ser_vec(p.vec) for p in res.primed],
                "restriction_lifts": [ser_vec(l) for l in res.restriction_lifts],
                "recover_certificate": {"c": back.c,
                                        "lift": ser_vec(back.lift)},
            },
        })
    return _record(task, {"samples": samples})


def run_diagram(task: DiagramTask, session: Session) -> dict:
    """Each sample's J-power torsion decided twice: by the colon chain of
    ``gamma_torsion`` and by the kernels of M -> M_(x_i)."""
    xs = SequenceSpec(session.ideals[task.ideal])
    M = session.modules[task.module]
    rng = random.Random(task.seed)
    gamma = gamma_torsion(M, xs)
    samples = []
    for _ in range(task.samples):
        m = random_element(M, rng)
        samples.append({
            "in_torsion": gamma.contains(m),
            "zero_cocycle": all(kill_exponent(M, x, m) is not None
                                for x in xs.elements),
        })
    return _record(task, {"samples": samples})


def run_idealization(task: IdealizationTask, session: Session) -> dict:
    """The witnesses are closed forms of (pole, cap), which ``check``
    rebuilds and verifies, so the certificate is empty."""
    return _record(task, {})


_RUNNERS = {
    "prozero": run_prozero,
    "deligne-roundtrip": run_roundtrip,
    "sheaf-glue": run_sheaf,
    "diagram": run_diagram,
    "idealization": run_idealization,
}


def run_task(task, session: Session) -> dict:
    """The runner's record with the outcome ``decide`` reads off its
    evidence.  A record that ``decide`` rejects is a bug of its runner:
    InternalError, naming where the check failed.  A task that checks
    nothing raises StructuralError."""
    record = _RUNNERS[task.kind](task, session)
    try:
        record["outcome"] = decide(record, task, session)
    except (KeyError, TypeError, ValueError) as ex:
        raise InternalError(f"the record does not verify: {ex}") from ex
    return record


# the check's function, bound here too: the benchmark tracer times each
# kind's replay by wrapping ``tasks.replay_record``
replay_record = check.replay_record
