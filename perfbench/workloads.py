"""Seeded session files for the three benchmark workloads.

Each workload is a fixed session template.  The seed changes the inputs
only in ways that leave every task's mathematical answer, and nearly all of
its work, unchanged:

- ``tower`` applies the ring automorphism x_i -> a_i * x_i with seeded units
  a_i of F32003.  Koszul homology and its transition maps are carried along
  isomorphically, so each search ends with the same outcome and the same
  ``witness_m``; every lead monomial, and so every Gröbner step, is the
  same as at any other seed.
- ``transform`` applies x_i -> -x_i for a seeded set of variables, which
  keeps coefficient sizes over Q.  The checks are theorems, so every record
  passes.  The tasks' sample seeds stay fixed: drawn from the seed, they
  change how many samples take the costlier stage 2, and with it the work
  of the roundtrip task by a factor of up to 3.5.
- ``obstruction`` permutes the pole list.  Every pole is certified on its
  own, so the report changes and the work does not.

Each workload carries every task's expected outcome and ``witness_m``, in
declaration order; they hold at every seed, and the benchmark counts a
record that differs as a failed operation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_TOWER_DECLS = """\
ring F32003[x,y,z,w] order grevlex;
module T = coker [[{x}*{y}*{z}, {x}*{w}^2]];
module N = coker [[{x}*{y}, {z}^2]];
module P = coker [[{x}^2, {y}*{z}], [{z}*{w}, 0]];
module M = coker [[{x}*{y} - {z}*{w}, 0, {z}^2], [0, {y}*{z}, {x}^2 - {w}^2]];
sequence d = ({x}^2, {x}*{y}, {y}^2);
sequence s = ({x}, {y}, {z}, {w});
sequence t = ({x}, {y}, {z});
sequence u = ({x}*{y}, {z}*{w});
sequence xx = ({x}, {x});
"""

# (task, outcome, witness_m): degrees 1-3, modules of rank 1 (R, T, N) and
# rank 2 (P, M); the search on M runs to its cap.
_TOWER_TASKS = (
    ("task prozero d degree 1 from 1 cap 4;", "pass", 2),
    ("task prozero s degree 2 from 1 cap 3 module T allow-exhausted;", "pass", 2),
    ("task prozero t degree 3 from 1 cap 3 module N;", "pass", 1),
    ("task prozero t degree 1 from 1 cap 3 module P;", "pass", 2),
    ("task prozero u degree 1 from 1 cap 3 module M allow-exhausted;",
     "exhausted", None),
    ("task prozero xx degree 1 from 1 cap 3;", "pass", 2),
)

# The modules and ideals of the medium session in ROADMAP.md.
_TRANSFORM_DECLS = """\
ring Q[x,y,z,w] order grevlex;
module M = coker [[{x}*{y} - {z}*{w}, 0, {z}^2], [0, {y}*{z}, {x}^2 - {w}^2]];
module T = coker [[{x}*{y}*{z}, {x}*{w}^2]];
ideal J = ({x}, {y}, {z}, {w});
ideal K = ({x}^2, {y}*{z}, {w});
"""

_TRANSFORM_TASKS = (
    ("task deligne-roundtrip K T samples 3 seed 7;", "pass", None),
    ("task sheaf-glue J T samples 3 seed 3;", "pass", None),
    ("task diagram J M samples 2 seed 11;", "pass", None),
)

_OBSTRUCTION_POLES = (1, 2, 3, 4, 5, 6)
_OBSTRUCTION_CAP = 120

VARIABLES = ("x", "y", "z", "w")


@dataclass(frozen=True)
class Workload:
    name: str
    text: str
    # one (kind, outcome, witness_m) per task, in declaration order
    expected: tuple


def _kind(task: str) -> str:
    return task.split()[1]


def _tower(rng: random.Random) -> Workload:
    subs = {v: f"({rng.randrange(1, 32003)}*{v})" for v in VARIABLES}
    text = _TOWER_DECLS.format(**subs)
    text += "".join(task + "\n" for task, _, _ in _TOWER_TASKS)
    expected = tuple((_kind(t), o, m) for t, o, m in _TOWER_TASKS)
    return Workload("tower", text, expected)


def _transform(rng: random.Random) -> Workload:
    subs = {v: f"(-{v})" if rng.random() < 0.5 else v for v in VARIABLES}
    text = _TRANSFORM_DECLS.format(**subs)
    text += "".join(task + "\n" for task, _, _ in _TRANSFORM_TASKS)
    expected = tuple((_kind(t), o, m) for t, o, m in _TRANSFORM_TASKS)
    return Workload("transform", text, expected)


def _obstruction(rng: random.Random) -> Workload:
    poles = list(_OBSTRUCTION_POLES)
    rng.shuffle(poles)
    text = (
        "ring Q[x];\n"
        f"task idealization poles ({', '.join(map(str, poles))}) "
        f"cap {_OBSTRUCTION_CAP};\n"
    )
    return Workload("obstruction", text, (("idealization", "obstruction", None),))


GENERATORS = {
    "tower": _tower,
    "transform": _transform,
    "obstruction": _obstruction,
}


def make(name: str, seed: int) -> Workload:
    """The session of workload `name` at `seed`; the same seed gives the
    same text."""
    return GENERATORS[name](random.Random(f"{name}:{seed}"))
