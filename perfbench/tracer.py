"""Span tracer for one deligne-kit CLI call, applied from outside the package.

    python3 perfbench/tracer.py SPANS_OUT RUN_ID run SESSION [--out R | --replay R]

imports the package, wraps the public functions listed in ``SPANS`` (one
span per call), runs ``deligne_kit.cli.main`` with the remaining arguments
and writes the spans to SPANS_OUT as JSON.  Spans stay in memory until the
call returns.  ``rings`` gets no span: its ``Poly`` methods run millions of
times and a wrapper would distort their share; their cost shows in the self
time of the innermost span around them.

A ``from .x import f`` statement copies the binding of ``f`` into the
importing module, so a function is rebound in every package module that
holds it, and the tracer refuses to run (exit 3) if any module-level name,
or any dict, list or tuple held at module level, still refers to an
unwrapped original.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (span name, module, attribute); a dotted attribute names a method, and a
# class's span wraps its __init__.
SPANS = (
    ("groebner.FreeSubmodule.groebner", "groebner", "FreeSubmodule.groebner"),
    ("groebner.FreeSubmodule.syzygies", "groebner", "FreeSubmodule.syzygies"),
    ("groebner.FreeSubmodule.normal_form", "groebner", "FreeSubmodule.normal_form"),
    ("groebner.FreeSubmodule.normal_form_lift", "groebner",
     "FreeSubmodule.normal_form_lift"),
    ("groebner.kernel_mod", "groebner", "kernel_mod"),
    ("koszul.pro_zero_search", "koszul", "pro_zero_search"),
    ("koszul.koszul_homology", "koszul", "koszul_homology"),
    ("koszul.homology_transition", "koszul", "homology_transition"),
    ("koszul.KoszulStage", "koszul", "KoszulStage.__init__"),
    ("koszul.ProZeroCertificate.verify", "koszul", "ProZeroCertificate.verify"),
    ("modules.saturate", "modules", "saturate"),
    ("modules.hom_module", "modules", "hom_module"),
    ("modules.module_kernel", "modules", "module_kernel"),
    ("modules.ideal_as_module", "modules", "ideal_as_module"),
    ("modules.radical_lift", "modules", "radical_lift"),
    ("deligne.loc_equal", "deligne", "loc_equal"),
    ("deligne.rho_eval", "deligne", "rho_eval"),
    ("deligne.sigma_inverse", "deligne", "sigma_inverse"),
    ("deligne.theta_probe", "deligne", "theta_probe"),
    ("deligne.sheaf_check", "deligne", "sheaf_check"),
    ("deligne.gamma_torsion", "deligne", "gamma_torsion"),
    ("idealization.rho_obstruction", "idealization", "rho_obstruction"),
    ("session.parse_session", "session", "parse_session"),
    ("cli.main", "cli", "main"),
)

# `tasks._RUNNERS` and `_REPLAYERS` hold the runner functions themselves, so
# the per-kind spans are opened in run_task and replay_record, named after
# the kind of their task argument: (span prefix, function, task position).
KEYED_SPANS = (
    ("tasks.run_task", "run_task", 0),
    ("tasks.replay_record", "replay_record", 1),
)

# (counter name, module, attribute): counts calls without a span.
COUNTERS = (
    ("groebner.FreeSubmodule.created", "groebner", "FreeSubmodule.__init__"),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.bindings = {}  # span or counter name -> rebound names

    def _wrap(self, fn, name_of):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name_of(args, kwargs), clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed function; return the names of any leftover
        bindings to an unwrapped original (empty when the patch is whole)."""
        originals = {}
        for name, module, attr in SPANS:
            originals[name] = self._patch(
                name, module, attr,
                lambda fn, n=name: self._wrap(fn, lambda args, kwargs: n))
        for prefix, attr, pos in KEYED_SPANS:
            def name_of(args, kwargs, prefix=prefix, pos=pos):
                task = args[pos] if len(args) > pos else kwargs["task"]
                return f"{prefix}.{task.kind}"
            originals[prefix] = self._patch(
                prefix, "tasks", attr,
                lambda fn, f=name_of: self._wrap(fn, f))
        for name, module, attr in COUNTERS:
            originals[name] = self._patch(
                name, module, attr, lambda fn, n=name: self._count(fn, n))
        return _leftovers(originals)

    def _patch(self, label: str, module: str, attr: str, make):
        """Replace the function `module.attr` by make(original) wherever the
        package binds it, record the rebound names under `label`, and
        return the original."""
        mod = sys.modules["deligne_kit." + module]
        where = []
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            where.append(f"{module}.{attr}")
        else:
            orig = getattr(mod, attr)
            new = make(orig)
            for other in _package_modules():
                for name, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, name, new)
                        where.append(
                            f"{other.__name__.removeprefix('deligne_kit.')}.{name}")
        self.bindings[label] = where
        return orig

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"run_id": self.run_id, "spans": self.spans,
                 "counts": dict(self.counts), "bindings": self.bindings},
                fh,
            )


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if name == "deligne_kit" or name.startswith("deligne_kit.")
    ]


def _leftovers(originals: dict):
    """Module-level names, and items of module-level dicts, lists and tuples,
    that still refer to an original after patching."""
    wanted = {id(fn): name for name, fn in originals.items()}
    found = []
    for mod in _package_modules():
        for name, value in vars(mod).items():
            items = [value]
            if isinstance(value, dict):
                items += list(value.values())
            elif isinstance(value, (list, tuple)):
                items += list(value)
            for item in items:
                if id(item) in wanted:
                    found.append(f"{mod.__name__}.{name} -> {wanted[id(item)]}")
    return found


def summarize(spans):
    """Per span name: calls, total seconds (outermost spans of that name
    only, so recursion is not counted twice) and self seconds (duration
    minus the time covered by direct child spans)."""
    calls, total, own = Counter(), Counter(), Counter()
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
    return calls, total, own


def main(argv) -> int:
    spans_out, run_id, cli_args = argv[0], argv[1], argv[2:]
    import deligne_kit.cli

    tracer = Tracer(run_id)
    leftovers = tracer.install()
    if leftovers:
        print("tracer: unwrapped bindings remain: " + "; ".join(leftovers),
              file=sys.stderr)
        return 3
    try:
        return deligne_kit.cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
