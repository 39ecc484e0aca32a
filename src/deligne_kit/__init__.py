"""Exact computational commutative algebra: Gröbner bases with lift
certificates, Koszul homology towers with pro-zero search, ideal
transforms, Čech 0-cocycles with constructive gluing, and the idealization
counterexample backend, plus a batch CLI emitting replayable reports.

Importing the package executes none of its modules.  A name below is
imported from its module on first use (PEP 562), and the modules that only
``run`` needs are registered as lazy modules, executed on the first read
of one of their attributes: ``import deligne_kit.cli`` and ``--replay``
execute only ``cli``, ``check``, ``errors``, ``idealization``, ``rings``
and ``session``."""

import sys
from importlib import import_module
from importlib.util import LazyLoader, find_spec, module_from_spec

_API = {
    "errors": ("DimensionError", "InternalError", "NameResolutionError",
               "ParseError", "StructuralError"),
    "rings": ("GF", "QQ", "Poly", "PolyRing", "SequenceSpec"),
    "groebner": ("FreeSubmodule", "kernel_mod"),
    "modules": ("FpModule", "HomModule", "ModuleElement", "ModuleHom",
                "SaturationResult", "hom_module", "ideal_as_module",
                "ideal_power", "module_kernel", "radical_lift", "saturate"),
    "check": ("ProZeroCertificate",),
    "koszul": ("HomologyModule", "HomologyTransition", "SearchExhausted",
               "homology_transition", "koszul_homology", "pro_zero_search"),
    "deligne": ("CechCocycle", "Glued", "IdealTransformElement",
                "IncompatibleWitness", "LocalFraction", "RhoObstruction",
                "alpha_map", "diagram_check", "gamma_torsion", "loc_equal",
                "rho_eval", "rho_preimage", "sheaf_check", "sigma_inverse",
                "theta_probe"),
    "idealization": ("EElement", "IdealizationRing", "SElement",
                     "h1_transition_witness", "ideal_transform_stage",
                     "rho_obstruction", "s_annihilator", "s_mul"),
    "session": ("Session", "parse_poly", "parse_session"),
}
_HOME = {name: module for module, names in _API.items() for name in names}
__all__ = sorted(_HOME)
__version__ = "0.1.0"

# In sys.modules, so that code wrapping their functions from outside finds
# them; never ``cli``, which ``python -m deligne_kit.cli`` would then
# import a second time.
for _name in ("groebner", "modules", "koszul", "deligne", "tasks"):
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
