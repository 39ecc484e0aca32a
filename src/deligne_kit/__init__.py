"""Exact computational commutative algebra: Gröbner bases with lift
certificates, Koszul homology towers with pro-zero search, ideal
transforms, Čech 0-cocycles with constructive gluing, and the idealization
counterexample backend, plus a batch CLI emitting replayable reports."""

from .errors import (
    DimensionError,
    InternalError,
    NameResolutionError,
    ParseError,
    StructuralError,
)
from .rings import GF, QQ, Poly, PolyRing, SequenceSpec
from .groebner import FreeSubmodule, kernel_mod
from .modules import (
    FpModule,
    HomModule,
    ModuleElement,
    ModuleHom,
    SaturationResult,
    hom_module,
    ideal_as_module,
    ideal_power,
    module_kernel,
    radical_lift,
    saturate,
)
from .check import ProZeroCertificate
from .koszul import (
    HomologyModule,
    HomologyTransition,
    SearchExhausted,
    homology_transition,
    koszul_homology,
    pro_zero_search,
)
from .deligne import (
    CechCocycle,
    Glued,
    IdealTransformElement,
    IncompatibleWitness,
    LocalFraction,
    RhoObstruction,
    alpha_map,
    diagram_check,
    gamma_torsion,
    loc_equal,
    rho_eval,
    rho_preimage,
    sheaf_check,
    sigma_inverse,
    theta_probe,
)
from .idealization import (
    EElement,
    IdealizationRing,
    SElement,
    h1_transition_witness,
    ideal_transform_stage,
    rho_obstruction,
    s_annihilator,
    s_mul,
)
from .session import Session, parse_poly, parse_session

__version__ = "0.1.0"
