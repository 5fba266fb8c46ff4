"""Smooth abelian covers of the plane branched on a complete quadrangle.

The pipeline: enumerate the admissible cover data over (Z/5)^2, classify
it under the full symmetry group, compute character sheaves and surface
invariants for each class, and analyze the canonical map of the unique
regular cover.
"""

from .canonical import (
    BasePointType,
    CanonicalBasis,
    CanonicalReport,
    MonomialIdeal2D,
    basis,
    degree_certificate,
    fixed_part,
    local_ideal,
    resolve_type,
)
from .covers import (
    AdmissibilityCheck,
    SixTuple,
    admissible_array,
    check_admissibility,
    normal_forms,
)
from .gf import Mat, gl2_enumerate
from .picard import (
    BranchCurve,
    Configuration,
    DivClass,
    canonical_class,
    configuration,
    h1_complement,
    incidences,
    intersect,
)
from .sheaves import (
    CharacterSheaf,
    CoeffVector,
    CoverRelation,
    SurfaceInvariants,
    coeffs,
    cover_equations,
    epsilon,
    h0,
    invariants,
    ram_curve_numbers,
    sheaf,
    sheaf_table,
)
from .symmetry import (
    GroupClosure,
    Orbit,
    SymmetryElement,
    gl2_action,
    group_closure,
    orbit_partition,
    s5_generators,
)

__version__ = "0.1.0"
