"""Ad-nilpotent ideals of Borel subalgebras.

Exact enumeration of the ideals of a simple Lie algebra's Borel subalgebra
by class of nilpotence, together with the staircase-diagram algorithms,
closed-form counts and Chebyshev generating series that reproduce those
distributions independently.
"""
from .rootsys import (
    LieType,
    Root,
    RootSystem,
    build_root_system,
    root_leq,
    total_count_formula,
)
from .ideals import antichain_to_ideal, ideal_minimal_elements
from .nilpotence import (
    TwoRayResult,
    class_distribution,
    classify_ideal,
    ideal_rows,
    joint_histogram,
    nilpotence_from_partition,
    single_ray_class,
    staircase_filling,
    symmetric_completion,
    two_ray_classify,
    upward_ray_bound,
    zigzag_class,
)
from .closedform import (
    alpha_A,
    c4_count,
    catalan_qt,
    corollary_values,
    fibonacci,
    gamma_C,
    gamma_qt,
    path_count_height,
    t_binomial,
)
from .genfun import (
    PowerSeries,
    gf_A_le,
    gf_B_K,
    gf_B_le,
    gf_C_le,
    gf_D_K,
    gf_D_le,
    series_of_ratio,
    u_tilde,
    verify_cf_identity,
)
from .refdata import EXCEPTIONAL_CLASS_COUNTS
from .checks import CheckResult, run_suite

__version__ = "0.1.0"
