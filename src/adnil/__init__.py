"""Ad-nilpotent ideals of Borel subalgebras.

Exact enumeration of the ideals of a simple Lie algebra's Borel subalgebra
by class of nilpotence, together with the staircase-diagram algorithms,
closed-form counts and Chebyshev generating series that reproduce those
distributions independently.

Importing the package loads no submodule: each one is imported on the
first access to it or to a name it exports (PEP 562).
"""
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "rootsys": (
        "LieType",
        "Root",
        "RootSystem",
        "build_root_system",
        "root_leq",
        "total_count_formula",
    ),
    "ideals": ("antichain_to_ideal", "ideal_minimal_elements"),
    "nilpotence": (
        "TwoRayResult",
        "class_distribution",
        "classify_ideal",
        "ideal_rows",
        "joint_histogram",
        "nilpotence_from_partition",
        "single_ray_class",
        "staircase_filling",
        "symmetric_completion",
        "two_ray_classify",
        "upward_ray_bound",
        "zigzag_class",
    ),
    "closedform": (
        "alpha_A",
        "c4_count",
        "catalan_qt",
        "corollary_values",
        "fibonacci",
        "gamma_C",
        "gamma_qt",
        "path_count_height",
        "t_binomial",
    ),
    "genfun": (
        "PowerSeries",
        "gf_A_le",
        "gf_B_K",
        "gf_B_le",
        "gf_C_le",
        "gf_D_K",
        "gf_D_le",
        "series_of_ratio",
        "u_tilde",
        "verify_cf_identity",
    ),
    "refdata": ("EXCEPTIONAL_CLASS_COUNTS",),
    "checks": ("CheckResult", "run_suite"),
    "cli": (),
    "poly": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
