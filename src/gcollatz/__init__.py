"""Generalized Collatz triplet-map workbench.

Public names load lazily (PEP 562): each is imported from its submodule on
first use, so a command pays only for the modules it runs.
"""

import importlib

_SUBMODULE = {
    name: module
    for module, names in {
        "core": (
            "Decomposition", "DomainError", "InternalError", "Triplet", "decompose",
            "iterate", "report_json", "residue", "s_count", "s_indicator", "step",
            "validate_triplet",
        ),
        "family": (
            "AttractorSet", "Cycle", "VerificationError", "attractor_set",
            "exceptional_registry", "identify_pq", "make_pq", "trivial_cycle_general",
            "trivial_cycle_pq",
        ),
        "dynamics": (
            "ScanReport", "Trajectory", "descent_time", "detect_cycle",
            "find_cycles_in_range", "max_stopping_scans", "total_stopping_time",
            "trajectory", "verify_range",
        ),
        "identities": (
            "IdentityReport", "PreconditionError", "check_identity", "thm31_iterate",
            "thm31_sigma", "thm31_step", "thm32_iterate", "thm33_iterate",
            "thm33_iterate_2dm1",
        ),
        "invgraph": (
            "InverseGraph", "build_inverse_graph", "export_dot", "export_json",
            "parse_json", "preimages",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
