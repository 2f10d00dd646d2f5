"""Locally diagonal symmetry groups and entanglement invariants of sparse
multi-qubit pure states, computed exactly.

The public names below are imported from their submodules on first use (PEP
562), so a program that needs only part of the package, such as
`lusym compare`, loads only that part.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.7.0"

_EXPORTS = {
    "analysis": ("AnalysisReport", "SymmetryVerification", "analyze", "compare_strata", "verify_symmetry"),
    "circuits": (
        "BalancedCircuit",
        "CircuitCatalog",
        "SlGeneratorReport",
        "enumerate_circuits",
        "single_sl_generator_check",
    ),
    "errors": ("DimensionError", "InputError", "InternalError"),
    "exactlinalg": ("IntMatrix", "SmithDecomposition", "smith_normal_form"),
    "fixtures": ("fixture_names", "fixture_state"),
    "invariants": (
        "Bidegree",
        "FlipRejection",
        "InvariantMonomial",
        "InvariantSum",
        "abs_square_generators",
        "evaluate",
        "flip_monomial",
        "is_sl_type",
        "monomial_from_circuit",
        "symmetrize_over_flips",
    ),
    "normalizer": (
        "FlipGroup",
        "NormalizerDescription",
        "balance_defects",
        "compute_normalizer",
        "support_stabilizer_masks",
    ),
    "states": (
        "PhaseVector",
        "PureState",
        "Support",
        "reduced_density_matrix",
        "weight_vector",
    ),
    "symmetry": (
        "DiagonalSymmetryGroup",
        "QubitActionProfile",
        "group_contains",
        "group_member",
        "qubit_action_profile",
        "solve_symmetry_group",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
