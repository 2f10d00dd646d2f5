"""Locally diagonal symmetry groups and entanglement invariants of sparse
multi-qubit pure states, computed exactly."""

from __future__ import annotations

__version__ = "0.4.0"

from .analysis import (
    AnalysisReport,
    SymmetryVerification,
    analyze,
    compare_strata,
    verify_symmetry,
)
from .circuits import BalancedCircuit, CircuitCatalog, enumerate_circuits
from .errors import DimensionError, InputError, InternalError
from .exactlinalg import (
    IntMatrix,
    SmithDecomposition,
    rational_rank,
    smith_normal_form,
)
from .fixtures import fixture_names, fixture_state
from .invariants import (
    Bidegree,
    FlipRejection,
    InvariantMonomial,
    InvariantSum,
    SlGeneratorReport,
    abs_square_generators,
    bidegree_scaling_check,
    evaluate,
    evaluate_exact,
    flip_monomial,
    is_sl_type,
    monomial_from_circuit,
    single_sl_generator_check,
    symmetrize_over_flips,
)
from .normalizer import (
    DefectPolynomial,
    FlipGroup,
    NormalizerDescription,
    balance_defect_polynomials,
    compute_normalizer,
    support_stabilizer_masks,
)
from .states import (
    PhaseVector,
    PureState,
    Support,
    apply_phase_element,
    reduced_density_matrix,
    weight_vector,
)
from .symmetry import (
    DiagonalSymmetryGroup,
    QubitActionProfile,
    group_contains,
    group_member,
    groups_equal,
    qubit_action_profile,
    solve_symmetry_group,
)

__all__ = [
    "AnalysisReport",
    "BalancedCircuit",
    "Bidegree",
    "CircuitCatalog",
    "DefectPolynomial",
    "DiagonalSymmetryGroup",
    "DimensionError",
    "FlipGroup",
    "FlipRejection",
    "InputError",
    "IntMatrix",
    "InternalError",
    "InvariantMonomial",
    "InvariantSum",
    "NormalizerDescription",
    "PhaseVector",
    "PureState",
    "QubitActionProfile",
    "SlGeneratorReport",
    "SmithDecomposition",
    "Support",
    "SymmetryVerification",
    "abs_square_generators",
    "analyze",
    "apply_phase_element",
    "balance_defect_polynomials",
    "bidegree_scaling_check",
    "compare_strata",
    "compute_normalizer",
    "enumerate_circuits",
    "evaluate",
    "evaluate_exact",
    "fixture_names",
    "fixture_state",
    "flip_monomial",
    "group_contains",
    "group_member",
    "groups_equal",
    "is_sl_type",
    "monomial_from_circuit",
    "qubit_action_profile",
    "rational_rank",
    "reduced_density_matrix",
    "single_sl_generator_check",
    "smith_normal_form",
    "solve_symmetry_group",
    "support_stabilizer_masks",
    "symmetrize_over_flips",
    "verify_symmetry",
    "weight_vector",
]
