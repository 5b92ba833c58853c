"""Exact engine for repeatable quantum measurements on a countable basis.

Operators are finite sums of one term type, an arithmetic progression of
matrix units that runs for one step or forever; ``Dyad`` and ``Family``
build the two lengths.  The class is closed under adjoint, sum, and
composition, with equality decided exactly on a provably sufficient window.  On top of that algebra sit instrument
builders, a repeatability certifier, POVM classification, shift-orbit
decomposition with its repetition counter, and seeded Born-rule
simulation cross-checked by a dense truncation oracle.
"""

from .errors import (BadProbabilityVector, CompletenessViolation,
                     ContractionViolation, CoverageViolation, DegenerateState,
                     InvalidPovm, NotIsometricOnSupport, PartsViolation,
                     PeriodCapExceeded, QRepeatError, SplitInvariantViolation,
                     UnsupportedForm, WindowInvalid)
from .indexsets import PERIOD_CAP, IndexSet, set_period_cap
from .opalgebra import (TOLERANCE, Dyad, Family, StateVector,
                        StructuredOperator, add, adjoint, apply, compose,
                        diagonal_part, equals, is_diagonal, is_monomial,
                        max_deviation, operator_norm, projector, random_state,
                        set_tolerance)
from .instruments import (Instrument, Povm, build_binary_example,
                          build_example_family, build_from_parts,
                          build_nonrepeatable_sibling, build_orthogonal,
                          make_instrument, make_povm, povm)
from .certify import (CertificationReport, OutcomeChecks, PairChecks,
                      PovmClassification, Witness, certify_repeatable,
                      check_orthogonal, check_repeatability_numerical,
                      classify_povm, finite_dim_corollary_suite)
from .wold import (BilateralOrbit, CycleFamily, MemoryReading, ShiftOrbit,
                   SplitParts, WoldDecomposition, memory_map, read_memory,
                   split, wold_decompose)
from .simulate import (ConditionalStats, TrajectoryRecord, TrajectoryStep,
                       TruncationWindow, born_probabilities, dense_oracle,
                       dense_state, empirical_conditionals, fixed_state_sampler,
                       measure_once, random_state_sampler, run_trajectory,
                       window_for)

__version__ = "0.1.0"

__all__ = [
    "BadProbabilityVector", "BilateralOrbit", "CertificationReport",
    "CompletenessViolation", "ConditionalStats", "ContractionViolation",
    "CoverageViolation", "CycleFamily", "DegenerateState", "Dyad", "Family",
    "IndexSet", "Instrument", "InvalidPovm", "MemoryReading",
    "NotIsometricOnSupport", "OutcomeChecks", "PERIOD_CAP", "PairChecks",
    "PartsViolation", "PeriodCapExceeded", "Povm", "PovmClassification",
    "QRepeatError", "ShiftOrbit", "SplitInvariantViolation", "StateVector",
    "StructuredOperator", "TOLERANCE", "TrajectoryRecord", "TrajectoryStep",
    "TruncationWindow", "UnsupportedForm", "WindowInvalid", "Witness",
    "WoldDecomposition", "add", "adjoint", "apply", "born_probabilities",
    "build_binary_example", "build_example_family", "build_from_parts",
    "build_nonrepeatable_sibling", "build_orthogonal", "certify_repeatable",
    "check_orthogonal", "check_repeatability_numerical", "classify_povm",
    "compose", "dense_oracle", "dense_state", "diagonal_part",
    "empirical_conditionals", "equals", "finite_dim_corollary_suite",
    "fixed_state_sampler", "is_diagonal", "is_monomial", "make_instrument",
    "make_povm", "max_deviation", "memory_map", "measure_once",
    "operator_norm", "povm", "projector", "random_state",
    "random_state_sampler", "read_memory", "run_trajectory", "set_period_cap",
    "set_tolerance", "split", "wold_decompose", "window_for",
]
