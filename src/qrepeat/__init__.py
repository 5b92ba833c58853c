"""Exact engine for repeatable quantum measurements on a countable basis.

Operators are finite sums of one term type, an arithmetic progression of
matrix units that runs for one step or forever; ``Dyad`` and ``Family``
build the two lengths.  The class is closed under adjoint, sum, and
composition, with equality decided exactly on the terms.  On top of that
algebra sit instrument builders, a repeatability certifier, POVM
classification, shift-orbit decomposition with its repetition counter,
seeded Born-rule simulation, and cross-checks of the exact engine by dense
truncation oracles and sampling.
"""

from .errors import (BadProbabilityVector, CompletenessViolation,
                     ContractionViolation, CoverageViolation, DegenerateState,
                     InvalidPovm, NotIsometricOnSupport, PartsViolation,
                     PeriodCapExceeded, QRepeatError, SplitInvariantViolation,
                     UnsupportedForm, WindowInvalid)
from .config import Settings, settings
from .indexsets import IndexSet
from .opalgebra import (Dyad, Family, StateVector, StructuredOperator, add,
                        adjoint, apply, compose, diagonal_part, equals,
                        is_diagonal, is_monomial, max_deviation, operator_norm,
                        projector, random_state)
from .instruments import (Instrument, Povm, build_binary_example,
                          build_example_family, build_from_parts,
                          build_nonrepeatable_sibling, build_orthogonal,
                          make_instrument, povm)
from .certify import (CertificationReport, OutcomeChecks, PairChecks,
                      PovmClassification, Witness, certify_repeatable,
                      check_orthogonal, classify_povm)
from .wold import (BilateralOrbit, CycleFamily, MemoryReading, ShiftOrbit,
                   SplitParts, WoldDecomposition, memory_map, read_memory,
                   split, wold_decompose)
from .simulate import (ConditionalStats, TrajectoryRecord, TrajectoryStep,
                       born_probabilities, empirical_conditionals,
                       fixed_state_sampler, measure_once, random_state_sampler,
                       run_trajectory)
from .crosscheck import (TruncationWindow, check_repeatability_numerical,
                         dense_oracle, dense_state, finite_dim_corollary_suite,
                         window_for)

__version__ = "0.1.0"

__all__ = [
    "BadProbabilityVector", "BilateralOrbit", "CertificationReport",
    "CompletenessViolation", "ConditionalStats", "ContractionViolation",
    "CoverageViolation", "CycleFamily", "DegenerateState", "Dyad", "Family",
    "IndexSet", "Instrument", "InvalidPovm", "MemoryReading",
    "NotIsometricOnSupport", "OutcomeChecks", "PairChecks",
    "PartsViolation", "PeriodCapExceeded", "Povm", "PovmClassification",
    "QRepeatError", "Settings", "ShiftOrbit", "SplitInvariantViolation", "SplitParts",
    "StateVector", "StructuredOperator", "TrajectoryRecord", "TrajectoryStep",
    "TruncationWindow", "UnsupportedForm", "WindowInvalid", "Witness",
    "WoldDecomposition", "add", "adjoint", "apply", "born_probabilities",
    "build_binary_example", "build_example_family", "build_from_parts",
    "build_nonrepeatable_sibling", "build_orthogonal", "certify_repeatable",
    "check_orthogonal", "check_repeatability_numerical", "classify_povm",
    "compose", "dense_oracle", "dense_state", "diagonal_part",
    "empirical_conditionals", "equals", "finite_dim_corollary_suite",
    "fixed_state_sampler", "is_diagonal", "is_monomial", "make_instrument",
    "max_deviation", "memory_map", "measure_once",
    "operator_norm", "povm", "projector", "random_state",
    "random_state_sampler", "read_memory", "run_trajectory", "settings",
    "split", "wold_decompose", "window_for",
]
