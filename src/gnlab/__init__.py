"""Exact construction and machine verification of a triangular chain of
Lie algebras, their determinant Casimir invariants, and the integrable
Hamiltonian systems those invariants generate."""

from .algebra import (GnAlgebra, GnBasis, Generator, InvariantCount,
                      beltrametti_blasi, build_gn, canonical_order,
                      check_jacobi, check_levi, check_structure,
                      check_subalgebra_chain, compute_centre,
                      ideal_complement, triangular)
from .casimir import (AnsatzSolution, CasimirResult, casimir, casimir_matrix,
                      check_grading, check_uniqueness, solve_ansatz,
                      verify_annihilation, verify_intertwining)
from .coalgebra import (IndependenceResult, PhaseContext, building_block,
                        canonical_bracket, check_independence,
                        check_involution, check_realization_homomorphism,
                        check_route_equivalence, check_vanishing,
                        integral_family, integral_set, window)
from .dynamics import (DriftStats, HamiltonianSystem, Trajectory,
                       compile_evaluator, drift_report, integrate)
from .poly import (BudgetExceeded, MissingVariable, Polynomial,
                   RegistryMismatch, VarId, VarRegistry, det,
                   parse_polynomial, rank_rational, sparse_nullspace)
from .reports import Report
from .representations import (CoadjointField, MatrixRep, build_coadjoint,
                              build_faithful_rep, build_quotient_rep,
                              check_field_homomorphism, check_homomorphism)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
